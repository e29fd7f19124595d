"""Engine invariants, checked after every turn of generated episodes.

`check_invariants` restates the bookkeeping rules the engine keeps by
construction, and is applied after each turn of random-agent and
rule-agent games over many maps and episode seeds.

The engine rebooks worked tiles only after a founding or a head-count
change. `reference_city_phase` rebooks every city every turn, and a game
stepped with it must stay equal to the engine's, turn by turn.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import agent_of, journaled_output, play_journaled, reference_legal_sites
from settlebench import engine
from settlebench.engine import (
    CENTER_BONUS,
    FOOD_PER_CITIZEN,
    GROWTH_THRESHOLD_BASE,
    SETTLER_POPULATION_COST,
    SETTLER_PRODUCTION_COST,
    CityTurnRecord,
    GameConfig,
    OutputPoints,
    TurnRecord,
    add_settler,
    assign_citizens,
    city_distance,
    convert_trade,
    new_game,
    place_initial_settlers,
    step_turn,
)
from settlebench.world import CLUSTER_OFFSETS, MapGenConfig, generate_map

CONFIG = GameConfig(turn_limit=60)


def check_invariants(state, journal) -> None:
    """The bookkeeping rules, after the turns of `journal` were played."""
    cfg = state.config
    cities = list(state.all_cities())
    booked = [None] * len(state.worked_by)
    for city in cities:
        cluster = {(city.x + dx, city.y + dy) for dx, dy in CLUSTER_OFFSETS}
        assert city.worked <= cluster, f"city {city.id} works outside its cluster"
        assert city.citizens == len(city.worked), f"city {city.id} head count differs from its worked set"
        assert state.owner[state.index(city.coord)] == city.player, f"city {city.id} center owned by another"
        for coord in city.worked:
            i = state.index(coord)
            assert booked[i] is None, f"{coord} worked by cities {booked[i]} and {city.id}"
            booked[i] = city.id
    # every booking belongs to a worked set, and every worked tile is booked
    assert state.worked_by == booked
    for a, b in itertools.combinations(cities, 2):
        assert city_distance(a.coord, b.coord) >= cfg.min_city_distance, f"cities {a.id} and {b.id} too close"
    for player in state.players:
        assert len(player.cities) + len(player.settlers) <= cfg.max_cities
        # the running tallies equal a recount
        owned = [t for t, owner in zip(state.map.tiles, state.owner) if owner == player.player_id]
        assert player.owned_tiles == len(owned)
        assert player.owned_weight == sum(state.weights[t.coord] for t in owned)
        assert player.specials_owned == sum(t.special is not None for t in owned)
        assert player.output == journaled_output(journal, player.player_id)
        # the mask `found_city` keeps equals README's rule, site by site
        assert engine.legal_founding_sites(state, player.player_id) == reference_legal_sites(state, player.player_id)
    # a city's turn record is the turn before's object exactly when its
    # head count, worked tiles and points are unchanged
    if len(journal) > 1:
        before = {cr.city_id: cr for cr in journal[-2].cities}
        for cr in journal[-1].cities:
            if cr.city_id in before:
                prev = before[cr.city_id]
                unchanged = (cr.citizens, cr.worked, cr.points) == (prev.citizens, prev.worked, prev.points)
                assert (cr is prev) == unchanged, f"city {cr.city_id}"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 2**32 - 1), st.sampled_from(["random", "kb"]))
def test_invariants_hold_after_every_turn(map_seed, seed, kind):
    game_map = generate_map(MapGenConfig(), map_seed)
    for state, journal in play_journaled(agent_of(kind, seed), CONFIG, game_map):
        check_invariants(state, journal)
    assert len(journal) == CONFIG.turn_limit


# -- the same game with every city rebooked every turn -------------------------


def reference_city_phase(state) -> None:
    """The city phase with all worked sets released and rebooked, in id
    order, every turn, and each city's output summed from its worked set
    and journaled into `state.events`."""
    cities = sorted(state.all_cities(), key=lambda c: c.id)
    for city in cities:
        release(state, city)
    for city in cities:
        book(state, city)
    for city in cities:
        total = sum((state.yields[coord] for coord in city.worked), CENTER_BONUS)
        gold, luxury, science = convert_trade(total.trade)
        points = OutputPoints(gold, luxury, science, total.food, total.production, total.trade)
        worked = sorted(city.worked, key=lambda c: (c[1], c[0]))
        state.events.cities.append(CityTurnRecord(city.id, city.player, city.x, city.y, city.citizens, worked, points))
        city.food_store = max(0, city.food_store + total.food - FOOD_PER_CITIZEN * city.citizens)
        before = city.citizens
        threshold = GROWTH_THRESHOLD_BASE * city.citizens
        free = sum(
            1
            for i, _ in city.candidates
            if state.worked_by[i] in (None, city.id) and state.owner[i] in (None, city.player)
        )
        if city.food_store >= threshold and free >= city.citizens:
            city.citizens += 1
            city.food_store -= threshold
        player = state.player(city.player)
        if city.citizens >= 3 and len(player.cities) + len(player.settlers) < state.config.max_cities:
            city.production_store += total.production
            if city.production_store >= SETTLER_PRODUCTION_COST:
                city.production_store -= SETTLER_PRODUCTION_COST
                city.citizens -= SETTLER_POPULATION_COST
                add_settler(state, city.player, city.coord)
        if city.citizens != before:
            release(state, city)
            book(state, city)


def release(state, city) -> None:
    for coord in city.worked:
        i = state.index(coord)
        if coord != city.coord and state.worked_by[i] == city.id:
            state.worked_by[i] = None


def book(state, city) -> None:
    city.worked = assign_citizens(state, city)
    for coord in city.worked:
        state.worked_by[state.index(coord)] = city.id
    city.citizens = min(city.citizens, len(city.worked))


def reference_turn(state, agent) -> TurnRecord:
    state.events = record = TurnRecord(turn=state.turn)
    agent.act(state)
    engine._settler_phase(state)
    reference_city_phase(state)
    state.events = None
    if state.turn >= state.config.turn_limit:
        state.finished = True
    else:
        state.turn += 1
    return record


def city_view(state):
    return [
        (c.id, c.coord, c.worked, c.citizens, c.food_store, c.production_store)
        for c in sorted(state.all_cities(), key=lambda c: c.id)
    ]


def tile_tallies(state):
    return [(p.owned_tiles, p.owned_weight, p.specials_owned) for p in state.players]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "kb"]),
    # more settlers at the start: more cities founded where a neighbour works
    st.sampled_from([1, 4]),
)
def test_rebooking_on_change_equals_rebooking_every_turn(map_seed, seed, kind, settlers):
    game_map = generate_map(MapGenConfig(), map_seed)
    config = GameConfig(turn_limit=CONFIG.turn_limit, initial_settlers=settlers)
    games = []
    for _ in range(2):
        state = new_game(game_map, config)
        place_initial_settlers(state)
        games.append((state, agent_of(kind, seed)))
    (state, agent), (reference, reference_agent) = games
    journal = []
    while not state.finished:
        journal.append(step_turn(state, agent))
        reference_record = reference_turn(reference, reference_agent)
        assert city_view(state) == city_view(reference), f"turn {reference.turn}"
        # the same worked tiles, head counts and points in both journals
        assert journal[-1].cities == reference_record.cities
        assert state.worked_by == reference.worked_by
        assert tile_tallies(state) == tile_tallies(reference)
        assert [p.output for p in state.players] == [journaled_output(journal, p.player_id) for p in state.players]
        assert state.owner == reference.owner
    assert reference.finished
