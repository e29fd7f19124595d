"""Engine invariants, checked after every turn of generated episodes.

`check_invariants` restates the bookkeeping rules the engine keeps by
construction; `run_episode(on_turn=...)` applies it after each turn of
random-agent and rule-agent games over many maps and episode seeds.

The engine rebooks worked tiles only after a founding or a head-count
change. `reference_city_phase` rebooks every city every turn, and a game
stepped with it must stay equal to the engine's, turn by turn.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import single_state_model
from settlebench import engine, rl
from settlebench.engine import (
    GameConfig,
    OutputPoints,
    add_settler,
    assign_citizens,
    city_distance,
    convert_trade,
    new_game,
    place_initial_settlers,
    run_episode,
    step_turn,
)
from settlebench.harness import RandomEvaluator, RuleEvaluator, SettlementAgent
from settlebench.rulekb import default_kb
from settlebench.world import CLUSTER_OFFSETS, MapGenConfig, generate_map

CONFIG = GameConfig(turn_limit=60)


def check_invariants(state) -> None:
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


def agent_of(kind: str, seed: int) -> SettlementAgent:
    if kind == "random":
        return SettlementAgent(RandomEvaluator(seed))
    policy = rl.Policy(epsilon=0.3, seed=seed)
    return SettlementAgent(RuleEvaluator(default_kb(), single_state_model(), rl.ValueTable(), policy))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 2**32 - 1), st.sampled_from(["random", "kb"]))
def test_invariants_hold_after_every_turn(map_seed, seed, kind):
    game_map = generate_map(MapGenConfig(), map_seed)
    turns = []

    def check(state):
        check_invariants(state)
        turns.append(state.turn)

    log = run_episode(agent_of(kind, seed), CONFIG, seed, game_map=game_map, on_turn=check)
    assert len(turns) == len(log.turns) == CONFIG.turn_limit


# -- the same game with every city rebooked every turn -------------------------


def reference_city_phase(state) -> None:
    """The city phase with all worked sets released and rebooked, in id
    order, every turn, and each city's output summed from its worked set."""
    cfg = state.config
    cities = sorted(state.all_cities(), key=lambda c: c.id)
    for city in cities:
        release(state, city)
    for city in cities:
        book(state, city)
    for city in cities:
        total = sum((state.yields[coord] for coord in city.worked), cfg.ruleset.center_bonus)
        gold, luxury, science = convert_trade(total.trade, cfg.trade_split)
        city.per_turn_history.append(
            OutputPoints(gold, luxury, science, total.food, total.production, total.trade)
        )
        city.food_store = max(0, city.food_store + total.food - cfg.food_per_citizen * city.citizens)
        before = city.citizens
        threshold = cfg.growth_threshold_base * city.citizens
        free = sum(
            1
            for i, _ in city.candidates
            if state.worked_by[i] in (None, city.id) and state.owner[i] in (None, city.player)
        )
        if city.food_store >= threshold and city.citizens < cfg.max_city_size and free >= city.citizens:
            city.citizens += 1
            city.food_store -= threshold
        player = state.player(city.player)
        if city.citizens >= 3 and len(player.cities) + len(player.settlers) < cfg.max_cities:
            city.production_store += total.production
            if city.production_store >= cfg.settler_production_cost:
                city.production_store -= cfg.settler_production_cost
                city.citizens -= cfg.settler_population_cost
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


def reference_turn(state, agent) -> None:
    agent.act(state)
    engine._settler_phase(state)
    reference_city_phase(state)
    if state.turn >= state.config.turn_limit:
        state.finished = True
    else:
        state.turn += 1


def city_view(state):
    return [
        (c.id, c.coord, c.worked, c.citizens, c.food_store, c.production_store, c.per_turn_history)
        for c in sorted(state.all_cities(), key=lambda c: c.id)
    ]


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
    while not state.finished:
        step_turn(state, agent)
        reference_turn(reference, reference_agent)
        assert city_view(state) == city_view(reference), f"turn {reference.turn}"
        assert state.worked_by == reference.worked_by
        assert state.owner == reference.owner
    assert reference.finished
