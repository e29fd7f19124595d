import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import flat_map, journaled_output, play_journaled
from settlebench import engine, world
from settlebench.engine import (
    GameConfig,
    OutputPoints,
    SimulationError,
    add_settler,
    assign_citizens,
    convert_trade,
    found_city,
    is_legal_founding_site,
    legal_founding_sites,
    new_game,
    place_initial_settlers,
    read_episode_log,
    replay_episode,
    run_episode,
    set_settler_target,
    step_turn,
    tile_yield,
    write_episode_log,
)
from settlebench.world import (
    SPECIAL_TERRAINS,
    MapGenConfig,
    SpecialKind,
    TerrainKind,
    Tile,
    cluster_table,
    encode_map,
    generate_map,
)


class WeightAgent:
    """Targets the highest static tile weight; deterministic, evaluator-free."""

    def act(self, state):
        for p in state.players:
            for s in p.settlers:
                if s.target is not None and is_legal_founding_site(state, p.player_id, s.target):
                    continue
                sites = legal_founding_sites(state, p.player_id)
                if sites:
                    best = max(sites, key=lambda c: (state.weights[c], -c[1], -c[0]))
                    set_settler_target(state, s, best)
                else:
                    s.target = None


def grass_state(turn_limit=40, **kwargs) -> "GameState":
    config = GameConfig(turn_limit=turn_limit, **kwargs)
    return new_game(flat_map(12, 12), config)


# -- yields -------------------------------------------------------------------


def test_tile_yield_grassland_matches_default_table():
    t = Tile(x=0, y=0, terrain=TerrainKind.GRASSLAND)
    assert tile_yield(t) == dataclasses.replace(tile_yield(t), food=2, production=0, trade=0)


def test_whales_boost_two_components():
    ocean = Tile(x=0, y=0, terrain=TerrainKind.OCEAN)
    whales = Tile(x=0, y=0, terrain=TerrainKind.OCEAN, special=SpecialKind.WHALES)
    a, b = tile_yield(ocean), tile_yield(whales)
    improved = sum(1 for u, v in ((a.food, b.food), (a.production, b.production), (a.trade, b.trade)) if v > u)
    assert improved >= 2


@given(st.sampled_from(list(SpecialKind)))
def test_special_bonus_never_decreases_yield(special):
    terrain = SPECIAL_TERRAINS[special][0]
    bare = tile_yield(Tile(x=0, y=0, terrain=terrain))
    special_tile = tile_yield(Tile(x=0, y=0, terrain=terrain, special=special))
    assert special_tile.food >= bare.food
    assert special_tile.production >= bare.production
    assert special_tile.trade >= bare.trade


def test_river_adds_trade():
    bare = tile_yield(Tile(x=0, y=0, terrain=TerrainKind.PLAINS))
    river = tile_yield(Tile(x=0, y=0, terrain=TerrainKind.PLAINS, river=True))
    assert river.trade == bare.trade + engine.RIVER_TRADE_BONUS


def test_yields_are_built_once_per_map():
    game_map = flat_map(12, 12)
    game_map.tile(6, 5).special = SpecialKind.WHEAT
    first = new_game(game_map, GameConfig())
    # a replay decodes its config from the log: the tables are still shared
    second = new_game(game_map, GameConfig(**dataclasses.asdict(GameConfig(turn_limit=7))))
    assert second.yields is first.yields and second.weights is first.weights
    # grassland (2, 0, 0) plus the wheat bonus (2, 0, 0)
    assert first.yields[(6, 5)] == tile_yield(game_map.tile(6, 5)) == engine.YieldTriple(food=4)
    assert first.weights[(6, 5)] == 4
    assert new_game(flat_map(12, 12), GameConfig()).yields is not first.yields


def test_game_config_holds_only_the_settings_callers_vary():
    assert [f.name for f in dataclasses.fields(GameConfig)] == [
        "turn_limit",
        "min_city_distance",
        "max_cities",
        "initial_settlers",
    ]
    config = GameConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.turn_limit = 5
    # a name the config never had is refused too, not set as a dead attribute
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.growth_threshold_base = 10**6


# -- trade conversion ----------------------------------------------------------


def test_convert_trade_examples():
    assert convert_trade(0) == (0, 0, 0)
    assert convert_trade(10) == (5, 0, 5)
    # floors with the remainder going to science
    assert convert_trade(7) == (3, 0, 4)


@given(st.integers(0, 10_000))
def test_convert_trade_partitions(trade):
    gold, luxury, science = convert_trade(trade)
    assert gold + luxury + science == trade
    assert gold >= 0 and luxury >= 0 and science >= 0


# -- founding -------------------------------------------------------------------


def test_found_city_on_grassland():
    state = grass_state()
    add_settler(state, 0, (5, 5))
    city = found_city(state, 0, (5, 5))
    assert city.citizens == 1
    assert city.worked == {(5, 5)}
    assert not state.players[0].settlers
    assert state.owner[state.index((5, 5))] == 0
    assert state.owner[state.index((7, 5))] == 0  # cluster claimed
    assert [(c.coord, c.player) for c in state.all_cities()] == [((5, 5), 0)]


def test_found_city_rejects_water():
    game_map = flat_map(12, 12)
    game_map.tile(5, 5).terrain = TerrainKind.OCEAN  # before new_game, which scans the map
    state = new_game(game_map, GameConfig(turn_limit=40))
    add_settler(state, 0, (5, 5))
    with pytest.raises(ValueError):
        found_city(state, 0, (5, 5))


def test_found_city_distance():
    state = grass_state()
    add_settler(state, 0, (5, 5))
    found_city(state, 0, (5, 5))
    add_settler(state, 0, (6, 5))
    with pytest.raises(ValueError):
        found_city(state, 0, (6, 5))  # distance 1 < min_city_distance 2
    add_settler(state, 0, (7, 5))
    found_city(state, 0, (7, 5))  # distance 2 is allowed


def test_a_claimed_tile_is_legal_only_for_its_owner():
    state = new_game(flat_map(12, 12), GameConfig(turn_limit=10), num_players=2)
    add_settler(state, 1, (5, 5))
    found_city(state, 1, (5, 5))
    # claimed by player 1, and two tiles from the center: outside the spacing box
    assert state.owner[state.index((7, 5))] == 1
    assert not is_legal_founding_site(state, 0, (7, 5))
    assert is_legal_founding_site(state, 1, (7, 5))
    assert (7, 5) not in legal_founding_sites(state, 0)
    assert (7, 5) in legal_founding_sites(state, 1)
    add_settler(state, 0, (7, 5))
    with pytest.raises(ValueError, match="not a legal founding site for player 0"):
        found_city(state, 0, (7, 5))
    add_settler(state, 1, (7, 5))
    assert found_city(state, 1, (7, 5)).player == 1


def test_min_city_distance_must_be_positive():
    # at 0 a second city could be founded on an existing center, and both
    # cities would then work that tile and count its yield twice
    for bad in (0, -1):
        with pytest.raises(ValueError, match="min_city_distance"):
            GameConfig(min_city_distance=bad)
    state = grass_state(min_city_distance=1)
    add_settler(state, 0, (5, 5))
    found_city(state, 0, (5, 5))
    add_settler(state, 0, (5, 5))
    with pytest.raises(ValueError):
        found_city(state, 0, (5, 5))
    add_settler(state, 0, (6, 5))
    found_city(state, 0, (6, 5))  # distance 1 is allowed at min_city_distance 1


def test_max_cities_must_be_positive():
    # the starting settlers found whatever the cap, so a cap below 1 would
    # be persisted in config.json yet never honoured
    for bad in (0, -2):
        with pytest.raises(ValueError, match=f"max_cities must be >= 1, got {bad}"):
            GameConfig(max_cities=bad)
    assert GameConfig(max_cities=1).max_cities == 1


def test_found_city_needs_settler():
    state = grass_state()
    with pytest.raises(ValueError):
        found_city(state, 0, (5, 5))


# -- citizen assignment ----------------------------------------------------------


def test_assign_single_citizen_works_center():
    state = grass_state()
    add_settler(state, 0, (5, 5))
    city = found_city(state, 0, (5, 5))
    assert assign_citizens(state, city) == {(5, 5)}


def test_assign_prefers_dominating_tile():
    game_map = flat_map(12, 12)
    game_map.tile(6, 5).special = SpecialKind.BULL  # strictly better than bare grass
    state = new_game(game_map, GameConfig(turn_limit=40))
    add_settler(state, 0, (5, 5))
    city = found_city(state, 0, (5, 5))
    city.citizens = 2
    assert assign_citizens(state, city) == {(5, 5), (6, 5)}


def test_assign_tie_breaks_by_y_then_x():
    state = grass_state()
    add_settler(state, 0, (5, 5))
    city = found_city(state, 0, (5, 5))
    city.citizens = 2
    # uniform weights: the (y, x)-smallest surrounding tile wins
    assert assign_citizens(state, city) == {(5, 5), (4, 3)}


def test_assign_full_city_works_all_21():
    state = grass_state()
    add_settler(state, 0, (5, 5))
    city = found_city(state, 0, (5, 5))
    city.citizens = 21
    assert len(assign_citizens(state, city)) == 21


def found_cities(state, player_id, centers):
    """Found `player_id`'s cities at `centers`, in order; each claims its free cluster tiles."""
    for center in centers:
        add_settler(state, player_id, center)
        found_city(state, player_id, center)


def test_assign_skips_other_players_claims():
    state = new_game(flat_map(12, 12), GameConfig(turn_limit=10), num_players=2)
    # player 1's cluster around (8, 5) reaches x=6 and 7 at rows 4-6, outside (5, 5)'s corners
    found_cities(state, 1, [(8, 5)])
    found_cities(state, 0, [(5, 5)])
    city = state.players[0].cities[0]
    assert state.owner[state.index((6, 5))] == 1 and state.worked_by[state.index((6, 5))] is None
    city.citizens = 21
    worked = assign_citizens(state, city)
    assert (6, 5) not in worked
    assert worked == {city.coord} | {coord for i, coord in city.candidates if state.owner[i] == 0}
    assert len(worked) == 21 - 6


# player 1 centers two tiles diagonally off (5, 5): their clusters leave out
# their corners, so (5, 5) stays free while every tile beside it is claimed
DIAGONALS = [(3, 3), (7, 3), (3, 7), (7, 7)]


def test_growth_needs_a_free_tile():
    for claims, free in ((DIAGONALS, 0), (DIAGONALS[:3], 3)):
        state = new_game(flat_map(12, 12), GameConfig(turn_limit=10), num_players=2)
        found_cities(state, 1, claims)
        found_cities(state, 0, [(5, 5)])
        city = state.players[0].cities[0]
        assert sum(state.owner[i] == 0 for i, _ in city.candidates) == free
        city.food_store = 1000
        step_turn(state)
        if free:
            assert city.citizens == 2
        else:
            assert city.citizens == 1
            assert city.food_store == 1000 + 4 - 2  # grass center 2 + center bonus 2, one citizen eats 2


def test_evicted_neighbour_loses_the_points_of_the_new_center():
    # the neighbour works the new city's center and has no other tile to move
    # to, since it already works all it owns, so rebooking leaves its worked
    # set as the founding edited it
    state = new_game(flat_map(12, 12), GameConfig(turn_limit=10), num_players=2)
    found_cities(state, 1, [(3, 3), (3, 7), (8, 2), (8, 8)])
    found_cities(state, 0, [(5, 5)])
    old = state.players[0].cities[0]
    owned = {coord for i, coord in old.candidates if state.owner[i] == 0}
    assert owned == {(6, 4), (6, 5), (6, 6), (7, 5)}
    old.citizens = 5
    record = step_turn(state)
    assert old.worked == {(5, 5), *owned}
    assert [cr.points for cr in record.cities if cr.city_id == old.id] == [OutputPoints(food=12, production=1)]
    found_cities(state, 0, [(7, 5)])
    record = step_turn(state)
    assert old.worked == {(5, 5), (6, 4), (6, 5), (6, 6)} and old.citizens == 4
    # four grass tiles of 2 food + center bonus (2, 1, 0): the lost tile's 2 food are gone
    assert [cr.points for cr in record.cities if cr.city_id == old.id] == [OutputPoints(food=10, production=1)]


# -- turn stepping -----------------------------------------------------------------


def test_step_turn_without_cities_only_advances():
    state = grass_state()
    record = step_turn(state)
    assert record.cities == [] and record.foundings == []
    assert state.turn == 2


def test_step_turn_all_grassland_city_output():
    state = grass_state()
    add_settler(state, 0, (5, 5))
    found_city(state, 0, (5, 5))
    record = step_turn(state)
    # derived from the fixed rules: grass (2,0,0) + center bonus (2,1,0)
    assert [cr.points for cr in record.cities] == [
        OutputPoints(gold=0, luxury=0, science=0, food=4, production=1, trade=0)
    ]
    assert state.players[0].output == 4 + 2 * 1


def test_growth_crosses_threshold():
    state = grass_state()
    add_settler(state, 0, (5, 5))
    city = found_city(state, 0, (5, 5))
    # +2 surplus per turn; threshold at 6*1
    step_turn(state)
    step_turn(state)
    assert city.citizens == 1 and city.food_store == 4
    step_turn(state)
    assert city.citizens == 2
    assert city.food_store == 0  # 6 - threshold(1) == 0


def test_settler_production_costs_one_citizen(monkeypatch):
    state = grass_state(turn_limit=120)
    add_settler(state, 0, (5, 5))
    city = found_city(state, 0, (5, 5))
    while city.citizens < 3 and state.turn < 120:
        step_turn(state)
    assert city.citizens == 3
    monkeypatch.setattr(engine, "GROWTH_THRESHOLD_BASE", 10**6)  # freeze growth; isolate the settler cost
    while not state.players[0].settlers and not state.finished:
        step_turn(state)
    assert state.players[0].settlers
    assert city.citizens == 2


def test_step_past_turn_limit_raises():
    state = grass_state(turn_limit=2)
    step_turn(state)
    step_turn(state)
    assert state.finished and state.turn == 2
    with pytest.raises(SimulationError):
        step_turn(state)


# -- output accounting ----------------------------------------------------------


def test_city_output_zero_history():
    state = grass_state()
    add_settler(state, 0, (5, 5))
    found_city(state, 0, (5, 5))
    assert state.players[0].output == 0  # founded, but no turn played yet


def test_city_output_weighted_sum():
    points = OutputPoints(gold=1, luxury=0, science=1, food=2, production=3, trade=2)
    # 1 + 0 + 1 + 2 + 2*3 + 2
    assert points.weighted_total() == 12


def test_city_output_before_founding_is_zero():
    state = grass_state()
    add_settler(state, 0, (5, 5))
    for _ in range(3):
        step_turn(state)
    assert state.players[0].output == 0
    found_city(state, 0, (5, 5))
    step_turn(state)
    # grass center (2, 0, 0) + center bonus (2, 1, 0): 4 food + 2 * 1 production
    assert state.players[0].output == 6


def test_total_game_output_additivity():
    state = grass_state()
    for coord in ((3, 3), (8, 8)):
        add_settler(state, 0, coord)
        found_city(state, 0, coord)
    record = step_turn(state)
    assert [cr.points.weighted_total() for cr in record.cities] == [6, 6]
    assert state.players[0].output == 12


def test_tgo_monotone_in_turn():
    outputs = []
    for state, journal in play_journaled(WeightAgent(), GameConfig(turn_limit=30), flat_map(12, 12)):
        outputs.append(state.players[0].output)
        assert outputs[-1] == journaled_output(journal, 0)
    assert len(outputs) == 30 and outputs[-1] > 0
    assert all(b >= a for a, b in zip(outputs, outputs[1:]))


# -- episodes -----------------------------------------------------------------


def test_run_episode_deterministic():
    config = GameConfig(turn_limit=30)
    a = run_episode(WeightAgent(), config, 42)
    b = run_episode(WeightAgent(), config, 42)
    assert a == b


def test_run_episode_seed42_fixture():
    log = run_episode(WeightAgent(), GameConfig(turn_limit=60), 42)
    assert log.final_tgo == 2455  # pinned regression value
    assert [f.turn for f in log.foundings()] == [2, 24, 35, 51]


def test_run_episode_turn_limit_one():
    config = GameConfig(turn_limit=1)
    log = run_episode(WeightAgent(), config, 42)
    assert len(log.turns) == 1
    founded_turn_one = [f for f in log.foundings() if f.turn == 1]
    expected = sum(
        sum(p.weighted_total() for p in log.city_points(f.city_id)) for f in founded_turn_one
    )
    assert log.final_tgo == expected


def test_tgo_matches_log_recomputation():
    log = run_episode(WeightAgent(), GameConfig(turn_limit=40), 7)
    recomputed = sum(
        cr.points.weighted_total() for tr in log.turns for cr in tr.cities if cr.player == 0
    )
    assert log.final_tgo == recomputed


def test_trade_conservation_every_turn():
    log = run_episode(WeightAgent(), GameConfig(turn_limit=40), 9)
    for tr in log.turns:
        for cr in tr.cities:
            assert cr.points.gold + cr.points.luxury + cr.points.science == cr.points.trade


def test_worked_set_legality():
    game_map = generate_map(MapGenConfig(), seed=5)
    state = new_game(game_map, GameConfig(turn_limit=50, max_cities=6))
    place_initial_settlers(state)
    agent = WeightAgent()
    while not state.finished:
        step_turn(state, agent)
        seen = {}
        for city in state.all_cities():
            assert len(city.worked) == city.citizens
            cluster = {
                (city.x + dx, city.y + dy)
                for dx in range(-2, 3)
                for dy in range(-2, 3)
                if not (abs(dx) == 2 and abs(dy) == 2)
            }
            for coord in city.worked:
                assert coord in cluster
                assert coord not in seen, "tile worked by two cities"
                seen[coord] = city.id


def test_episodes_share_one_map_and_its_table():
    game_map = generate_map(MapGenConfig(), seed=11)
    pristine = encode_map(game_map)
    config = GameConfig(turn_limit=40)
    first = run_episode(WeightAgent(), config, 3, game_map=game_map)
    table = cluster_table(game_map)
    second = run_episode(WeightAgent(), config, 3, game_map=game_map)
    assert first == second
    assert first.foundings()  # the games did found cities on the shared map
    assert cluster_table(game_map) is table
    assert first.map_text is pristine  # encoded once, on first use
    # a fresh encoding of the tiles, not the cached text
    assert encode_map(game_map.copy()) == pristine


def test_replays_of_one_map_share_one_decoded_map(monkeypatch):
    game_map = generate_map(MapGenConfig(), seed=11)
    config = GameConfig(turn_limit=30)
    logs = [run_episode(WeightAgent(), config, seed, game_map=game_map) for seed in (1, 2, 3)]
    builds = []
    static_columns = world._static_columns

    def counting(m):
        builds.append(m)
        return static_columns(m)

    monkeypatch.setattr(world, "_static_columns", counting)
    engine._decoded_map.cache_clear()
    assert [replay_episode(log) for log in logs] == [log.final_tgo for log in logs]
    assert len(builds) == 1
    assert builds[0] is not game_map and builds[0] == game_map


def test_interleaved_replays_of_two_maps():
    config = GameConfig(turn_limit=30)
    a = generate_map(MapGenConfig(), seed=11)
    b = generate_map(MapGenConfig(), seed=12)
    logs = [run_episode(WeightAgent(), config, seed, game_map=m) for seed in (1, 2) for m in (a, b)]
    assert logs[0].map_text != logs[1].map_text
    assert [replay_episode(log) for log in logs] == [log.final_tgo for log in logs]


def test_replay_reproduces_tgo():
    for seed in (1, 5, 9):
        log = run_episode(WeightAgent(), GameConfig(turn_limit=40), seed)
        assert replay_episode(log) == log.final_tgo


def test_episode_log_round_trip(tmp_path):
    log = run_episode(WeightAgent(), GameConfig(turn_limit=25), 3, evaluator_name="test")
    path = tmp_path / "episode.jsonl"
    write_episode_log(log, path)
    assert read_episode_log(path) == log


def test_truncated_log_rejected(tmp_path):
    log = run_episode(WeightAgent(), GameConfig(turn_limit=25), 3)
    path = tmp_path / "episode.jsonl"
    write_episode_log(log, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        read_episode_log(path)


def test_history_length_invariant():
    state = grass_state(turn_limit=20)
    add_settler(state, 0, (5, 5))
    city = found_city(state, 0, (5, 5))
    journal = []
    while not state.finished:
        journal.append(step_turn(state))
    # one journal record per turn, from the founding turn through the last
    turns = [tr.turn for tr in journal for cr in tr.cities if cr.city_id == city.id]
    assert turns == list(range(city.founded_turn, state.turn + 1))


def test_settler_blocked_by_water_idles():
    game_map = flat_map(14, 14)
    for y in range(14):
        game_map.tile(7, y).terrain = TerrainKind.OCEAN  # full vertical channel
    state = new_game(game_map, GameConfig(turn_limit=10))
    settler = add_settler(state, 0, (4, 6))
    set_settler_target(state, settler, (10, 6))
    for _ in range(10):
        step_turn(state)
    # greedy walk cannot cross the channel; the settler waits at the shore
    assert settler.x <= 6
    assert not state.players[0].cities


def test_settler_on_the_map_edge_stays_on_the_map():
    # from (0, 0) toward (2, 10) the step to (-1, 1) would be as close as
    # (0, 1) and sort first; it must not wrap onto the row above
    state = grass_state(turn_limit=10)
    settler = add_settler(state, 0, (0, 0))
    set_settler_target(state, settler, (2, 10))
    step_turn(state)
    assert (settler.x, settler.y) == (0, 1)
    settler = add_settler(state, 0, (11, 0))
    set_settler_target(state, settler, (9, 10))
    step_turn(state)
    assert (settler.x, settler.y) == (10, 1)
