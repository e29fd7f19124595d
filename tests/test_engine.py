import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import flat_map
from settlebench import engine, world
from settlebench.engine import (
    City,
    GameConfig,
    OutputPoints,
    SimulationError,
    add_settler,
    assign_citizens,
    city_output,
    convert_trade,
    default_ruleset,
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
    total_game_output,
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

RULES = default_ruleset()


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
    assert tile_yield(t, RULES) == dataclasses.replace(tile_yield(t, RULES), food=2, production=0, trade=0)


def test_whales_boost_two_components():
    ocean = Tile(x=0, y=0, terrain=TerrainKind.OCEAN)
    whales = Tile(x=0, y=0, terrain=TerrainKind.OCEAN, special=SpecialKind.WHALES)
    a, b = tile_yield(ocean, RULES), tile_yield(whales, RULES)
    improved = sum(1 for u, v in ((a.food, b.food), (a.production, b.production), (a.trade, b.trade)) if v > u)
    assert improved >= 2


@given(st.sampled_from(list(SpecialKind)))
def test_special_bonus_never_decreases_yield(special):
    terrain = SPECIAL_TERRAINS[special][0]
    bare = tile_yield(Tile(x=0, y=0, terrain=terrain), RULES)
    special_tile = tile_yield(Tile(x=0, y=0, terrain=terrain, special=special), RULES)
    assert special_tile.food >= bare.food
    assert special_tile.production >= bare.production
    assert special_tile.trade >= bare.trade


def test_river_adds_trade():
    bare = tile_yield(Tile(x=0, y=0, terrain=TerrainKind.PLAINS), RULES)
    river = tile_yield(Tile(x=0, y=0, terrain=TerrainKind.PLAINS, river=True), RULES)
    assert river.trade == bare.trade + RULES.river_trade_bonus


def test_yields_are_built_once_per_map_and_ruleset():
    game_map = flat_map(12, 12)
    game_map.tile(6, 5).special = SpecialKind.WHEAT
    wheat = game_map.tile(6, 5)
    first = new_game(game_map, GameConfig())
    # a replay decodes an equal ruleset from its log: the tables are shared
    equal = engine.config_from_dict(engine.config_to_dict(GameConfig()))
    second = new_game(game_map, equal)
    assert second.yields is first.yields and second.weights is first.weights
    rules = default_ruleset()
    rules.special_bonuses[SpecialKind.WHEAT] = engine.YieldTriple(food=5)
    assert new_game(game_map, GameConfig(ruleset=rules)).yields[(6, 5)] == tile_yield(wheat, rules)
    # the cache holds a copy of its ruleset: one edited after use is a new ruleset
    rules.special_bonuses[SpecialKind.WHEAT] = engine.YieldTriple(food=1)
    assert new_game(game_map, GameConfig(ruleset=rules)).yields[(6, 5)] == tile_yield(wheat, rules)
    assert new_game(game_map, GameConfig()).yields[(6, 5)] == tile_yield(wheat, RULES)


# -- trade conversion ----------------------------------------------------------


def test_convert_trade_examples():
    assert convert_trade(0, (0.5, 0.0, 0.5)) == (0, 0, 0)
    assert convert_trade(10, (0.5, 0.0, 0.5)) == (5, 0, 5)
    # floors with the remainder going to science
    assert convert_trade(7, (0.5, 0.0, 0.5)) == (3, 0, 4)


def test_convert_trade_rejects_bad_rates():
    with pytest.raises(ValueError):
        convert_trade(5, (0.5, 0.5, 0.5))


@given(st.integers(0, 10_000), st.sampled_from([(0.5, 0.0, 0.5), (1.0, 0.0, 0.0), (0.3, 0.3, 0.4), (0.0, 0.0, 1.0)]))
def test_convert_trade_partitions(trade, rates):
    gold, luxury, science = convert_trade(trade, rates)
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
    state = grass_state()
    state.map.tile(5, 5).terrain = TerrainKind.OCEAN
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


def test_assign_skips_other_players_claims():
    state = new_game(flat_map(12, 12), GameConfig(turn_limit=10), num_players=2)
    add_settler(state, 0, (5, 5))
    city = found_city(state, 0, (5, 5))
    state.owner[state.index((6, 5))] = 1
    city.citizens = 21
    worked = assign_citizens(state, city)
    assert (6, 5) not in worked
    assert len(worked) == 20


def test_growth_needs_a_free_tile():
    state = new_game(flat_map(12, 12), GameConfig(turn_limit=10), num_players=2)
    add_settler(state, 0, (5, 5))
    city = found_city(state, 0, (5, 5))
    for i, _ in city.candidates:
        state.owner[i] = 1  # another player claims every tile beside the center
    city.food_store = 1000
    step_turn(state)
    assert city.citizens == 1
    assert city.food_store == 1000 + 4 - 2  # grass center 2 + center bonus 2, one citizen eats 2
    state.owner[city.candidates[0][0]] = None
    step_turn(state)
    assert city.citizens == 2


def test_evicted_neighbour_loses_the_points_of_the_new_center():
    # the neighbour works the new city's center and has no other tile to move
    # to, so rebooking leaves its worked set as the founding edited it
    state = new_game(flat_map(12, 12), GameConfig(turn_limit=10), num_players=2)
    add_settler(state, 0, (5, 5))
    old = found_city(state, 0, (5, 5))
    for i, coord in old.candidates:
        if coord != (7, 5):
            state.owner[i] = 1
    old.citizens = 2
    step_turn(state)
    assert old.worked == {(5, 5), (7, 5)}
    assert old.per_turn_history[-1] == OutputPoints(food=6, production=1)
    add_settler(state, 0, (7, 5))
    found_city(state, 0, (7, 5))
    step_turn(state)
    assert old.worked == {(5, 5)} and old.citizens == 1
    # grass center 2 + center bonus (2, 1, 0): the lost tile's 2 food are gone
    assert old.per_turn_history[-1] == OutputPoints(food=4, production=1)


# -- turn stepping -----------------------------------------------------------------


def test_step_turn_without_cities_only_advances():
    state = grass_state()
    record = step_turn(state)
    assert record.cities == [] and record.foundings == []
    assert state.turn == 2


def test_step_turn_all_grassland_city_output():
    state = grass_state()
    add_settler(state, 0, (5, 5))
    city = found_city(state, 0, (5, 5))
    step_turn(state)
    # derived from the default ruleset: grass (2,0,0) + center bonus (2,1,0)
    assert city.per_turn_history == [OutputPoints(gold=0, luxury=0, science=0, food=4, production=1, trade=0)]


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


def test_settler_production_costs_one_citizen():
    state = grass_state(turn_limit=120)
    add_settler(state, 0, (5, 5))
    city = found_city(state, 0, (5, 5))
    while city.citizens < 3 and state.turn < 120:
        step_turn(state)
    assert city.citizens == 3
    state.config.growth_threshold_base = 10**6  # freeze growth; isolate the settler cost
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
    city = City(id=0, player=0, x=5, y=5, founded_turn=1)
    assert city_output(city, 10) == 0


def test_city_output_weighted_sum():
    city = City(id=0, player=0, x=5, y=5, founded_turn=1)
    city.per_turn_history.append(OutputPoints(gold=1, luxury=0, science=1, food=2, production=3, trade=2))
    # 1 + 0 + 1 + 2 + 2*3 + 2
    assert city_output(city, 1) == 12


def test_city_output_before_founding_is_zero():
    city = City(id=0, player=0, x=5, y=5, founded_turn=50)
    city.per_turn_history.append(OutputPoints(food=5))
    assert city_output(city, 49) == 0
    assert city_output(city, 50) == 5


def test_total_game_output_additivity():
    state = grass_state()
    a = City(id=0, player=0, x=5, y=5, founded_turn=1)
    a.per_turn_history.append(OutputPoints(food=10))
    b = City(id=1, player=0, x=8, y=8, founded_turn=1)
    b.per_turn_history.append(OutputPoints(food=15))
    state.players[0].cities.extend([a, b])
    assert total_game_output(state, 0, 1) == 25
    state.players[0].cities.clear()
    assert total_game_output(state, 0, 1) == 0


def test_tgo_monotone_in_turn():
    log_state = grass_state(turn_limit=30)
    place_initial_settlers(log_state)
    agent = WeightAgent()
    while not log_state.finished:
        step_turn(log_state, agent)
    values = [total_game_output(log_state, 0, t) for t in range(1, 31)]
    assert all(b >= a for a, b in zip(values, values[1:]))


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
    found_city(state, 0, (5, 5))
    while not state.finished:
        step_turn(state)
    city = state.players[0].cities[0]
    assert len(city.per_turn_history) == state.turn - city.founded_turn + 1


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
