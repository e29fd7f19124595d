"""Engine invariants, checked after every turn of generated episodes.

`check_invariants` restates the bookkeeping rules the engine keeps by
construction; `run_episode(on_turn=...)` applies it after each turn of
random-agent and rule-agent games over many maps and episode seeds.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import single_state_model
from settlebench import rl
from settlebench.engine import GameConfig, city_distance, run_episode
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
