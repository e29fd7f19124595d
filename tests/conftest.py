import numpy as np
import pytest

from settlebench import engine, harness, rl
from settlebench.rulekb import default_kb
from settlebench.world import GameMap, MapGenConfig, Tile, TerrainKind, cluster_in_bounds, generate_map


def flat_map(width=12, height=12, terrain=TerrainKind.GRASSLAND, seed=0) -> GameMap:
    """Uniform synthetic map for hand-checkable scenarios."""
    tiles = [Tile(x=x, y=y, terrain=terrain) for y in range(height) for x in range(width)]
    return GameMap(width=width, height=height, tiles=tiles, seed=seed)


def reference_legal_sites(state: engine.GameState, player_id: int) -> list[tuple[int, int]]:
    """README's founding rule, checked site by site, in (y, x) order: a
    buildable center whose cluster fits on the map, claimed by no other
    player, at least `min_city_distance` from every city."""
    return [
        (x, y)
        for y in range(state.map.height)
        for x in range(state.map.width)
        if cluster_in_bounds(state.map, (x, y))
        and state.map.tile(x, y).terrain.buildable
        and state.owner[state.index((x, y))] in (None, player_id)
        and all(engine.city_distance((x, y), c.coord) >= state.config.min_city_distance for c in state.all_cities())
    ]


def single_state_model() -> rl.ClusterModel:
    """A k=1 state abstraction: every game state maps to state 0."""
    n = len(rl.STATE_FEATURE_NAMES)
    return rl.ClusterModel(
        centroids=np.zeros((1, n)), feature_min=np.zeros(n), feature_max=np.ones(n), inertia=0.0, iterations=1
    )


def agent_of(kind: str, seed: int) -> harness.SettlementAgent:
    """A random agent, or a rule agent exploring at epsilon 0.3 over one state."""
    if kind == "random":
        return harness.SettlementAgent(harness.RandomEvaluator(seed))
    policy = rl.Policy(epsilon=0.3, seed=seed)
    return harness.SettlementAgent(
        harness.RuleEvaluator(default_kb(), single_state_model(), rl.ValueTable(), policy)
    )


def play_journaled(agent, config: engine.GameConfig, game_map: GameMap):
    """Play one game turn by turn; after each turn, yields the state and the
    turn journal so far (the `step_turn` records)."""
    state = engine.new_game(game_map, config)
    engine.place_initial_settlers(state)
    journal = []
    while not state.finished:
        journal.append(engine.step_turn(state, agent))
        yield state, journal


def journaled_output(journal, player_id: int) -> int:
    """A player's output so far, recounted from the turn journal."""
    return sum(cr.points.weighted_total() for tr in journal for cr in tr.cities if cr.player == player_id)


@pytest.fixture
def grass_map():
    return flat_map()


@pytest.fixture(scope="session")
def default_map():
    return generate_map(MapGenConfig(), seed=1)


@pytest.fixture(scope="session")
def bootstrap_corpus():
    """Small random-agent corpus shared by feature/label/harness tests."""
    game = engine.GameConfig(turn_limit=60)
    logs, points = harness.bootstrap_corpus(game, MapGenConfig(), base_seed=3, episodes=40)
    return logs, points
