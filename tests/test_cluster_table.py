"""The per-map cluster table against per-tile oracles.

The table answers legality, rule matching and feature extraction with
array operations; these properties check it against direct per-tile
definitions over generated maps and mid-game states (cities founded for
two players, stray tiles claimed).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_map, single_state_model
from settlebench import rl
from settlebench.engine import (
    GameConfig,
    add_settler,
    found_city,
    is_legal_founding_site,
    legal_founding_sites,
    new_game,
)
from settlebench.features import COLUMNS, extract_features
from settlebench.harness import RuleEvaluator
from settlebench.rulekb import (
    DEEP_OCEAN_ACCESS,
    FAMILY_IDS,
    SPECIAL_ON_CENTER,
    SPECIALS_AROUND,
    TERRAIN_FAMILIES,
    WATER_ACCESS,
    WHALE_PRESENCE,
    default_kb,
    match_rules,
    score_cluster,
)
from settlebench.world import (
    BUILDABLE_TERRAINS,
    MapGenConfig,
    SpecialKind,
    TerrainKind,
    cluster_at,
    cluster_in_bounds,
    cluster_table,
    generate_map,
)

KB = default_kb()
MAPGEN = MapGenConfig(width=14, height=14, special_frequency=0.3)


def centers_of(game_map):
    return [
        (x, y)
        for y in range(game_map.height)
        for x in range(game_map.width)
        if cluster_in_bounds(game_map, (x, y))
    ]


@st.composite
def mid_game(draw):
    """A generated map with cities of players 0 and 1 and a few stray claims."""
    game_map = generate_map(MAPGEN, draw(st.integers(0, 10_000)))
    config = GameConfig(turn_limit=10, min_city_distance=draw(st.integers(1, 4)))
    state = new_game(game_map, config, num_players=2)
    rnd = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 6))):
        player = rnd.randrange(2)
        sites = [c for c in centers_of(game_map) if is_legal_founding_site(state, player, c)]
        if not sites:
            break
        site = rnd.choice(sites)
        add_settler(state, player, site)
        found_city(state, player, site)
    for _ in range(draw(st.integers(0, 25))):
        state.owner[rnd.randrange(len(state.owner))] = rnd.choice([None, 0, 1, 2])
    return state


# -- legality ------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(mid_game(), st.integers(0, 2))
def test_array_legality_matches_the_per_site_check(state, player):
    expected = [
        (x, y)
        for y in range(state.map.height)
        for x in range(state.map.width)
        if is_legal_founding_site(state, player, (x, y))
    ]
    assert legal_founding_sites(state, player) == expected


@pytest.mark.parametrize("width,height", [(1, 1), (3, 7), (4, 4), (5, 5), (6, 12)])
def test_array_legality_on_tiny_maps(width, height):
    state = new_game(flat_map(width, height), GameConfig(turn_limit=5))
    expected = [(x, y) for y in range(height) for x in range(width) if is_legal_founding_site(state, 0, (x, y))]
    assert legal_founding_sites(state, 0) == expected


# -- rule matching -------------------------------------------------------------


def oracle_families(game_map, center_coord) -> set[str]:
    cluster = cluster_at(game_map, center_coord)
    center = game_map.tile(*center_coord)
    around = [t for t in cluster.tiles if t is not center]
    families = set()
    if center.terrain in TERRAIN_FAMILIES:
        families.add(TERRAIN_FAMILIES[center.terrain])
    if center.special is not None:
        families.add(SPECIAL_ON_CENTER)
    if any(t.special is not None for t in around):
        families.add(SPECIALS_AROUND)
    if any(t.terrain in (TerrainKind.OCEAN, TerrainKind.DEEP_OCEAN) for t in cluster.tiles):
        families.add(WATER_ACCESS)
    if any(t.terrain is TerrainKind.DEEP_OCEAN for t in cluster.tiles):
        families.add(DEEP_OCEAN_ACCESS)
    if any(t.special is SpecialKind.WHALES for t in cluster.tiles):
        families.add(WHALE_PRESENCE)
    return families


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_rule_mask_rows_match_the_family_conditions(seed):
    game_map = generate_map(MAPGEN, seed)
    table = cluster_table(game_map)
    for center in centers_of(game_map):
        expected = oracle_families(game_map, center)
        row = table.rule_mask[table.rows([center])[0]]
        assert {f for f, hit in zip(FAMILY_IDS, row) if hit} == expected
        assert [cs.family for cs in match_rules(KB, game_map, center)] == sorted(expected)


def test_table_is_cached_per_map_and_not_copied():
    game_map = generate_map(MAPGEN, 3)
    table = cluster_table(game_map)
    assert cluster_table(game_map) is table
    copy = game_map.copy()
    assert cluster_table(copy) is not table
    assert np.array_equal(cluster_table(copy).static, table.static)


def test_table_rows_reject_clusters_leaving_the_map():
    table = cluster_table(flat_map(12, 12))
    assert list(table.rows([(2, 2), (9, 9)])) == [2 * 12 + 2, 9 * 12 + 9]
    for center in [(1, 5), (5, 10), (-3, 5)]:
        with pytest.raises(ValueError):
            table.rows([center])


# -- features --------------------------------------------------------------------


def oracle_features(state, center, player) -> list[float]:
    """The 60 columns, counted tile by tile."""
    cluster = cluster_at(state.map, center)
    center_tile = state.map.tile(*center)
    around = [t for t in cluster.tiles if t is not center_tile]
    vec = [float(center_tile.terrain is t) for t in BUILDABLE_TERRAINS]
    vec += [float(sum(t.terrain is kind for t in around)) for kind in TerrainKind]
    vec += [float(center_tile.special is s) for s in SpecialKind]
    vec += [float(sum(t.special is s for t in around)) for s in SpecialKind]
    vec.append(float(center_tile.river))
    vec.append(float(any(t.terrain is TerrainKind.OCEAN for t in cluster.tiles)))
    vec.append(float(any(t.terrain is TerrainKind.DEEP_OCEAN for t in cluster.tiles)))
    vec.append(float(sum(t.special is SpecialKind.WHALES for t in cluster.tiles)))
    band = [
        city.player
        for city in state.all_cities()
        if 3 <= max(abs(city.x - center[0]), abs(city.y - center[1])) <= 4
    ]
    vec += [float(sum(o == player for o in band)), float(sum(o != player for o in band))]
    assert len(vec) == len(COLUMNS)
    return vec


@settings(max_examples=20, deadline=None)
@given(mid_game(), st.integers(0, 1))
def test_table_features_match_tile_by_tile_counts(state, player):
    for center in centers_of(state.map):
        assert list(extract_features(state, center, player)) == oracle_features(state, center, player)


# -- rule scoring ------------------------------------------------------------------


def reference_pass(state, centers, table, policy):
    """The per-center pass: resolve each family on first sight, then score every cluster."""
    records, resolved = [], {}
    for center in centers:
        for conflict_set in match_rules(KB, state.map, center):
            if conflict_set.family not in resolved:
                choice, record = rl.choose(table, policy, 0, conflict_set, turn=state.turn)
                resolved[conflict_set.family] = choice
                records.append(record)
    traces = [score_cluster(KB, state.map, c, resolved)[1] for c in centers]
    return traces, records


@settings(max_examples=30, deadline=None)
@given(mid_game(), st.randoms(use_true_random=False), st.sampled_from([0.0, 0.3, 1.0]))
def test_rule_evaluator_matches_per_center_scoring(state, rnd, epsilon):
    centers = legal_founding_sites(state, 0)
    rnd.shuffle(centers)
    values = rl.ValueTable()
    for family, conflict_set in KB.families.items():
        for rule in conflict_set.rules:
            if rnd.random() < 0.5:
                values.q[(0, family, rule.id)] = rl.RunningMean(count=1, mean=rnd.random())

    evaluator = RuleEvaluator(KB, single_state_model(), values, rl.Policy(epsilon=epsilon, seed=7))
    scores = evaluator.score_many(state, 0, centers)
    traces, records = reference_pass(state, centers, values, rl.Policy(epsilon=epsilon, seed=7))

    assert scores == [float(t.total) for t in traces]
    for center, trace in zip(centers, traces):
        assert [fr.family for fr in trace.fired] == sorted(oracle_families(state.map, center))
        assert trace.total == sum(fr.points for fr in trace.fired)
    # one record per matched family, in order of first appearance over centers
    first_seen = list(dict.fromkeys(fr.family for t in traces for fr in t.fired))
    assert [r.family for r in evaluator.records] == first_seen
    assert evaluator.records == records
    for center, trace in list(zip(centers, traces))[:5]:
        assert evaluator.trace_for(center) == trace
