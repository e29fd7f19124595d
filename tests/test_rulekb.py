import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_map
from settlebench.rulekb import (
    DEFAULT_POINT_TABLE,
    KnowledgeBase,
    RuleChoice,
    default_kb,
    explain,
    match_rules,
    score_cluster,
)
from settlebench.world import MapGenConfig, SpecialKind, TerrainKind, generate_map

KB = default_kb()


def resolved(rules):
    """A resolution that drew each of `rules` with probability 1.0, keyed by family."""
    return {r.family: RuleChoice(rule=r, probabilities={r.id: 1.0}) for r in rules}


def max_points(kb):
    return resolved(max(cs.rules, key=lambda r: (r.points, r.id)) for cs in kb.families.values())


def alternative(kb, alt):
    return resolved(cs.rules[alt] for cs in kb.families.values())


RULES = {r.id: r for cs in KB.families.values() for r in cs.rules}
WORKED_EXAMPLE = resolved(
    RULES[rule_id]
    for rule_id in (
        "special_on_center_alt1",  # +10
        "specials_around_alt1",  # +9
        "terrain_grassland_alt3",  # +8
        "water_access_alt1",  # +0
    )
)


def grass_site():
    return flat_map(12, 12), (5, 5)


def fig_style_site():
    """Bull on a grassland center, two specials around, two ocean tiles."""
    game_map = flat_map(12, 12)
    game_map.tile(5, 5).special = SpecialKind.BULL
    game_map.tile(4, 4).special = SpecialKind.GEMS
    game_map.tile(4, 4).terrain = TerrainKind.JUNGLE
    game_map.tile(6, 6).special = SpecialKind.WHEAT
    game_map.tile(6, 6).terrain = TerrainKind.PLAINS
    game_map.tile(7, 5).terrain = TerrainKind.OCEAN
    game_map.tile(7, 6).terrain = TerrainKind.OCEAN
    return game_map, (5, 5)


def test_default_kb_counts():
    assert len(KB.families) == 14
    assert KB.rule_count == 56
    assert all(len(cs.rules) == 4 for cs in KB.families.values())


def test_special_on_center_has_the_known_anchors():
    points = {r.points for r in KB.families["special_on_center"].rules}
    assert {1, 5, 10} <= points


def test_desert_family_never_positive():
    assert all(r.points <= 0 for r in KB.families["terrain_desert"].rules)


def test_points_within_bounds_and_distinct():
    for cs in KB.families.values():
        points = [r.points for r in cs.rules]
        assert len(set(points)) == len(points)
        assert all(-20 <= p <= 20 for p in points)


def test_kb_rejects_bad_tables():
    with pytest.raises(ValueError):
        KnowledgeBase({"terrain_desert": (1, 1, 2, 3)})
    with pytest.raises(ValueError):
        KnowledgeBase({"terrain_desert": (25, 0, 1, 2)})
    with pytest.raises(ValueError):
        KnowledgeBase({"no_such_family": (0, 1, 2, 3)})
    with pytest.raises(ValueError):
        KnowledgeBase({"terrain_desert": (1,)})


def test_match_rules_plain_grassland():
    matched = match_rules(KB, *grass_site())
    assert [cs.family for cs in matched] == ["terrain_grassland"]


def test_match_rules_fig_style_cluster():
    matched = {cs.family for cs in match_rules(KB, *fig_style_site())}
    assert matched == {"terrain_grassland", "special_on_center", "specials_around", "water_access"}


def test_match_rules_deep_ocean():
    game_map = flat_map(12, 12)
    game_map.tile(7, 5).terrain = TerrainKind.DEEP_OCEAN
    matched = {cs.family for cs in match_rules(KB, game_map, (5, 5))}
    assert "deep_ocean_access" in matched
    assert "water_access" in matched


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 500))
def test_exactly_one_center_terrain_family(seed):
    game_map = generate_map(MapGenConfig(width=12, height=12), seed)
    for center in [(3, 3), (5, 7), (8, 4)]:
        if not game_map.tile(*center).terrain.buildable:
            continue
        matched = [cs.family for cs in match_rules(KB, game_map, center) if cs.family.startswith("terrain_")]
        assert len(matched) == 1


def test_score_cluster_empty_when_no_family_applies():
    kb = KnowledgeBase({"terrain_desert": (-10, -5, -2, 0)})
    score, trace = score_cluster(kb, *grass_site(), max_points(kb))
    assert score == 0
    assert trace["fired"] == []


def test_worked_example_sums_to_27():
    score, trace = score_cluster(KB, *fig_style_site(), WORKED_EXAMPLE)
    assert score == 27
    assert trace["total"] == 27
    assert sum(fr["points"] for fr in trace["fired"]) == 27
    assert len(trace["fired"]) == 4


def test_max_chooser_equals_family_maxima():
    site = fig_style_site()
    score, _ = score_cluster(KB, *site, max_points(KB))
    expected = sum(max(r.points for r in cs.rules) for cs in match_rules(KB, *site))
    assert score == expected


def test_chooser_must_return_member():
    alien = KB.families["terrain_desert"].rules[0]
    with pytest.raises(ValueError):
        score_cluster(KB, *grass_site(), {"terrain_grassland": RuleChoice(rule=alien, probabilities={})})


def test_trace_families_equal_match_rules():
    site = fig_style_site()
    _, trace = score_cluster(KB, *site, max_points(KB))
    assert [fr["family"] for fr in trace["fired"]] == [cs.family for cs in match_rules(KB, *site)]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 200))
def test_independence_of_family_contributions(alt, seed):
    game_map = generate_map(MapGenConfig(width=12, height=12, special_frequency=0.3), seed)
    site = (game_map, (5, 5))
    total, trace = score_cluster(KB, *site, alternative(KB, alt))
    isolated = 0
    for cs in match_rules(KB, *site):
        solo = KnowledgeBase({cs.family: tuple(r.points for r in cs.rules)})
        part, _ = score_cluster(solo, *site, alternative(solo, alt))
        isolated += part
    assert total == isolated == trace["total"]


def test_scaling_preserves_ranking():
    game_map = generate_map(MapGenConfig(special_frequency=0.3), seed=4)
    centers = [(x, y) for x, y in itertools.product(range(2, 18, 3), range(2, 18, 3))]
    halved = {
        "terrain_grassland": (1, 2, 4, 6),
        "terrain_plains": (1, 2, 3, 5),
        "terrain_hills": (0, 1, 3, 4),
        "terrain_forest": (0, 1, 3, 5),
        "terrain_mountains": (-2, -1, 0, 1),
        "terrain_desert": (-5, -2, -1, 0),
        "terrain_swamp": (-3, -1, 0, 1),
        "terrain_jungle": (-3, -1, 0, 1),
        "terrain_tundra": (-4, -2, -1, 0),
        "special_on_center": (0, 1, 2, 5),
        "specials_around": (0, 1, 3, 4),
        "water_access": (0, 1, 2, 4),
        "deep_ocean_access": (0, 1, 2, 3),
        "whale_presence": (0, 1, 3, 6),
    }
    base = KnowledgeBase(halved)
    scaled = KnowledgeBase({f: tuple(3 * p for p in points) for f, points in halved.items()})

    def ranking(kb):
        scores = [(score_cluster(kb, game_map, c, alternative(kb, 1))[0], c) for c in centers]
        return [c for _, c in sorted(scores, key=lambda sc: (-sc[0], sc[1][1], sc[1][0]))]

    assert ranking(base) == ranking(scaled)


def test_explain_empty_trace():
    kb = KnowledgeBase({"terrain_desert": (-10, -5, -2, 0)})
    _, trace = score_cluster(kb, *grass_site(), max_points(kb))
    assert explain(trace) == ["no rules fired"]


def test_explain_worked_example():
    _, trace = score_cluster(KB, *fig_style_site(), WORKED_EXAMPLE)
    lines = explain(trace)
    assert len(lines) == len(trace["fired"]) + 1
    assert lines[-1] == "total: 27"
    assert any("special_on_center" in line and "+10" in line for line in lines)
    # deterministic ordering by family id
    assert lines == explain(trace)
    assert [line.split(":")[0] for line in lines[:-1]] == sorted(fr["family"] for fr in trace["fired"])


def test_trace_dict_round_trip():
    # the trace is the dict an episode log holds: read back, it is the same
    _, trace = score_cluster(KB, *fig_style_site(), max_points(KB))
    assert trace["fired"]
    assert json.loads(json.dumps(trace)) == trace


def test_default_table_matches_shipped_doc():
    assert set(DEFAULT_POINT_TABLE) == set(KB.families)
