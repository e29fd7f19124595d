"""Multi-expert scoring rules over map clusters.

Fourteen rule families — one per buildable center terrain plus five
cluster features (special on center, specials around, water access, deep
ocean access, whale presence). Each family holds four alternative rules
with the same condition but different point values: the encoded opinions
of players with different strategies. Families are the conflict sets a
policy resolves; every fired rule contributes to the cluster score
independently of the others.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .world import BUILDABLE_TERRAINS, STATIC_COLUMNS, GameMap, SpecialKind, cluster_table

POINTS_MIN, POINTS_MAX = -20, 20


@dataclass(frozen=True)
class ScoringRule:
    id: str
    family: str
    points: int


@dataclass(frozen=True)
class ConflictSet:
    family: str
    condition: str  # human-readable summary of the shared condition
    rules: tuple[ScoringRule, ...]
    # the rules by id, the order the policy draws and breaks ties in
    by_id: tuple[ScoringRule, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "by_id", tuple(sorted(self.rules, key=lambda r: r.id)))


@dataclass(frozen=True)
class FiredRule:
    family: str
    condition: str
    rule_id: str
    points: int
    # every alternative at decision time: (rule id, points, selection probability)
    alternatives: tuple[tuple[str, int, float], ...]


@dataclass(frozen=True)
class ScoreTrace:
    fired: tuple[FiredRule, ...]
    total: int


@dataclass(frozen=True)
class RuleChoice:
    # a resolved conflict set: the rule drawn, and each alternative's probability when it was drawn
    rule: ScoringRule
    probabilities: dict[str, float]


TERRAIN_FAMILIES = {kind: f"terrain_{kind.value.lower()}" for kind in BUILDABLE_TERRAINS}

SPECIAL_ON_CENTER = "special_on_center"
SPECIALS_AROUND = "specials_around"
WATER_ACCESS = "water_access"
DEEP_OCEAN_ACCESS = "deep_ocean_access"
WHALE_PRESENCE = "whale_presence"


# Each condition holds when any of its static cluster columns is nonzero
# (all of them are counts or flags); family_mask() applies them once per
# map, when the map's cluster table is built.
FAMILY_CONDITIONS: dict[str, tuple[str, tuple[str, ...]]] = {
    **{
        family: (f"center terrain is {kind.value}", (f"center_terrain_{kind.value}",))
        for kind, family in TERRAIN_FAMILIES.items()
    },
    SPECIAL_ON_CENTER: (
        "special resource on the center tile",
        tuple(f"center_special_{s.value}" for s in SpecialKind),
    ),
    SPECIALS_AROUND: (
        "special resource on a surrounding tile",
        tuple(f"around_special_{s.value}" for s in SpecialKind),
    ),
    WATER_ACCESS: ("ocean or deep ocean tile in the cluster", ("ocean_access", "deep_ocean_access")),
    DEEP_OCEAN_ACCESS: ("deep ocean tile in the cluster", ("deep_ocean_access",)),
    WHALE_PRESENCE: ("whales in the cluster", ("whale_count",)),
}
FAMILY_IDS = tuple(sorted(FAMILY_CONDITIONS))

# (58, 14) 0/1 matrix: static column c feeds the condition of family f
_CONDITION_COLUMNS = np.array(
    [[name in FAMILY_CONDITIONS[f][1] for f in FAMILY_IDS] for name in STATIC_COLUMNS], dtype=float
)


def family_mask(static: np.ndarray) -> np.ndarray:
    """Which FAMILY_IDS conditions hold, per row of static cluster columns."""
    return static @ _CONDITION_COLUMNS > 0


# Four alternative point values per family, ordered so that the leading
# alternatives of different families express different players' styles (a
# forest lover, a desert denier, a coast seeker, ...). Anchors: a center
# special is worth 1, 5 or 10 points to different players (plus an
# "ignore it" strategy), and desert earns only zero-or-negative opinions.
DEFAULT_POINT_TABLE: dict[str, tuple[int, int, int, int]] = {
    "terrain_grassland": (5, 12, 2, 8),
    "terrain_plains": (4, 10, 2, 7),
    "terrain_hills": (9, 1, 6, 3),
    "terrain_forest": (10, 1, 7, 3),
    "terrain_mountains": (2, -5, 0, -2),
    "terrain_desert": (0, -10, -2, -5),
    "terrain_swamp": (0, -6, -1, -3),
    "terrain_jungle": (1, -6, -1, -3),
    "terrain_tundra": (0, -8, -2, -4),
    SPECIAL_ON_CENTER: (1, 10, 0, 5),
    SPECIALS_AROUND: (3, 9, 1, 6),
    WATER_ACCESS: (8, 0, 5, 2),
    DEEP_OCEAN_ACCESS: (3, 0, 5, 1),
    WHALE_PRESENCE: (6, 0, 12, 2),
}


class KnowledgeBase:
    def __init__(self, point_table: dict[str, tuple[int, ...]]):
        self.families: dict[str, ConflictSet] = {}
        for family in sorted(point_table):
            if family not in FAMILY_CONDITIONS:
                raise ValueError(f"unknown rule family {family!r}")
            points = point_table[family]
            if len(points) < 2:
                raise ValueError(f"family {family!r} needs at least 2 alternatives")
            if len(set(points)) != len(points):
                raise ValueError(f"family {family!r} has duplicate point values")
            if any(not POINTS_MIN <= p <= POINTS_MAX for p in points):
                raise ValueError(f"family {family!r} has points outside [{POINTS_MIN}, {POINTS_MAX}]")
            condition = FAMILY_CONDITIONS[family][0]
            rules = tuple(
                ScoringRule(id=f"{family}_alt{i}", family=family, points=p)
                for i, p in enumerate(points)
            )
            self.families[family] = ConflictSet(family=family, condition=condition, rules=rules)

    @property
    def rule_count(self) -> int:
        return sum(len(cs.rules) for cs in self.families.values())


def default_kb() -> KnowledgeBase:
    kb = KnowledgeBase(DEFAULT_POINT_TABLE)
    assert len(kb.families) == 14 and kb.rule_count == 56
    return kb


def match_rules(kb: KnowledgeBase, game_map: GameMap, center: tuple[int, int]) -> list[ConflictSet]:
    """Conflict sets applicable to the cluster at `center`, ordered by family id."""
    table = cluster_table(game_map)
    hits = table.rule_mask[table.rows([center])[0]]
    return [kb.families[f] for f, hit in zip(FAMILY_IDS, hits) if hit and f in kb.families]


def score_cluster(
    kb: KnowledgeBase, game_map: GameMap, center: tuple[int, int], resolved: Mapping[str, RuleChoice]
) -> tuple[int, ScoreTrace]:
    """Total of the resolved rule per applicable family, with a full trace."""
    fired = []
    total = 0
    for conflict_set in match_rules(kb, game_map, center):
        choice = resolved[conflict_set.family]
        if choice.rule not in conflict_set.rules:
            raise ValueError(
                f"resolved rule {choice.rule.id!r} is not a member of family {conflict_set.family!r}"
            )
        total += choice.rule.points
        fired.append(
            FiredRule(
                family=conflict_set.family,
                condition=conflict_set.condition,
                rule_id=choice.rule.id,
                points=choice.rule.points,
                alternatives=tuple(
                    (r.id, r.points, float(choice.probabilities.get(r.id, 0.0)))
                    for r in conflict_set.rules
                ),
            )
        )
    return total, ScoreTrace(fired=tuple(fired), total=total)


def explain(trace: ScoreTrace) -> list[str]:
    """Stable, line-oriented account of a scoring decision."""
    if not trace.fired:
        return ["no rules fired"]
    lines = []
    for fr in sorted(trace.fired, key=lambda f: f.family):
        alts = ", ".join(f"{rid}={pts:+d}@p{prob:.3f}" for rid, pts, prob in fr.alternatives)
        lines.append(
            f"{fr.family}: {fr.condition} -> {fr.rule_id} adds {fr.points:+d} points"
            f" [alternatives: {alts}]"
        )
    lines.append(f"total: {trace.total}")
    return lines


# -- trace (de)serialization for episode logs --------------------------------


def trace_to_dict(trace: ScoreTrace) -> dict:
    return {
        "total": trace.total,
        "fired": [
            {
                "family": fr.family,
                "condition": fr.condition,
                "rule_id": fr.rule_id,
                "points": fr.points,
                "alternatives": [[rid, pts, prob] for rid, pts, prob in fr.alternatives],
            }
            for fr in trace.fired
        ],
    }


def trace_from_dict(d: dict) -> ScoreTrace:
    return ScoreTrace(
        fired=tuple(
            FiredRule(
                family=fr["family"],
                condition=fr["condition"],
                rule_id=fr["rule_id"],
                points=fr["points"],
                alternatives=tuple((rid, int(pts), float(prob)) for rid, pts, prob in fr["alternatives"]),
            )
            for fr in d["fired"]
        ),
        total=d["total"],
    )
