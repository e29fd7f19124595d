"""Tabular Monte Carlo control over k-means-abstracted game states.

The continuous game state is summarized into a small numeric vector,
mapped to the nearest of k centroids (Lloyd's algorithm, 300-iteration
cap), and rule choices are resolved epsilon-greedily against running
state-action means. Every decision of an episode is credited with the
episode's final total game output; values are plain averages of those
rewards.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .engine import GameState
from .features import minmax_scale
from .rulekb import FAMILY_IDS, WATER_ACCESS, ConflictSet, RuleChoice, ScoringRule
from .world import cluster_table
from .world import cluster_at  # noqa: F401  bench/test_bench.py expects the tracer to patch it here

STATE_FEATURE_NAMES = (
    "turn",
    "city_count",
    "total_citizens",
    "tgo_so_far",
    "settlers_in_play",
    "mean_owned_tile_weight",
    "specials_owned",
    "coast_cities",
)


def state_features(state: GameState, player_id: int) -> np.ndarray:
    """Numeric summary of a game state for one player, in STATE_FEATURE_NAMES order.

    Owned tiles and output so far are read from the player's running
    tallies, so a call costs O(cities).
    """
    player = state.player(player_id)
    mean_weight = player.owned_weight / player.owned_tiles if player.owned_tiles else 0.0
    water = cluster_table(state.map).rule_mask[:, FAMILY_IDS.index(WATER_ACCESS)]
    coast = sum(bool(water[state.index(c.coord)]) for c in player.cities)
    citizens = sum(c.citizens for c in player.cities)
    return np.array(
        [state.turn, len(player.cities), citizens, player.output, len(player.settlers), mean_weight,
         player.specials_owned, coast],
        dtype=float,
    )


# ---------------------------------------------------------------------------
# k-means state abstraction


@dataclass
class ClusterModel:
    centroids: np.ndarray  # (k, d), in normalized space
    feature_min: np.ndarray
    feature_max: np.ndarray
    inertia: float
    iterations: int
    inertia_history: list[float] = field(default_factory=list)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def normalize(self, points: np.ndarray) -> np.ndarray:
        return minmax_scale(points, self.feature_min, self.feature_max)


def kmeans_fit(points: np.ndarray, k: int, max_iter: int = 300, seed: int = 0) -> ClusterModel:
    """Lloyd's algorithm on min-max-normalized points, k-means++ seeding.

    Iterates to an assignment fixpoint or `max_iter`, whichever first;
    the recorded inertia history is non-increasing. Each iteration
    recomputes only the means of clusters a point left or joined, and
    only the distance columns of centroids that moved; every other
    column and mean would come out bit-identical.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    n = points.shape[0]
    if n < k:
        raise ValueError(f"{n} points cannot support k={k}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")

    feature_min = points.min(axis=0)
    feature_max = points.max(axis=0)
    x = minmax_scale(points, feature_min, feature_max)

    rng = np.random.default_rng(seed)
    centroids, d2 = _kmeans_pp_init(x, k, rng)

    labels = None
    history: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        new_labels = np.argmin(d2, axis=1)  # ties -> lowest index
        history.append(float(d2[np.arange(n), new_labels].sum()))
        if labels is None:
            touched = range(k)
        else:
            changed = new_labels != labels
            if not changed.any():
                break
            touched = np.union1d(new_labels[changed], labels[changed])
        labels = new_labels
        for j in touched:
            members = x[labels == j]
            if len(members):
                mean = members.mean(axis=0)
                moved = not np.array_equal(mean, centroids[j])
                centroids[j] = mean
                if moved:
                    d2[:, j] = _sq_dist(x, mean)

    return ClusterModel(
        centroids=centroids,
        feature_min=feature_min,
        feature_max=feature_max,
        inertia=history[-1],
        iterations=iterations,
        inertia_history=history,
    )


def _sq_dist(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared distance of each row of x to the point c."""
    return ((x - c) ** 2).sum(axis=1)


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ centroids, and the (n, k) squared distances to each of them."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=float)
    d2 = np.empty((n, k), dtype=float)
    centroids[0] = x[rng.integers(n)]
    d2[:, 0] = _sq_dist(x, centroids[0])
    nearest = d2[:, 0].copy()
    for j in range(1, k):
        total = nearest.sum()
        if total <= 0:
            centroids[j] = x[rng.integers(n)]
        else:
            centroids[j] = x[rng.choice(n, p=nearest / total)]
        d2[:, j] = _sq_dist(x, centroids[j])
        nearest = np.minimum(nearest, d2[:, j])
    return centroids, d2


def assign_state(model: ClusterModel, features: np.ndarray) -> int:
    """Nearest-centroid id in normalized space; ties go to the lowest index."""
    features = np.asarray(features, dtype=float)
    if features.shape != (model.centroids.shape[1],):
        raise ValueError(
            f"feature dimension {features.shape} does not match model ({model.centroids.shape[1]},)"
        )
    z = model.normalize(features)
    return int(np.argmin(_sq_dist(model.centroids, z)))


# ---------------------------------------------------------------------------
# value table and epsilon-greedy conflict resolution


@dataclass
class RunningMean:
    count: int = 0
    mean: float = 0.0

    def add(self, reward: float) -> None:
        self.count += 1
        self.mean += (reward - self.mean) / self.count


@dataclass(frozen=True)
class DecisionRecord:
    state_id: int
    family: str
    rule_id: str
    turn: int


@dataclass
class Policy:
    epsilon: float = 0.1
    seed: int = 0

    def __post_init__(self):
        self.rng = random.Random(self.seed)


@dataclass
class ValueTable:
    """Running means of episode rewards per (state, family, rule) and per state."""

    meta: dict[str, str] = field(default_factory=dict)
    q: dict[tuple[int, str, str], RunningMean] = field(default_factory=dict)
    v: dict[int, RunningMean] = field(default_factory=dict)

    def q_entry(self, state_id: int, family: str, rule_id: str) -> RunningMean | None:
        return self.q.get((state_id, family, rule_id))


def greedy_rule(table: ValueTable, state_id: int, conflict_set: ConflictSet) -> ScoringRule:
    """Highest-mean rule; unvisited rules rank above all visited, ties by id."""
    best = None
    for rule in conflict_set.by_id:
        entry = table.q_entry(state_id, conflict_set.family, rule.id)
        q = float("inf") if entry is None else entry.mean
        if best is None or q > best[0]:
            best = (q, rule)
    assert best is not None
    return best[1]


def choose(
    table: ValueTable,
    policy: Policy,
    state_id: int,
    conflict_set: ConflictSet,
    turn: int = 0,
) -> tuple[RuleChoice, DecisionRecord]:
    """Epsilon-greedy rule selection: the rule drawn with the probabilities it
    was drawn under, and a decision record for credit assignment."""
    if not conflict_set.rules:
        raise ValueError(f"conflict set {conflict_set.family!r} is empty")
    rule = greedy = greedy_rule(table, state_id, conflict_set)
    eps = policy.epsilon
    if eps > 0 and policy.rng.random() < eps:
        rule = conflict_set.by_id[policy.rng.randrange(len(conflict_set.by_id))]
    choice = RuleChoice(rule=rule, probabilities=selection_probabilities(policy, conflict_set, greedy))
    return choice, DecisionRecord(state_id=state_id, family=conflict_set.family, rule_id=rule.id, turn=turn)


def selection_probabilities(
    policy: Policy, conflict_set: ConflictSet, greedy: ScoringRule
) -> dict[str, float]:
    """Probability of each alternative under the policy, given its greedy rule."""
    n = len(conflict_set.rules)
    eps = policy.epsilon
    return {
        r.id: (1.0 - eps) + eps / n if r.id == greedy.id else eps / n
        for r in conflict_set.rules
    }


def update_from_episode(table: ValueTable, records: list[DecisionRecord], reward: float) -> ValueTable:
    """Every-visit credit: each record pulls its q toward the episode reward;
    V updates once per distinct state visited."""
    if reward < 0:
        raise ValueError("episode reward must be non-negative")
    for rec in records:
        table.q.setdefault((rec.state_id, rec.family, rec.rule_id), RunningMean()).add(reward)
    for state_id in sorted({rec.state_id for rec in records}):
        table.v.setdefault(state_id, RunningMean()).add(reward)
    return table


# ---------------------------------------------------------------------------
# value table file format


def save_table(table: ValueTable, path) -> None:
    """Line-oriented text: header metadata, V rows, Q rows, entry count."""
    with open(path, "w") as fh:
        fh.write("# value table v1\n")
        for key in sorted(table.meta):
            fh.write(f"meta {key} {table.meta[key]}\n")
        fh.write(f"entries {len(table.v) + len(table.q)}\n")
        for state_id in sorted(table.v):
            e = table.v[state_id]
            fh.write(f"V {state_id} {e.count} {e.mean!r}\n")
        for state_id, family, rule_id in sorted(table.q):
            e = table.q[(state_id, family, rule_id)]
            fh.write(f"Q {state_id} {family} {rule_id} {e.count} {e.mean!r}\n")


def load_table(path) -> ValueTable:
    """The table saved at `path`; ValueError naming the file for a malformed
    row or a row count other than the declared one."""
    table = ValueTable()
    declared = None
    seen = 0
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if parts[0] == "meta" and len(parts) >= 2:
                    table.meta[parts[1]] = " ".join(parts[2:])
                elif parts[0] == "entries" and len(parts) == 2:
                    declared = int(parts[1])
                elif parts[0] == "V" and len(parts) == 4:
                    table.v[int(parts[1])] = RunningMean(count=int(parts[2]), mean=float(parts[3]))
                    seen += 1
                elif parts[0] == "Q" and len(parts) == 6:
                    table.q[(int(parts[1]), parts[2], parts[3])] = RunningMean(
                        count=int(parts[4]), mean=float(parts[5])
                    )
                    seen += 1
                else:
                    raise ValueError("unknown row")
            except ValueError:
                raise ValueError(f"{path}: line {number} is not a value-table row: {line!r}") from None
    if declared is None or declared != seen:
        raise ValueError(f"{path}: truncated table ({seen} rows, declared {declared})")
    return table
