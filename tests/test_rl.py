import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_map
from settlebench.engine import GameConfig, add_settler, found_city, new_game, step_turn
from settlebench.features import minmax_scale
from settlebench.rl import (
    ClusterModel,
    DecisionRecord,
    Policy,
    RunningMean,
    STATE_FEATURE_NAMES,
    ValueTable,
    assign_state,
    choose,
    greedy_rule,
    kmeans_fit,
    load_table,
    save_table,
    selection_probabilities,
    state_features,
    update_from_episode,
)
from settlebench.rulekb import default_kb

KB = default_kb()
FAMILY = KB.families["terrain_grassland"]


def test_state_features_shape_and_content():
    state = new_game(flat_map(12, 12), GameConfig(turn_limit=20))
    add_settler(state, 0, (5, 5))
    found_city(state, 0, (5, 5))
    step_turn(state)
    vec = state_features(state, 0)
    assert vec.shape == (len(STATE_FEATURE_NAMES),)
    assert np.all(np.isfinite(vec))
    assert vec[1] == 1.0  # one city
    assert vec[2] == 1.0  # one citizen
    assert vec[3] > 0  # some output accumulated


# -- k-means ---------------------------------------------------------------------


def test_kmeans_two_separable_points():
    model = kmeans_fit(np.array([[0.0], [10.0]]), k=2, seed=0)
    assert model.inertia == 0.0
    assert sorted(model.centroids[:, 0]) == [0.0, 1.0]  # normalized space


def test_kmeans_k1_is_mean():
    pts = np.array([[0.0], [5.0], [10.0]])
    model = kmeans_fit(pts, k=1, seed=0)
    assert model.centroids[0, 0] == pytest.approx(0.5)  # mean of {0, .5, 1}


def test_kmeans_beats_random_assignments():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(12, 2))
    model = kmeans_fit(pts, k=3, seed=0)
    x = model.normalize(pts)
    best_random = np.inf
    for _ in range(50):
        labels = rng.integers(0, 3, size=12)
        inertia = 0.0
        for j in range(3):
            members = x[labels == j]
            if len(members):
                inertia += float(((members - members.mean(axis=0)) ** 2).sum())
        best_random = min(best_random, inertia)
    assert model.inertia <= best_random + 1e-12


def test_kmeans_inertia_monotone_over_20_seeds():
    rng = np.random.default_rng(7)
    for seed in range(20):
        pts = rng.normal(size=(60, 4)) + rng.integers(0, 3, size=(60, 1))
        model = kmeans_fit(pts, k=5, max_iter=300, seed=seed)
        assert model.iterations <= 300
        hist = model.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))


def test_kmeans_rejects_fewer_points_than_k():
    with pytest.raises(ValueError):
        kmeans_fit(np.zeros((3, 2)), k=4)
    with pytest.raises(ValueError):
        kmeans_fit(np.array([[np.inf, 0.0]]), k=1)


def test_kmeans_rejects_k_below_one():
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        kmeans_fit(np.zeros((3, 2)), k=0)
    with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
        kmeans_fit(np.zeros((3, 2)), k=2, max_iter=0)


def reference_kmeans(points, k, max_iter, seed):
    """Lloyd's algorithm as a full recompute: every distance and every mean on
    every iteration, after the same k-means++ seeding."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    x = minmax_scale(points, points.min(axis=0), points.max(axis=0))
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, x.shape[1]), dtype=float)
    centroids[0] = x[rng.integers(n)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = x[rng.integers(n)]
        else:
            centroids[j] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((x - centroids[j]) ** 2).sum(axis=1))

    labels = None
    history = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), new_labels].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = x[labels == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
    return centroids, history, iterations


def assert_fit_matches_reference(points, k, max_iter, seed):
    model = kmeans_fit(points, k=k, max_iter=max_iter, seed=seed)
    centroids, history, iterations = reference_kmeans(points, k, max_iter, seed)
    assert model.centroids.tobytes() == centroids.tobytes()
    assert model.inertia_history == history
    assert model.iterations == iterations
    assert model.inertia == history[-1]


@st.composite
def kmeans_inputs(draw):
    """Blobs rounded to 0-2 decimals, so duplicate points and exact distance
    ties occur; a wide scale makes some centroid moves smaller than 1e-5 relative."""
    k = draw(st.integers(1, 16))
    n = draw(st.integers(k, 300))
    d = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blobs = rng.normal(size=(draw(st.integers(1, 6)), d)) * draw(st.sampled_from([1.0, 1e3, 1e6]))
    points = blobs[rng.integers(len(blobs), size=n)] + rng.normal(size=(n, d))
    return np.round(points, draw(st.integers(0, 2))), k


@settings(max_examples=150, deadline=None)
@given(kmeans_inputs(), st.sampled_from([1, 2, 3, 300]), st.integers(0, 2**32 - 1))
def test_kmeans_fit_equals_the_full_recompute_bit_for_bit(inputs, max_iter, seed):
    points, k = inputs
    assert_fit_matches_reference(points, k, max_iter, seed)


def test_kmeans_fit_with_empty_clusters_equals_the_full_recompute():
    # identical points: every centroid lands on them, clusters 1 and 2 stay empty
    points = np.full((10, 2), 3.5)
    assert_fit_matches_reference(points, 3, 300, 0)
    model = kmeans_fit(points, k=3, seed=0)
    assert model.inertia == 0.0 and model.iterations == 2


def identity_model(centroids) -> ClusterModel:
    centroids = np.asarray(centroids, dtype=float)
    d = centroids.shape[1]
    return ClusterModel(
        centroids=centroids,
        feature_min=np.zeros(d),
        feature_max=np.ones(d),
        inertia=0.0,
        iterations=1,
    )


def test_assign_state_exact_match():
    model = identity_model([[0.0, 0.0], [0.5, 0.5], [0.9, 0.1], [0.2, 0.8]])
    assert assign_state(model, np.array([0.9, 0.1])) == 2


def test_assign_state_tie_goes_low():
    model = identity_model([[0.0], [1.0]])
    assert assign_state(model, np.array([0.5])) == 0


def test_assign_state_dimension_mismatch():
    model = identity_model([[0.0, 0.0]])
    with pytest.raises(ValueError):
        assign_state(model, np.array([1.0]))


@settings(max_examples=50)
@given(st.lists(st.floats(0, 1), min_size=3, max_size=3))
def test_assign_state_linear_scan_oracle(values):
    model = identity_model([[0.1, 0.2, 0.3], [0.9, 0.8, 0.1], [0.5, 0.5, 0.5], [0.0, 1.0, 0.2]])
    features = np.array(values)
    got = assign_state(model, features)
    dists = [float(((c - features) ** 2).sum()) for c in model.centroids]
    assert dists[got] == min(dists)
    assert got == dists.index(min(dists))


# -- epsilon-greedy choice -----------------------------------------------------


def seeded_table(values: dict[str, float]) -> ValueTable:
    table = ValueTable()
    for rid, q in values.items():
        table.q[(0, FAMILY.family, rid)] = RunningMean(count=1, mean=q)
    return table


def test_choose_greedy_argmax():
    table = seeded_table({r.id: 10.0 for r in FAMILY.rules})
    table.q[(0, FAMILY.family, FAMILY.rules[2].id)] = RunningMean(count=1, mean=20.0)
    policy = Policy(epsilon=0.0, seed=1)
    for _ in range(100):
        choice, record = choose(table, policy, 0, FAMILY, turn=3)
        assert choice.rule.id == FAMILY.rules[2].id
        assert record == DecisionRecord(state_id=0, family=FAMILY.family, rule_id=choice.rule.id, turn=3)


def test_choose_unvisited_first_lowest_id():
    policy = Policy(epsilon=0.0, seed=1)
    choice, _ = choose(ValueTable(), policy, 0, FAMILY)
    assert choice.rule.id == min(r.id for r in FAMILY.rules)


def test_unvisited_outranks_visited():
    table = seeded_table({FAMILY.rules[0].id: 1e9})
    policy = Policy(epsilon=0.0, seed=1)
    choice, _ = choose(table, policy, 0, FAMILY)
    # rules 1..3 are unvisited, so the lowest-id unvisited one wins over the huge visited mean
    assert choice.rule.id == FAMILY.rules[1].id


def test_choose_epsilon_one_is_uniform():
    table = seeded_table({r.id: float(i) for i, r in enumerate(FAMILY.rules)})
    policy = Policy(epsilon=1.0, seed=123)
    counts = {r.id: 0 for r in FAMILY.rules}
    for _ in range(10_000):
        choice, _ = choose(table, policy, 0, FAMILY)
        counts[choice.rule.id] += 1
    for rid, n in counts.items():
        assert 0.23 <= n / 10_000 <= 0.27, (rid, n)


def test_draws_and_ties_go_by_rule_id_whatever_the_rule_order():
    from settlebench.rulekb import ConflictSet, ScoringRule

    rules = tuple(ScoringRule(id=f"f_alt{i}", family="f", points=i) for i in (10, 2, 0, 1))
    by_id = sorted(rules, key=lambda r: r.id)  # alt0, alt1, alt10, alt2
    family = ConflictSet(family="f", condition="x", rules=rules)
    assert family.rules == rules and list(family.by_id) == by_id
    assert greedy_rule(ValueTable(), 0, family) == by_id[0]
    policy, draws = Policy(epsilon=1.0, seed=7), random.Random(7)
    for _ in range(20):
        draws.random()
        assert choose(ValueTable(), policy, 0, family)[0].rule == by_id[draws.randrange(len(rules))]


def test_choose_empty_set_rejected():
    from settlebench.rulekb import ConflictSet

    empty = ConflictSet(family="terrain_grassland", condition="x", rules=())
    with pytest.raises(ValueError):
        choose(ValueTable(), Policy(epsilon=0.0), 0, empty)


def test_selection_probabilities_sum_to_one():
    table = seeded_table({r.id: float(i) for i, r in enumerate(FAMILY.rules)})
    policy = Policy(epsilon=0.3, seed=0)
    greedy = greedy_rule(table, 0, FAMILY)
    probs = selection_probabilities(policy, FAMILY, greedy)
    assert sum(probs.values()) == pytest.approx(1.0)
    assert probs[greedy.id] == pytest.approx(0.7 + 0.3 / 4)
    # choose draws under exactly these probabilities
    assert choose(table, policy, 0, FAMILY)[0].probabilities == probs


def test_exploration_guarantee():
    # dominant visited action; only the epsilon branch reaches the others
    table = seeded_table({FAMILY.rules[0].id: 1e9, **{r.id: 0.0 for r in FAMILY.rules[1:]}})
    policy = Policy(epsilon=0.1, seed=5)
    episodes = int(10 * len(FAMILY.rules) / policy.epsilon)  # 400
    seen = set()
    for _ in range(episodes):
        choice, _ = choose(table, policy, 0, FAMILY)
        seen.add(choice.rule.id)
    assert seen == {r.id for r in FAMILY.rules}
    for epsilon in (-0.1, 1.5):
        with pytest.raises(ValueError, match=f"epsilon must lie in \\[0, 1\\], got {epsilon}"):
            Policy(epsilon=epsilon)


# -- Monte Carlo updates ---------------------------------------------------------


def test_update_average_of_two_episodes():
    table = ValueTable()
    rec = DecisionRecord(state_id=4, family="terrain_grassland", rule_id="terrain_grassland_alt0", turn=1)
    update_from_episode(table, [rec], reward=10.0)
    update_from_episode(table, [rec], reward=20.0)
    entry = table.q[(4, "terrain_grassland", "terrain_grassland_alt0")]
    assert entry.count == 2
    assert entry.mean == 15.0
    assert table.v[4].count == 2 and table.v[4].mean == 15.0


def test_update_empty_records_noop():
    table = ValueTable()
    update_from_episode(table, [], reward=100.0)
    assert not table.q and not table.v


def test_v_counts_distinct_states_once_per_episode():
    table = ValueTable()
    recs = [
        DecisionRecord(state_id=1, family="terrain_grassland", rule_id="terrain_grassland_alt0", turn=1),
        DecisionRecord(state_id=1, family="water_access", rule_id="water_access_alt1", turn=1),
        DecisionRecord(state_id=2, family="terrain_grassland", rule_id="terrain_grassland_alt0", turn=2),
    ]
    update_from_episode(table, recs, reward=50.0)
    assert table.v[1].count == 1
    assert table.v[2].count == 1
    # every-visit on q: both records of state 1 counted
    assert table.q[(1, "terrain_grassland", "terrain_grassland_alt0")].count == 1
    assert table.q[(1, "water_access", "water_access_alt1")].count == 1


def test_running_means_match_batch_means_over_100_episodes():
    rng = np.random.default_rng(0)
    table = ValueTable()
    credited: dict[tuple, list[float]] = {}
    families = [KB.families[f] for f in ("terrain_grassland", "water_access", "whale_presence")]
    for _ in range(100):
        records = []
        for _ in range(rng.integers(1, 8)):
            fam = families[rng.integers(len(families))]
            rule = fam.rules[rng.integers(len(fam.rules))]
            rec = DecisionRecord(int(rng.integers(5)), fam.family, rule.id, int(rng.integers(1, 60)))
            records.append(rec)
        reward = float(rng.integers(0, 5000))
        update_from_episode(table, records, reward)
        for rec in records:
            credited.setdefault((rec.state_id, rec.family, rec.rule_id), []).append(reward)
    for key, rewards in credited.items():
        assert table.q[key].count == len(rewards)
        assert abs(table.q[key].mean - np.mean(rewards)) < 1e-9


def test_negative_reward_rejected():
    with pytest.raises(ValueError):
        update_from_episode(ValueTable(), [], reward=-1.0)


# -- persistence -----------------------------------------------------------------


def test_table_round_trip(tmp_path):
    table = ValueTable(meta={"k": "8", "epsilon": "0.1"})
    recs = [
        DecisionRecord(0, "terrain_grassland", "terrain_grassland_alt1", 1),
        DecisionRecord(3, "water_access", "water_access_alt0", 2),
    ]
    update_from_episode(table, recs, reward=123.0)
    update_from_episode(table, recs[:1], reward=456.789)
    path = tmp_path / "table.txt"
    save_table(table, path)
    assert load_table(path) == table


def test_empty_table_round_trip(tmp_path):
    path = tmp_path / "table.txt"
    save_table(ValueTable(), path)
    assert load_table(path) == ValueTable()


def test_truncated_table_rejected(tmp_path):
    table = ValueTable()
    update_from_episode(
        table, [DecisionRecord(0, "terrain_grassland", "terrain_grassland_alt0", 1)], 10.0
    )
    path = tmp_path / "table.txt"
    save_table(table, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        load_table(path)
