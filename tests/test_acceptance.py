"""Acceptance suite: every criterion asserts at its stated tolerance and
prints one pass line. Run with `pytest tests/test_acceptance.py -s`.

The heavyweight runs (bootstrap corpus, regressor, the two 300-episode
arms and their comparison) are one `harness.run_comparison` call, the
pipeline behind scripts/run_comparison.py, shared across criteria as a
session fixture.
"""

import numpy as np
import pytest

from settlebench import engine, features, harness, mlp, rl
from settlebench.cli import main as cli_main
from settlebench.engine import GameConfig
from settlebench.features import Dataset, minmax_fit
from settlebench.harness import (
    ExperimentConfig,
    RandomEvaluator,
    RlConfig,
    SettlementAgent,
    episode_seed,
    run_experiment,
)
from settlebench.rulekb import default_kb
from settlebench.world import MapGenConfig

BASE_SEED = 11


def ok(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {message}")


@pytest.fixture(scope="session")
def comparison():
    """The README's experiment at its default sizes on the fixed map: a
    280-episode bootstrap corpus, the regressor trained on it, both
    300-episode arms and their comparison."""
    return harness.run_comparison(seed=BASE_SEED)


def test_criterion_1_formula_oracles():
    """TGO and city labels equal brute-force recomputation, 50 random episodes."""
    checked_cities = 0
    for i in range(50):
        seed = episode_seed(99, i)
        agent = SettlementAgent(RandomEvaluator(seed))
        log = engine.run_episode(
            agent, GameConfig(turn_limit=40), seed, mapgen=MapGenConfig(), evaluator_name="random"
        )
        brute = sum(
            cr.points.weighted_total() for tr in log.turns for cr in tr.cities if cr.player == 0
        )
        assert log.final_tgo == brute
        for f in log.foundings():
            pts = log.city_points(f.city_id)
            resummed = float(sum(p.weighted_total() for p in pts[:100]))
            assert features.city_label(log, f.city_id) == resummed
            checked_cities += 1
    assert checked_cities > 0
    ok(1, f"50 episodes: TGO == brute-force resum; {checked_cities} city labels exact")


def test_criterion_2_monte_carlo_means():
    """q_s^a equals the batch mean of credited rewards after 200 episodes."""
    rng = np.random.default_rng(2)
    kb = default_kb()
    families = list(kb.families.values())
    table = rl.ValueTable()
    credited: dict[tuple, list[float]] = {}
    for _ in range(200):
        records = []
        for _ in range(int(rng.integers(1, 10))):
            fam = families[int(rng.integers(len(families)))]
            rule = fam.rules[int(rng.integers(len(fam.rules)))]
            records.append(rl.DecisionRecord(int(rng.integers(12)), fam.family, rule.id, int(rng.integers(1, 60))))
        reward = float(rng.integers(0, 30_000))
        rl.update_from_episode(table, records, reward)
        for rec in records:
            credited.setdefault((rec.state_id, rec.family, rec.rule_id), []).append(reward)
    assert credited
    for key, rewards in credited.items():
        assert table.q[key].count == len(rewards)
        assert abs(table.q[key].mean - float(np.mean(rewards))) < 1e-9
    ok(2, f"{len(credited)} state-action means match batch means within 1e-9")


def test_criterion_3_epsilon_greedy():
    """epsilon=0 is pure argmax; epsilon=1 is uniform within [0.23, 0.27]."""
    fam = default_kb().families["terrain_grassland"]
    table = rl.ValueTable()
    for i, r in enumerate(fam.rules):
        table.q[(0, fam.family, r.id)] = rl.RunningMean(count=1, mean=float(i))
    best = fam.rules[-1].id

    greedy = rl.Policy(epsilon=0.0, seed=3)
    assert all(rl.choose(table, greedy, 0, fam)[0].rule.id == best for _ in range(100))

    uniform = rl.Policy(epsilon=1.0, seed=3)
    counts = {r.id: 0 for r in fam.rules}
    for _ in range(10_000):
        counts[rl.choose(table, uniform, 0, fam)[0].rule.id] += 1
    frequencies = {rid: n / 10_000 for rid, n in counts.items()}
    assert all(0.23 <= f <= 0.27 for f in frequencies.values()), frequencies
    ok(3, f"argmax 100/100; uniform frequencies {sorted(frequencies.values())}")


def test_criterion_4_kmeans_inertia():
    """Lloyd inertia non-increasing each iteration; terminates within 300."""
    rng = np.random.default_rng(4)
    for seed in range(20):
        pts = rng.normal(size=(80, 5)) + rng.integers(0, 4, size=(80, 1))
        model = rl.kmeans_fit(pts, k=6, max_iter=300, seed=seed)
        assert model.iterations <= 300
        hist = model.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:])), hist
    ok(4, "20 seeded fits: monotone inertia, all terminated within 300 iterations")


def test_criterion_5_gradient_check():
    """Backprop matches central finite differences on a 5-4-1 net, dropout off."""
    cfg = mlp.MlpConfig(input_dim=5, hidden=(4,), dropout=0.0, init_std=0.5, seed=5)
    model = mlp.init_model(cfg)
    rng = np.random.default_rng(5)
    eps, worst = 1e-6, 0.0
    for _ in range(10):
        x, y = rng.standard_normal(5), np.array([rng.standard_normal()])
        _, cache = mlp.forward(model, x.reshape(1, -1))
        grads = mlp.backward(model, cache, y)
        for li in range(len(model.weights)):
            for arr, g in (
                (model.weights[li], grads.weights[li]),
                (model.biases[li], grads.biases[li]),
            ):
                flat, gflat = arr.ravel(), np.asarray(g).ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    up = mlp.mse(mlp.forward(model, x)[0], y[0:1])
                    flat[idx] = orig - eps
                    down = mlp.mse(mlp.forward(model, x)[0], y[0:1])
                    flat[idx] = orig
                    numeric = (up - down) / (2 * eps)
                    denom = max(abs(numeric), abs(gflat[idx]), 1e-8)
                    worst = max(worst, abs(numeric - gflat[idx]) / denom)
    assert worst < 1e-4
    ok(5, f"max relative gradient error {worst:.2e} < 1e-4")


def test_criterion_6_nn_learning_sanity(comparison):
    """Synthetic convergence plus CV beating the mean predictor by >= 20%."""
    rng = np.random.default_rng(6)
    x = rng.random((200, 8))
    w = rng.random(8)
    y = x @ w + 0.5
    ds = Dataset(x, y)
    cfg = mlp.MlpConfig(input_dim=8, hidden=(16,), dropout=0.0, epochs=80, batch_size=20,
                        learning_rate=0.01, seed=6)
    _, report = mlp.train(ds, minmax_fit(ds), cfg)
    reduction = 1 - report.epoch_losses[-1] / report.epoch_losses[0]
    assert reduction >= 0.90

    cv_report, dataset = comparison.train_report, comparison.dataset
    n_cities = sum(len(l.foundings()) for l in comparison.corpus)
    assert n_cities >= 300
    # mean-predictor baseline on the identical shuffled folds
    order = np.random.default_rng(0).permutation(len(dataset))
    parts = np.array_split(order, 10)
    baseline_folds = []
    for i in range(10):
        val = parts[i]
        tr = np.concatenate([parts[j] for j in range(10) if j != i])
        norm_i = minmax_fit(Dataset(dataset.x[tr], dataset.y[tr]))
        yv = features.normalize_label(norm_i, dataset.y[val])
        yt = features.normalize_label(norm_i, dataset.y[tr])
        baseline_folds.append(float(np.mean((yv - yt.mean()) ** 2)))
    baseline = float(np.mean(baseline_folds))
    margin = 1 - cv_report.mean_cv_mse / baseline
    assert margin >= 0.20, (cv_report.mean_cv_mse, baseline)
    ok(
        6,
        f"synthetic MSE cut {reduction * 100:.1f}%; CV {cv_report.mean_cv_mse:.5f} beats "
        f"mean-predictor {baseline:.5f} by {margin * 100:.1f}% on {n_cities} cities",
    )


def test_criterion_7_kb_rl_improves(comparison):
    """300 fixed-map episodes: last-30 mean TGO >= 1.1x first-30 mean."""
    tgo = np.asarray(comparison.arms["kb"].metrics.tgo)
    first, last = tgo[:30].mean(), tgo[-30:].mean()
    assert last >= 1.10 * first, (first, last)
    ok(7, f"mean TGO first30 {first:.0f} -> last30 {last:.0f} (+{(last / first - 1) * 100:.1f}%)")


def test_criterion_8_comparison_pipeline(comparison):
    """Both arms on the identical fixed map; report shares sum to one."""
    kb_run, nn_run, report = comparison.arms["kb"], comparison.arms["nn"], comparison.report
    assert kb_run.logs[0].map_text == nn_run.logs[0].map_text
    lines = report.summary_lines()
    assert any("improvement" in line for line in lines)
    for shares in (*report.center_shares.values(), *report.occupied_shares.values()):
        assert shares, "empty terrain distribution"
        assert abs(sum(shares.values()) - 1.0) <= 1e-9
    ok(
        8,
        f"kb improvement {report.improvement_a * 100:.1f}% vs nn {report.improvement_b * 100:.1f}%; "
        "all terrain shares sum to 1",
    )


def test_criterion_9_explainability(comparison, tmp_path, capsys):
    """cmd_explain reproduces the additive trace of logged founding decisions."""
    checked = 0
    path = tmp_path / "episode.jsonl"
    for log in comparison.arms["kb"].logs:
        for f in log.foundings():
            assert f.trace is not None
            points_sum = sum(fr["points"] for fr in f.trace["fired"])
            assert points_sum == f.trace["total"] == f.score
            checked += 1
        if checked and path.exists() is False:
            engine.write_episode_log(log, path)
            f0 = log.foundings()[0]
            code = cli_main(
                ["explain", "--log", str(path), "--turn", str(f0.turn), "--coord", f"{f0.x},{f0.y}"]
            )
            printed = capsys.readouterr().out
            assert code == 0
            total_line = [l for l in printed.splitlines() if l.startswith("total:")][0]
            assert float(total_line.split(":")[1]) == f0.score
    assert checked > 0
    ok(9, f"{checked} founding traces additive and reproduced by cmd_explain")


def test_criterion_10_determinism_and_replay(tmp_path):
    """Identical seeds reproduce metrics byte-for-byte; logs replay exactly."""
    config = ExperimentConfig(
        evaluator="kb",
        episodes=6,
        base_seed=17,
        game=GameConfig(turn_limit=30),
        mapgen=MapGenConfig(),
        rl=RlConfig(epsilon=0.1, warmup_episodes=5, k=6),
    )
    run_experiment(config, out_dir=str(tmp_path / "a"))
    result = run_experiment(config, out_dir=str(tmp_path / "b"))
    bytes_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert bytes_a == bytes_b
    for log in result.logs:
        assert engine.replay_episode(log) == log.final_tgo
    ok(10, "metrics byte-identical across reruns; all logs replay to the same TGO")
