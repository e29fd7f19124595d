"""scripts/run_comparison.py end to end at tiny sizes: its `--out` directory
holds what harness.run_comparison returns for the same sizes."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from settlebench import engine, features, harness, mlp

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_comparison.py")


def test_script_writes_the_comparison_it_returns(tmp_path):
    out = tmp_path / "cmp"
    flags = ["--episodes", "4", "--bootstrap-episodes", "70", "--epochs", "3", "--turn-limit", "30"]
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--out", str(out), *flags], cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr

    metrics_kb, logs_kb, _ = harness.load_run_dir(str(out / "kb"))
    metrics_nn, logs_nn, _ = harness.load_run_dir(str(out / "nn"))
    report = harness.compare(metrics_kb, metrics_nn, logs_kb, logs_nn)
    summary = (out / "comparison" / "summary.txt").read_text()
    assert summary == "\n".join(report.summary_lines()) + "\n"

    run = harness.run_comparison(episodes=4, bootstrap_episodes=70, epochs=3, turn_limit=30)
    assert list(run.seconds) == ["corpus", "train", "kb", "nn"]
    assert all(seconds > 0 for seconds in run.seconds.values())
    assert re.search(r"^regressor: .* CV MSE [0-9.]+ \([0-9]+\.[0-9]s\)$", proc.stdout, re.M)
    assert metrics_kb.tgo == run.arms["kb"].metrics.tgo
    assert metrics_nn.tgo == run.arms["nn"].metrics.tgo
    assert report.summary_lines() == run.report.summary_lines()
    assert "\n".join(run.report.summary_lines()) in proc.stdout
    model, norm = mlp.load_model(str(out / "model.json"))
    assert np.array_equal(model.flat, run.model.flat)
    assert norm.to_dict() == run.normalization.to_dict()
    written = features.read_dataset_csv(str(out / "dataset.csv"))
    assert np.array_equal(written.x, run.dataset.x) and np.array_equal(written.y, run.dataset.y)


def test_a_corpus_too_small_for_the_default_batch_trains_on_a_clamped_one(tmp_path):
    out = tmp_path / "cmp"
    flags = ["--episodes", "4", "--bootstrap-episodes", "20", "--epochs", "3", "--turn-limit", "30"]
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--out", str(out), *flags], cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    model, _ = mlp.load_model(str(out / "model.json"))
    rows = len(features.read_dataset_csv(str(out / "dataset.csv")))
    # the smallest of 10 CV training splits has 24 rows, too few for batches of 30
    assert rows - -(-rows // 10) == 24
    assert model.config.batch_size == mlp.cv_batch_size(30, rows, 10) == 12


@pytest.mark.parametrize("bootstrap_episodes", [20, 70])
def test_kb_arm_equals_a_run_that_plays_its_own_warmup(bootstrap_episodes):
    run = harness.run_comparison(episodes=4, bootstrap_episodes=bootstrap_episodes, epochs=3, turn_limit=30)
    kb = run.arms["kb"]
    alone = harness.run_experiment(kb.config, game_map=run.game_map)
    assert len(run.corpus) == bootstrap_episodes
    assert kb.metrics.tgo == alone.metrics.tgo
    assert kb.table == alone.table
    assert np.array_equal(kb.cluster_model.centroids, alone.cluster_model.centroids)


@pytest.mark.parametrize(
    "sizes, message",
    [
        (dict(episodes=0), "episodes must be >= 1, got 0"),
        (dict(bootstrap_episodes=0), "bootstrap_episodes must be >= 1, got 0"),
        (dict(window=-3), "metrics_window must be >= 1, got -3"),
        (dict(epochs=-1), "epochs must be >= 0, got -1"),
        (dict(episodes=4, bootstrap_episodes=70, epochs=2, epsilon=1.5), r"epsilon must lie in \[0, 1\], got 1.5"),
    ],
)
def test_bad_sizes_are_refused_before_the_corpus_is_played(monkeypatch, tmp_path, sizes, message):
    played = []
    monkeypatch.setattr(engine, "run_episode", lambda *args, **kwargs: played.append(args))
    out = tmp_path / "cmp"
    with pytest.raises(ValueError, match=message):
        harness.run_comparison(turn_limit=30, out_dir=str(out), **sizes)
    assert played == []
    assert not out.exists()

