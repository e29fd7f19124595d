"""scripts/run_comparison.py end to end at tiny sizes: its `--out` directory
holds what harness.run_comparison returns for the same sizes, and its bytes
do not depend on the process that wrote them: not on the str hash seed, not
on the number of CPUs (cross-validation folds fit in forked children, one
group per usable CPU), and logs read back in a fresh process write the same
bytes."""

import functools
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from settlebench import engine, features, harness, mlp

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_comparison.py")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")
SMALL = ["--episodes", "4", "--bootstrap-episodes", "70", "--epochs", "3", "--turn-limit", "30"]
# runs the script given as its first argument, pinned to one CPU by its own affinity mask
ON_ONE_CPU = """import os, runpy, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""
# rewrites every log of the directory given first into the one given second
REWRITE_LOGS = """import os, sys
from settlebench import engine
src, dst = sys.argv[1:]
for name in sorted(os.listdir(src)):
    engine.write_episode_log(engine.read_episode_log(os.path.join(src, name)), os.path.join(dst, name))
"""


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


def run_child(args, hash_seed: int = 1) -> None:
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def files_of(root) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def assert_same_files(a, b) -> None:
    a, b = files_of(a), files_of(b)
    assert a.keys() == b.keys()
    assert [name for name in a if a[name] != b[name]] == []


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """small(hash_seed, one_cpu): the directory of a small comparison, each
    written once by a fresh process."""
    root = tmp_path_factory.mktemp("small")

    @functools.cache
    def out(hash_seed: int, one_cpu: bool):
        path = root / f"hashseed-{hash_seed}-{'one' if one_cpu else 'all'}-cpus"
        run_child([*(["-c", ON_ONE_CPU] if one_cpu else []), SCRIPT, "--out", str(path), *SMALL], hash_seed)
        return path

    return out


def test_a_small_comparison_writes_the_same_bytes_under_two_hash_seeds(small):
    """str hashing is salted per process, so any set or dict order it decides shows here."""
    assert_same_files(small(1, one_cpu=False), small(2, one_cpu=False))


def test_a_small_comparison_writes_the_same_bytes_on_one_cpu_and_on_all(small):
    """On one CPU every cross-validation fold is fitted in-process."""
    assert_same_files(small(1, one_cpu=True), small(1, one_cpu=False))


@pytest.mark.parametrize("arm", ["kb", "nn"])
def test_logs_read_back_in_a_fresh_process_write_the_same_bytes(small, tmp_path, arm):
    logs = small(1, one_cpu=False) / arm / "logs"
    run_child(["-c", REWRITE_LOGS, str(logs), str(tmp_path)])
    assert_same_files(logs, tmp_path)
