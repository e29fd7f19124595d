import json

import numpy as np
import pytest

from settlebench import engine, features
from settlebench.cli import main
from settlebench.world import decode_map


def run_cli(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture
def kb_run(tmp_path_factory):
    """One small persisted kb run, shared across CLI tests."""
    out = tmp_path_factory.mktemp("run") / "kb"
    code = run_cli(
        "run", "--evaluator", "kb", "--episodes", "3", "--seed", "5",
        "--turn-limit", "25", "--warmup-episodes", "4", "--state-clusters", "6",
        "--out-dir", out,
    )
    assert code == 0
    return out


@pytest.fixture
def random_run(tmp_path_factory):
    """Random-agent run with enough placement diversity to train on."""
    out = tmp_path_factory.mktemp("run") / "random"
    code = run_cli(
        "run", "--evaluator", "random", "--episodes", "15", "--seed", "5",
        "--turn-limit", "40", "--out-dir", out,
    )
    assert code == 0
    return out


def test_gen_map_writes_and_repeats(tmp_path, capsys):
    out = tmp_path / "map.txt"
    assert run_cli("gen-map", "--seed", "3", "--out", out) == 0
    printed = capsys.readouterr().out
    assert "buildable fraction" in printed
    first = out.read_bytes()
    game_map = decode_map(out.read_text())
    assert game_map.width == 20 and game_map.height == 20
    assert run_cli("gen-map", "--seed", "3", "--out", out) == 0
    assert out.read_bytes() == first


def test_gen_map_rejects_tiny_map(tmp_path):
    assert run_cli("gen-map", "--width", "5", "--out", tmp_path / "m.txt") == 2


def test_usage_error_exit_code():
    assert run_cli("run", "--episodes", "1") == 1  # missing required flags
    assert run_cli("no-such-command") == 1


def test_run_kb_artifacts(kb_run):
    assert (kb_run / "metrics.csv").exists()
    assert (kb_run / "value_table.txt").exists()
    assert (kb_run / "map.txt").exists()
    logs = sorted((kb_run / "logs").glob("*.jsonl"))
    assert len(logs) == 3
    header = (kb_run / "metrics.csv").read_text().splitlines()[0]
    assert header == "episode,tgo,running_avg"


def test_run_reproducible_metrics(kb_run, tmp_path):
    again = tmp_path / "again"
    code = run_cli(
        "run", "--evaluator", "kb", "--episodes", "3", "--seed", "5",
        "--turn-limit", "25", "--warmup-episodes", "4", "--state-clusters", "6",
        "--out-dir", again,
    )
    assert code == 0
    assert (again / "metrics.csv").read_bytes() == (kb_run / "metrics.csv").read_bytes()


def test_run_nn_requires_model(tmp_path):
    assert run_cli("run", "--evaluator", "nn", "--episodes", "1", "--out-dir", tmp_path / "x") == 1


def test_run_on_map_file(tmp_path):
    map_path = tmp_path / "fixed.txt"
    assert run_cli("gen-map", "--seed", "8", "--out", map_path) == 0
    out = tmp_path / "run"
    code = run_cli(
        "run", "--evaluator", "constant", "--episodes", "2", "--seed", "8",
        "--turn-limit", "20", "--map", map_path, "--out-dir", out,
    )
    assert code == 0
    # the run persisted exactly the supplied world
    assert (out / "map.txt").read_text() == map_path.read_text()


def test_build_dataset_and_train(random_run, tmp_path, capsys):
    csv_path = tmp_path / "ds.csv"
    assert run_cli("build-dataset", "--logs-dir", random_run / "logs", "--out", csv_path) == 0
    out = capsys.readouterr().out
    assert "unique entries" in out
    assert csv_path.exists()

    model_path = tmp_path / "model.json"
    code = run_cli(
        "train-nn", "--dataset", csv_path, "--out-model", model_path,
        "--folds", "2", "--epochs", "2", "--batch-size", "2",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mean CV MSE" in out
    assert model_path.exists()
    payload = json.loads(model_path.read_text())
    assert payload["format"] == "settlebench-mlp"

    # the trained model feeds the nn arm
    nn_dir = tmp_path / "nn"
    code = run_cli(
        "run", "--evaluator", "nn", "--model", model_path, "--episodes", "2",
        "--seed", "5", "--turn-limit", "25", "--out-dir", nn_dir,
    )
    assert code == 0
    assert (nn_dir / "metrics.csv").exists()


def test_build_dataset_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("build-dataset", "--logs-dir", empty, "--out", tmp_path / "d.csv") == 1


def test_train_on_synthetic_linear_beats_label_variance(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = rng.random((120, len(features.COLUMNS)))
    y = 3 * x[:, 0] + 2 * x[:, 10] + 1
    ds = features.Dataset(x, y)
    csv_path = tmp_path / "linear.csv"
    features.write_dataset_csv(ds, csv_path)
    code = run_cli(
        "train-nn", "--dataset", csv_path, "--out-model", tmp_path / "m.json",
        "--folds", "5", "--epochs", "60", "--batch-size", "12",
    )
    assert code == 0
    printed = capsys.readouterr().out
    mean_line = [l for l in printed.splitlines() if l.startswith("mean CV MSE")][0]
    cv_mse = float(mean_line.split()[3])
    normalized = (y - y.min()) / (y.max() - y.min())
    assert cv_mse < float(np.var(normalized))


@pytest.mark.parametrize("folds", ["1", "0", "-3"])
def test_train_refuses_fewer_than_two_folds_by_the_flag(tmp_path, capsys, folds):
    rng = np.random.default_rng(0)
    x = rng.random((80, len(features.COLUMNS)))
    csv_path = tmp_path / "d.csv"
    features.write_dataset_csv(features.Dataset(x, x[:, 0]), csv_path)
    model_path = tmp_path / "m.json"
    code = run_cli("train-nn", "--dataset", csv_path, "--out-model", model_path, "--folds", folds)
    assert code == 1
    err = capsys.readouterr().err
    assert f"--folds must be >= 2, got {folds}" in err
    assert "too small" not in err
    assert not model_path.exists()


def test_train_refuses_a_dataset_too_small_to_cross_validate(tmp_path, capsys):
    x = np.random.default_rng(0).random((1, len(features.COLUMNS)))
    csv_path = tmp_path / "d.csv"
    features.write_dataset_csv(features.Dataset(x, x[:, 0]), csv_path)
    model_path = tmp_path / "m.json"
    assert run_cli("train-nn", "--dataset", csv_path, "--out-model", model_path) == 1
    assert "dataset of 1 entries is too small to cross-validate" in capsys.readouterr().err
    assert not model_path.exists()


def test_train_refuses_negative_epochs_and_saves_nothing(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = rng.random((20, len(features.COLUMNS)))
    ds = features.Dataset(x, x[:, 0])
    csv_path = tmp_path / "d.csv"
    features.write_dataset_csv(ds, csv_path)
    model_path = tmp_path / "m.json"
    code = run_cli(
        "train-nn", "--dataset", csv_path, "--out-model", model_path,
        "--folds", "2", "--epochs", "-5", "--batch-size", "2",
    )
    assert code == 2
    assert "epochs must be >= 0, got -5" in capsys.readouterr().err
    assert not model_path.exists()


@pytest.mark.parametrize("max_cities", ["0", "-2"])
def test_run_refuses_a_city_cap_below_one_and_writes_nothing(tmp_path, capsys, max_cities):
    out = tmp_path / "run"
    code = run_cli(
        "run", "--evaluator", "random", "--episodes", "2", "--seed", "1",
        "--turn-limit", "30", "--max-cities", max_cities, "--out-dir", out,
    )
    assert code == 2
    assert f"max_cities must be >= 1, got {max_cities}" in capsys.readouterr().err
    assert not out.exists()


def test_compare_run_with_itself(kb_run, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert run_cli("compare", "--run-a", kb_run, "--run-b", kb_run, "--out", out) == 0
    printed = capsys.readouterr().out
    assert "improvement delta (a - b): 0.0%" in printed
    assert (out / "summary.txt").exists()
    assert (out / "center_terrain_a.csv").exists()
    assert (out / "curve_b.csv").exists()


def test_explain_founding_decision(kb_run, capsys):
    log_path = f = None
    for candidate in sorted((kb_run / "logs").glob("*.jsonl")):
        foundings = engine.read_episode_log(candidate).foundings()
        if foundings:
            log_path, f = candidate, foundings[0]
            break
    assert f is not None, "no founding in any episode of the fixture run"
    assert run_cli("explain", "--log", log_path, "--turn", f.turn, "--coord", f"{f.x},{f.y}") == 0
    printed = capsys.readouterr().out
    assert "total:" in printed
    # the printed per-rule points sum to the logged tile score
    total_line = [l for l in printed.splitlines() if l.startswith("total:")][0]
    assert float(total_line.split(":")[1]) == f.score
    assert "alternatives" in printed


def test_explain_no_decision(kb_run, capsys):
    log_path = sorted((kb_run / "logs").glob("*.jsonl"))[0]
    assert run_cli("explain", "--log", log_path, "--turn", "1", "--coord", "0,0") == 2
    assert "no founding decision" in capsys.readouterr().err


def test_explain_bad_coord(kb_run):
    log_path = sorted((kb_run / "logs").glob("*.jsonl"))[0]
    assert run_cli("explain", "--log", log_path, "--turn", "1", "--coord", "oops") == 1


def test_config_file_overlay(tmp_path, capsys):
    overlay = tmp_path / "exp.conf"
    overlay.write_text("width=14\nheight=14\nseed=9\n")
    out = tmp_path / "m.txt"
    assert run_cli("gen-map", "--config", overlay, "--out", out) == 0
    game_map = decode_map(out.read_text())
    assert (game_map.width, game_map.height, game_map.seed) == (14, 14, 9)
    # explicit flags beat the file
    assert run_cli("gen-map", "--config", overlay, "--seed", "2", "--out", out) == 0
    assert decode_map(out.read_text()).seed == 2


def test_config_file_unknown_key(tmp_path, capsys):
    overlay = tmp_path / "exp.conf"
    overlay.write_text("no_such_option=1\n")
    assert run_cli("gen-map", "--config", overlay, "--out", tmp_path / "m.txt") == 1
    assert "no_such_option" in capsys.readouterr().err


def test_config_file_missing_or_malformed(tmp_path, capsys):
    assert run_cli("gen-map", "--config", tmp_path / "absent.conf", "--out", tmp_path / "m.txt") == 1
    bad = tmp_path / "bad.conf"
    bad.write_text("seed ten\n")
    assert run_cli("gen-map", "--config", bad, "--out", tmp_path / "m.txt") == 1
