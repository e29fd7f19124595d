"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, bench_dir: Path = BENCH_DIR) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(bench_dir / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_code_metrics_and_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER_UNITS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result = result_of(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_emits_every_per_layer_metric(workload):
    result = result_of(run_bench(workload, 1))
    # correct includes: every traced unit's TGO equals the untraced unit's
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["engine.step_turn.calls"] > 0
    assert metrics["bench.trace_overhead"] > 0
    busy = {"kb_arm": "rulekb.match_rules.calls", "nn_arm": "mlp.predict.calls", "corpus": "mlp.adam_step.calls"}
    assert metrics[busy[workload]] > 0


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = run_bench("kb_arm", 0, tmp_path / "bench")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _bindings(modules) -> dict:
    bound = {(name, attr): value for name, module in modules.items() for attr, value in vars(module).items()}
    for module_name, path in tracing.TRACED:
        if "." in path:
            cls_name, method = path.split(".")
            cls = getattr(modules[module_name], cls_name)
            bound[(cls_name, method)] = cls.__dict__[method]
    return bound


def test_instrument_patches_every_import_site_and_restores_them():
    workloads.import_library()
    modules = tracing._modules()
    before = _bindings(modules)
    originals = {id(tracing.binding_sites(modules, m, p)[0]) for m, p in tracing.TRACED}
    cluster_at = modules["world"].cluster_at
    with tracing.instrument(tracing.Tracer()):
        during = _bindings(modules)
        assert not [key for key, value in during.items() if id(value) in originals]
        for name in ("world", "engine", "harness", "features", "rl"):
            assert modules[name].cluster_at is not cluster_at
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracing_leaves_tgo_unchanged(tmp_path):
    bench = workloads.Bench("kb_arm", 5, workloads.TINY, tmp_path)
    context = bench.setup().context
    plain = bench.simulate(0, context)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = bench.simulate(0, context)
    assert traced.metrics.tgo == plain.metrics.tgo
    assert tracer.calls("engine.run_episode") == workloads.TINY.kb_unit_episodes
    assert tracer.calls("rulekb.match_rules") > 0


def test_self_time_is_total_minus_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def outer_fn():
        inner()
        inner()
        return sum(range(20000))

    outer = tracer.wrap("outer", outer_fn)
    outer()
    assert tracer.calls("inner") == 2 and tracer.calls("outer") == 1
    assert tracer.self_time("outer") == pytest.approx(tracer.total("outer") - tracer.total("inner"))
    assert tracer.edge_total("outer", "inner") == tracer.total("inner")
    assert 0 < tracer.self_time("outer") < tracer.total("outer")
