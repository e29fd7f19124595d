#!/usr/bin/env python3
"""Benchmark one settlebench workload in a fresh single-threaded process.

    python3 bench/run.py --workload kb_arm --seed 1 --seconds 10 --trace 0

Run from a checkout's root or anywhere else; the library is always
imported from the `src` directory next to this `bench` directory. The
last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric for `--trace 0` and every per-layer metric
for `--trace 1`. The line before it records the run's conditions (git
rev, digests of the library and benchmark sources, Python and numpy
versions, CPU count, load average before and after). `--out FILE` also
writes both, with per-unit detail and the aggregated trace, as one JSON
document.

The workload runs in a child process whose BLAS and OpenMP pools are
limited to one thread; only one process computes at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH_DIR))

from workloads import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# fresh-interpreter import probes, half before and half after the child,
# so that the import part of setup_s samples the whole run
IMPORT_PROBES = 8
# the child's time limit: set-up repeats and checks, plus the timed loop
# (run twice when traced)
CHILD_FIXED_S = 60
CHILD_PER_SECOND = 2


def child_env() -> dict:
    """This process's environment with every numeric thread pool at one."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def import_seconds(env: dict, probes: int) -> list[float]:
    """Wall time of a fresh interpreter importing the library, per probe."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import settlebench.cli"
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(directory: Path) -> str:
    """sha256 over the Python sources under a directory, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke tests only")
    parser.add_argument("--out", help="also write the result, conditions and detail to this JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "settlebench" / "__init__.py").is_file():
        print(f"bench: no settlebench sources under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    load_before = os.getloadavg()
    try:
        imports = import_seconds(env, IMPORT_PROBES // 2)
        proc = subprocess.run(
            [
                sys.executable,
                str(BENCH_DIR / "workloads.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--size", args.size,
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_FIXED_S + CHILD_PER_SECOND * args.seconds,
        )
        imports += import_seconds(env, IMPORT_PROBES - IMPORT_PROBES // 2)
    except subprocess.CalledProcessError as exc:
        print(f"bench: importing the library failed ({exc})", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"bench: {exc.cmd[1]} exceeded {exc.timeout}s and was stopped", file=sys.stderr)
        return 1
    load_after = os.getloadavg()
    if proc.returncode != 0:
        print(f"bench: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    child = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        values, units = child["per_layer"], PER_LAYER_UNITS
    else:
        values, units = dict(child["end_to_end"]), END_TO_END_UNITS
        # set-up starts with a fresh interpreter importing the library
        values["setup_s"] += statistics.median(imports)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_rev": git_rev(),
        "source_sha256": source_digest(SRC / "settlebench"),
        "bench_sha256": source_digest(BENCH_DIR),
        "python": platform.python_version(),
        "numpy": child["detail"]["numpy"],
        "nproc": os.cpu_count(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "import_s": imports,
    }
    for name, metric in metrics.items():
        print(f"{args.workload:8s} {name:48s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    if child["detail"]["failures"]:
        print("bench: failed checks: " + "; ".join(child["detail"]["failures"]), file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"meta": meta, "result": result, "detail": child["detail"]}, fh, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
