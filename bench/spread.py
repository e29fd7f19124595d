#!/usr/bin/env python3
"""Run the benchmark over many seeds and report how steady each metric is.

    python3 bench/spread.py --seeds 1-10 --out bench/results/spread.json
    python3 bench/spread.py --seeds 1-10 --against bench/results/spread.json

For every workload and end-to-end metric it reports the quartiles of the
per-seed values and their spread, (q3 - q1) / median, beside the bound
from BENCHMARK.json. The spread of setup_s is reported but not tested:
its bound applies only median to median, with `--against`. With
`--against`, it also reports whether each median is worse than the
earlier file's median by more than the bound. `--trace-seed N` adds one
traced run per workload. Runs are sequential: one benchmark at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = BENCH_DIR / ".work" / f"spread-{os.getpid()}.json"
    out.parent.mkdir(exist_ok=True)
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--out", str(out),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=900,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: benchmark exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(out.read_text())["detail"]
    out.unlink()
    return {
        "seed": seed,
        "elapsed_s": elapsed,
        **json.loads(lines[-2]),
        "result": json.loads(lines[-1]),
        "detail": detail,
    }


def stats(values: list[float], bound: float, better: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"q1": q1, "median": median, "q3": q3, "spread": spread, "bound": bound, "better": better}


def worse_by(new: float, old: float, better: str) -> float:
    """Relative worsening of `new` against `old`; negative when better."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per workload at this seed")
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    parser.add_argument("--out", help="write every run and the statistics to this JSON file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}

    report: dict = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        entry: dict = {"runs": runs, "stats": {}}
        print(f"\n{workload}: {len(runs)} runs, {sum(r['elapsed_s'] for r in runs):.0f} s")
        print(f"  {'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            s = stats(values, metric["bound"], metric["better"])
            verdict = []
            if name == "setup_s":
                # set-up's bound applies only median to median
                verdict.append("spread not tested")
            elif s["spread"] > s["bound"]:
                verdict.append("SPREAD OVER BOUND")
                steady = False
            elif s["spread"] > s["bound"] / 3:
                verdict.append("spread over a third of bound")
            old = earlier.get(workload, {}).get("stats", {}).get(name)
            if old is not None:
                s["worse_than_earlier"] = worse_by(s["median"], old["median"], metric["better"])
                if s["worse_than_earlier"] > s["bound"]:
                    verdict.append("MEDIAN WORSE THAN EARLIER BY MORE THAN BOUND")
                    steady = False
            if not all(r["result"]["correct"] for r in runs):
                verdict.append("INCORRECT RUN")
                steady = False
            entry["stats"][name] = s
            print(f"  {name:16s} {s['median']:12.6g} {s['spread']:8.4f} {s['bound']:6.2f}  {', '.join(verdict) or 'ok'}")
        if args.trace_seed is not None:
            entry["traced"] = run_once(workload, args.trace_seed, spec["run_seconds"], 1)
        report["workloads"][workload] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
