#!/usr/bin/env python3
"""Full two-arm comparison at desk scale: a wrapper over harness.run_comparison.

Pipeline: random-agent bootstrap corpus -> placement dataset + trained
regressor -> the rule-based RL arm and the NN arm trained from the same
starting point on one fixed map -> comparison report with improvement
percentages, per-episode curves and terrain distributions.

    python scripts/run_comparison.py --out runs/comparison --episodes 300
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from settlebench import harness  # noqa: E402


def main() -> int:
    # flags left out fall back to run_comparison's defaults
    parser = argparse.ArgumentParser(description=__doc__, argument_default=argparse.SUPPRESS)
    parser.add_argument("--out", dest="out_dir", metavar="OUT", default="runs/comparison")
    parser.add_argument("--episodes", type=int)
    parser.add_argument("--bootstrap-episodes", type=int)
    parser.add_argument("--turn-limit", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--window", type=int, help="metrics window (default 10%%)")
    args = parser.parse_args()

    run = harness.run_comparison(**vars(args))
    print(f"fixed map seed {run.game_map.seed}: buildable fraction {run.game_map.buildable_fraction():.3f}")
    cities = sum(len(log.foundings()) for log in run.corpus)
    print(f"bootstrap corpus: {len(run.corpus)} episodes, {cities} cities ({run.seconds['corpus']:.1f}s)")
    print(
        f"regressor: {len(run.dataset)} unique entries, 10-fold CV MSE {run.train_report.mean_cv_mse:.5f} "
        f"({run.seconds['train']:.1f}s)"
    )
    for arm, result in run.arms.items():
        metrics = result.metrics
        print(
            f"{arm} arm: {result.config.episodes} episodes in {run.seconds[arm]:.1f}s, "
            f"final avg TGO {metrics.running_avg[-1]:.1f}, improvement {metrics.improvement * 100:.1f}%"
        )
    print("", *run.report.summary_lines(), f"\nartifacts in {args.out_dir}/", sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
