"""Command-line entry point.

Subcommands cover the full pipeline: map generation, experiment runs,
dataset building, NN training, run comparison, and decision explanation.
Exit codes: 0 success, 1 usage error, 2 runtime error. Every command is
deterministic given its flags; all randomness flows from --seed.

A `--config FILE` overlay (one `key=value` per line, keys named like the
long flags without the leading dashes, dashes-as-underscores) supplies
defaults; flags given on the command line win. Unknown keys are rejected
by name.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import engine, features, harness, mlp, rulekb
from .world import MapGenConfig, decode_map, encode_map, generate_map

USAGE_ERROR, RUNTIME_ERROR = 1, 2


class UsageError(Exception):
    pass


def _bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


class Command:
    """A subcommand with a converter registry for config-file overlays."""

    def __init__(self, sub, name: str, help_text: str):
        self.parser = sub.add_parser(name, help=help_text)
        self.parser.add_argument("--config", help="key=value overlay file; flags win")
        self.types: dict[str, type] = {}

    def opt(self, *names, type=str, default=None, required=False, choices=None, help=None):
        action = self.parser.add_argument(
            *names, type=type, default=default, required=required, choices=choices, help=help
        )
        self.types[action.dest] = type
        return action

    def flag(self, *names, help=None):
        action = self.parser.add_argument(*names, action="store_true", help=help)
        self.types[action.dest] = _bool
        return action


def load_overlay(path: str, command: Command) -> dict:
    values = {}
    with open(path) as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{i}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in command.types:
                raise UsageError(f"{path}:{i}: unknown config key {key!r}")
            values[key] = command.types[key](raw.strip())
    return values


def build_parser():
    # abbreviations off so config-overlay priority can match flags literally
    parser = argparse.ArgumentParser(prog="settlebench", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    c = commands["gen-map"] = Command(sub, "gen-map", "generate a map and write its text format")
    c.opt("--width", type=int, default=20)
    c.opt("--height", type=int, default=20)
    c.opt("--seed", type=int, default=0)
    c.opt("--land-fraction", type=float, default=0.6)
    c.opt("--special-frequency", type=float, default=0.12)
    c.opt("--river-frequency", type=float, default=0.08)
    c.opt("--out", required=True)

    c = commands["run"] = Command(sub, "run", "run a training experiment for one evaluator arm")
    c.opt("--evaluator", choices=("kb", "nn", "random", "constant"), required=True)
    c.opt("--episodes", type=int, default=300)
    c.opt("--seed", type=int, default=0)
    c.opt("--turn-limit", type=int, default=60)
    c.opt("--map", help="map text file; omitted = generate from --seed")
    c.opt("--out-dir", required=True)
    c.opt("--model", help="trained model file (nn arm)")
    c.opt("--epsilon", type=float, default=0.1)
    c.opt("--warmup-episodes", type=int, default=50)
    c.opt("--state-clusters", type=int, default=32)
    c.opt("--max-cities", type=int, default=8)

    c = commands["build-dataset"] = Command(sub, "build-dataset", "episode logs -> training CSV")
    c.opt("--logs-dir", required=True)
    c.opt("--out", required=True)

    c = commands["train-nn"] = Command(sub, "train-nn", "train the regressor with k-fold CV")
    c.opt("--dataset", required=True)
    c.opt("--out-model", required=True)
    c.opt("--folds", type=int, default=10)
    c.opt("--epochs", type=int, default=200)
    c.opt("--batch-size", type=int, default=30)
    c.opt("--seed", type=int, default=0)
    c.flag("--grid", help="grid-search hidden sizes / learning rates first")

    c = commands["compare"] = Command(sub, "compare", "compare two completed runs")
    c.opt("--run-a", required=True)
    c.opt("--run-b", required=True)
    c.opt("--out", required=True)

    c = commands["explain"] = Command(sub, "explain", "print the rule trace of a founding decision")
    c.opt("--log", required=True)
    c.opt("--turn", type=int, required=True)
    c.opt("--coord", required=True, help="X,Y of the founded city")

    return parser, commands


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE_ERROR

    try:
        if args.config:
            overlay = load_overlay(args.config, commands[args.command])
            # flags explicitly present on the command line keep priority
            given = {a.lstrip("-").replace("-", "_").split("=")[0] for a in argv if a.startswith("--")}
            for key, value in overlay.items():
                if key not in given:
                    setattr(args, key, value)
        handler = HANDLERS[args.command]
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    try:
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


def cmd_gen_map(args) -> int:
    config = MapGenConfig(
        width=args.width,
        height=args.height,
        land_fraction=args.land_fraction,
        special_frequency=args.special_frequency,
        river_frequency=args.river_frequency,
    )
    game_map = generate_map(config, args.seed)
    with open(args.out, "w") as fh:
        fh.write(encode_map(game_map))
    print(f"wrote {args.out}: {config.width}x{config.height}, "
          f"buildable fraction {game_map.buildable_fraction():.3f}")
    return 0


def cmd_run(args) -> int:
    if args.evaluator == "nn" and not args.model:
        raise UsageError("--evaluator nn requires --model")
    game_map = None
    if args.map:
        with open(args.map) as fh:
            game_map = decode_map(fh.read())
    config = harness.ExperimentConfig(
        evaluator=args.evaluator,
        episodes=args.episodes,
        base_seed=args.seed,
        game=engine.GameConfig(turn_limit=args.turn_limit, max_cities=args.max_cities),
        rl=harness.RlConfig(
            epsilon=args.epsilon,
            warmup_episodes=args.warmup_episodes,
            k=args.state_clusters,
        ),
        model_path=args.model,
    )
    result = harness.run_experiment(config, game_map=game_map, out_dir=args.out_dir)
    print(
        f"{args.evaluator} arm: {config.episodes} episodes, "
        f"final avg TGO {result.metrics.running_avg[-1]:.1f}, "
        f"improvement {result.metrics.improvement * 100:.1f}%"
    )
    print(f"artifacts in {args.out_dir}")
    return 0


def cmd_build_dataset(args) -> int:
    names = sorted(n for n in os.listdir(args.logs_dir) if n.endswith(".jsonl"))
    if not names:
        raise UsageError(f"no .jsonl episode logs in {args.logs_dir}")
    logs = [engine.read_episode_log(os.path.join(args.logs_dir, n)) for n in names]
    dataset = features.build_dataset(logs)
    features.write_dataset_csv(dataset, args.out)
    print(f"{len(dataset)} unique entries from {len(logs)} logs -> {args.out}")
    return 0


DEFAULT_GRID = (
    {"hidden": (5,)},
    {"hidden": (50,)},
    {"hidden": (95,)},
    {"hidden": (95, 30)},
)


def cmd_train_nn(args) -> int:
    if args.folds < 2:
        raise UsageError(f"--folds must be >= 2, got {args.folds}")
    dataset = features.read_dataset_csv(args.dataset)
    folds = min(args.folds, len(dataset))
    if folds < 2:
        raise UsageError(f"dataset of {len(dataset)} entries is too small to cross-validate")
    batch_size = mlp.cv_batch_size(args.batch_size, len(dataset), folds)
    if batch_size != args.batch_size:
        print(f"batch size clamped to {batch_size} for {len(dataset)} entries")
    base = dict(epochs=args.epochs, batch_size=batch_size, seed=args.seed)
    if args.grid:
        grid = [mlp.MlpConfig(**base, **g) for g in DEFAULT_GRID]
        config, results = mlp.grid_search(dataset, grid, folds=folds, seed=args.seed)
        for cfg, mean in results:
            print(f"hidden={cfg.hidden}: mean CV MSE {mean:.6f}")
        print(f"selected hidden={config.hidden}")
    else:
        config = mlp.MlpConfig(**base)
    model, norm, cv = harness.train_nn(dataset, config, folds=folds, cv_seed=args.seed)
    for i, fold_mse in enumerate(cv.fold_mses):
        print(f"fold {i}: MSE {fold_mse:.6f}")
    print(f"mean CV MSE {cv.mean_cv_mse:.6f} over {folds} folds")
    mlp.save_model(model, norm, args.out_model)
    print(f"model saved to {args.out_model}")
    return 0


def cmd_compare(args) -> int:
    metrics_a, logs_a, _ = harness.load_run_dir(args.run_a)
    metrics_b, logs_b, _ = harness.load_run_dir(args.run_b)
    report = harness.compare(metrics_a, metrics_b, logs_a, logs_b)
    harness.write_comparison(report, args.out)
    for line in report.summary_lines():
        print(line)
    return 0


def cmd_explain(args) -> int:
    try:
        x, y = (int(v) for v in args.coord.split(","))
    except ValueError as exc:
        raise UsageError(f"--coord must be X,Y integers, got {args.coord!r}") from exc
    log = engine.read_episode_log(args.log)
    founding = next(
        (f for f in log.foundings() if f.turn == args.turn and (f.x, f.y) == (x, y)), None
    )
    if founding is None:
        raise ValueError(f"no founding decision at turn {args.turn}, coord ({x},{y})")
    print(f"city {founding.city_id} founded at ({x},{y}) on turn {founding.turn} "
          f"by player {founding.player} [{founding.evaluator} evaluator, "
          f"decided turn {founding.decided_turn}, score {founding.score}]")
    if founding.trace is None:
        print("no rule trace recorded (not a rule-based decision)")
        return 0
    for line in rulekb.explain(founding.trace):
        print(line)
    return 0


HANDLERS = {
    "gen-map": cmd_gen_map,
    "run": cmd_run,
    "build-dataset": cmd_build_dataset,
    "train-nn": cmd_train_nn,
    "compare": cmd_compare,
    "explain": cmd_explain,
}


if __name__ == "__main__":
    sys.exit(main())
