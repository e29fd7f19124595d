"""The settlebench workloads, run in one single-threaded child process.

    python3 bench/workloads.py --workload kb_arm --seed 1 --seconds 10 --trace 0

prints one JSON object as its last stdout line. `bench/run.py` starts this
in a fresh process per run; call that, not this, to benchmark.

Each workload is a set-up, repeated to take its median, and a timed loop
of *passes* over a fixed set of distinct *units*. A unit is one run of
the public pipeline: `run_experiment`, `persist_experiment`,
`load_run_dir`, (corpus only) `train_nn_from_logs`, and `replay_episode`
on every log. Every pass runs the same units, which must give the same
results each time. Set-ups and passes together take `--seconds`, with at
least `min_passes` passes. Each unit's phases, and each of its episodes,
are timed by their median over the passes: a shared host runs identical
work at speeds up to twice apart for stretches of several seconds, and
the median of passes spread over the run damps such stretches, where a
percentile over single episode timings would pick them out. Quality
figures come from the units themselves, so they do not depend on how
fast the code is or how many passes ran.

kb_arm and nn_arm play the paper's fixed map (seed 11) with set-ups fitted
from the seed-11 bootstrap, as `scripts/run_comparison.py` does, and
kb_arm's set-up also learns a value table from seed 11 that each unit
goes on learning from; `--seed` drives the arms' episode and policy
streams. corpus draws a fresh map per episode from `--seed`.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"

sys.path.insert(0, str(BENCH_DIR))

from tracing import Tracer, instrument  # noqa: E402

WORKLOADS = ("kb_arm", "nn_arm", "corpus")
MAP_SEED = 11  # the paper's fixed map
SETUP_SEED = 11  # base seed of the set-up corpora, as in run_comparison.py
TURN_LIMIT = 60
EPSILON = 0.1

# name -> unit, for every end-to-end metric (trace 0) and per-layer metric
# (trace 1). BENCHMARK.json repeats these; a test keeps the two equal.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "episodes_per_s": "1/s",
    "episode_ms_p90": "ms",
    "train_s": "s",
    "peak_rss_mb": "MB",
    "mean_tgo": "points",
    "model_mse": "mse",
    "success_rate": "ratio",
}

PER_LAYER_UNITS = {
    "world.cluster_at.calls": "count",
    "world.cluster_at.self_s": "s",
    "world.generate_map.s": "s",
    "world.encode_map.s": "s",
    "world.GameMap.copy.s": "s",
    "engine.step_turn.calls": "count",
    "engine.step_turn.self_s": "s",
    "engine.legal_founding_sites.calls": "count",
    "engine.legal_founding_sites.s": "s",
    "engine.legal_founding_sites.sites_per_call": "sites",
    "engine.write_episode_log.s": "s",
    "engine.log_bytes": "B",
    "engine.read_episode_log.s": "s",
    "harness.persist_experiment.s": "s",
    "harness.load_run_dir.s": "s",
    "engine.replay_episode.s": "s",
    "engine.replay_mismatches": "count",
    "engine.found_ratio": "ratio",
    "engine.unfounded_settlers": "count",
    "harness.SettlementAgent.act.self_s": "s",
    "harness.scoring_passes": "count",
    "harness.sites_scored": "count",
    "harness.sites_per_pass": "sites",
    "harness.RuleEvaluator.score_many.self_s": "s",
    "harness.RuleEvaluator.score_many.us_per_site": "us",
    "harness.NnEvaluator.score_many.self_s": "s",
    "harness.NnEvaluator.score_many.us_per_site": "us",
    "rulekb.score_cluster.calls": "count",
    "rulekb.score_cluster.self_s": "s",
    "rulekb.match_rules.calls": "count",
    "rulekb.match_rules.self_s": "s",
    "rulekb.families_per_match": "ratio",
    "rl.state_features.s": "s",
    "rl.assign_state.s": "s",
    "rl.choose.calls": "count",
    "rl.choose.s": "s",
    "rl.selection_probabilities.s": "s",
    "rl.update_from_episode.s": "s",
    "rl.kmeans_fit.s": "s",
    "rl.kmeans_fit.iterations": "count",
    "rl.q_coverage": "ratio",
    "rl.states_visited": "count",
    "features.extract_features.calls": "count",
    "features.extract_features.self_s": "s",
    "features.extract_features.us_per_call": "us",
    "features.build_dataset.s": "s",
    "features.dataset_rows": "count",
    "mlp.predict.calls": "count",
    "mlp.predict.rows": "count",
    "mlp.predict.s": "s",
    "mlp.train.s": "s",
    "mlp.kfold_cv.s": "s",
    "mlp.adam_step.calls": "count",
    "mlp.adam_step.s": "s",
    "mlp.forward.s": "s",
    "mlp.backward.s": "s",
    "bench.trace_overhead": "ratio",
}


@dataclass(frozen=True)
class Sizes:
    warmup_episodes: int = 50  # kb_arm set-up: random warmup before k-means
    kmeans_k: int = 32
    # kb_arm set-up then learns a value table over this many kb episodes,
    # so that the timed episodes are played by a learned policy; these run
    # longer than the early, near-random ones
    kb_learn_episodes: int = 60
    nn_corpus_episodes: int = 280  # nn_arm set-up: bootstrap corpus
    epochs: int = 60
    folds: int = 10
    batch_size: int = 30
    # set-up runs per arm run, for the median set-up time
    setup_repeats: int = 2
    # a kb unit goes on learning from a copy of the set-up's value table
    kb_unit_episodes: int = 20
    nn_unit_episodes: int = 10
    corpus_unit_episodes: int = 140
    # distinct units in a pass. Two arm set-ups and two passes of 80
    # episodes fill a run of the benchmark's length (so the p90 has 8
    # samples beyond it there, 42 on corpus); the corpus CV MSE varies
    # with the seed unless averaged over several units
    kb_units: int = 4
    nn_units: int = 8
    corpus_units: int = 3
    min_passes: int = 2


FULL = Sizes()
# For the benchmark's own smoke tests only: seconds, not minutes.
TINY = Sizes(
    warmup_episodes=6,
    kmeans_k=4,
    kb_learn_episodes=2,
    nn_corpus_episodes=30,
    epochs=2,
    folds=2,
    batch_size=4,
    setup_repeats=2,
    kb_unit_episodes=2,
    nn_unit_episodes=2,
    corpus_unit_episodes=12,
    kb_units=2,
    nn_units=2,
    corpus_units=1,
    min_passes=2,
)


def import_library():
    """Import settlebench from this checkout's `src`, never from elsewhere."""
    package = SRC / "settlebench"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no settlebench sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import settlebench
    from settlebench import engine, harness, mlp, rulekb, world

    if Path(settlebench.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported settlebench from {settlebench.__file__}, not {package}")
    return engine, harness, mlp, rulekb, world


@dataclass
class Setup:
    seconds: float
    train_s: float
    model_mse: float
    fingerprint: str
    context: dict = field(repr=False)


@dataclass
class Unit:
    index: int
    episodes: int
    ok: bool = True
    tgo: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    sim_s: float = 0.0
    persist_s: float = 0.0
    load_s: float = 0.0
    train_s: float = 0.0
    replay_s: float = 0.0
    sim_span: tuple[float, float] = (0.0, 0.0)
    cv_mse: float | None = None
    result_digest: str = ""
    round_trip_ok: bool = False
    replay_mismatches: int = 0
    foundings: int = 0
    settlers_targeted: int = 0
    q_entries: int = 0
    q_possible: int = 0
    states_visited: int = 0
    # each engine.run_episode call, and each episode's share of sim_s: from
    # its start to the next one's (the kb arm's value update included)
    episode_s: list[float] = field(default_factory=list)
    episode_cost_s: list[float] = field(default_factory=list)

    def ops(self) -> tuple[int, int]:
        """(attempted, failed): episodes run, the round trip, and the replays."""
        attempted = 2 * self.episodes + 1
        if not self.ok:
            return attempted, attempted
        return attempted, self.replay_mismatches + (0 if self.round_trip_ok else 1)


class Bench:
    """One workload at one seed, with the library imported from `src`."""

    def __init__(self, workload: str, seed: int, sizes: Sizes, workdir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.engine, self.harness, self.mlp, self.rulekb, self.world = import_library()
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.game = self.engine.GameConfig(turn_limit=TURN_LIMIT)
        self.mapgen = self.world.MapGenConfig()

    @property
    def units(self) -> int:
        """Distinct units in a pass."""
        return {
            "kb_arm": self.sizes.kb_units,
            "nn_arm": self.sizes.nn_units,
            "corpus": self.sizes.corpus_units,
        }[self.workload]

    def mlp_config(self):
        return self.mlp.MlpConfig(epochs=self.sizes.epochs, batch_size=self.sizes.batch_size)

    def rl_config(self):
        return self.harness.RlConfig(k=self.sizes.kmeans_k, epsilon=EPSILON)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> Setup | None:
        """The work a workload needs before its first unit; None for corpus."""
        if self.workload == "corpus":
            return None
        harness, world = self.harness, self.world
        start = time.perf_counter()
        game_map = world.generate_map(self.mapgen, MAP_SEED)
        if self.workload == "kb_arm":
            _, points = harness.bootstrap_corpus(
                self.game, self.mapgen, SETUP_SEED, self.sizes.warmup_episodes, game_map=game_map
            )
            fit_start = time.perf_counter()
            cluster_model = harness.fit_state_clusters(points, self.rl_config())
            fit_end = time.perf_counter()
            learned = harness.run_experiment(
                self.experiment_config(SETUP_SEED, 0, self.sizes.kb_learn_episodes),
                game_map=game_map,
                cluster_model=cluster_model,
            )
            end = time.perf_counter()
            return Setup(
                seconds=end - start,
                train_s=fit_end - fit_start,
                # within-cluster mean squared distance, normalised units
                model_mse=cluster_model.inertia / len(points),
                fingerprint=_digest(
                    cluster_model.centroids.tobytes(), repr(cluster_model.inertia), _result_digest(learned)
                ),
                context={"game_map": game_map, "cluster_model": cluster_model, "table": learned.table},
            )
        corpus, _ = harness.bootstrap_corpus(
            self.game, self.mapgen, SETUP_SEED, self.sizes.nn_corpus_episodes, game_map=game_map
        )
        fit_start = time.perf_counter()
        model, norm, report = harness.train_nn_from_logs(corpus, self.mlp_config(), folds=self.sizes.folds)
        end = time.perf_counter()
        return Setup(
            seconds=end - start,
            train_s=end - fit_start,
            model_mse=report.mean_cv_mse,
            fingerprint=_digest(*(w.tobytes() for w in model.weights), repr(report.mean_cv_mse)),
            context={"game_map": game_map, "nn": (model, norm)},
        )

    # -- units -------------------------------------------------------------

    def experiment_config(self, seed: int, index: int, episodes: int | None = None):
        return self.harness.ExperimentConfig(
            evaluator={"kb_arm": "kb", "nn_arm": "nn", "corpus": "random"}[self.workload],
            episodes=episodes
            or {
                "kb_arm": self.sizes.kb_unit_episodes,
                "nn_arm": self.sizes.nn_unit_episodes,
                "corpus": self.sizes.corpus_unit_episodes,
            }[self.workload],
            base_seed=self.harness.episode_seed(seed, index, self.workload),
            fixed_map=self.workload != "corpus",
            game=self.game,
            mapgen=self.mapgen,
            rl=self.rl_config(),
        )

    def simulate(self, index: int, context: dict):
        table = context.get("table")
        return self.harness.run_experiment(
            self.experiment_config(self.seed, index),
            game_map=context.get("game_map"),
            cluster_model=context.get("cluster_model"),
            # learning updates the table in place; each unit starts from set-up's
            table=copy.deepcopy(table) if table is not None else None,
            nn=context.get("nn"),
        )

    def run_unit(self, index: int, context: dict) -> Unit:
        unit = Unit(index=index, episodes=self.experiment_config(self.seed, index).episodes)
        out_dir = self.workdir / f"unit_{index:04d}"
        try:
            self._run_unit(unit, context, out_dir)
        except Exception:
            traceback.print_exc()
            unit.ok = False
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return unit

    def _run_unit(self, unit: Unit, context: dict, out_dir: Path) -> None:
        harness, engine = self.harness, self.engine
        clock = time.perf_counter
        t0 = clock()
        result = self.simulate(unit.index, context)
        t1 = clock()
        harness.persist_experiment(result, str(out_dir), context.get("game_map"))
        t2 = clock()
        metrics, logs, _ = harness.load_run_dir(str(out_dir))
        t3 = clock()
        if self.workload == "corpus":
            _, _, report = harness.train_nn_from_logs(logs, self.mlp_config(), folds=self.sizes.folds)
            unit.cv_mse = report.mean_cv_mse
        t4 = clock()
        replayed = [engine.replay_episode(log) for log in logs]
        t5 = clock()

        unit.tgo = list(result.metrics.tgo)
        unit.result_digest = _result_digest(result)
        unit.wall_s, unit.sim_s, unit.persist_s = t5 - t0, t1 - t0, t2 - t1
        unit.load_s, unit.train_s, unit.replay_s = t3 - t2, t4 - t3, t5 - t4
        unit.sim_span = (t0, t1)
        unit.round_trip_ok = (
            metrics.tgo == result.metrics.tgo
            and metrics.running_avg == result.metrics.running_avg
            and [log.final_tgo for log in logs] == [log.final_tgo for log in result.logs]
            and [len(log.turns) for log in logs] == [len(log.turns) for log in result.logs]
        )
        unit.replay_mismatches = sum(r != log.final_tgo for r, log in zip(replayed, logs))
        unit.replay_mismatches += abs(len(logs) - unit.episodes)
        for log in result.logs:
            targeted = {settler_id for turn in log.turns for settler_id, _ in turn.targets}
            unit.settlers_targeted += len(targeted)
            unit.foundings += len(log.foundings())
        if result.table is not None:
            unit.q_entries = len(result.table.q)
            unit.q_possible = result.cluster_model.k * self.rulekb.default_kb().rule_count
            unit.states_visited = len(result.table.v)

    @property
    def setup_repeats(self) -> int:
        return 0 if self.workload == "corpus" else self.sizes.setup_repeats

    def run_pass(self, context: dict) -> list[Unit]:
        """Every distinct unit once, with each episode timed."""
        clock = Tracer(spans=False)
        units = []
        for index in range(self.units):
            first = len(clock.episode_s)
            with instrument(clock):
                unit = self.run_unit(index, context)
            unit.episode_s = clock.episode_s[first:]
            bounds = [unit.sim_span[0], *clock.episode_start[first + 1 :], unit.sim_span[1]]
            unit.episode_cost_s = [b - a for a, b in zip(bounds, bounds[1:])]
            units.append(unit)
        return units

    def timed_run(self, seconds: float) -> tuple[list[Setup], list[list[Unit]]]:
        """Set-ups and passes within `seconds`.

        The first set-up comes first and each repeat follows a pass, so
        set-up and unit timings sample the same stretch of time. Once every
        set-up and `min_passes` passes are done, passes go on while one more
        of the mean pass length fits in `seconds` from the start, so a slow
        host runs fewer passes, not a longer run.
        """
        start = time.perf_counter()
        repeats = self.setup_repeats
        setups = [self.setup()] if repeats else []
        context = setups[0].context if setups else {}
        passes: list[list[Unit]] = []
        pass_time = 0.0
        while True:
            passes.append(self.run_pass(context))
            pass_time += sum(unit.wall_s for unit in passes[-1])
            if len(setups) < repeats:
                setups.append(self.setup())
            elapsed = time.perf_counter() - start
            if len(setups) == repeats and len(passes) >= self.sizes.min_passes:
                if elapsed + pass_time / len(passes) > seconds:
                    return setups, passes


def _result_digest(result) -> str:
    """The episode TGO sequence and, for the kb arm, the learned value table."""
    parts = [repr(result.metrics.tgo)]
    if result.table is not None:
        parts += [repr(sorted((k, e.count, e.mean) for k, e in result.table.q.items()))]
        parts += [repr(sorted((k, e.count, e.mean) for k, e in result.table.v.items()))]
    return _digest(*parts)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Checks:
    """Correctness operations: each counts once toward attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def add_units(self, units: list[Unit]) -> None:
        for unit in units:
            attempted, failed = unit.ops()
            self.attempted += attempted
            self.failed += failed
            if failed:
                self.failures.append(f"unit {unit.index}: {failed} of {attempted} operations failed")


def unit_medians(passes: list[list[Unit]], phase: str) -> list[float]:
    """Per distinct unit, the median over passes of one phase's time."""
    return [_median([getattr(units[i], f"{phase}_s") for units in passes]) for i in range(len(passes[0]))]


def episode_medians(passes: list[list[Unit]], timing: str = "episode_s") -> list[float]:
    """Per distinct episode, the median over passes of `episode_s` or `episode_cost_s`."""
    return [
        _median(times)
        for i in range(len(passes[0]))
        for times in zip(*(getattr(units[i], timing) for units in passes))
    ]


def end_to_end(setups, passes: list[list[Unit]], checks: Checks) -> dict:
    units = passes[0]
    tgo = [t for unit in units for t in unit.tgo]
    if setups:
        train = [s.train_s for s in setups]
        model_mse = setups[0].model_mse
    else:
        train = unit_medians(passes, "train")
        cv = [unit.cv_mse for unit in units if unit.cv_mse is not None]
        model_mse = statistics.fmean(cv) if cv else 0.0
    episode_ms = sorted(1000.0 * s for s in episode_medians(passes))
    # each episode, and each other phase of a unit, at its median over passes
    sim_s = sum(episode_medians(passes, "episode_cost_s"))
    other_s = sum(sum(unit_medians(passes, phase)) for phase in ("persist", "load", "train", "replay"))
    return {
        # the parent adds the interpreter-and-import time to this
        "setup_s": _median([s.seconds for s in setups]),
        "wall_s": (sim_s + other_s) / len(units),
        "episodes_per_s": _ratio(sum(u.episodes for u in units), sim_s),
        "episode_ms_p90": statistics.quantiles(episode_ms, n=10)[8] if len(episode_ms) > 1 else 0.0,
        # the fits of the set-ups (arms) or of the units (corpus)
        "train_s": _median(train) if setups else sum(train) / len(train),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_tgo": statistics.fmean(tgo) if tgo else 0.0,
        "model_mse": float(model_mse),
        "success_rate": _ratio(checks.attempted - checks.failed, checks.attempted),
    }


def per_layer(tracer, units: list[Unit], overhead: float) -> dict:
    t = tracer
    kb_sites = t.counter("harness.RuleEvaluator.sites")
    nn_sites = t.counter("harness.NnEvaluator.sites")
    passes = t.calls("harness.evaluate_placements")
    lfs_calls = t.calls("engine.legal_founding_sites")
    fx_calls = t.calls("features.extract_features")
    q_possible = sum(u.q_possible for u in units)
    kb_units = [u for u in units if u.q_possible]
    return {
        "world.cluster_at.calls": t.calls("world.cluster_at"),
        "world.cluster_at.self_s": t.self_time("world.cluster_at"),
        "world.generate_map.s": t.total("world.generate_map"),
        "world.encode_map.s": t.total("world.encode_map"),
        "world.GameMap.copy.s": t.total("world.GameMap.copy"),
        "engine.step_turn.calls": t.calls("engine.step_turn"),
        # the settler and city phases: step_turn minus its agent child
        "engine.step_turn.self_s": t.total("engine.step_turn")
        - t.edge_total("engine.step_turn", "harness.SettlementAgent.act"),
        "engine.legal_founding_sites.calls": lfs_calls,
        "engine.legal_founding_sites.s": t.total("engine.legal_founding_sites"),
        "engine.legal_founding_sites.sites_per_call": _ratio(
            t.counter("engine.legal_founding_sites.sites"), lfs_calls
        ),
        "engine.write_episode_log.s": t.total("engine.write_episode_log"),
        "engine.log_bytes": t.counter("engine.log_bytes"),
        "engine.read_episode_log.s": t.total("engine.read_episode_log"),
        "harness.persist_experiment.s": t.total("harness.persist_experiment"),
        "harness.load_run_dir.s": t.total("harness.load_run_dir"),
        "engine.replay_episode.s": t.total("engine.replay_episode"),
        "engine.replay_mismatches": sum(u.replay_mismatches for u in units),
        "engine.found_ratio": _ratio(sum(u.foundings for u in units), sum(u.settlers_targeted for u in units)),
        "engine.unfounded_settlers": sum(u.settlers_targeted - u.foundings for u in units),
        "harness.SettlementAgent.act.self_s": t.self_time("harness.SettlementAgent.act"),
        "harness.scoring_passes": passes,
        "harness.sites_scored": t.counter("harness.sites_scored"),
        "harness.sites_per_pass": _ratio(t.counter("harness.sites_scored"), passes),
        "harness.RuleEvaluator.score_many.self_s": t.self_time("harness.RuleEvaluator.score_many"),
        "harness.RuleEvaluator.score_many.us_per_site": 1e6
        * _ratio(t.total("harness.RuleEvaluator.score_many"), kb_sites),
        "harness.NnEvaluator.score_many.self_s": t.self_time("harness.NnEvaluator.score_many"),
        "harness.NnEvaluator.score_many.us_per_site": 1e6
        * _ratio(t.total("harness.NnEvaluator.score_many"), nn_sites),
        "rulekb.score_cluster.calls": t.calls("rulekb.score_cluster"),
        "rulekb.score_cluster.self_s": t.self_time("rulekb.score_cluster"),
        "rulekb.match_rules.calls": t.calls("rulekb.match_rules"),
        "rulekb.match_rules.self_s": t.self_time("rulekb.match_rules"),
        "rulekb.families_per_match": _ratio(
            t.counter("rulekb.families_matched"), t.counter("rulekb.families_tested")
        ),
        "rl.state_features.s": t.total("rl.state_features"),
        "rl.assign_state.s": t.total("rl.assign_state"),
        "rl.choose.calls": t.calls("rl.choose"),
        "rl.choose.s": t.total("rl.choose"),
        "rl.selection_probabilities.s": t.total("rl.selection_probabilities"),
        "rl.update_from_episode.s": t.total("rl.update_from_episode"),
        "rl.kmeans_fit.s": t.total("rl.kmeans_fit"),
        "rl.kmeans_fit.iterations": t.counter("rl.kmeans_fit.iterations"),
        "rl.q_coverage": _ratio(sum(u.q_entries for u in units), q_possible),
        "rl.states_visited": _ratio(sum(u.states_visited for u in kb_units), len(kb_units)),
        "features.extract_features.calls": fx_calls,
        "features.extract_features.self_s": t.self_time("features.extract_features"),
        "features.extract_features.us_per_call": 1e6 * _ratio(t.total("features.extract_features"), fx_calls),
        "features.build_dataset.s": t.total("features.build_dataset"),
        "features.dataset_rows": t.counter("features.dataset_rows"),
        "mlp.predict.calls": t.calls("mlp.predict"),
        "mlp.predict.rows": t.counter("mlp.predict.rows"),
        "mlp.predict.s": t.total("mlp.predict"),
        "mlp.train.s": t.total("mlp.train"),
        "mlp.kfold_cv.s": t.total("mlp.kfold_cv"),
        "mlp.adam_step.calls": t.calls("mlp.adam_step"),
        "mlp.adam_step.s": t.total("mlp.adam_step"),
        "mlp.forward.s": t.total("mlp.forward"),
        "mlp.backward.s": t.total("mlp.backward"),
        "bench.trace_overhead": overhead,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> dict:
    """One benchmark run in this process: set-ups, timed units, checks."""
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        bench = Bench(workload, seed, sizes, workdir)
        checks = Checks()

        setups, passes = bench.timed_run(seconds)
        for s in setups[1:]:
            checks.add(s.fingerprint == setups[0].fingerprint, "set-up did not repeat exactly")
        context = setups[0].context if setups else {}
        units = passes[0]
        for later in passes:
            checks.add_units(later)
        # every pass must give the same episodes and values as the first
        for later in passes[1:]:
            for first, again in zip(units, later):
                checks.add(
                    first.ok and again.result_digest == first.result_digest,
                    f"unit {first.index} did not repeat exactly",
                )

        detail: dict = {}
        layers = None
        if trace:
            tracer = Tracer()
            with instrument(tracer):
                if setups:
                    traced_setup = bench.setup()
                    checks.add(traced_setup.fingerprint == setups[0].fingerprint, "traced set-up differs")
                traced = [bench.run_unit(i, context) for i in range(bench.units)]
            checks.add_units(traced)
            for plain, seen in zip(units, traced):
                checks.add(
                    plain.tgo == seen.tgo and plain.cv_mse == seen.cv_mse,
                    f"unit {plain.index}: traced TGO or CV MSE differs from untraced",
                )
            # one traced pass against the median untraced pass
            untraced = [_median([p[i].wall_s for p in passes]) for i in range(bench.units)]
            overhead = _ratio(sum(u.wall_s for u in traced), sum(untraced))
            layers = per_layer(tracer, traced, overhead)
            detail["trace"] = tracer.report()

        e2e = end_to_end(setups, passes, checks)
        import numpy

        detail.update(
            {
                "numpy": numpy.__version__,
                "units": len(units),
                "passes": len(passes),
                "episodes": sum(u.episodes for u in units),
                # the p90's sample count is `episodes`, one median per distinct episode
                "episode_ms_p50": _median([1000.0 * s for s in episode_medians(passes)]),
                # [pass][unit]
                "unit_s": {
                    phase: [[getattr(u, f"{phase}_s") for u in p] for p in passes]
                    for phase in ("wall", "sim", "persist", "load", "train", "replay")
                },
                "setup_s": [s.seconds for s in setups],
                "unit_tgo_mean": [statistics.fmean(u.tgo) if u.tgo else None for u in units],
                "failures": checks.failures,
            }
        )
        return {
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "end_to_end": e2e,
            "per_layer": layers,
            "detail": detail,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    sizes = TINY if args.size == "tiny" else FULL
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
