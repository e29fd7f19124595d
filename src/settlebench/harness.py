"""Experiment orchestration: the two placement evaluators behind one agent.

Both arms drive the identical settlement agent; the evaluator scoring
candidate city centers is the only moving part. The rule arm resolves
rule conflicts with the learned epsilon-greedy policy and keeps learning
between episodes; the NN arm scores with a frozen regressor trained on a
bootstrap corpus of random-agent games.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from . import engine, features, mlp, rl, rulekb
from .engine import EpisodeLog, GameConfig, GameState
from .world import GameMap, MapGenConfig, cluster_table, encode_map, generate_map
from .world import cluster_at  # noqa: F401  bench/test_bench.py expects the tracer to patch it here


def episode_seed(base_seed: int, index: int, stream: str = "episode") -> int:
    """Documented derivation: first 8 bytes of sha256('<base>:<stream>:<i>')."""
    digest = hashlib.sha256(f"{base_seed}:{stream}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# evaluators


class Evaluator:
    """Scores candidate city centers. Stateless unless documented otherwise."""

    kind = "abstract"

    def end_episode(self, final_tgo: float) -> None:
        """Called once after each episode, with its final TGO."""

    def score_many(self, state: GameState, player_id: int, centers) -> list[float]:
        raise NotImplementedError

    def trace_for(self, center):
        """Rule trace from the most recent scoring pass, if any."""
        return None

    def features_for(self, state: GameState, player_id: int, center) -> np.ndarray:
        """Feature row of `center` in `state`, logged with the founding
        decision; asked right after a scoring pass of the same state."""
        return features.feature_rows(state, [center], player_id)[0]


class ConstantEvaluator(Evaluator):
    kind = "constant"

    def __init__(self, value: float = 0.0):
        self.value = value

    def score_many(self, state, player_id, centers):
        return [self.value for _ in centers]


class RandomEvaluator(Evaluator):
    """Uniform random scores; used for bootstrap corpora."""

    kind = "random"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def score_many(self, state, player_id, centers):
        return [float(v) for v in self.rng.random(len(centers))]


class RuleEvaluator(Evaluator):
    """Knowledge-base scoring with RL conflict resolution.

    Each scoring pass resolves every conflict set once per game state and
    applies that resolution to all scored centers, so a pass ranks the
    whole map under one coherent rule combination (scores vary from game
    to game, not tile to tile). One DecisionRecord per resolved family per
    pass; end_episode credits them all with the episode's final TGO.
    """

    kind = "kb"

    def __init__(
        self,
        kb: rulekb.KnowledgeBase,
        cluster_model: rl.ClusterModel,
        table: rl.ValueTable,
        policy: rl.Policy,
    ):
        self.kb = kb
        self.cluster_model = cluster_model
        self.table = table
        self.policy = policy
        self.records: list[rl.DecisionRecord] = []
        self._families = [f for f in rulekb.FAMILY_IDS if f in kb.families]
        self._columns = [rulekb.FAMILY_IDS.index(f) for f in self._families]
        # the last pass: (map, scored centers, resolved choices)
        self._pass = None

    def end_episode(self, final_tgo):
        rl.update_from_episode(self.table, self.records, final_tgo)
        self.records = []
        self._pass = None

    def score_many(self, state, player_id, centers):
        state_id = rl.assign_state(self.cluster_model, rl.state_features(state, player_id))
        table = cluster_table(state.map)
        mask = table.rule_mask[table.rows(centers)][:, self._columns]
        resolved: dict[str, rulekb.RuleChoice] = {}
        points = np.zeros(len(self._families), dtype=int)
        # resolve each matched family at its first matching center, in
        # centers order, ties by family id: the policy RNG's draw order
        matched = np.flatnonzero(mask.any(axis=0))
        for j in sorted(matched, key=lambda j: mask[:, j].argmax()):
            conflict_set = self.kb.families[self._families[j]]
            choice, record = rl.choose(self.table, self.policy, state_id, conflict_set, turn=state.turn)
            self.records.append(record)
            resolved[conflict_set.family] = choice
            points[j] = choice.rule.points
        self._pass = (state.map, centers, resolved)
        return [float(total) for total in mask @ points]

    def trace_for(self, center):
        """Rule trace of `center` under the last pass's resolved choices."""
        if self._pass is None:
            return None
        game_map, centers, resolved = self._pass
        if center not in centers:
            return None
        return rulekb.score_cluster(self.kb, game_map, center, resolved)[1]


class NnEvaluator(Evaluator):
    """Frozen MLP regressor; scores are de-normalized label predictions."""

    kind = "nn"

    def __init__(self, model: mlp.MlpModel, normalization: features.MinMaxNormalization):
        self.model = model
        self.normalization = normalization
        # the last pass: (scored centers, their feature rows)
        self._pass = None

    def score_many(self, state, player_id, centers):
        if not centers:
            return []
        feats = features.feature_rows(state, centers, player_id)
        self._pass = (centers, feats)
        out = mlp.predict(self.model, features.minmax_apply(self.normalization, feats))
        return [float(v) for v in features.denormalize_label(self.normalization, out)]

    def features_for(self, state, player_id, center):
        """The row the last pass scored for `center`: no city has moved since."""
        centers, rows = self._pass
        return rows[centers.index(center)]


def evaluate_placements(evaluator: Evaluator, state: GameState, player_id: int):
    """Every legal founding location scored, best first; ties by (y, x)."""
    sites = engine.legal_founding_sites(state, player_id)
    if not sites:
        return []
    scores = evaluator.score_many(state, player_id, sites)
    # sites come in (y, x) order, and a reversed sort keeps ties in input order
    return sorted(zip(sites, scores), key=itemgetter(1), reverse=True)


class SettlementAgent:
    """Assigns settler targets from evaluator rankings; the engine does the rest."""

    def __init__(self, evaluator: Evaluator, player_id: int = 0):
        self.evaluator = evaluator
        self.player_id = player_id

    def act(self, state: GameState) -> None:
        player = state.player(self.player_id)
        # assigning targets changes no legality, so each target is checked once
        taken = set()
        idle = []
        for settler in player.settlers:
            target = settler.target
            if target is not None and engine.is_legal_founding_site(state, self.player_id, target):
                taken.add(target)
            else:
                idle.append(settler)
        if not idle:
            return
        ranked = evaluate_placements(self.evaluator, state, self.player_id)
        for settler in idle:
            choice = next(((c, s) for c, s in ranked if c not in taken), None)
            if choice is None:
                settler.target = None  # nowhere left to settle; idle
                continue
            center, score = choice
            taken.add(center)
            trace = self.evaluator.trace_for(center)
            decision = {
                "score": score,
                "features": [float(v) for v in self.evaluator.features_for(state, self.player_id, center)],
                "trace": rulekb.trace_to_dict(trace) if trace is not None else None,
                "evaluator": self.evaluator.kind,
            }
            engine.set_settler_target(state, settler, center, decision)


# ---------------------------------------------------------------------------
# metrics


@dataclass
class RunMetrics:
    tgo: list[float] = field(default_factory=list)
    running_avg: list[float] = field(default_factory=list)
    window: int = 1
    _total: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._total = float(sum(self.tgo))

    def record(self, value: float) -> None:
        self.tgo.append(float(value))
        self._total += self.tgo[-1]
        self.running_avg.append(self._total / len(self.tgo))

    @property
    def improvement(self) -> float:
        """(mean of last window - mean of first window) / mean of first window."""
        if not self.tgo:
            return 0.0
        w = min(self.window, len(self.tgo))
        first = sum(self.tgo[:w]) / w
        last = sum(self.tgo[-w:]) / w
        if first == 0:
            return 0.0
        return (last - first) / first


def default_window(episodes: int) -> int:
    return max(1, episodes // 10)


def export_metrics_csv(metrics: RunMetrics, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "tgo", "running_avg"])
        for i, (tgo, avg) in enumerate(zip(metrics.tgo, metrics.running_avg)):
            writer.writerow([i, features.csv_number(tgo), repr(float(avg))])


def read_metrics_csv(path, window: int = 1) -> RunMetrics:
    """ValueError naming the file unless row i holds episode i and two numbers."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["episode", "tgo", "running_avg"]:
            raise ValueError(f"{path}: unexpected metrics header {header}")
        rows = list(reader)
    try:
        if any(len(row) != 3 or row[0] != str(i) for i, row in enumerate(rows)):
            raise ValueError("rows are not episode 0, 1, ... each with its tgo and running_avg")
        return RunMetrics([float(row[1]) for row in rows], [float(row[2]) for row in rows], window)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# experiments


@dataclass
class RlConfig:
    k: int = 32
    warmup_episodes: int = 50
    epsilon: float = 0.1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.warmup_episodes < 1:
            raise ValueError(f"warmup_episodes must be >= 1, got {self.warmup_episodes}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")


@dataclass
class ExperimentConfig:
    evaluator: str = "kb"  # kb | nn | random | constant
    episodes: int = 1000
    base_seed: int = 0
    fixed_map: bool = True
    game: GameConfig = field(default_factory=GameConfig)
    mapgen: MapGenConfig = field(default_factory=MapGenConfig)
    rl: RlConfig = field(default_factory=RlConfig)
    metrics_window: int | None = None
    model_path: str | None = None

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")
        # None means default_window; a window below 1 would slice the wrong episodes
        if self.metrics_window is not None and self.metrics_window < 1:
            raise ValueError(f"metrics_window must be >= 1, got {self.metrics_window}")

    def window(self) -> int:
        return self.metrics_window or default_window(self.episodes)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    metrics: RunMetrics
    logs: list[EpisodeLog]
    table: rl.ValueTable | None = None
    cluster_model: rl.ClusterModel | None = None


def bootstrap_corpus(
    game: GameConfig,
    mapgen: MapGenConfig,
    base_seed: int,
    episodes: int,
    game_map: GameMap | None = None,
    fixed_map: bool = True,
) -> tuple[list[EpisodeLog], np.ndarray]:
    """Random-agent episodes plus per-turn state features for k-means fitting."""
    if game_map is None and fixed_map:
        game_map = generate_map(mapgen, base_seed)
    logs = []
    points = []

    def harvest(state):
        points.append(rl.state_features(state, 0))

    for i in range(episodes):
        seed = episode_seed(base_seed, i, "warmup")
        agent = SettlementAgent(RandomEvaluator(seed))
        log = engine.run_episode(
            agent,
            game,
            seed,
            game_map=game_map,
            mapgen=mapgen,
            evaluator_name="random",
            on_turn=harvest,
        )
        logs.append(log)
    return logs, np.asarray(points)


def fit_state_clusters(points: np.ndarray, rl_config: RlConfig) -> rl.ClusterModel:
    k = min(rl_config.k, len(points))
    return rl.kmeans_fit(points, k=k)


def run_experiment(
    config: ExperimentConfig,
    *,
    game_map: GameMap | None = None,
    nn: tuple[mlp.MlpModel, features.MinMaxNormalization] | None = None,
    cluster_model: rl.ClusterModel | None = None,
    table: rl.ValueTable | None = None,
    out_dir: str | None = None,
) -> ExperimentResult:
    """Sequential episodes with between-episode learning (kb arm) and
    per-episode metrics; optionally persists logs/metrics/value table."""
    if config.fixed_map and game_map is None:
        game_map = generate_map(config.mapgen, config.base_seed)

    evaluator: Evaluator
    if config.evaluator == "kb":
        if cluster_model is None:
            _, points = bootstrap_corpus(
                config.game,
                config.mapgen,
                config.base_seed,
                config.rl.warmup_episodes,
                game_map=game_map,
                fixed_map=config.fixed_map,
            )
            cluster_model = fit_state_clusters(points, config.rl)
        if table is None:
            table = rl.ValueTable(
                meta={
                    "k": str(cluster_model.k),
                    "features": ",".join(rl.STATE_FEATURE_NAMES),
                    "epsilon": str(config.rl.epsilon),
                }
            )
        policy = rl.Policy(epsilon=config.rl.epsilon, seed=episode_seed(config.base_seed, 0, "policy"))
        evaluator = RuleEvaluator(rulekb.default_kb(), cluster_model, table, policy)
    elif config.evaluator == "nn":
        if nn is None:
            if config.model_path is None:
                raise ValueError("nn arm needs a trained model (model_path or nn=)")
            nn = mlp.load_model(config.model_path)
        evaluator = NnEvaluator(*nn)
    elif config.evaluator == "random":
        evaluator = RandomEvaluator(episode_seed(config.base_seed, 0, "randeval"))
    elif config.evaluator == "constant":
        evaluator = ConstantEvaluator()
    else:
        raise ValueError(f"unknown evaluator kind {config.evaluator!r}")

    metrics = RunMetrics(window=config.window())
    logs: list[EpisodeLog] = []
    for i in range(config.episodes):
        seed = episode_seed(config.base_seed, i)
        agent = SettlementAgent(evaluator)
        log = engine.run_episode(
            agent,
            config.game,
            seed,
            game_map=game_map,
            mapgen=config.mapgen,
            evaluator_name=evaluator.kind,
        )
        evaluator.end_episode(log.final_tgo)
        metrics.record(log.final_tgo)
        logs.append(log)

    result = ExperimentResult(
        config=config,
        metrics=metrics,
        logs=logs,
        table=table,
        cluster_model=cluster_model,
    )
    if out_dir is not None:
        persist_experiment(result, out_dir, game_map)
    return result


def persist_experiment(result: ExperimentResult, out_dir: str, game_map: GameMap | None) -> None:
    """Write the run directory whole: into a hidden sibling, then renamed into
    place, so a previous run at `out_dir` is replaced, never merged with. An
    existing `out_dir` must be an empty directory or a run (its config.json)."""
    out_dir = os.path.abspath(out_dir)
    if os.path.lexists(out_dir) and not (
        os.path.isdir(out_dir)
        and (not os.listdir(out_dir) or os.path.isfile(os.path.join(out_dir, "config.json")))
    ):
        raise ValueError(f"{out_dir} exists and is neither empty nor a run directory; not replacing it")
    parent, name = os.path.split(out_dir)
    tmp = os.path.join(parent, f".{name}.{os.getpid()}.{os.urandom(4).hex()}")
    old = tmp + ".old"
    try:
        os.makedirs(os.path.join(tmp, "logs"))
        with open(os.path.join(tmp, "config.json"), "w") as fh:
            json.dump(experiment_config_to_dict(result.config), fh, indent=2, sort_keys=True)
        if game_map is not None:
            with open(os.path.join(tmp, "map.txt"), "w") as fh:
                fh.write(encode_map(game_map))
        for i, log in enumerate(result.logs):
            engine.write_episode_log(log, os.path.join(tmp, "logs", f"episode_{i:05d}.jsonl"))
        export_metrics_csv(result.metrics, os.path.join(tmp, "metrics.csv"))
        if result.table is not None:
            rl.save_table(result.table, os.path.join(tmp, "value_table.txt"))
        if os.path.lexists(out_dir):
            os.rename(out_dir, old)
        os.rename(tmp, out_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)


def load_run_dir(path: str) -> tuple[RunMetrics, list[EpisodeLog], ExperimentConfig]:
    """(metrics, logs, config) of a persisted run; ValueError unless the run
    has its configured number of episodes, every metrics row has its episode
    log with the same final TGO, each running average is the mean so far,
    and log i holds the run's seed i, evaluator, game config and map.txt."""
    config_path = os.path.join(path, "config.json")
    with open(config_path) as fh:
        try:
            config = experiment_config_from_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{config_path}: {exc}") from None
    metrics_path = os.path.join(path, "metrics.csv")
    metrics = read_metrics_csv(metrics_path, window=config.window())
    log_dir = os.path.join(path, "logs")
    log_paths = [os.path.join(log_dir, name) for name in sorted(os.listdir(log_dir)) if name.endswith(".jsonl")]
    logs = [engine.read_episode_log(log_path) for log_path in log_paths]
    if not len(logs) == len(metrics.tgo) == config.episodes:
        raise ValueError(f"{path}: {len(logs)} episode logs but {len(metrics.tgo)} metrics rows,"
                         f" for {config.episodes} episodes")
    run = {"evaluator": config.evaluator, "config": config.game}
    map_path = os.path.join(path, "map.txt")
    if os.path.exists(map_path):
        with open(map_path) as fh:
            run["map_text"] = fh.read()
    for i, (log_path, log, tgo) in enumerate(zip(log_paths, logs, metrics.tgo)):
        if log.final_tgo != tgo:
            raise ValueError(f"{path}: episode {i} log has final_tgo {log.final_tgo}, metrics row {tgo}")
        for name, value in {"seed": episode_seed(config.base_seed, i), **run}.items():
            if getattr(log, name) != value:
                raise ValueError(f"{log_path}: its {name} is not the run's")
    recomputed = RunMetrics()
    for i, (tgo, avg) in enumerate(zip(metrics.tgo, metrics.running_avg)):
        recomputed.record(tgo)
        if avg != recomputed.running_avg[-1]:
            raise ValueError(f"{metrics_path}: episode {i} running_avg {avg} is not the mean tgo so far")
    return metrics, logs, config


# ---------------------------------------------------------------------------
# comparison


@dataclass
class ComparisonReport:
    improvement_a: float
    improvement_b: float
    metrics_a: RunMetrics
    metrics_b: RunMetrics
    center_shares: dict[str, dict[str, float]]  # arm -> terrain -> share
    occupied_shares: dict[str, dict[str, float]]

    def summary_lines(self) -> list[str]:
        lines = [
            f"arm a: episodes={len(self.metrics_a.tgo)} improvement={self.improvement_a * 100:.1f}%",
            f"arm b: episodes={len(self.metrics_b.tgo)} improvement={self.improvement_b * 100:.1f}%",
            f"improvement delta (a - b): {(self.improvement_a - self.improvement_b) * 100:.1f}%",
        ]
        for arm in ("a", "b"):
            shares = ", ".join(f"{t}={s:.3f}" for t, s in sorted(self.center_shares[arm].items()))
            lines.append(f"arm {arm} center-tile terrain: {shares}")
        for arm in ("a", "b"):
            shares = ", ".join(f"{t}={s:.3f}" for t, s in sorted(self.occupied_shares[arm].items()))
            lines.append(f"arm {arm} occupied-tile terrain: {shares}")
        return lines


def _terrain_distributions(logs: list[EpisodeLog], window: int) -> tuple[dict, dict]:
    """Center-tile and worked-tile terrain shares over the last `window` episodes."""
    tail = logs[-window:] if window < len(logs) else logs
    center_counts: dict[str, int] = {}
    occupied_counts: dict[str, int] = {}
    for log in tail:
        game_map = log.decoded_map()
        for f in log.foundings():
            if f.player != log.player:
                continue
            terrain = game_map.tile(f.x, f.y).terrain.value
            center_counts[terrain] = center_counts.get(terrain, 0) + 1
        if log.turns:
            last = log.turns[-1]
            for cr in last.cities:
                if cr.player != log.player:
                    continue
                for x, y in cr.worked:
                    terrain = game_map.tile(x, y).terrain.value
                    occupied_counts[terrain] = occupied_counts.get(terrain, 0) + 1
    return _normalize(center_counts), _normalize(occupied_counts)


def _normalize(counts: dict[str, int]) -> dict[str, float]:
    total = sum(counts.values())
    if total == 0:
        return {}
    return {k: v / total for k, v in counts.items()}


def compare(
    metrics_a: RunMetrics,
    metrics_b: RunMetrics,
    logs_a: list[EpisodeLog],
    logs_b: list[EpisodeLog],
) -> ComparisonReport:
    """Pair two completed runs; rejects runs with differing worlds or horizons."""
    if logs_a and logs_b:
        if logs_a[0].map_text != logs_b[0].map_text:
            raise ValueError("runs were played on different maps")
        if logs_a[0].config.turn_limit != logs_b[0].config.turn_limit:
            raise ValueError("runs have different turn limits")
    centers_a, occupied_a = _terrain_distributions(logs_a, metrics_a.window)
    centers_b, occupied_b = _terrain_distributions(logs_b, metrics_b.window)
    return ComparisonReport(
        improvement_a=metrics_a.improvement,
        improvement_b=metrics_b.improvement,
        metrics_a=metrics_a,
        metrics_b=metrics_b,
        center_shares={"a": centers_a, "b": centers_b},
        occupied_shares={"a": occupied_a, "b": occupied_b},
    )


def export_distribution_csv(shares: dict[str, float], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["category", "share"])
        for category in sorted(shares):
            writer.writerow([category, repr(float(shares[category]))])


def write_comparison(report: ComparisonReport, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(report.summary_lines()) + "\n")
    for arm in ("a", "b"):
        export_distribution_csv(
            report.center_shares[arm], os.path.join(out_dir, f"center_terrain_{arm}.csv")
        )
        export_distribution_csv(
            report.occupied_shares[arm], os.path.join(out_dir, f"occupied_terrain_{arm}.csv")
        )
    export_metrics_csv(report.metrics_a, os.path.join(out_dir, "curve_a.csv"))
    export_metrics_csv(report.metrics_b, os.path.join(out_dir, "curve_b.csv"))


# ---------------------------------------------------------------------------
# NN training pipeline


def train_nn(
    dataset: features.Dataset,
    config: mlp.MlpConfig | None = None,
    folds: int = 10,
    cv_seed: int = 0,
) -> tuple[mlp.MlpModel, features.MinMaxNormalization, mlp.TrainReport]:
    """CV assessment, then the final model trained on the whole dataset with
    the min-max normalization fitted on it; a batch too large for the
    smallest CV split is cut to fit it. The dataset is left as it was."""
    if len(dataset) < 2:
        raise ValueError(f"only {len(dataset)} unique entries; not enough to train")
    config, folds = config or mlp.MlpConfig(), min(folds, len(dataset))
    config = dataclasses.replace(config, batch_size=mlp.cv_batch_size(config.batch_size, len(dataset), folds))
    cv_report = mlp.kfold_cv(dataset, config, folds=folds, seed=cv_seed)
    norm = features.minmax_fit(dataset)
    model, train_report = mlp.train(dataset, norm, config)
    train_report.fold_mses = cv_report.fold_mses
    train_report.mean_cv_mse = cv_report.mean_cv_mse
    return model, norm, train_report


def train_nn_from_logs(
    logs: list[EpisodeLog],
    config: mlp.MlpConfig | None = None,
    folds: int = 10,
    cv_seed: int = 0,
) -> tuple[mlp.MlpModel, features.MinMaxNormalization, mlp.TrainReport]:
    return train_nn(features.build_dataset(logs), config, folds, cv_seed)


# ---------------------------------------------------------------------------
# the two-arm comparison


@dataclass
class ComparisonRun:
    game_map: GameMap
    corpus: list[EpisodeLog]
    dataset: features.Dataset
    model: mlp.MlpModel
    normalization: features.MinMaxNormalization
    train_report: mlp.TrainReport
    arms: dict[str, ExperimentResult]  # "kb" is the report's arm a, "nn" its arm b
    report: ComparisonReport
    seconds: dict[str, float]  # wall time of the "corpus", "train" (dataset and regressor), "kb" and "nn" stages


def run_comparison(
    seed: int = 11, episodes: int = 300, bootstrap_episodes: int = 280, turn_limit: int = 60,
    epsilon: float = 0.1, epochs: int = 60, window: int | None = None, out_dir: str | None = None,
) -> ComparisonRun:
    """The experiment on the fixed map of `seed`: random-agent corpus, regressor, kb and nn arms,
    comparison. With `out_dir`, writes map.txt, dataset.csv, model.json, kb/, nn/ and comparison/.
    The kb arm's warmup episodes are the corpus's first ones (the same seeds), played once for both."""
    if bootstrap_episodes < 1:
        raise ValueError(f"bootstrap_episodes must be >= 1, got {bootstrap_episodes}")
    game, mapgen, rl_config = GameConfig(turn_limit=turn_limit), MapGenConfig(), RlConfig(epsilon=epsilon)
    # built first, so that bad sizes are refused before the corpus is played
    configs = {arm: ExperimentConfig(evaluator=arm, episodes=episodes, base_seed=seed, game=game, mapgen=mapgen,
                                     rl=rl_config, metrics_window=window) for arm in ("kb", "nn")}
    mlp_config = mlp.MlpConfig(epochs=epochs)
    game_map = generate_map(mapgen, seed)
    t0 = time.perf_counter()
    warmup = rl_config.warmup_episodes
    logs, points = bootstrap_corpus(game, mapgen, seed, max(bootstrap_episodes, warmup), game_map=game_map)
    corpus, warmup_points = logs[:bootstrap_episodes], points[: sum(len(log.turns) for log in logs[:warmup])]
    seconds = {"corpus": time.perf_counter() - t0}
    t0 = time.perf_counter()
    dataset = features.build_dataset(corpus)
    model, norm, train_report = train_nn(dataset, mlp_config, folds=10)
    seconds["train"] = time.perf_counter() - t0
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "map.txt"), "w") as fh:
            fh.write(encode_map(game_map))
        features.write_dataset_csv(dataset, os.path.join(out_dir, "dataset.csv"))
        mlp.save_model(model, norm, os.path.join(out_dir, "model.json"))
    arms = {}
    for arm, config in configs.items():
        t0 = time.perf_counter()
        clusters = fit_state_clusters(warmup_points, rl_config) if arm == "kb" else None
        arms[arm] = run_experiment(config, game_map=game_map, nn=(model, norm) if arm == "nn" else None,
                                   cluster_model=clusters,
                                   out_dir=None if out_dir is None else os.path.join(out_dir, arm))
        seconds[arm] = time.perf_counter() - t0
    report = compare(arms["kb"].metrics, arms["nn"].metrics, arms["kb"].logs, arms["nn"].logs)
    if out_dir is not None:
        write_comparison(report, os.path.join(out_dir, "comparison"))
    return ComparisonRun(game_map, corpus, dataset, model, norm, train_report, arms, report, seconds)


def experiment_config_to_dict(config: ExperimentConfig) -> dict:
    return dataclasses.asdict(config)


def experiment_config_from_dict(d: dict) -> ExperimentConfig:
    """Inverse of experiment_config_to_dict, also after a JSON round trip."""
    mapgen = {**d["mapgen"], "terrain_weights": tuple(map(tuple, d["mapgen"]["terrain_weights"]))}
    return ExperimentConfig(
        **{
            **d,
            "game": GameConfig(**d["game"]),
            "mapgen": MapGenConfig(**mapgen),
            "rl": RlConfig(**d["rl"]),
        }
    )
