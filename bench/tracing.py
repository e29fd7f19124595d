"""Spans around the library's layer boundaries, installed from outside.

`instrument` replaces the traced functions of the settlebench modules with
timing wrappers and puts the originals back on exit. A function imported
by name into other modules (``cluster_at`` lives in ``world`` but is bound
in ``engine``, ``harness``, ``features`` and ``rl``) is patched at every
module that holds it, found by identity, so no call site escapes the
trace. Methods are patched on their class.

Spans are aggregated per name (calls, total, time in child spans) and per
(parent, child) edge, not stored one by one: the hot leaves run tens of
thousands of times per few dozen episodes. Self time is total minus child
time. Nothing here changes what the wrapped functions compute.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import time

# (defining module, attribute path) for every traced boundary. The span is
# named "<module>.<attribute path>".
TRACED = (
    ("world", "cluster_at"),
    ("world", "generate_map"),
    ("world", "encode_map"),
    ("world", "GameMap.copy"),
    ("engine", "run_episode"),
    ("engine", "step_turn"),
    ("engine", "legal_founding_sites"),
    ("engine", "write_episode_log"),
    ("engine", "read_episode_log"),
    ("engine", "replay_episode"),
    ("harness", "run_experiment"),
    ("harness", "bootstrap_corpus"),
    ("harness", "fit_state_clusters"),
    ("harness", "persist_experiment"),
    ("harness", "load_run_dir"),
    ("harness", "train_nn_from_logs"),
    ("harness", "evaluate_placements"),
    ("harness", "SettlementAgent.act"),
    ("harness", "RandomEvaluator.score_many"),
    ("harness", "RuleEvaluator.score_many"),
    ("harness", "NnEvaluator.score_many"),
    ("rulekb", "score_cluster"),
    ("rulekb", "match_rules"),
    ("rl", "state_features"),
    ("rl", "assign_state"),
    ("rl", "choose"),
    ("rl", "selection_probabilities"),
    ("rl", "update_from_episode"),
    ("rl", "kmeans_fit"),
    ("features", "extract_features"),
    ("features", "build_dataset"),
    ("mlp", "predict"),
    ("mlp", "train"),
    ("mlp", "kfold_cv"),
    ("mlp", "adam_step"),
    ("mlp", "forward"),
    ("mlp", "backward"),
)

MODULES = ("world", "engine", "rulekb", "rl", "features", "mlp", "harness", "cli")


def _count_sites(counters, args, kwargs, result):
    counters["engine.legal_founding_sites.sites"] += len(result)


def _count_pass(counters, args, kwargs, result):
    counters["harness.sites_scored"] += len(result)


def _count_centers(key):
    def count(counters, args, kwargs, result):
        counters[key] += len(args[3])

    return count


def _count_families(counters, args, kwargs, result):
    counters["rulekb.families_matched"] += len(result)
    counters["rulekb.families_tested"] += len(args[0].families)


def _count_iterations(counters, args, kwargs, result):
    counters["rl.kmeans_fit.iterations"] += result.iterations


def _count_rows(counters, args, kwargs, result):
    counters["features.dataset_rows"] += len(result)


def _count_predict_rows(counters, args, kwargs, result):
    x = args[1]
    counters["mlp.predict.rows"] += len(x) if getattr(x, "ndim", 1) > 1 else 1


def _count_log_bytes(counters, args, kwargs, result):
    counters["engine.log_bytes"] += os.path.getsize(args[1])


# Work counted at the boundary, from the call's arguments and result.
COUNTERS = {
    "engine.legal_founding_sites": _count_sites,
    "harness.evaluate_placements": _count_pass,
    "harness.RuleEvaluator.score_many": _count_centers("harness.RuleEvaluator.sites"),
    "harness.NnEvaluator.score_many": _count_centers("harness.NnEvaluator.sites"),
    "rulekb.match_rules": _count_families,
    "rl.kmeans_fit": _count_iterations,
    "features.build_dataset": _count_rows,
    "mlp.predict": _count_predict_rows,
    "engine.write_episode_log": _count_log_bytes,
}


class Tracer:
    """Aggregated spans, episode durations and boundary counters.

    With ``spans=False`` only ``engine.run_episode`` is wrapped, to time
    each episode; that is the untraced mode the end-to-end metrics use.
    """

    def __init__(self, spans: bool = True):
        self.spans = spans
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self.edges: dict[tuple[str | None, str], list] = {}  # (parent, name) -> [calls, total_s]
        self.counters: collections.defaultdict[str, int] = collections.defaultdict(int)
        self.episode_s: list[float] = []
        self.episode_start: list[float] = []  # untraced mode only
        self._stack: list[list] = []

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        _, total, child = self.stats.get(name, (0, 0.0, 0.0))
        return total - child

    def edge_total(self, parent: str, name: str) -> float:
        return self.edges.get((parent, name), (0, 0.0))[1]

    def counter(self, key: str) -> float:
        return self.counters.get(key, 0)

    def wrap(self, name: str, fn):
        if not self.spans:
            return self._wrap_episode_clock(fn)
        stack, stats, edges, counters = self._stack, self.stats, self.edges, self.counters
        count = COUNTERS.get(name)
        episodes = self.episode_s if name == "engine.run_episode" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += frame[1]
                parent = None
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += duration
            if count is not None:
                count(counters, args, kwargs, result)
            if episodes is not None:
                episodes.append(duration)
            return result

        return traced

    def _wrap_episode_clock(self, fn):
        episodes, starts, clock = self.episode_s, self.episode_start, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            starts.append(start)
            result = fn(*args, **kwargs)
            episodes.append(clock() - start)
            return result

        return timed

    def report(self) -> dict:
        """Aggregates in a JSON-friendly form, for writing out after a run."""
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": t - ch}
                for name, (c, t, ch) in sorted(self.stats.items())
            },
            "edges": [
                {"parent": p, "name": n, "calls": c, "total_s": t}
                for (p, n), (c, t) in sorted(self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))
            ],
            "counters": dict(sorted(self.counters.items())),
        }


def _modules():
    return {name: importlib.import_module(f"settlebench.{name}") for name in MODULES}


def _resolve(modules, module_name: str, path: str):
    """(owner object, attribute name, current value) for a traced path."""
    owner = modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


def binding_sites(modules, module_name: str, path: str):
    """Every (owner, attribute) that holds the traced function.

    A module-level function is bound in its defining module and in every
    module that imported it by name; a method only on its class.
    """
    owner, attr, original = _resolve(modules, module_name, path)
    if isinstance(owner, type):
        return original, [(owner, attr)]
    sites = [
        (module, name)
        for module in modules.values()
        for name, value in vars(module).items()
        if value is original
    ]
    return original, sites


class instrument:
    """Context manager: wrap the traced boundaries, restore them on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        modules = _modules()
        targets = TRACED if self.tracer.spans else (("engine", "run_episode"),)
        try:
            for module_name, path in targets:
                original, sites = binding_sites(modules, module_name, path)
                wrapped = self.tracer.wrap(f"{module_name}.{path}", original)
                for owner, attr in sites:
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
