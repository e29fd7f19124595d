"""Feed-forward regressor, written out by hand on numpy.

Architecture: min-max-normalized inputs, one hidden layer of 95 ReLU
units with inverted dropout (p=0.5) by default, a single linear output
unit, MSE loss, ADAM updates. Weights start from N(0, 0.0005); biases
start at zero. Deeper stacks are supported for grid search. A model's
parameters are one contiguous float64 vector with per-layer views.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .features import (
    COLUMNS,
    LAYOUT_VERSION,
    Dataset,
    MinMaxNormalization,
    minmax_apply,
    minmax_fit,
    normalize_label,
)


# the ADAM moment decay rates and denominator guard, the same for every model
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int = len(COLUMNS)
    hidden: tuple[int, ...] = (95,)
    dropout: float = 0.5
    init_std: float = 0.0005
    learning_rate: float = 0.002
    batch_size: int = 30
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("layer dimensions must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


def flat_size(config: MlpConfig) -> int:
    """Number of parameters: every layer's weights plus its biases."""
    dims = (config.input_dim, *config.hidden, 1)
    return sum((d_in + 1) * d_out for d_in, d_out in zip(dims, dims[1:]))


def layer_views(flat: np.ndarray, config: MlpConfig) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """(weights, biases): per-layer views into one flat float64 vector laid out
    W0, b0, W1, b1, ...; each W is (d_in, d_out) row-major, each b is (d_out,)."""
    if flat.dtype != np.float64 or flat.shape != (flat_size(config),):
        raise ValueError(f"parameter vector {flat.dtype}{flat.shape} does not fit layers of {config}")
    dims = (config.input_dim, *config.hidden, 1)
    weights, biases, at = [], [], 0
    for d_in, d_out in zip(dims, dims[1:]):
        weights.append(flat[at : at + d_in * d_out].reshape(d_in, d_out))
        at += d_in * d_out
        biases.append(flat[at : at + d_out])
        at += d_out
    return tuple(weights), tuple(biases)


@dataclass
class MlpModel:
    """All parameters in `flat`; `weights` and `biases` are tuples of views
    into it, so writing through a view updates the model, and replacing a
    layer's array (item assignment on the tuple) raises TypeError. Gradients
    use the same layout, so `backward` returns them as an MlpModel too."""

    flat: np.ndarray
    config: MlpConfig
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)  # (d_in, d_out) per layer
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self.weights, self.biases = layer_views(self.flat, self.config)

    def copy(self) -> "MlpModel":
        return MlpModel(self.flat.copy(), self.config)


@dataclass
class TrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    fold_mses: list[float] = field(default_factory=list)
    mean_cv_mse: float | None = None


def init_model(config: MlpConfig, seed: int | None = None) -> MlpModel:
    rng = np.random.default_rng(config.seed if seed is None else seed)
    model = MlpModel(np.zeros(flat_size(config)), config)
    for w in model.weights:
        w[...] = rng.normal(0.0, config.init_std, size=w.shape)
    return model


def forward(model: MlpModel, x: np.ndarray, training: bool = False, rng=None):
    """Returns (predictions, cache). Dropout only in training mode, inverted
    scaling (survivors divided by keep probability), so inference needs no
    rescaling. The cache holds each layer's input, the pre-activations, the
    dropout masks and the output column, for `backward`."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    a = x.reshape(1, -1) if single else x
    if a.shape[1] != model.config.input_dim:
        raise ValueError(f"input dim {a.shape[1]} != model dim {model.config.input_dim}")
    p = model.config.dropout
    if training and p > 0 and rng is None:
        raise ValueError("training-mode forward with dropout needs an rng")

    cache = {"inputs": [], "pre_act": [], "masks": [], "x": a}
    n_layers = len(model.weights)
    for i in range(n_layers):
        cache["inputs"].append(a)
        z = a @ model.weights[i]
        z += model.biases[i]
        if i < n_layers - 1:
            cache["pre_act"].append(z)
            a = np.maximum(z, 0.0)
            if training and p > 0:
                mask = (rng.random(a.shape) >= p) / (1.0 - p)
                a *= mask
            else:
                mask = None
            cache["masks"].append(mask)
    out = cache["out"] = z[:, 0]
    return (float(out[0]) if single else out), cache


def predict(model: MlpModel, x: np.ndarray) -> np.ndarray:
    out, _ = forward(model, x, training=False)
    return out


def mse(predictions, targets) -> float:
    predictions = np.asarray(predictions, dtype=float).ravel()
    targets = np.asarray(targets, dtype=float).ravel()
    if predictions.size == 0 or predictions.shape != targets.shape:
        raise ValueError("mse needs equal-length, non-empty batches")
    return float(np.mean((predictions - targets) ** 2))


def backward(model: MlpModel, cache: dict, targets: np.ndarray, out: MlpModel | None = None) -> MlpModel:
    """Gradients of the batch MSE w.r.t. every weight and bias.

    The residual comes from the output `forward` left in the cache, and each
    layer's gradient is written straight into its view of the flat vector:
    that of `out` when given (overwritten whole, so a training loop can reuse
    one), else a new one.
    """
    targets = np.asarray(targets, dtype=float).reshape(-1)
    n = cache["x"].shape[0]
    if targets.shape[0] != n:
        raise ValueError("targets do not match the cached batch")

    delta = (2.0 * (cache["out"] - targets) / n).reshape(-1, 1)
    grads = MlpModel(np.empty_like(model.flat), model.config) if out is None else out
    for i in reversed(range(len(model.weights))):
        np.matmul(cache["inputs"][i].T, delta, out=grads.weights[i])
        np.add.reduce(delta, axis=0, out=grads.biases[i])
        if i > 0:
            delta = delta @ model.weights[i].T
            mask = cache["masks"][i - 1]
            if mask is not None:
                delta *= mask
            delta *= cache["pre_act"][i - 1] > 0
    return grads


@dataclass
class AdamState:
    """First and second moments in the model's flat layout, plus two scratch
    vectors so a step allocates nothing."""

    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray] = field(repr=False)

    @classmethod
    def for_model(cls, model: MlpModel) -> "AdamState":
        flat = model.flat
        return cls(m=np.zeros_like(flat), v=np.zeros_like(flat), scratch=(np.empty_like(flat), np.empty_like(flat)))


def adam_step(model: MlpModel, grads: MlpModel, state: AdamState, t: int) -> MlpModel:
    """Standard ADAM update with bias correction over the whole parameter
    vector at once, in place; mutates model and state.

    Per element: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
    p -= (lr * (m / (1-b1^t))) / (sqrt(v / (1-b2^t)) + eps).
    """
    if t < 1:
        raise ValueError("ADAM step counter starts at 1")
    b1, b2, eps, lr = BETA1, BETA2, ADAM_EPS, model.config.learning_rate
    g, m, v = grads.flat, state.m, state.v
    step, denom = state.scratch
    m *= b1
    np.multiply(g, 1 - b1, out=step)
    m += step
    v *= b2
    np.multiply(g, g, out=step)
    step *= 1 - b2
    v += step
    np.divide(m, 1 - b1**t, out=step)
    step *= lr
    np.divide(v, 1 - b2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    model.flat -= step
    return model


def train(dataset: Dataset, norm: MinMaxNormalization, config: MlpConfig) -> tuple[MlpModel, TrainReport]:
    """Mini-batch ADAM training on the dataset scaled by `norm`; seeded shuffling."""
    x = minmax_apply(norm, dataset.x)
    y = normalize_label(norm, dataset.y)
    n = x.shape[0]
    if n < 2 * config.batch_size:
        raise ValueError(f"dataset of {n} rows is too small for batch size {config.batch_size}")
    rng = np.random.default_rng(config.seed)
    model = init_model(config)
    state = AdamState.for_model(model)
    grads = MlpModel(np.empty_like(model.flat), config)
    report = TrainReport()
    t = 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            yb = y[idx]
            out, cache = forward(model, x[idx], training=True, rng=rng)
            losses.append(mse(out, yb) * len(idx))
            backward(model, cache, yb, out=grads)
            t += 1
            adam_step(model, grads, state, t)
        report.epoch_losses.append(float(sum(losses) / n))
    return model, report


def cv_batch_size(batch_size: int, rows: int, folds: int) -> int:
    """`batch_size`, cut to half the smallest training split of a `folds`-fold
    CV over `rows` rows where that split is too small for it to train."""
    smallest_split = rows - (rows + folds - 1) // folds
    return min(batch_size, max(1, smallest_split // 2))


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one);
    1 where the OS cannot fork, since each fold group is fitted in a forked child."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fold_mse(dataset: Dataset, config: MlpConfig, parts: list[np.ndarray], fold: int) -> float:
    """Validation MSE of one CV fold: train on every part but `parts[fold]`,
    with the normalization fitted on those parts only, then score that part."""
    train_idx = np.concatenate([part for j, part in enumerate(parts) if j != fold])
    train_ds = Dataset(dataset.x[train_idx], dataset.y[train_idx])
    norm = minmax_fit(train_ds)
    model, _ = train(train_ds, norm, config)
    val_idx = parts[fold]
    xv = minmax_apply(norm, dataset.x[val_idx])
    yv = normalize_label(norm, dataset.y[val_idx])
    return mse(predict(model, xv), yv)


def _fit_folds(dataset: Dataset, config: MlpConfig, parts: list[np.ndarray], folds: range) -> list:
    """The validation MSE of each of `folds` in order, up to the first fold
    that raises; that fold's exception ends the list."""
    outcomes = []
    for fold in folds:
        try:
            outcomes.append(_fold_mse(dataset, config, parts, fold))
        except Exception as exc:  # noqa: BLE001 - kfold_cv raises it
            outcomes.append(exc)
            break
    return outcomes


def _in_children(fn, arg_lists: list[tuple]) -> list:
    """`[fn(*args) for args in arg_lists]`, each call in a child forked for
    it, all at once; results come back pickled through a pipe. Every child
    has exited when this returns or raises."""
    children = []
    try:
        for args in arg_lists:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child never returns into the caller's code
                try:
                    os.close(read_end)
                    with open(write_end, "wb") as out:
                        pickle.dump(fn(*args), out)
                finally:
                    os._exit(0)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        results = []
        for pid, result in children:
            try:
                results.append(pickle.load(result))
            except EOFError:
                raise ChildProcessError(f"child {pid} exited without a result") from None
        return results
    finally:
        for pid, result in children:
            result.close()
            os.waitpid(pid, 0)


def kfold_cv(dataset: Dataset, config: MlpConfig, folds: int = 10, seed: int = 0) -> TrainReport:
    """Shuffled k-fold CV; normalization is fitted on each training split only.

    Validation MSE is reported in normalized label units. The folds are
    dealt round-robin into one group per usable CPU. With one group this
    process fits it; with more, each group is fitted in a child forked for
    it while this process waits. Each fold is fitted exactly as a serial
    loop would, so the report does not depend on the CPU count, and a
    failure raises the exception of the lowest failing fold, as the serial
    loop would, once every child has exited.
    """
    n = len(dataset)
    if folds < 2 or folds > n:
        raise ValueError(f"folds={folds} invalid for {n} entries")
    rng = np.random.default_rng(seed)
    parts = np.array_split(rng.permutation(n), folds)
    workers = min(usable_cpus(), folds)
    groups = [range(g, folds, workers) for g in range(workers)]
    if workers == 1:
        fitted = [_fit_folds(dataset, config, parts, groups[0])]
    else:
        # this process only waits: a page it wrote while a child was alive would be
        # copied, and on the host measured its work after such a fit ran slower
        fitted = _in_children(_fit_folds, [(dataset, config, parts, group) for group in groups])
    outcomes = {fold: outcome for group, done in zip(groups, fitted) for fold, outcome in zip(group, done)}
    # a fold missing from `outcomes` comes after its group's failure
    failures = [outcomes[fold] for fold in sorted(outcomes) if isinstance(outcomes[fold], Exception)]
    if failures:
        raise failures[0]
    report = TrainReport(fold_mses=[outcomes[fold] for fold in range(folds)])
    report.mean_cv_mse = float(np.mean(report.fold_mses))
    return report


def grid_search(
    dataset: Dataset, grid: list[MlpConfig], folds: int = 10, seed: int = 0
) -> tuple[MlpConfig, list[tuple[MlpConfig, float]]]:
    """Exhaustive CV over the grid: (best config, [(config, mean CV MSE)] in
    grid order). Lowest mean MSE wins; ties keep grid order."""
    if not grid:
        raise ValueError("empty hyperparameter grid")
    results = []
    for config in grid:
        report = kfold_cv(dataset, config, folds=folds, seed=seed)
        results.append((config, float(report.mean_cv_mse)))
    return min(results, key=itemgetter(1))[0], results


# -- model file --------------------------------------------------------------


def save_model(model: MlpModel, normalization: MinMaxNormalization, path) -> None:
    """Text (JSON) layout: config, row-major weights, biases, normalization.

    Floats are written with full repr precision, so loading is bit-exact.
    """
    payload = {
        "format": "settlebench-mlp",
        "layout_version": LAYOUT_VERSION,
        "config": dataclasses.asdict(model.config),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "normalization": normalization.to_dict(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_model(path) -> tuple[MlpModel, MinMaxNormalization]:
    """The model saved at `path`; ValueError naming the file for a malformed
    one, but TypeError naming the field for a config field MlpConfig lacks."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("format") != "settlebench-mlp":
            raise ValueError("not a model file")
        if payload.get("layout_version") != LAYOUT_VERSION:
            raise ValueError(f"feature layout v{payload.get('layout_version')} unsupported")
        cfg_dict = {**payload["config"], "hidden": tuple(payload["config"]["hidden"])}
        layers = [np.asarray(a, dtype=float) for a in (*payload["weights"], *payload["biases"])]
        normalization = MinMaxNormalization.from_dict(payload["normalization"])
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: {reason}") from None
    try:
        config = MlpConfig(**cfg_dict)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    model = MlpModel(np.zeros(flat_size(config)), config)
    views = (*model.weights, *model.biases)
    if len(layers) != len(views) or any(a.shape != view.shape for a, view in zip(layers, views)):
        raise ValueError(f"{path}: layer shapes do not match the model config")
    for view, a in zip(views, layers):
        view[...] = a
    return model, normalization
