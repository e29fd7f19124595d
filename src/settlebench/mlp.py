"""Feed-forward regressor, written out by hand on numpy.

Architecture: min-max-normalized inputs, one hidden layer of 95 ReLU
units with inverted dropout (p=0.5) by default, a single linear output
unit, MSE loss, ADAM updates. Weights start from N(0, 0.0005); biases
start at zero. Deeper stacks are supported for grid search.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .features import (
    LAYOUT,
    Dataset,
    MinMaxNormalization,
    minmax_apply,
    minmax_fit,
    normalize_label,
)


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int = LAYOUT.dim
    hidden: tuple[int, ...] = (95,)
    dropout: float = 0.5
    init_std: float = 0.0005
    learning_rate: float = 0.002
    batch_size: int = 30
    epochs: int = 200
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    # stop after this many epochs without training-loss improvement; 0 = off
    early_stop_patience: int = 0

    def __post_init__(self):
        if self.input_dim < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("layer dimensions must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


@dataclass
class MlpModel:
    weights: list[np.ndarray]  # (d_in, d_out) per layer
    biases: list[np.ndarray]
    config: MlpConfig

    def copy(self) -> "MlpModel":
        return MlpModel([w.copy() for w in self.weights], [b.copy() for b in self.biases], self.config)


@dataclass
class TrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    fold_mses: list[float] = field(default_factory=list)
    mean_cv_mse: float | None = None


def init_model(config: MlpConfig, seed: int | None = None) -> MlpModel:
    rng = np.random.default_rng(config.seed if seed is None else seed)
    dims = (config.input_dim, *config.hidden, 1)
    weights = [rng.normal(0.0, config.init_std, size=(dims[i], dims[i + 1])) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    return MlpModel(weights=weights, biases=biases, config=config)


def forward(model: MlpModel, x: np.ndarray, training: bool = False, rng=None):
    """Returns (predictions, cache). Dropout only in training mode, inverted
    scaling (survivors divided by keep probability), so inference needs no
    rescaling."""
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
        z = a @ model.weights[i] + model.biases[i]
        if i < n_layers - 1:
            cache["pre_act"].append(z)
            a = np.maximum(z, 0.0)
            if training and p > 0:
                mask = (rng.random(a.shape) >= p) / (1.0 - p)
                a = a * mask
            else:
                mask = None
            cache["masks"].append(mask)
        else:
            a = z
    out = a[:, 0]
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


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def backward(model: MlpModel, cache: dict, targets: np.ndarray) -> Gradients:
    """Gradients of the batch MSE w.r.t. every weight and bias."""
    targets = np.asarray(targets, dtype=float).reshape(-1)
    x = cache["x"]
    n = x.shape[0]
    if targets.shape[0] != n:
        raise ValueError("targets do not match the cached batch")

    # recompute the output from the cache to get the residual
    last_in = cache["inputs"][-1]
    out = (last_in @ model.weights[-1] + model.biases[-1])[:, 0]
    delta = (2.0 * (out - targets) / n).reshape(-1, 1)

    grad_w = [np.zeros_like(w) for w in model.weights]
    grad_b = [np.zeros_like(b) for b in model.biases]
    for i in reversed(range(len(model.weights))):
        a_prev = cache["inputs"][i]
        grad_w[i] = a_prev.T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.weights[i].T
            mask = cache["masks"][i - 1]
            if mask is not None:
                delta = delta * mask
            delta = delta * (cache["pre_act"][i - 1] > 0)
    return Gradients(weights=grad_w, biases=grad_b)


@dataclass
class AdamState:
    m_w: list[np.ndarray]
    v_w: list[np.ndarray]
    m_b: list[np.ndarray]
    v_b: list[np.ndarray]

    @classmethod
    def for_model(cls, model: MlpModel) -> "AdamState":
        return cls(
            m_w=[np.zeros_like(w) for w in model.weights],
            v_w=[np.zeros_like(w) for w in model.weights],
            m_b=[np.zeros_like(b) for b in model.biases],
            v_b=[np.zeros_like(b) for b in model.biases],
        )


def adam_step(model: MlpModel, grads: Gradients, state: AdamState, t: int) -> MlpModel:
    """Standard ADAM update with bias correction; mutates model and state."""
    if t < 1:
        raise ValueError("ADAM step counter starts at 1")
    cfg = model.config
    b1, b2, eps, lr = cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.learning_rate
    for i in range(len(model.weights)):
        for param, grad, m, v in (
            (model.weights[i], grads.weights[i], state.m_w[i], state.v_w[i]),
            (model.biases[i], grads.biases[i], state.m_b[i], state.v_b[i]),
        ):
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad**2
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            param -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return model


def _normalized_arrays(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    if dataset.normalization is None:
        raise ValueError("dataset is not normalized; fit min-max parameters first")
    x = minmax_apply(dataset.normalization, dataset.feature_matrix())
    y = np.asarray(normalize_label(dataset.normalization, dataset.labels()), dtype=float)
    return x, y


def train(dataset: Dataset, config: MlpConfig) -> tuple[MlpModel, TrainReport]:
    """Mini-batch ADAM training on the normalized dataset; seeded shuffling."""
    x, y = _normalized_arrays(dataset)
    n = x.shape[0]
    if n < 2 * config.batch_size:
        raise ValueError(f"dataset of {n} rows is too small for batch size {config.batch_size}")
    rng = np.random.default_rng(config.seed)
    model = init_model(config)
    state = AdamState.for_model(model)
    report = TrainReport()
    t = 0
    best_loss, stale = np.inf, 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            out, cache = forward(model, x[idx], training=True, rng=rng)
            losses.append(mse(out, y[idx]) * len(idx))
            grads = backward(model, cache, y[idx])
            t += 1
            adam_step(model, grads, state, t)
        epoch_loss = float(sum(losses) / n)
        report.epoch_losses.append(epoch_loss)
        if config.early_stop_patience > 0:
            if epoch_loss < best_loss:
                best_loss, stale = epoch_loss, 0
            else:
                stale += 1
                if stale >= config.early_stop_patience:
                    break
    return model, report


def kfold_cv(dataset: Dataset, config: MlpConfig, folds: int = 10, seed: int = 0) -> TrainReport:
    """Shuffled k-fold CV; normalization is fitted on each training split only.

    Validation MSE is reported in normalized label units.
    """
    n = len(dataset)
    if folds < 2 or folds > n:
        raise ValueError(f"folds={folds} invalid for {n} entries")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    parts = np.array_split(order, folds)
    report = TrainReport()
    for i in range(folds):
        val_idx = parts[i]
        train_idx = np.concatenate([parts[j] for j in range(folds) if j != i])
        train_ds = Dataset(entries=[dataset.entries[j] for j in train_idx], layout=dataset.layout)
        train_ds.normalization = minmax_fit(train_ds)
        model, _ = train(train_ds, config)
        xv = minmax_apply(train_ds.normalization, np.asarray([dataset.entries[j].features for j in val_idx]))
        yv = normalize_label(train_ds.normalization, np.asarray([dataset.entries[j].label for j in val_idx]))
        report.fold_mses.append(mse(predict(model, xv), yv))
    report.mean_cv_mse = float(np.mean(report.fold_mses))
    return report


@dataclass
class GridSearchReport:
    results: list[tuple[MlpConfig, float]]

    def best(self) -> tuple[MlpConfig, float]:
        best_i = min(range(len(self.results)), key=lambda i: self.results[i][1])
        return self.results[best_i]


def grid_search(dataset: Dataset, grid: list[MlpConfig], folds: int = 10, seed: int = 0):
    """Exhaustive CV over the grid; lowest mean MSE wins, ties keep grid order."""
    if not grid:
        raise ValueError("empty hyperparameter grid")
    results = []
    for config in grid:
        report = kfold_cv(dataset, config, folds=folds, seed=seed)
        results.append((config, float(report.mean_cv_mse)))
    report = GridSearchReport(results=results)
    return report.best()[0], report


# -- model file --------------------------------------------------------------


def save_model(model: MlpModel, normalization: MinMaxNormalization, path) -> None:
    """Text (JSON) layout: config, row-major weights, biases, normalization.

    Floats are written with full repr precision, so loading is bit-exact.
    """
    payload = {
        "format": "settlebench-mlp",
        "layout_version": LAYOUT.version,
        "config": dataclasses.asdict(model.config),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "normalization": normalization.to_dict(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_model(path) -> tuple[MlpModel, MinMaxNormalization]:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != "settlebench-mlp":
        raise ValueError(f"{path}: not a model file")
    if payload.get("layout_version") != LAYOUT.version:
        raise ValueError(f"{path}: feature layout v{payload.get('layout_version')} unsupported")
    cfg_dict = dict(payload["config"])
    cfg_dict["hidden"] = tuple(cfg_dict["hidden"])
    config = MlpConfig(**cfg_dict)
    model = MlpModel(
        weights=[np.asarray(w, dtype=float) for w in payload["weights"]],
        biases=[np.asarray(b, dtype=float) for b in payload["biases"]],
        config=config,
    )
    return model, MinMaxNormalization.from_dict(payload["normalization"])
