import dataclasses
import json

import numpy as np
import pytest

from settlebench.features import Dataset, DatasetEntry, minmax_fit
from settlebench.mlp import (
    AdamState,
    Gradients,
    layer_views,
    MlpConfig,
    MlpModel,
    adam_step,
    backward,
    forward,
    grid_search,
    init_model,
    kfold_cv,
    load_model,
    mse,
    predict,
    save_model,
    train,
)


def small_config(**kwargs) -> MlpConfig:
    base = dict(input_dim=5, hidden=(4,), dropout=0.0, epochs=5, batch_size=4, seed=0)
    base.update(kwargs)
    return MlpConfig(**base)


def linear_dataset(n=200, d=6, seed=0, noise=0.0) -> Dataset:
    """y = w.x + b with non-negative labels; easily learnable."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, d)) * 4
    w = rng.random(d)
    y = x @ w + 1.0 + noise * rng.standard_normal(n)
    entries = [DatasetEntry(features=tuple(row), label=float(max(v, 0.0))) for row, v in zip(x, y)]
    ds = Dataset(entries=entries)
    ds.normalization = minmax_fit(ds)
    return ds


# -- initialization ---------------------------------------------------------------


def test_init_deterministic():
    cfg = MlpConfig(input_dim=60)
    a, b = init_model(cfg), init_model(cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert all(np.all(bias == 0) for bias in a.biases)


def test_init_zero_std_zero_weights():
    model = init_model(MlpConfig(input_dim=10, init_std=0.0))
    assert all(np.all(w == 0) for w in model.weights)


def test_init_sample_std_near_config():
    model = init_model(MlpConfig(input_dim=60, hidden=(95,), init_std=0.0005))
    sample_std = float(model.weights[0].std())
    assert 0.0004 <= sample_std <= 0.0006  # within 20%


# -- flat parameter layout ----------------------------------------------------------


def test_weights_and_biases_are_views_of_one_vector():
    cfg = MlpConfig(input_dim=3, hidden=(4, 2))
    model = init_model(cfg)
    assert model.flat.dtype == np.float64 and model.flat.flags.c_contiguous
    layers = [a for w, b in zip(model.weights, model.biases) for a in (w, b)]
    assert [a.shape for a in layers] == [(3, 4), (4,), (4, 2), (2,), (2, 1), (1,)]
    assert all(np.shares_memory(a, model.flat) for a in layers)
    model.flat[:] = np.arange(model.flat.size)  # layout W0, b0, W1, b1, W2, b2
    assert np.array_equal(np.concatenate([a.ravel() for a in layers]), np.arange(model.flat.size))
    assert model.weights[0][1, 0] == 4 and model.biases[0][0] == 12 and model.biases[2][0] == 28
    model.weights[1][0, 1] = -1.0
    assert model.flat[17] == -1.0


def test_copy_is_independent():
    model = init_model(small_config(seed=2))
    clone = model.copy()
    assert np.array_equal(clone.flat, model.flat) and not np.shares_memory(clone.flat, model.flat)
    before = model.flat.copy()
    clone.weights[0][0, 0] += 1.0
    clone.biases[-1][0] = 5.0
    assert np.array_equal(model.flat, before)
    assert clone.flat[0] == before[0] + 1.0 and clone.flat[-1] == 5.0


def test_replacing_a_layer_fails_loudly():
    model = init_model(small_config())
    with pytest.raises(TypeError):
        model.weights[0] = np.zeros((5, 4))
    with pytest.raises(TypeError):
        model.biases[0] = np.zeros(4)


def test_layer_views_reject_a_vector_of_another_size_or_dtype():
    cfg = small_config()  # 5*4 + 4 + 4*1 + 1 parameters
    assert [w.shape for w in layer_views(np.zeros(29), cfg)[0]] == [(5, 4), (4, 1)]
    with pytest.raises(ValueError):
        layer_views(np.zeros(28), cfg)
    with pytest.raises(ValueError):
        layer_views(np.zeros(29, dtype=np.float32), cfg)


# -- forward ----------------------------------------------------------------------


def test_forward_zero_network():
    model = init_model(MlpConfig(input_dim=4, init_std=0.0))
    out, _ = forward(model, np.ones(4))
    assert out == 0.0


def test_forward_dropout_zero_matches_inference():
    model = init_model(small_config(dropout=0.0, seed=3))
    x = np.linspace(-1, 1, 5)
    train_out, _ = forward(model, x, training=True, rng=np.random.default_rng(0))
    infer_out, _ = forward(model, x, training=False)
    assert train_out == infer_out


def test_forward_hand_computed_2_2_1():
    cfg = MlpConfig(input_dim=2, hidden=(2,), dropout=0.0)
    model = init_model(cfg)
    model.weights[0][...] = np.array([[0.1, -0.2], [0.3, 0.4]])
    model.biases[0][...] = np.array([0.01, -0.02])
    model.weights[1][...] = np.array([[0.5], [-0.6]])
    model.biases[1][...] = np.array([0.1])
    out, _ = forward(model, np.array([1.0, 2.0]))
    # z1 = (0.71, 0.58); relu passthrough; 0.71*0.5 - 0.58*0.6 + 0.1
    assert out == pytest.approx(0.107, abs=1e-12)


def test_forward_shape_mismatch():
    model = init_model(small_config())
    with pytest.raises(ValueError):
        forward(model, np.ones(7))


def test_dropout_expectation_matches_inference():
    cfg = MlpConfig(input_dim=6, hidden=(40,), dropout=0.5, seed=1)
    model = init_model(cfg, seed=9)
    # beef up the weights so activations are far from zero
    model.weights[0][...] = model.weights[0] * 1000 + 0.05
    model.weights[1][...] = model.weights[1] * 1000 + 0.05
    x = np.abs(np.random.default_rng(2).random(6)) + 0.5
    infer, _ = forward(model, x, training=False)
    rng = np.random.default_rng(42)
    outs = [forward(model, x, training=True, rng=rng)[0] for _ in range(10_000)]
    assert np.mean(outs) == pytest.approx(infer, rel=0.02)


# -- loss -------------------------------------------------------------------------


def test_mse_examples():
    assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse([0.0], [2.0]) == 4.0
    with pytest.raises(ValueError):
        mse([], [])


def test_mse_second_implementation():
    rng = np.random.default_rng(3)
    a, b = rng.random(40), rng.random(40)
    by_hand = sum((u - v) ** 2 for u, v in zip(a, b)) / 40
    assert mse(a, b) == pytest.approx(by_hand, abs=1e-12)


# -- backward ---------------------------------------------------------------------


def test_backward_zero_error_zero_gradients():
    model = init_model(MlpConfig(input_dim=3, init_std=0.0))
    x = np.random.default_rng(0).random((4, 3))
    out, cache = forward(model, x)
    grads = backward(model, cache, np.zeros(4))
    assert all(np.all(g == 0) for g in grads.weights)
    assert all(np.all(g == 0) for g in grads.biases)


def test_backward_output_bias_closed_form():
    model = init_model(small_config(seed=11, input_dim=5, hidden=(4,)))
    rng = np.random.default_rng(5)
    x, y = rng.random((8, 5)), rng.random(8)
    out, cache = forward(model, x)
    grads = backward(model, cache, y)
    assert grads.biases[-1][0] == pytest.approx(np.mean(2 * (out - y)), abs=1e-12)


def test_gradients_match_finite_differences():
    cfg = MlpConfig(input_dim=5, hidden=(4,), dropout=0.0, init_std=0.5, seed=2)
    model = init_model(cfg)
    rng = np.random.default_rng(0)
    eps = 1e-6
    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal(5)
        y = np.array([rng.standard_normal()])
        _, cache = forward(model, x.reshape(1, -1))
        grads = backward(model, cache, y)
        for li in range(len(model.weights)):
            for arr, g in ((model.weights[li], grads.weights[li]), (model.biases[li], grads.biases[li])):
                flat = arr.ravel()
                gflat = np.asarray(g).ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    up = mse(forward(model, x)[0], y[0:1])
                    flat[idx] = orig - eps
                    down = mse(forward(model, x)[0], y[0:1])
                    flat[idx] = orig
                    numeric = (up - down) / (2 * eps)
                    denom = max(abs(numeric), abs(gflat[idx]), 1e-8)
                    worst = max(worst, abs(numeric - gflat[idx]) / denom)
    assert worst < 1e-4


# -- ADAM -------------------------------------------------------------------------


def scalar_model(lr=0.002) -> MlpModel:
    cfg = MlpConfig(input_dim=1, hidden=(), learning_rate=lr, dropout=0.0)
    model = init_model(cfg)
    model.weights[0][...] = np.array([[1.0]])
    return model


def scalar_grads(model: MlpModel, g: float) -> Gradients:
    """Gradient g on the one weight, zero on the bias (flat layout W0, b0)."""
    return Gradients(np.array([g, 0.0]), model.config)


def test_adam_first_step_is_signed_lr():
    model = scalar_model()
    state = AdamState.for_model(model)
    grads = scalar_grads(model, 0.37)
    adam_step(model, grads, state, t=1)
    # bias-corrected first step: -lr * g / (|g| + eps) ~ -lr * sign(g)
    assert model.weights[0][0, 0] == pytest.approx(1.0 - 0.002, rel=1e-4)


def test_adam_zero_gradient_no_change():
    model = scalar_model()
    state = AdamState.for_model(model)
    grads = scalar_grads(model, 0.0)
    adam_step(model, grads, state, t=1)
    assert model.weights[0][0, 0] == 1.0


def test_adam_three_steps_match_manual_trace():
    lr, b1, b2, eps = 0.002, 0.9, 0.999, 1e-8
    model = scalar_model(lr=lr)
    state = AdamState.for_model(model)
    gs = [0.5, -0.3, 0.2]
    # textbook recurrence computed independently
    w, m, v = 1.0, 0.0, 0.0
    for t, g in enumerate(gs, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    for t, g in enumerate(gs, start=1):
        adam_step(model, scalar_grads(model, g), state, t=t)
    assert model.weights[0][0, 0] == pytest.approx(w, abs=1e-12)

    with pytest.raises(ValueError):
        adam_step(model, scalar_grads(model, 0.0), state, t=0)


# -- training ---------------------------------------------------------------------


def test_train_reduces_mse_on_linear_data():
    ds = linear_dataset()
    cfg = MlpConfig(input_dim=6, hidden=(16,), dropout=0.0, epochs=80, batch_size=20, learning_rate=0.01, seed=0)
    model, report = train(ds, cfg)
    assert report.epoch_losses[-1] < 0.1 * report.epoch_losses[0]


def test_train_zero_epochs_keeps_init():
    ds = linear_dataset(n=64)
    cfg = MlpConfig(input_dim=6, hidden=(8,), epochs=0, batch_size=8, seed=4)
    model, report = train(ds, cfg)
    reference = init_model(cfg)
    assert report.epoch_losses == []
    for a, b in zip(model.weights, reference.weights):
        assert np.array_equal(a, b)


def test_train_deterministic():
    ds = linear_dataset(n=100)
    cfg = MlpConfig(input_dim=6, hidden=(8,), dropout=0.5, epochs=10, batch_size=10, seed=7)
    _, a = train(ds, cfg)
    _, b = train(ds, cfg)
    assert a.epoch_losses == b.epoch_losses


@pytest.mark.parametrize("batch_size", [0, -3])
def test_config_rejects_a_batch_size_below_one(batch_size):
    with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
        MlpConfig(batch_size=batch_size)


@pytest.mark.parametrize("epochs", [-1, -5])
def test_config_rejects_negative_epochs(epochs):
    with pytest.raises(ValueError, match=f"epochs must be >= 0, got {epochs}"):
        MlpConfig(epochs=epochs)


def test_train_requires_normalization():
    ds = linear_dataset(n=80)
    ds.normalization = None
    with pytest.raises(ValueError, match="normalized"):
        train(ds, MlpConfig(input_dim=6, batch_size=8))


def test_train_requires_enough_rows():
    ds = linear_dataset(n=20)
    with pytest.raises(ValueError, match="too small"):
        train(ds, MlpConfig(input_dim=6, batch_size=30))


# -- cross-validation --------------------------------------------------------------


def test_kfold_leave_one_out_structure():
    ds = linear_dataset(n=10)
    cfg = MlpConfig(input_dim=6, hidden=(4,), epochs=2, batch_size=2, dropout=0.0, seed=0)
    report = kfold_cv(ds, cfg, folds=10, seed=0)
    assert len(report.fold_mses) == 10
    assert report.mean_cv_mse == pytest.approx(np.mean(report.fold_mses))


def test_kfold_partition_properties():
    n, folds = 23, 5
    rng = np.random.default_rng(0)
    order = rng.permutation(n)
    parts = np.array_split(order, folds)
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1
    joined = np.concatenate(parts)
    assert sorted(joined.tolist()) == list(range(n))


def test_kfold_rejects_too_many_folds():
    ds = linear_dataset(n=5)
    with pytest.raises(ValueError):
        kfold_cv(ds, small_config(input_dim=6), folds=6)


# -- grid search -------------------------------------------------------------------


def test_grid_search_singleton():
    ds = linear_dataset(n=60)
    cfg = MlpConfig(input_dim=6, hidden=(4,), epochs=3, batch_size=6, dropout=0.0, seed=0)
    best, report = grid_search(ds, [cfg], folds=3)
    assert best == cfg
    assert len(report.results) == 1


def test_grid_search_reports_all_means():
    ds = linear_dataset(n=60)
    grid = [
        MlpConfig(input_dim=6, hidden=(5,), epochs=3, batch_size=6, dropout=0.0, seed=0),
        MlpConfig(input_dim=6, hidden=(95,), epochs=3, batch_size=6, dropout=0.0, seed=0),
    ]
    best, report = grid_search(ds, grid, folds=3)
    assert len(report.results) == 2
    assert all(isinstance(m, float) for _, m in report.results)


def test_grid_search_picks_the_unsabotaged_config():
    ds = linear_dataset(n=80)
    good = MlpConfig(input_dim=6, hidden=(8,), epochs=12, batch_size=8, dropout=0.0, learning_rate=0.01, seed=0)
    bad = dataclasses.replace(good, learning_rate=100.0)
    best, _ = grid_search(ds, [bad, good, bad], folds=4)
    assert best == good

    with pytest.raises(ValueError):
        grid_search(ds, [], folds=4)


# -- model file --------------------------------------------------------------------


def test_model_file_round_trip(tmp_path):
    ds = linear_dataset(n=80, d=60, seed=2)
    cfg = MlpConfig(input_dim=60, hidden=(6,), epochs=2, batch_size=8, seed=1)
    model, _ = train(ds, cfg)
    path = tmp_path / "model.json"
    save_model(model, ds.normalization, path)
    loaded, norm = load_model(path)
    assert loaded.config == model.config
    for a, b in zip(loaded.weights, model.weights):
        assert np.array_equal(a, b)  # bit-exact text round trip
    assert loaded.flat.tobytes() == model.flat.tobytes()
    assert np.array_equal(norm.feature_min, ds.normalization.feature_min)
    x = np.random.default_rng(0).random(60)
    assert predict(loaded, x) == predict(model, x)

    with pytest.raises(ValueError):
        (tmp_path / "junk.json").write_text("{}")
        load_model(tmp_path / "junk.json")


def test_model_file_with_mismatched_layers_is_rejected(tmp_path):
    ds = linear_dataset(n=80, d=60, seed=2)
    model, _ = train(ds, MlpConfig(input_dim=60, hidden=(6,), epochs=1, batch_size=8, seed=1))
    path = tmp_path / "model.json"
    save_model(model, ds.normalization, path)
    payload = json.loads(path.read_text())
    payload["biases"][0] = payload["biases"][0][:-1]
    payload["weights"][1] = payload["weights"][1] + [[0.0]]  # same parameter count, wrong shapes
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="layer shapes"):
        load_model(path)


def test_model_file_naming_a_removed_config_field_is_refused(tmp_path):
    ds = linear_dataset(n=80, d=60, seed=2)
    model, _ = train(ds, MlpConfig(input_dim=60, hidden=(6,), epochs=1, batch_size=8, seed=1))
    path = tmp_path / "model.json"
    save_model(model, ds.normalization, path)
    payload = json.loads(path.read_text())
    assert set(payload["config"]) == {f.name for f in dataclasses.fields(MlpConfig)}
    payload["config"]["early_stop_patience"] = 0
    path.write_text(json.dumps(payload))
    with pytest.raises(TypeError, match="early_stop_patience"):
        load_model(path)
