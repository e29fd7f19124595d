"""The benchmark's traced boundaries still exist in the library.

`bench/tracing.py` wraps library functions found by name; deleting or
renaming one breaks `bench/run.py --trace 1`. The benchmark's own tests
live under `bench/`, outside the default test paths, so these checks run
with the library's tests.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import single_state_model
from settlebench import engine, harness, mlp
from settlebench.features import Dataset, minmax_fit

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_path_resolves():
    tracing = load_tracing()
    modules = tracing._modules()
    unresolved = []
    for module_name, path in tracing.TRACED:
        try:
            original, sites = tracing.binding_sites(modules, module_name, path)
        except (AttributeError, KeyError):
            unresolved.append(f"{module_name}.{path}")
            continue
        if not callable(original) or not sites:
            unresolved.append(f"{module_name}.{path}")
    assert unresolved == []


def test_training_steps_pass_through_the_traced_boundaries():
    """One forward, backward and adam_step per batch, each through the module
    global the tracer patches, so the bench's mlp.* figures are per step."""
    tracing = load_tracing()
    rng = np.random.default_rng(0)
    rows, batch, epochs = 22, 4, 3
    y = rng.random(rows)
    dataset = Dataset(rng.random((rows, 3)), y)
    norm = minmax_fit(dataset)
    config = mlp.MlpConfig(input_dim=3, hidden=(5,), epochs=epochs, batch_size=batch)
    untraced, _ = mlp.train(dataset, norm, config)
    with tracing.instrument(tracing.Tracer()) as tracer:
        traced, _ = mlp.train(dataset, norm, config)
    steps = epochs * math.ceil(rows / batch)
    calls = [tracer.calls(f"mlp.{name}") for name in ("train", "forward", "backward", "adam_step")]
    assert calls == [1, steps, steps, steps]
    assert traced.flat.tobytes() == untraced.flat.tobytes()
    assert mlp.forward.__name__ == "forward" and not hasattr(mlp.forward, "__wrapped__")


@pytest.mark.parametrize("spans", [True, False])
def test_every_episode_and_replay_passes_the_traced_boundaries(spans):
    """`episodes_per_s` times `engine.run_episode` calls, and the replay
    figures time `engine.replay_episode`: each must see every episode."""
    tracing = load_tracing()
    config = harness.ExperimentConfig(
        evaluator="kb", episodes=3, base_seed=2, game=engine.GameConfig(turn_limit=20)
    )
    with tracing.instrument(tracing.Tracer(spans=spans)) as tracer:
        result = harness.run_experiment(config, cluster_model=single_state_model())
        replayed = [engine.replay_episode(log) for log in result.logs]
    assert replayed == [log.final_tgo for log in result.logs]
    assert len(tracer.episode_s) == config.episodes
    if spans:
        assert tracer.calls("engine.run_episode") == config.episodes
        assert tracer.calls("engine.replay_episode") == len(result.logs)
        # replays play their turns without the journal `step_turn` builds
        assert tracer.calls("engine.step_turn") == config.episodes * config.game.turn_limit
