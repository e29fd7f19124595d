"""Golden digests: fixed seeds must keep persisting byte-identical runs.

One small kb run and one small nn run on the seed-11 default map are
persisted, and every file of the run directory (episode logs,
`metrics.csv`, `value_table.txt`, `config.json` and `map.txt`) is hashed
with sha256. The regressor the nn run plays is pinned too: its parameter
bytes, epoch losses and fold MSEs. A change to the simulator, the evaluators or the log
format that is meant to alter these bytes updates the digests below in
the same change; any other difference is a regression. The runs include
floating-point k-means fitting, MLP training and prediction, so the
digests hold for one numpy and BLAS build.
"""

import hashlib
import os

import numpy as np
import pytest

from settlebench import engine, harness, mlp
from settlebench.harness import ExperimentConfig, RlConfig, run_experiment
from settlebench.world import MapGenConfig, generate_map

SEED = 11
GAME = engine.GameConfig(turn_limit=40)

MAP_DIGEST = "df4007ecbdf5fc52b8f3748975d9022b22e10a422cd961af72c60fb6b558b97b"
KB_DIGESTS = {
    "config.json": "44a76c4f23c5a2480d1e4d14fa3015e45da95e1ffd8156079ce0a7a0689716bd",
    "logs/episode_00000.jsonl": "7b5d9d16280f1187d8052d09994b449fa821c56cc614cdaff84bef3e90f73051",
    "logs/episode_00001.jsonl": "fdd821fa628d27e5155b33c37dc68c49890e610d434df883fdbb9c0cae5c13da",
    "logs/episode_00002.jsonl": "f39af79b7b8c958367f99f9526e1b9f6ce75d71f9034b0e9874222afef092341",
    "logs/episode_00003.jsonl": "499f130912189795325aef70edeb4c2dca43aaa349f5d930a87ea44183cb6ecc",
    "map.txt": MAP_DIGEST,
    "metrics.csv": "5d59d2f82cd23f891ddbd25bf3eed5379617a686538da6df190c2c03a4fc4277",
    "value_table.txt": "a579816872f738339b20fe68d01aff0e8ec7a39d994b5a9b2223015964591750",
}
MODEL_DIGEST = "24a692fee59860106708998c0ef015aacbe3e9d3709fee30810333b84bf558e5"
NN_DIGESTS = {
    "config.json": "10580268b42d76e278e6dabdf4fd4e13b24ba396252a5b67eaea6a2ae62eff48",
    "logs/episode_00000.jsonl": "882cf9e00e34b3e0bdf75f79903815b46c4fe2fecb2ad9f7236301b4fbecc494",
    "logs/episode_00001.jsonl": "6aab8d0ade5505322eef9623789439e98d019058d36cf371dfae1db02fc05c29",
    "logs/episode_00002.jsonl": "d87fb03c2bc1012f0393d92c937735397e35ccf0c97a817cf8f1d738b4052935",
    "map.txt": MAP_DIGEST,
    "metrics.csv": "49b62684088efb0d8dc4d75021b9499f01aa6f2137581ee72647daeb09c06bca",
}


def run_digests(out_dir) -> dict[str, str]:
    digests = {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
            with open(path, "rb") as fh:
                digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


@pytest.fixture(scope="module")
def seed_map():
    return generate_map(MapGenConfig(), SEED)


def test_kb_run_is_byte_identical(tmp_path, seed_map):
    config = ExperimentConfig(
        evaluator="kb",
        episodes=4,
        base_seed=SEED,
        game=GAME,
        rl=RlConfig(k=8, warmup_episodes=10, epsilon=0.3),
    )
    run_experiment(config, game_map=seed_map, out_dir=str(tmp_path))
    assert run_digests(tmp_path) == KB_DIGESTS


def model_digest(model, report) -> str:
    """sha256 over W0, b0, W1, b1, ... bytes, then epoch losses and fold MSEs."""
    h = hashlib.sha256()
    for w, b in zip(model.weights, model.biases):
        h.update(w.tobytes())
        h.update(b.tobytes())
    h.update(np.asarray(report.epoch_losses, dtype=float).tobytes())
    h.update(np.asarray(report.fold_mses, dtype=float).tobytes())
    return h.hexdigest()


def test_nn_run_is_byte_identical(tmp_path, seed_map):
    corpus, _ = harness.bootstrap_corpus(GAME, MapGenConfig(), SEED, episodes=20, game_map=seed_map)
    model, norm, report = harness.train_nn_from_logs(corpus, mlp.MlpConfig(epochs=15, batch_size=8), folds=2)
    assert model_digest(model, report) == MODEL_DIGEST
    config = ExperimentConfig(evaluator="nn", episodes=3, base_seed=SEED, game=GAME)
    run_experiment(config, game_map=seed_map, nn=(model, norm), out_dir=str(tmp_path))
    assert run_digests(tmp_path) == NN_DIGESTS
