"""Golden digests: fixed seeds must keep persisting byte-identical runs.

One small kb run and one small nn run on the seed-11 default map are
persisted, and every file of the run directory (episode logs,
`metrics.csv`, `value_table.txt`, `config.json` and `map.txt`) is hashed
with sha256. The state model the kb run fits is pinned on its own: its
centroid bytes, inertia history and iteration count. The regressor the nn
run plays is pinned too: its parameter bytes, epoch losses and fold MSEs.
A change to the simulator, the evaluators or the log format that is meant
to alter these bytes updates the digests below in the same change; any
other difference is a regression. The runs include floating-point k-means
fitting, MLP training and prediction, so the digests hold for one numpy
and BLAS build.

The decoded turn records of both runs (every city record, target and
founding, as `engine.read_episode_log` returns them) are pinned apart
from the log bytes, so a change of log format that keeps the games the
same re-records only the log digests.

The map generator and the per-map facts are pinned over many seeds too:
the text of the default-config maps of seeds 0-199, and those maps'
cluster tables and tile yields.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from settlebench import engine, harness, mlp
from settlebench.harness import ExperimentConfig, RlConfig, run_experiment
from settlebench.world import MapGenConfig, cluster_table, encode_map, generate_map

SEED = 11
GAME = engine.GameConfig(turn_limit=40)

MAP_DIGEST = "df4007ecbdf5fc52b8f3748975d9022b22e10a422cd961af72c60fb6b558b97b"
KB_DIGESTS = {
    "config.json": "d23977d3f8c82b2e47e96c9b3a0647447c7d5f466cab4f5043e427b3b1d4be8c",
    "logs/episode_00000.jsonl": "a0b4457d90af4a01d075d6be083490fdd642ccc6f967c26ba627aa0dd3899ce2",
    "logs/episode_00001.jsonl": "b4aea3784aa1db29738b9b534fe4dd3abd6b1b643c1563a19f94f52be042047d",
    "logs/episode_00002.jsonl": "cc0e017aa6ccb9c55eaceff9ab5656ee1ade2723b76e050b9308cc1338b6da39",
    "logs/episode_00003.jsonl": "46e897acd167e3e16d1d89dbf590a27de1a4d6351fd83800a28af4e7aaba0212",
    "map.txt": MAP_DIGEST,
    "metrics.csv": "5d59d2f82cd23f891ddbd25bf3eed5379617a686538da6df190c2c03a4fc4277",
    "value_table.txt": "a579816872f738339b20fe68d01aff0e8ec7a39d994b5a9b2223015964591750",
}
CLUSTER_MODEL_DIGEST = "991a3012c88e00e1561b0911b36dfee21c23212eae79a190318a970c6d1d924f"
MODEL_DIGEST = "24a692fee59860106708998c0ef015aacbe3e9d3709fee30810333b84bf558e5"
KB_TURNS_DIGEST = "bc396cca416b728b0fee14021f8c930ab950c5c82505943e4717568e66e4af66"
NN_TURNS_DIGEST = "77627722e4c68f3ba7e3bb77b8ebca32fa8b62606bd4f148dc6fbd4066113cfa"
MAPS_SEEDS = range(200)
MAPS_DIGEST = "f9654e6ffe57a5a23f0bad5b5b1693bde6475ff5ebe7863d93b5c7e5890c21db"
MAP_FACTS_DIGEST = "ad9d93a85a8d80ccaee928d41dedf57f94382e47f0a3f42339ab751058ef8b32"
NN_DIGESTS = {
    "config.json": "3f12dbb196608084f3f91c06453f3da8a3877180f4a7c61da1aafa3815b65e44",
    "logs/episode_00000.jsonl": "1903ad5233e76f43efe14c56e495fb952960092c1c3dd214c3b5f44751ceb370",
    "logs/episode_00001.jsonl": "a174e25a53affa1198d69f15dab6c920bfebc5dd4bc4ad99db5e0d47f9753445",
    "logs/episode_00002.jsonl": "4b1b5cb1c6e216c7e066b9b4e328d8a1242390de8a16e73ac067fa618e4a1cee",
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


@pytest.fixture(scope="module")
def kb_run(tmp_path_factory, seed_map):
    out_dir = tmp_path_factory.mktemp("kb")
    config = ExperimentConfig(
        evaluator="kb",
        episodes=4,
        base_seed=SEED,
        game=GAME,
        rl=RlConfig(k=8, warmup_episodes=10, epsilon=0.3),
    )
    return run_experiment(config, game_map=seed_map, out_dir=str(out_dir)), out_dir


def test_kb_run_is_byte_identical(kb_run):
    _, out_dir = kb_run
    assert run_digests(out_dir) == KB_DIGESTS


def cluster_model_digest(model) -> str:
    """sha256 over the centroid bytes, then the inertia history and iteration count."""
    h = hashlib.sha256()
    h.update(model.centroids.tobytes())
    h.update(np.asarray(model.inertia_history, dtype=float).tobytes())
    h.update(str(model.iterations).encode())
    return h.hexdigest()


def test_kb_state_model_is_byte_identical(kb_run):
    result, _ = kb_run
    assert cluster_model_digest(result.cluster_model) == CLUSTER_MODEL_DIGEST


def model_digest(model, report) -> str:
    """sha256 over W0, b0, W1, b1, ... bytes, then epoch losses and fold MSEs."""
    h = hashlib.sha256()
    for w, b in zip(model.weights, model.biases):
        h.update(w.tobytes())
        h.update(b.tobytes())
    h.update(np.asarray(report.epoch_losses, dtype=float).tobytes())
    h.update(np.asarray(report.fold_mses, dtype=float).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def nn_run(tmp_path_factory, seed_map):
    out_dir = tmp_path_factory.mktemp("nn")
    corpus, _ = harness.bootstrap_corpus(GAME, MapGenConfig(), SEED, episodes=20, game_map=seed_map)
    model, norm, report = harness.train_nn_from_logs(corpus, mlp.MlpConfig(epochs=15, batch_size=8), folds=2)
    config = ExperimentConfig(evaluator="nn", episodes=3, base_seed=SEED, game=GAME)
    run_experiment(config, game_map=seed_map, nn=(model, norm), out_dir=str(out_dir))
    return model, report, out_dir


def test_nn_run_is_byte_identical(nn_run):
    model, report, out_dir = nn_run
    assert model_digest(model, report) == MODEL_DIGEST
    assert run_digests(out_dir) == NN_DIGESTS


def turn_records_digest(out_dir) -> str:
    """sha256 over every decoded turn record of the run's logs, in log and
    turn order, each as the sorted-key JSON of its fields."""
    h = hashlib.sha256()
    log_dir = os.path.join(out_dir, "logs")
    for name in sorted(os.listdir(log_dir)):
        for turn in engine.read_episode_log(os.path.join(log_dir, name)).turns:
            h.update(json.dumps(dataclasses.asdict(turn), sort_keys=True).encode())
    return h.hexdigest()


def test_decoded_turn_records_are_identical(kb_run, nn_run):
    assert turn_records_digest(kb_run[1]) == KB_TURNS_DIGEST
    assert turn_records_digest(nn_run[2]) == NN_TURNS_DIGEST


@pytest.fixture(scope="module")
def many_maps():
    return [generate_map(MapGenConfig(), seed) for seed in MAPS_SEEDS]


def test_generated_maps_are_byte_identical(many_maps):
    h = hashlib.sha256()
    for game_map in many_maps:
        h.update(encode_map(game_map).encode())
    assert h.hexdigest() == MAPS_DIGEST


def test_per_map_facts_are_byte_identical(many_maps):
    """sha256 over each map's cluster table (static, rule mask, sites,
    buildable) and its per-tile yields and weights, in row-major order."""
    h = hashlib.sha256()
    for game_map in many_maps:
        table = cluster_table(game_map)
        h.update(table.static.tobytes())
        h.update(table.rule_mask.tobytes())
        h.update(table.sites.tobytes())
        h.update(bytes(table.buildable))
        state = engine.new_game(game_map, GAME)
        rows = (f"{y.food},{y.production},{y.trade},{state.weights[xy]}" for xy, y in state.yields.items())
        h.update("\n".join(rows).encode())
    assert h.hexdigest() == MAP_FACTS_DIGEST
