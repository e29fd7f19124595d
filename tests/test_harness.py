import dataclasses
import json
import re

import numpy as np
import pytest

from conftest import flat_map
from settlebench import engine, features, harness, mlp, rl
from settlebench.engine import GameConfig, add_settler, found_city, new_game
from settlebench.harness import (
    ConstantEvaluator,
    ExperimentConfig,
    RandomEvaluator,
    RlConfig,
    RuleEvaluator,
    RunMetrics,
    SettlementAgent,
    compare,
    episode_seed,
    evaluate_placements,
    experiment_config_from_dict,
    experiment_config_to_dict,
    export_metrics_csv,
    load_run_dir,
    read_metrics_csv,
    run_experiment,
)
from settlebench.rulekb import default_kb
from settlebench.world import MapGenConfig, generate_map

GAME = GameConfig(turn_limit=30)


def small_experiment(evaluator="kb", episodes=4, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        evaluator=evaluator,
        episodes=episodes,
        base_seed=5,
        game=GAME,
        mapgen=MapGenConfig(),
        rl=RlConfig(warmup_episodes=4, k=6),
        **kwargs,
    )


def rule_evaluator(epsilon=0.0, seed=1) -> RuleEvaluator:
    model = rl.ClusterModel(
        centroids=np.zeros((1, len(rl.STATE_FEATURE_NAMES))),
        feature_min=np.zeros(len(rl.STATE_FEATURE_NAMES)),
        feature_max=np.ones(len(rl.STATE_FEATURE_NAMES)),
        inertia=0.0,
        iterations=1,
    )
    return RuleEvaluator(default_kb(), model, rl.ValueTable(), rl.Policy(epsilon=epsilon, seed=seed))


def test_episode_seed_is_stable_and_spread():
    assert episode_seed(1, 0) == episode_seed(1, 0)
    seeds = {episode_seed(1, i) for i in range(100)}
    assert len(seeds) == 100
    assert episode_seed(1, 0) != episode_seed(1, 0, "warmup")


def test_evaluate_placements_empty_when_no_sites():
    state = new_game(flat_map(12, 12), GameConfig(turn_limit=5, min_city_distance=99))
    add_settler(state, 0, (5, 5))
    found_city(state, 0, (5, 5))
    assert evaluate_placements(ConstantEvaluator(), state, 0) == []


def test_evaluate_placements_sorted_permutation():
    state = new_game(flat_map(12, 12), GAME)
    evaluator = RandomEvaluator(seed=3)
    ranked = evaluate_placements(evaluator, state, 0)
    sites = engine.legal_founding_sites(state, 0)
    assert sorted(c for c, _ in ranked) == sorted(sites)
    scores = [s for _, s in ranked]
    assert scores == sorted(scores, reverse=True)


def test_evaluate_placements_top1_is_exhaustive_max():
    game_map = generate_map(MapGenConfig(), seed=2)
    state = new_game(game_map, GAME)
    evaluator = rule_evaluator(epsilon=0.0)
    ranked = evaluate_placements(evaluator, state, 0)
    top_center, top_score = ranked[0]
    assert top_score == max(s for _, s in ranked)
    # ties break by (y, x)
    best = [c for c, s in ranked if s == top_score]
    assert top_center == min(best, key=lambda c: (c[1], c[0]))


def test_evaluate_placements_orders_every_tie_by_y_then_x():
    state = new_game(generate_map(MapGenConfig(), seed=2), GAME)
    ranked = evaluate_placements(rule_evaluator(epsilon=0.0), state, 0)
    assert len({s for _, s in ranked}) < len(ranked)  # the rule scores tie
    assert ranked == sorted(ranked, key=lambda cs: (-cs[1], cs[0][1], cs[0][0]))


def test_evaluator_symmetry_constant_stubs():
    class StubA(ConstantEvaluator):
        kind = "stub_a"

    class StubB(ConstantEvaluator):
        kind = "stub_b"

    game_map = generate_map(MapGenConfig(), seed=9)
    log_a = engine.run_episode(SettlementAgent(StubA(1.0)), GAME, 9, game_map=game_map)
    log_b = engine.run_episode(SettlementAgent(StubB(1.0)), GAME, 9, game_map=game_map)
    assert log_a.final_tgo == log_b.final_tgo
    assert [(f.turn, f.x, f.y) for f in log_a.foundings()] == [
        (f.turn, f.x, f.y) for f in log_b.foundings()
    ]
    assert [t.targets for t in log_a.turns] == [t.targets for t in log_b.turns]


def test_rule_evaluator_emits_records_and_traces():
    game_map = generate_map(MapGenConfig(), seed=2)
    state = new_game(game_map, GAME)
    evaluator = rule_evaluator()
    ranked = evaluate_placements(evaluator, state, 0)
    assert evaluator.records  # one per (center, applicable family)
    center, score = ranked[0]
    trace = evaluator.trace_for(center)
    assert trace is not None
    assert trace["total"] == score
    assert sum(fr["points"] for fr in trace["fired"]) == trace["total"]


@pytest.mark.parametrize("epsilon", [0.0, 0.3])
def test_rule_evaluator_asks_for_each_greedy_rule_once(monkeypatch, epsilon):
    calls = []
    greedy_rule = rl.greedy_rule

    def counted(table, state_id, conflict_set):
        calls.append(conflict_set.family)
        return greedy_rule(table, state_id, conflict_set)

    monkeypatch.setattr(rl, "greedy_rule", counted)
    evaluator = rule_evaluator(epsilon=epsilon)
    engine.run_episode(SettlementAgent(evaluator), GAME, 3, game_map=generate_map(MapGenConfig(), seed=2))
    # every resolved family of every pass left one record
    assert len(evaluator.records) > 10
    assert calls == [record.family for record in evaluator.records]


def test_rule_evaluator_epsilon_zero_deterministic():
    config = small_experiment(episodes=2)
    config.rl.epsilon = 0.0
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.metrics.tgo == b.metrics.tgo


def test_agent_logs_founding_decision_payload():
    game_map = generate_map(MapGenConfig(), seed=2)
    log = engine.run_episode(
        SettlementAgent(rule_evaluator()), GAME, 2, game_map=game_map, evaluator_name="kb"
    )
    foundings = log.foundings()
    assert foundings
    f = foundings[0]
    assert f.evaluator == "kb"
    assert f.features is not None and len(f.features) == len(features.COLUMNS)
    assert f.trace is not None
    assert f.score == f.trace["total"]
    assert f.decided_turn <= f.turn


# -- metrics ----------------------------------------------------------------------


def test_metrics_improvement_windows():
    metrics = RunMetrics(window=2)
    for v in (10, 10, 20, 30):
        metrics.record(v)
    assert metrics.running_avg == [10.0, 10.0, 40 / 3, 17.5]
    assert metrics.improvement == pytest.approx((25 - 10) / 10)


def test_metrics_running_average_is_the_mean_so_far():
    values = [4278, 0, 17, 9999, 1, 350, 350]
    metrics = RunMetrics(window=1)
    for i, v in enumerate(values):
        metrics.record(v)
        assert metrics.running_avg[-1] == sum(values[: i + 1]) / (i + 1)
    resumed = RunMetrics(tgo=[float(v) for v in values[:3]], window=1)
    resumed.record(values[3])
    assert resumed.running_avg == [sum(values[:4]) / 4]


def test_experiment_config_round_trips_exactly():
    config = ExperimentConfig(
        evaluator="nn",
        episodes=7,
        base_seed=3,
        fixed_map=False,
        game=GameConfig(turn_limit=45, min_city_distance=3, max_cities=5, initial_settlers=2),
        mapgen=MapGenConfig(width=16, terrain_weights=(("Grassland", 3.0), ("Desert", 0.5))),
        rl=RlConfig(k=5, epsilon=0.2),
        metrics_window=3,
        model_path="model.json",
    )
    for source in (config, ExperimentConfig()):
        d = experiment_config_to_dict(source)
        assert experiment_config_from_dict(d) == source
        assert experiment_config_from_dict(json.loads(json.dumps(d))) == source


@pytest.mark.parametrize(
    "section, key", [("rl", "epsilon_decay"), (None, "nn_retrain_interval"), ("game", "ruleset")]
)
def test_config_naming_a_removed_field_is_refused(section, key):
    d = experiment_config_to_dict(ExperimentConfig())
    (d[section] if section else d)[key] = 0
    with pytest.raises(TypeError, match=key):
        experiment_config_from_dict(d)


@pytest.mark.parametrize(
    "rl_config, message",
    [
        (dict(k=0), "k must be >= 1, got 0"),
        (dict(warmup_episodes=0), "warmup_episodes must be >= 1, got 0"),
        (dict(epsilon=1.5), r"epsilon must lie in \[0, 1\], got 1.5"),
        (dict(epsilon=-0.1), r"epsilon must lie in \[0, 1\], got -0.1"),
    ],
)
def test_bad_rl_sizes_are_refused_before_any_episode(monkeypatch, rl_config, message):
    played = []
    monkeypatch.setattr(engine, "run_episode", lambda *args, **kwargs: played.append(args))
    with pytest.raises(ValueError, match=message):
        run_experiment(dataclasses.replace(small_experiment(), rl=RlConfig(**rl_config)))
    assert played == []


@pytest.mark.parametrize(
    "sizes, message",
    [
        (dict(episodes=0), "episodes must be >= 1, got 0"),
        (dict(metrics_window=0), "metrics_window must be >= 1, got 0"),
        (dict(metrics_window=-3), "metrics_window must be >= 1, got -3"),
    ],
)
def test_bad_experiment_sizes_are_refused(sizes, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**sizes)


def test_metrics_from_logs_equals_live(tmp_path):
    config = small_experiment(evaluator="random", episodes=3)
    result = run_experiment(config, out_dir=str(tmp_path / "run"))
    assert [log.final_tgo for log in result.logs] == result.metrics.tgo
    # and the persisted CSV round-trips
    loaded = read_metrics_csv(tmp_path / "run" / "metrics.csv")
    assert loaded.tgo == result.metrics.tgo
    assert loaded.running_avg == result.metrics.running_avg


def test_run_experiment_deterministic_byte_for_byte(tmp_path):
    config = small_experiment(episodes=3)
    run_experiment(config, out_dir=str(tmp_path / "a"))
    run_experiment(config, out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()
    assert (tmp_path / "a" / "value_table.txt").read_bytes() == (tmp_path / "b" / "value_table.txt").read_bytes()


def test_seed_isolation_in_per_episode_maps():
    config = small_experiment(evaluator="random", episodes=3)
    config = dataclasses.replace(config, fixed_map=False)
    result = run_experiment(config)
    for i, log in enumerate(result.logs):
        expected = generate_map(config.mapgen, episode_seed(config.base_seed, i))
        from settlebench.world import encode_map

        assert log.map_text == encode_map(expected)


def test_run_rejects_nn_without_model():
    with pytest.raises(ValueError):
        run_experiment(small_experiment(evaluator="nn", episodes=1))


def test_nn_arm_and_periodic_retraining(bootstrap_corpus):
    logs, _ = bootstrap_corpus
    model, norm, _ = harness.train_nn_from_logs(
        logs, mlp.MlpConfig(epochs=5, batch_size=10), folds=3
    )
    config = small_experiment(evaluator="nn", episodes=2)
    frozen = run_experiment(config, nn=(model, norm))
    assert len(frozen.metrics.tgo) == 2
    # frozen model on a fixed map plays identically every episode
    assert frozen.metrics.tgo[0] == frozen.metrics.tgo[1]


def test_run_dir_persists_everything(tmp_path):
    config = small_experiment(episodes=3)
    run_experiment(config, out_dir=str(tmp_path / "run"))
    metrics, logs, loaded = load_run_dir(str(tmp_path / "run"))
    assert len(logs) == 3
    assert len(metrics.tgo) == 3
    assert loaded == config
    assert (tmp_path / "run" / "map.txt").exists()
    assert (tmp_path / "run" / "value_table.txt").exists()


def test_train_nn_leaves_its_dataset_unchanged(bootstrap_corpus):
    dataset = features.build_dataset(bootstrap_corpus[0])
    x, y = dataset.x.copy(), dataset.y.copy()
    _, norm, _ = harness.train_nn(dataset, mlp.MlpConfig(epochs=2, batch_size=10), folds=2)
    assert vars(dataset).keys() == {"x", "y"}
    assert np.array_equal(dataset.x, x) and np.array_equal(dataset.y, y)
    assert norm.to_dict() == features.minmax_fit(dataset).to_dict()


@pytest.fixture(scope="module")
def tiny_nn(bootstrap_corpus):
    """A barely trained regressor: (model, normalization)."""
    config = mlp.MlpConfig(epochs=2, batch_size=10)
    model, norm, _ = harness.train_nn_from_logs(bootstrap_corpus[0], config, folds=2)
    return model, norm


def test_persist_replaces_a_previous_run_whole(tmp_path):
    run = tmp_path / "run"
    run_experiment(small_experiment(evaluator="random", episodes=6), out_dir=str(run))
    result = run_experiment(small_experiment(evaluator="random", episodes=3), out_dir=str(run))
    metrics, logs, _ = load_run_dir(str(run))
    assert metrics.tgo == result.metrics.tgo
    assert len(list((run / "logs").iterdir())) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["run"]  # no temporary sibling left


def test_persist_drops_files_of_the_previous_run(tmp_path, tiny_nn):
    run = tmp_path / "run"
    run_experiment(small_experiment(episodes=1), out_dir=str(run))
    assert (run / "value_table.txt").exists()
    run_experiment(small_experiment(evaluator="nn", episodes=1), nn=tiny_nn, out_dir=str(run))
    assert not (run / "value_table.txt").exists()
    assert load_run_dir(str(run))[2].evaluator == "nn"


def test_persist_refuses_a_directory_that_is_not_a_run(tmp_path):
    (tmp_path / "notes.txt").write_text("keep me")
    with pytest.raises(ValueError, match="neither empty nor a run directory"):
        run_experiment(small_experiment(evaluator="random", episodes=1), out_dir=str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]


@pytest.mark.parametrize("arm", ["kb", "nn", "random"])
def test_decision_logs_round_trip(tmp_path, arm, tiny_nn):
    nn = game_map = None
    if arm == "nn":
        # all land: a barely trained model's first target is never across water
        nn, game_map = tiny_nn, flat_map(14, 14)
    result = run_experiment(small_experiment(evaluator=arm, episodes=2), nn=nn, game_map=game_map)
    foundings = [f for log in result.logs for f in log.foundings()]
    assert foundings and all(f.features for f in foundings)
    assert all(f.trace for f in foundings) == (arm == "kb")
    shared = 0
    for i, log in enumerate(result.logs):
        path = tmp_path / f"episode_{i}.jsonl"
        engine.write_episode_log(log, path)
        loaded = engine.read_episode_log(path)
        assert loaded == log
        header, *turns = map(json.loads, path.read_text().splitlines())
        assert header["format"] == 2
        # a turn line holds the decisions; the reader replays them for the rest
        assert all(turn.keys() == {"kind", "turn", "targets", "foundings"} for turn in turns[:-1])
        # a loaded turn on which no city record changed holds the turn before's list
        for before, turn in zip(loaded.turns, loaded.turns[1:]):
            if turn.cities == before.cities:
                assert turn.cities is before.cities
                shared += 1
        engine.write_episode_log(loaded, tmp_path / "rewritten.jsonl")
        assert (tmp_path / "rewritten.jsonl").read_bytes() == path.read_bytes()
    assert shared


def test_run_dir_rejects_a_missing_log(tmp_path):
    run = tmp_path / "run"
    run_experiment(small_experiment(evaluator="random", episodes=3), out_dir=str(run))
    (run / "logs" / "episode_00002.jsonl").unlink()
    with pytest.raises(ValueError, match="2 episode logs but 3 metrics rows"):
        load_run_dir(str(run))


def test_run_dir_rejects_a_log_that_disagrees_with_its_metrics_row(tmp_path):
    run = tmp_path / "run"
    run_experiment(small_experiment(evaluator="random", episodes=3), out_dir=str(run))
    metrics = read_metrics_csv(run / "metrics.csv")
    metrics.tgo[1] += 1
    export_metrics_csv(metrics, run / "metrics.csv")
    with pytest.raises(ValueError, match="episode 1 log has final_tgo"):
        load_run_dir(str(run))


def test_run_dir_missing_an_episode_is_refused(tmp_path):
    run = tmp_path / "run"
    run_experiment(small_experiment(evaluator="random", episodes=3), out_dir=str(run))
    (run / "logs" / "episode_00002.jsonl").unlink()
    rows = (run / "metrics.csv").read_text().splitlines()
    (run / "metrics.csv").write_text("\n".join(rows[:-1]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{run}: 2 episode logs but 2 metrics rows, for 3 episodes")):
        load_run_dir(str(run))


def test_run_dir_with_an_edited_running_average_is_refused(tmp_path):
    run = tmp_path / "run"
    run_experiment(small_experiment(evaluator="random", episodes=3), out_dir=str(run))
    header, first, *rest = (run / "metrics.csv").read_text().splitlines()
    first = first.rsplit(",", 1)[0] + ",123456.0"
    (run / "metrics.csv").write_text("\n".join([header, first, *rest]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{run / 'metrics.csv'}: episode 0 running_avg 123456.0")):
        load_run_dir(str(run))


@pytest.mark.parametrize(
    "field, edit",
    [
        ("seed", lambda header: header.__setitem__("seed", header["seed"] + 1)),
        ("evaluator", lambda header: header.__setitem__("evaluator", "nn")),
        # no game of this run comes near so many cities, so the replay still agrees
        ("config", lambda header: header["config"].__setitem__("max_cities", 99)),
        # the seed in the map's first line: the same tiles, another map text
        ("map_text", lambda header: header.__setitem__("map", header["map"].replace(" 5\n", " 6\n", 1))),
    ],
)
def test_a_log_whose_header_is_not_its_runs_is_refused(tmp_path, field, edit):
    run = tmp_path / "run"
    run_experiment(small_experiment(evaluator="random", episodes=3), out_dir=str(run))
    log_path = run / "logs" / "episode_00001.jsonl"
    header, *rest = log_path.read_text().splitlines()
    header = json.loads(header)
    edit(header)
    log_path.write_text("\n".join([json.dumps(header, sort_keys=True), *rest]) + "\n")
    engine.read_episode_log(log_path)  # a log that replays as it records
    with pytest.raises(ValueError, match=re.escape(f"{log_path}: its {field} is not the run's")):
        load_run_dir(str(run))


DATASET_HEADER = ",".join([*features.COLUMNS, "label"])


def edited_random_log(edit, reason: str):
    """A writer of a 30-turn random-agent log whose records (header, turns,
    footer), parsed, were passed through `edit`; it returns `reason`, the
    start of the refusal that must follow the file name."""

    def write(path):
        log = engine.run_episode(SettlementAgent(RandomEvaluator(3)), GAME, 3, evaluator_name="random")
        engine.write_episode_log(log, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        edit(records)
        path.write_text("\n".join(map(json.dumps, records)) + "\n")
        return reason

    return write


def swap_the_first_two_turn_numbers(records):
    records[1]["turn"], records[2]["turn"] = records[2]["turn"], records[1]["turn"]


def first_target(records) -> list:
    """The first logged target, as [settler id, [x, y]]."""
    return next(turn["targets"][0] for turn in records[1:-1] if turn["targets"])


def move_the_first_target_one_tile(records):
    first_target(records)[1][0] += 1


def first_foundings(records) -> list:
    """The founding records of the first turn that founds a city."""
    return next(turn["foundings"] for turn in records[1:-1] if turn["foundings"])


def drop_the_first_founding(records):
    first_foundings(records).pop(0)


def date_the_first_founding_a_turn_later(records):
    first_foundings(records)[0]["turn"] += 1


def add_a_key_to_the_first_founding(records):
    first_foundings(records)[0]["unknown"] = 0


def drop_the_last_turn(records):
    del records[-2]
    records[-1]["turns"] -= 1


def add_one_to_the_footer_tgo(records):
    records[-1]["final_tgo"] += 1


def drop_the_format(records):
    del records[0]["format"]


def name_a_fixed_rule_in_the_header(records):
    records[0]["config"]["trade_split"] = [0.5, 0.0, 0.5]


def name_player(player):
    def edit(records):
        records[0]["player"] = player

    return edit


def map_with_no_legal_start(records):
    records[0]["map"] = "4 4 0\n" + "\n".join(["gggg\n" * 4, "....\n" * 4, "....\n" * 4])


def target_a_settler_not_on_the_board(records):
    records[1]["targets"].append([99, [3, 3]])


def give_the_first_target_float_coordinates(records):
    first_target(records)[1][0] += 0.5


def refused_edit(edit, reason: str, name: str):
    return pytest.param(engine.read_episode_log, edited_random_log(edit, reason), id=f"read_episode_log-{name}")


@pytest.mark.parametrize(
    "reader, content",
    [
        (features.read_dataset_csv, ""),
        pytest.param(
            features.read_dataset_csv,
            f"{DATASET_HEADER}\n" + ",".join(["x"] * (len(features.COLUMNS) + 1)) + "\n",
            id="read_dataset_csv-non-numeric-cell",
        ),
        pytest.param(features.read_dataset_csv, f"{DATASET_HEADER}\n1,2,3,4,5\n", id="read_dataset_csv-short-row"),
        (read_metrics_csv, ""),
        (engine.read_episode_log, "[1, 2]\n"),
        (engine.read_episode_log, '{"kind": "header"}\n"turn"\n{"kind": "footer", "turns": 1}\n'),
        (engine.read_episode_log, '{"kind": "header"}\n{"kind": "footer", "turns": 0}\n'),
        (engine.read_episode_log, "not json\n"),
        (engine.read_episode_log, '{"kind": "header"}\n{"kind": "footer"}\n'),
        refused_edit(swap_the_first_two_turn_numbers, "turn record 1 is numbered 2", "turns-out-of-order"),
        refused_edit(move_the_first_target_one_tile, "turn 6: the replay founds (turn, player, city id, x, y) [],"
                     " the log records [(6, 0, 0, 15, 14)]", "moved-target"),
        refused_edit(drop_the_first_founding, "turn 6: the replay founds (turn, player, city id, x, y)"
                     " [(6, 0, 0, 15, 14)], the log records []", "dropped-founding"),
        refused_edit(date_the_first_founding_a_turn_later, "turn 6: the replay founds (turn, player, city id, x, y)"
                     " [(6, 0, 0, 15, 14)], the log records [(7, 0, 0, 15, 14)]", "founding-on-another-turn"),
        refused_edit(add_a_key_to_the_first_founding, "FoundingRecord.__init__() got an unexpected keyword argument"
                     " 'unknown'", "unknown-key-in-a-founding"),
        refused_edit(drop_the_last_turn, "config turn_limit 30, but 29 turn records", "a-turn-short"),
        refused_edit(add_one_to_the_footer_tgo, "the replay ends on TGO", "footer-tgo-off-by-one"),
        refused_edit(drop_the_format, "log format None, not 2", "no-format"),
        refused_edit(name_a_fixed_rule_in_the_header, "GameConfig.__init__() got an unexpected keyword argument"
                     " 'trade_split'", "fixed-rule-in-header"),
        refused_edit(name_player(1), "header player 1, not 0", "player-not-in-the-game"),
        refused_edit(name_player(-1), "header player -1, not 0", "negative-player"),
        refused_edit(name_player(False), "header player False, not 0", "player-false"),
        refused_edit(map_with_no_legal_start, "map has no buildable tile with an in-bounds cluster",
                     "map-with-no-legal-start"),
        refused_edit(target_a_settler_not_on_the_board, "turn 1: a target for settler 99, not on the board",
                     "ghost-settler"),
        refused_edit(give_the_first_target_float_coordinates, "turn 1: settler 0's target (15.5, 14) is not two ints",
                     "float-coordinates"),
        (read_metrics_csv, "episode,tgo,running_avg\n0,5\n"),
        (read_metrics_csv, "episode,tgo,running_avg\n1,5,5.0\n"),
        (read_metrics_csv, "episode,tgo,running_avg\n0,five,5.0\n"),
        (rl.load_table, "meta\nentries 0\n"),
        (rl.load_table, "entries x\n"),
        (rl.load_table, "V 0 1\nentries 1\n"),
        (mlp.load_model, "[]"),
        (mlp.load_model, "not json"),
        (mlp.load_model, json.dumps({"format": "settlebench-mlp", "layout_version": features.LAYOUT_VERSION,
                                     "config": {}, "weights": [], "biases": [], "normalization": {}})),
    ],
)
def test_readers_refuse_bad_input_naming_the_file(tmp_path, reader, content):
    path = tmp_path / "input.txt"
    reason = ""
    if callable(content):
        reason = content(path)
    else:
        path.write_text(content)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {reason}")):
        reader(path)


# -- comparison -------------------------------------------------------------------


def test_compare_identical_runs_zero_delta():
    config = small_experiment(evaluator="random", episodes=4)
    a = run_experiment(config)
    b = run_experiment(config)
    report = compare(a.metrics, b.metrics, a.logs, b.logs)
    assert report.improvement_a == report.improvement_b
    for shares in (*report.center_shares.values(), *report.occupied_shares.values()):
        if shares:
            assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
    assert any("improvement delta" in line for line in report.summary_lines())


def test_compare_rejects_mismatched_runs():
    a = run_experiment(small_experiment(evaluator="random", episodes=2))
    mismatched = small_experiment(evaluator="random", episodes=2)
    mismatched = dataclasses.replace(mismatched, game=GameConfig(turn_limit=10))
    b = run_experiment(mismatched)
    with pytest.raises(ValueError):
        compare(a.metrics, b.metrics, a.logs, b.logs)


def test_compare_degenerate_single_terrain():
    config = small_experiment(evaluator="constant", episodes=2)
    grass = flat_map(14, 14)
    a = run_experiment(config, game_map=grass)
    report = compare(a.metrics, a.metrics, a.logs, a.logs)
    assert report.center_shares["a"] == {"Grassland": 1.0}


def test_distribution_csv(tmp_path):
    harness.export_distribution_csv({"Grassland": 0.75, "Plains": 0.25}, tmp_path / "d.csv")
    rows = (tmp_path / "d.csv").read_text().splitlines()
    assert rows[0] == "category,share"
    assert rows[1].startswith("Grassland,")


def test_metrics_csv_shapes(tmp_path):
    metrics = RunMetrics(window=1)
    for v in (5, 7, 9):
        metrics.record(v)
    export_metrics_csv(metrics, tmp_path / "m.csv")
    rows = (tmp_path / "m.csv").read_text().splitlines()
    assert len(rows) == 4  # header + one row per episode
    export_metrics_csv(RunMetrics(window=1), tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text().splitlines() == ["episode,tgo,running_avg"]


def test_random_agent_default_config_fixture():
    agent = SettlementAgent(RandomEvaluator(42))
    log = engine.run_episode(agent, GameConfig(), 42, mapgen=MapGenConfig())
    assert log.foundings()
    assert log.final_tgo == 10052  # pinned regression value
    assert log.final_tgo > 0


def test_two_settlers_get_distinct_targets():
    from conftest import flat_map

    state = new_game(flat_map(14, 14), GAME)
    engine.add_settler(state, 0, (6, 6))
    engine.add_settler(state, 0, (6, 6))
    agent = SettlementAgent(ConstantEvaluator(1.0))
    state.events = engine.TurnRecord(turn=1)
    agent.act(state)
    targets = [s.target for s in state.players[0].settlers]
    assert None not in targets
    assert targets[0] != targets[1]


def test_long_crowded_episode_replays_exactly():
    config = GameConfig(turn_limit=120, max_cities=8)
    agent = SettlementAgent(RandomEvaluator(21))
    log = engine.run_episode(agent, config, 21, mapgen=MapGenConfig())
    assert len(log.foundings()) == config.max_cities  # full expansion happened
    assert engine.replay_episode(log) == log.final_tgo
