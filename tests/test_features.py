import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_map
from settlebench.engine import (
    CityTurnRecord,
    EpisodeLog,
    FoundingRecord,
    GameConfig,
    OutputPoints,
    TurnRecord,
    add_settler,
    found_city,
    new_game,
)
from settlebench.features import (
    LAYOUT,
    Dataset,
    DatasetEntry,
    build_dataset,
    city_label,
    denormalize_label,
    extract_features,
    minmax_apply,
    minmax_fit,
    normalize_label,
    read_dataset_csv,
    write_dataset_csv,
)
from settlebench.world import MapGenConfig, SpecialKind, TerrainKind, encode_map, generate_map

COL = {name: i for i, name in enumerate(LAYOUT.columns)}


def fresh_game(game_map, num_players=1):
    return new_game(game_map, GameConfig(), seed=0, num_players=num_players)


def test_layout_dimension():
    assert LAYOUT.dim == 60
    assert len(set(LAYOUT.columns)) == 60
    assert LAYOUT.columns is LAYOUT.columns  # one module-level tuple, not rebuilt per call


def test_all_grassland_cluster_features():
    vec = extract_features(fresh_game(flat_map(12, 12)), (5, 5), player=0)
    assert vec[COL["center_terrain_Grassland"]] == 1.0
    assert vec[COL["around_terrain_Grassland"]] == 20.0
    nonzero = {LAYOUT.columns[i] for i in np.nonzero(vec)[0]}
    assert nonzero == {"center_terrain_Grassland", "around_terrain_Grassland"}


def test_fig_style_cluster_features():
    game_map = flat_map(12, 12)
    game_map.tile(5, 5).special = SpecialKind.BULL
    game_map.tile(4, 4).special = SpecialKind.GEMS
    game_map.tile(4, 4).terrain = TerrainKind.JUNGLE
    game_map.tile(6, 6).special = SpecialKind.WHEAT
    game_map.tile(6, 6).terrain = TerrainKind.PLAINS
    game_map.tile(7, 5).terrain = TerrainKind.OCEAN
    game_map.tile(7, 6).terrain = TerrainKind.OCEAN
    vec = extract_features(fresh_game(game_map), (5, 5), player=0)
    assert vec[COL["center_special_Bull"]] == 1.0
    around_special = [v for name, v in zip(LAYOUT.columns, vec) if name.startswith("around_special_")]
    assert sum(around_special) == 2.0
    assert vec[COL["ocean_access"]] == 1.0
    assert vec[COL["deep_ocean_access"]] == 0.0
    assert vec[COL["whale_count"]] == 0.0


def test_neighbor_band_counts():
    state = fresh_game(flat_map(16, 16), num_players=2)
    # own city 2 tiles beyond the cluster edge (distance 4 from center),
    # enemy city in-band at distance 3; cities inside the cluster or beyond
    # the band do not count
    for player, coord in [(0, (12, 8)), (1, (8, 11)), (0, (9, 8)), (1, (3, 8))]:
        add_settler(state, player, coord)
        found_city(state, player, coord)
    vec = extract_features(state, (8, 8), player=0)
    assert vec[COL["my_neighb"]] == 1.0
    assert vec[COL["enemy_neighb"]] == 1.0


def test_whale_count_and_deep_access():
    game_map = flat_map(12, 12)
    game_map.tile(6, 5).terrain = TerrainKind.OCEAN
    game_map.tile(6, 5).special = SpecialKind.WHALES
    game_map.tile(4, 5).terrain = TerrainKind.DEEP_OCEAN
    vec = extract_features(fresh_game(game_map), (5, 5), player=0)
    assert vec[COL["whale_count"]] == 1.0
    assert vec[COL["deep_ocean_access"]] == 1.0
    assert vec[COL["ocean_access"]] == 1.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 300))
def test_feature_invariants_hold(seed):
    game_map = generate_map(MapGenConfig(width=14, height=14, special_frequency=0.3), seed)
    for center in [(3, 3), (7, 7), (10, 5)]:
        vec = extract_features(fresh_game(game_map), center, player=0)
        center_onehot = [vec[COL[f"center_terrain_{t.value}"]] for t in TerrainKind if t.buildable]
        if game_map.tile(*center).terrain.buildable:
            assert sum(center_onehot) == 1.0
        else:
            assert sum(center_onehot) == 0.0
        around_terrain = [v for n, v in zip(LAYOUT.columns, vec) if n.startswith("around_terrain_")]
        assert sum(around_terrain) == 20.0
        around_special = [v for n, v in zip(LAYOUT.columns, vec) if n.startswith("around_special_")]
        assert sum(around_special) <= 20.0
        assert all(v >= 0 for v in vec)


# -- labels -------------------------------------------------------------------


def synthetic_log(points_per_city: dict[int, list[OutputPoints]], features_by_city=None) -> EpisodeLog:
    """Single-player log with explicit per-city histories."""
    config = GameConfig(turn_limit=max((len(v) for v in points_per_city.values()), default=1))
    turns = []
    horizon = config.turn_limit
    for t in range(1, horizon + 1):
        cities = []
        foundings = []
        for cid, pts in points_per_city.items():
            if t == 1:
                feats = None
                if features_by_city is not None:
                    feats = features_by_city.get(cid)
                foundings.append(
                    FoundingRecord(turn=1, player=0, city_id=cid, x=5, y=5, features=feats)
                )
            if t <= len(pts):
                cities.append(
                    CityTurnRecord(
                        city_id=cid, player=0, x=5, y=5, citizens=1, worked=[(5, 5)], points=pts[t - 1]
                    )
                )
        turns.append(TurnRecord(turn=t, cities=cities, foundings=foundings))
    tgo = sum(p.weighted_total() for pts in points_per_city.values() for p in pts)
    return EpisodeLog(
        seed=0,
        map_text=encode_map(flat_map(12, 12)),
        config=config,
        evaluator="synthetic",
        player=0,
        turns=turns,
        final_tgo=tgo,
    )


def test_city_label_constant_yield():
    ones = OutputPoints(gold=1, luxury=1, science=1, food=1, production=1, trade=1)
    log = synthetic_log({0: [ones] * 120})
    # (1+1+1+1+2+1) * 100, capped at the first hundred turns of existence
    assert city_label(log, 0) == 700.0


def test_city_label_short_lived_city():
    pts = [OutputPoints(food=i + 1) for i in range(10)]
    log = synthetic_log({0: pts})
    assert city_label(log, 0) == float(sum(p.weighted_total() for p in pts))


def test_city_label_zero_history():
    log = synthetic_log({0: [OutputPoints()] * 5})
    assert city_label(log, 0) == 0.0


def test_city_label_unknown_city():
    log = synthetic_log({0: [OutputPoints(food=1)]})
    with pytest.raises(KeyError):
        city_label(log, 99)


def test_city_label_oracle_on_real_logs(bootstrap_corpus):
    logs, _ = bootstrap_corpus
    checked = 0
    for log in logs:
        for f in log.foundings():
            expected = 0
            alive = 0
            for tr in log.turns:
                for cr in tr.cities:
                    if cr.city_id == f.city_id and alive < 100:
                        expected += cr.points.weighted_total()
                        alive += 1
            assert city_label(log, f.city_id) == float(expected)
            checked += 1
            if checked >= 20:
                return
    assert checked > 0


# -- dataset construction -------------------------------------------------------


def test_duplicate_rows_average():
    feats = [1.0] * 60
    log_a = synthetic_log({0: [OutputPoints(food=100)]}, features_by_city={0: feats})
    log_b = synthetic_log({0: [OutputPoints(food=200)]}, features_by_city={0: feats})
    dataset = build_dataset([log_a, log_b])
    assert len(dataset) == 1
    assert dataset.entries[0].label == 150.0


def test_distinct_rows_preserved():
    f1, f2 = [1.0] * 60, [2.0] * 60
    log = synthetic_log(
        {0: [OutputPoints(food=10)], 1: [OutputPoints(food=20)]},
        features_by_city={0: f1, 1: f2},
    )
    dataset = build_dataset([log])
    assert len(dataset) == 2


def test_empty_logs_empty_dataset():
    assert len(build_dataset([synthetic_log({})])) == 0


def test_build_dataset_permutation_invariant():
    feats = {i: [float(i)] * 60 for i in range(4)}
    logs = [
        synthetic_log({i: [OutputPoints(food=7 * i + 1)]}, features_by_city={i: feats[i]})
        for i in range(4)
    ]
    forward = build_dataset(logs)
    backward = build_dataset(list(reversed(logs)))
    assert forward.entries == backward.entries


def test_dedup_idempotent():
    feats = {i: [float(i)] * 60 for i in range(3)}
    logs = [
        synthetic_log({i: [OutputPoints(food=5 * (i + 1))]}, features_by_city={i: feats[i]})
        for i in range(3)
    ]
    once = build_dataset(logs)
    again = build_dataset(logs)
    assert once.entries == again.entries
    assert len(once) == 3


def test_missing_features_rejected():
    log = synthetic_log({0: [OutputPoints(food=1)]})
    with pytest.raises(ValueError):
        build_dataset([log])


# -- normalization ---------------------------------------------------------------


def make_dataset(columns):
    entries = [DatasetEntry(features=tuple(row), label=float(i)) for i, row in enumerate(columns)]
    return Dataset(entries=entries)


def test_minmax_basic_column():
    ds = make_dataset([[0.0, 3.0], [5.0, 3.0], [10.0, 3.0]])
    norm = minmax_fit(ds)
    out = minmax_apply(norm, ds.feature_matrix())
    assert list(out[:, 0]) == [0.0, 0.5, 1.0]
    # constant column maps to zero
    assert list(out[:, 1]) == [0.0, 0.0, 0.0]


def test_minmax_no_clamping():
    ds = make_dataset([[0.0], [10.0]])
    norm = minmax_fit(ds)
    assert minmax_apply(norm, np.array([20.0]))[0] == 2.0


def test_minmax_fit_empty_errors():
    with pytest.raises(ValueError):
        minmax_fit(Dataset(entries=[]))


def test_label_round_trip():
    ds = make_dataset([[0.0], [10.0]])
    norm = minmax_fit(ds)  # labels 0 and 1
    z = normalize_label(norm, 0.75)
    assert denormalize_label(norm, z) == pytest.approx(0.75)


def test_dataset_csv_round_trip(tmp_path, bootstrap_corpus):
    logs, _ = bootstrap_corpus
    dataset = build_dataset(logs)
    dataset.normalization = minmax_fit(dataset)
    path = tmp_path / "dataset.csv"
    write_dataset_csv(dataset, path)
    loaded = read_dataset_csv(path)
    assert loaded.entries == dataset.entries
    assert np.array_equal(loaded.normalization.feature_min, dataset.normalization.feature_min)
    assert loaded.normalization.label_max == dataset.normalization.label_max
    header = path.read_text().splitlines()[0]
    assert header.split(",")[:3] == list(LAYOUT.columns[:3])
    assert header.split(",")[-1] == "label"
