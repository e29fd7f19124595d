import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_map
from settlebench.world import (
    BUILDABLE_TERRAINS,
    CLUSTER_OFFSETS,
    MapFormatError,
    MapGenConfig,
    MapGenerationError,
    SPECIAL_TERRAINS,
    SpecialKind,
    TerrainKind,
    cluster_at,
    decode_map,
    encode_map,
    generate_map,
)


def test_terrain_roster():
    assert len(TerrainKind) == 11
    assert len(BUILDABLE_TERRAINS) == 9
    assert not TerrainKind.OCEAN.buildable
    assert not TerrainKind.DEEP_OCEAN.buildable


def test_special_roster():
    assert len(SpecialKind) == 17
    assert SpecialKind.BULL in SpecialKind
    assert SpecialKind.WHALES in SpecialKind
    # whales are ocean-only; every terrain kind offers at least one special
    assert SPECIAL_TERRAINS[SpecialKind.WHALES] == (TerrainKind.OCEAN,)
    covered = {t for allowed in SPECIAL_TERRAINS.values() for t in allowed}
    assert covered == set(TerrainKind)


def test_zero_special_frequency_forces_absence():
    config = dataclasses.replace(MapGenConfig(), special_frequency=0.0)
    game_map = generate_map(config, seed=7)
    assert all(t.special is None for t in game_map.tiles)


def test_same_seed_byte_identical():
    config = MapGenConfig()
    a = encode_map(generate_map(config, seed=7))
    b = encode_map(generate_map(config, seed=7))
    assert a == b


def test_default_map_buildable_fraction(default_map):
    fraction = default_map.buildable_fraction()
    assert 0.4 <= fraction <= 0.9
    # regression fixture measured on the shipped generator
    assert fraction == pytest.approx(0.6)


def test_generated_specials_respect_invariants():
    for seed in range(5):
        game_map = generate_map(MapGenConfig(special_frequency=0.5), seed=seed)
        for t in game_map.tiles:
            if t.special is SpecialKind.WHALES:
                assert t.terrain is TerrainKind.OCEAN
            if t.special is not None:
                assert t.terrain in SPECIAL_TERRAINS[t.special]
            if t.river:
                assert t.terrain.buildable


@pytest.mark.parametrize(
    "bad",
    [
        dict(width=11),
        dict(height=5),
        dict(terrain_weights=(("Grassland", 0.0),)),
        dict(land_fraction=0.2, min_buildable_fraction=0.4),
        dict(special_frequency=1.5),
    ],
)
def test_generate_map_rejects_bad_config(bad):
    with pytest.raises(MapGenerationError):
        generate_map(dataclasses.replace(MapGenConfig(), **bad), seed=0)


def test_cluster_shape():
    game_map = flat_map(20, 20)
    cluster = cluster_at(game_map, (2, 2))
    assert len(cluster.tiles) == 21
    coords = {(t.x, t.y) for t in cluster.tiles}
    for corner in ((0, 0), (0, 4), (4, 0), (4, 4)):
        assert corner not in coords
    assert (2, 2) in coords


def test_cluster_out_of_bounds():
    game_map = flat_map(20, 20)
    with pytest.raises(ValueError):
        cluster_at(game_map, (0, 0))
    with pytest.raises(ValueError):
        cluster_at(game_map, (19, 10))


@given(st.integers(2, 17), st.integers(2, 17))
def test_cluster_center_membership_and_size(cx, cy):
    game_map = flat_map(20, 20)
    cluster = cluster_at(game_map, (cx, cy))
    assert len(cluster.tiles) == 21
    assert cluster.center_tile.coord == (cx, cy)
    offsets = {(t.x - cx, t.y - cy) for t in cluster.tiles}
    assert offsets == set(CLUSTER_OFFSETS)


def test_round_trip_100_seeds():
    config = MapGenConfig(width=14, height=14)
    for seed in range(100):
        game_map = generate_map(config, seed)
        assert decode_map(encode_map(game_map)) == game_map


def test_one_tile_map_round_trip():
    game_map = flat_map(1, 1)
    text = encode_map(game_map)
    lines = text.splitlines()
    assert lines[0] == "1 1 0"
    assert lines[1] == "g"
    assert lines[3] == "."
    assert decode_map(text) == game_map


def test_decode_rejects_malformed():
    good = encode_map(flat_map(12, 12))
    with pytest.raises(MapFormatError):
        decode_map("")
    with pytest.raises(MapFormatError):
        decode_map("not a header\n")
    # mismatched row length in the terrain layer
    lines = good.splitlines()
    lines[3] = lines[3][:-1]
    with pytest.raises(MapFormatError):
        decode_map("\n".join(lines))
    with pytest.raises(MapFormatError):
        decode_map(good.replace("g", "?", 1))


def test_decode_rejects_invariant_violations():
    base = flat_map(12, 12)
    text = encode_map(base)
    # a river row marker on an ocean tile
    ocean = encode_map(flat_map(12, 12, TerrainKind.OCEAN))
    lines = ocean.splitlines()
    lines[2 * 12 + 3] = "r" + "." * 11
    with pytest.raises(MapFormatError):
        decode_map("\n".join(lines))
    # whales on land
    lines = text.splitlines()
    lines[12 + 2] = "w" + "." * 11
    with pytest.raises(MapFormatError):
        decode_map("\n".join(lines))


def test_fourth_layer_is_rejected():
    # ownership is game state, not a map layer: a former owner block is malformed
    text = encode_map(flat_map(12, 12)) + "\n" + "\n".join("." * 3 + "0" + "." * 8 for _ in range(12)) + "\n"
    with pytest.raises(MapFormatError):
        decode_map(text)


def test_pristine_map_has_three_layers(default_map):
    text = encode_map(default_map)
    assert len([b for b in text.split("\n\n") if b.strip()]) == 3


@settings(max_examples=20)
@given(st.integers(0, 10_000))
def test_generation_deterministic(seed):
    config = MapGenConfig(width=12, height=12)
    assert generate_map(config, seed) == generate_map(config, seed)


def test_paper_scale_config_supported():
    game_map = generate_map(MapGenConfig(width=80, height=50), seed=0)
    assert (game_map.width, game_map.height) == (80, 50)
    assert game_map.buildable_fraction() >= 0.4
    assert decode_map(encode_map(game_map)) == game_map
