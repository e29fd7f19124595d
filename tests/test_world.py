import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_map
from settlebench import world
from settlebench.world import (
    BUILDABLE_TERRAINS,
    CLUSTER_OFFSETS,
    MapFormatError,
    MapGenConfig,
    MapGenerationError,
    SPECIAL_CHARS,
    SPECIAL_TERRAINS,
    GameMap,
    SpecialKind,
    TerrainKind,
    Tile,
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
        dict(terrain_weights=(("Grassland", 1.0), ("Plains", math.inf))),
        dict(terrain_weights=(("Grassland", math.nan),)),
        dict(terrain_weights=(("Grassland", 1.0), ("Plains", 1.0), ("Grassland", 50.0))),
        dict(terrain_weights=(("Grassland", 1.0), ("Lava", 1.0))),
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
    assert game_map.tile(*cluster.center) in cluster.tiles
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


@pytest.mark.parametrize(
    "terrain, special",
    [
        (TerrainKind.GRASSLAND, SpecialKind.GOLD),
        (TerrainKind.PLAINS, SpecialKind.FISH),
        (TerrainKind.DEEP_OCEAN, SpecialKind.WHALES),
        (TerrainKind.OCEAN, SpecialKind.BULL),
        (TerrainKind.MOUNTAINS, SpecialKind.WINE),
    ],
)
def test_decode_refuses_specials_off_their_terrain(terrain, special):
    lines = encode_map(flat_map(12, 12, terrain)).splitlines()
    lines[12 + 2] = "." * 11 + SPECIAL_CHARS[special]
    with pytest.raises(MapFormatError, match=rf"{special.value} not allowed on {terrain.value} at \(11,0\)"):
        decode_map("\n".join(lines))


def test_decode_accepts_every_special_on_its_terrain():
    for special, terrains in SPECIAL_TERRAINS.items():
        for terrain in terrains:
            game_map = flat_map(12, 12, terrain)
            game_map.tiles[0].special = special
            assert decode_map(encode_map(game_map)) == game_map


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


# -- reference generator: the per-tile loop version of generate_map, kept
# verbatim so that a faster generator must draw the same numbers in the
# same order and give the same map


def reference_generate_map(config: MapGenConfig, seed: int) -> GameMap:
    """Deterministic map: seeded blob-growth continents, then per-tile specials/rivers."""
    world._validate_gen_config(config)
    rng = random.Random(seed)
    w, h = config.width, config.height

    land = _reference_grow_continents(config, rng)

    kinds = list(config.weights_by_kind().keys())
    kind_weights = list(config.weights_by_kind().values())

    tiles: list[Tile] = []
    for y in range(h):
        for x in range(w):
            if land[y][x]:
                terrain = rng.choices(kinds, weights=kind_weights)[0]
            else:
                # shallow ocean hugs the coastline, deep ocean elsewhere
                coastal = any(
                    0 <= x + dx < w and 0 <= y + dy < h and land[y + dy][x + dx]
                    for dx in (-1, 0, 1)
                    for dy in (-1, 0, 1)
                )
                terrain = TerrainKind.OCEAN if coastal else TerrainKind.DEEP_OCEAN
            tiles.append(Tile(x=x, y=y, terrain=terrain))

    for t in tiles:
        eligible = [s for s, allowed in SPECIAL_TERRAINS.items() if t.terrain in allowed]
        if eligible and rng.random() < config.special_frequency:
            t.special = rng.choice(eligible)
        if t.terrain.buildable and rng.random() < config.river_frequency:
            t.river = True

    game_map = GameMap(width=w, height=h, tiles=tiles, seed=seed)
    if game_map.buildable_fraction() < config.min_buildable_fraction:
        raise MapGenerationError(
            f"generated buildable fraction {game_map.buildable_fraction():.3f} "
            f"below required {config.min_buildable_fraction}"
        )
    return game_map


def _reference_grow_continents(config: MapGenConfig, rng: random.Random) -> list[list[bool]]:
    w, h = config.width, config.height
    target = round(config.land_fraction * w * h)
    land = [[False] * w for _ in range(h)]

    # continent cores spread across the interior
    cores = []
    for i in range(config.continents):
        cx = rng.randrange(w // 4, w - w // 4)
        cy = rng.randrange(h // 4, h - h // 4)
        cores.append((cx, cy))

    frontier: list[tuple[int, int]] = []
    count = 0
    for cx, cy in cores:
        if not land[cy][cx]:
            land[cy][cx] = True
            count += 1
        frontier.append((cx, cy))

    while count < target and frontier:
        idx = rng.randrange(len(frontier))
        x, y = frontier[idx]
        neighbors = [
            (x + dx, y + dy)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if 0 <= x + dx < w and 0 <= y + dy < h and not land[y + dy][x + dx]
        ]
        if not neighbors:
            frontier[idx] = frontier[-1]
            frontier.pop()
            continue
        nx, ny = neighbors[rng.randrange(len(neighbors))]
        land[ny][nx] = True
        count += 1
        frontier.append((nx, ny))

    if count < target:
        # frontier exhausted (tiny maps): fill remaining water cells in scan order
        for y in range(h):
            for x in range(w):
                if count >= target:
                    break
                if not land[y][x]:
                    land[y][x] = True
                    count += 1
    return land


def _map_text_or_error(generate, config, seed) -> str:
    try:
        return encode_map(generate(config, seed))
    except MapGenerationError as exc:
        return f"MapGenerationError: {exc}"


frequencies = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def gen_configs(draw) -> MapGenConfig:
    kinds = draw(st.permutations(BUILDABLE_TERRAINS))[: draw(st.integers(1, len(BUILDABLE_TERRAINS)))]
    # the first weight is positive so the weights sum to a positive value; the rest may be zero
    weights = [draw(st.floats(0.1, 30.0))] + [draw(st.one_of(st.just(0.0), st.floats(0.1, 30.0))) for _ in kinds[1:]]
    return MapGenConfig(
        width=draw(st.integers(12, 30)),
        height=draw(st.integers(12, 30)),
        land_fraction=draw(st.floats(0.4, 1.0)),
        terrain_weights=tuple((k.value, wt) for k, wt in zip(kinds, weights)),
        special_frequency=draw(frequencies),
        river_frequency=draw(frequencies),
        continents=draw(st.integers(1, 4)),
    )


@settings(max_examples=60, deadline=None)
@given(gen_configs(), st.integers(0, 2**32 - 1))
def test_generate_map_matches_reference(config, seed):
    assert _map_text_or_error(generate_map, config, seed) == _map_text_or_error(reference_generate_map, config, seed)
