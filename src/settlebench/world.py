"""Tile map: terrain, special resources, rivers, map clusters, text format.

The map is a bounded rectangle (no wraparound). A "map cluster" is the
5x5 block around a center tile minus the four corners: the 21 tiles a
city built on the center can ever work.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np


class MapGenerationError(ValueError):
    """Bad generator config (dimensions, weights, frequencies)."""


class MapFormatError(ValueError):
    """Malformed map text."""


class TerrainKind(Enum):
    DESERT = "Desert"
    FOREST = "Forest"
    GRASSLAND = "Grassland"
    HILLS = "Hills"
    JUNGLE = "Jungle"
    MOUNTAINS = "Mountains"
    PLAINS = "Plains"
    SWAMP = "Swamp"
    TUNDRA = "Tundra"
    OCEAN = "Ocean"
    DEEP_OCEAN = "DeepOcean"

    # plain per-member values, so per-tile loops neither hash a member nor
    # call a property: its index in declaration order, and whether a city or
    # settler may stand on it
    code: int
    buildable: bool


for _code, _terrain in enumerate(TerrainKind):
    _terrain.code = _code
    _terrain.buildable = _terrain not in (TerrainKind.OCEAN, TerrainKind.DEEP_OCEAN)

BUILDABLE_TERRAINS = tuple(t for t in TerrainKind if t.buildable)


class SpecialKind(Enum):
    BULL = "Bull"
    OASIS = "Oasis"
    GEMS = "Gems"
    GOLD = "Gold"
    IRON = "Iron"
    WINE = "Wine"
    SILK = "Silk"
    PHEASANT = "Pheasant"
    WHEAT = "Wheat"
    HORSES = "Horses"
    FRUIT = "Fruit"
    FURS = "Furs"
    DEER = "Deer"
    PEAT = "Peat"
    SPICE = "Spice"
    FISH = "Fish"
    WHALES = "Whales"

    code: int  # index in declaration order


for _code, _special in enumerate(SpecialKind):
    _special.code = _code

# Which terrain a special may appear on. Every terrain kind has at least one
# eligible special; Whales are ocean-only.
SPECIAL_TERRAINS: dict[SpecialKind, tuple[TerrainKind, ...]] = {
    SpecialKind.BULL: (TerrainKind.GRASSLAND,),
    SpecialKind.OASIS: (TerrainKind.DESERT,),
    SpecialKind.GEMS: (TerrainKind.JUNGLE,),
    SpecialKind.GOLD: (TerrainKind.HILLS,),
    SpecialKind.IRON: (TerrainKind.HILLS, TerrainKind.MOUNTAINS),
    SpecialKind.WINE: (TerrainKind.HILLS,),
    SpecialKind.SILK: (TerrainKind.FOREST,),
    SpecialKind.PHEASANT: (TerrainKind.FOREST,),
    SpecialKind.WHEAT: (TerrainKind.PLAINS,),
    SpecialKind.HORSES: (TerrainKind.PLAINS,),
    SpecialKind.FRUIT: (TerrainKind.JUNGLE,),
    SpecialKind.FURS: (TerrainKind.TUNDRA,),
    SpecialKind.DEER: (TerrainKind.TUNDRA,),
    SpecialKind.PEAT: (TerrainKind.SWAMP,),
    SpecialKind.SPICE: (TerrainKind.SWAMP,),
    SpecialKind.FISH: (TerrainKind.OCEAN, TerrainKind.DEEP_OCEAN),
    SpecialKind.WHALES: (TerrainKind.OCEAN,),
}
# the specials each terrain may carry, in SPECIAL_TERRAINS order, by terrain code
_ELIGIBLE_SPECIALS = tuple(tuple(s for s, allowed in SPECIAL_TERRAINS.items() if t in allowed) for t in TerrainKind)

# Text-format character tables (stable; documented in README).
TERRAIN_CHARS = {
    TerrainKind.DESERT: "d",
    TerrainKind.FOREST: "f",
    TerrainKind.GRASSLAND: "g",
    TerrainKind.HILLS: "h",
    TerrainKind.JUNGLE: "j",
    TerrainKind.MOUNTAINS: "m",
    TerrainKind.PLAINS: "p",
    TerrainKind.SWAMP: "s",
    TerrainKind.TUNDRA: "t",
    TerrainKind.OCEAN: "o",
    TerrainKind.DEEP_OCEAN: "O",
}
CHAR_TERRAINS = {c: t for t, c in TERRAIN_CHARS.items()}

SPECIAL_CHARS = {
    SpecialKind.BULL: "B",
    SpecialKind.OASIS: "O",
    SpecialKind.GEMS: "G",
    SpecialKind.GOLD: "A",
    SpecialKind.IRON: "I",
    SpecialKind.WINE: "V",
    SpecialKind.SILK: "S",
    SpecialKind.PHEASANT: "P",
    SpecialKind.WHEAT: "W",
    SpecialKind.HORSES: "H",
    SpecialKind.FRUIT: "F",
    SpecialKind.FURS: "U",
    SpecialKind.DEER: "D",
    SpecialKind.PEAT: "T",
    SpecialKind.SPICE: "C",
    SpecialKind.FISH: "f",
    SpecialKind.WHALES: "w",
}
CHAR_SPECIALS = {c: s for s, c in SPECIAL_CHARS.items()}

NONE_CHAR = "."
RIVER_CHAR = "r"


@dataclass
class Tile:
    x: int
    y: int
    terrain: TerrainKind
    special: SpecialKind | None = None
    river: bool = False

    @property
    def coord(self) -> tuple[int, int]:
        return (self.x, self.y)


@dataclass
class GameMap:
    width: int
    height: int
    tiles: list[Tile]  # row-major, y*width + x
    seed: int
    # static per-map facts, built on first use by cluster_table(),
    # encode_map() and engine.new_game() (tile yields and weights); copies
    # start without them
    _cluster_table: ClusterTable | None = field(default=None, init=False, repr=False, compare=False)
    _text: str | None = field(default=None, init=False, repr=False, compare=False)
    _yields: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def tile(self, x: int, y: int) -> Tile:
        if not self.in_bounds(x, y):
            raise IndexError(f"tile ({x},{y}) outside {self.width}x{self.height} map")
        return self.tiles[y * self.width + x]

    def copy(self) -> "GameMap":
        """Independent deep copy, without the cached per-map facts."""
        return GameMap(
            width=self.width,
            height=self.height,
            tiles=[replace(t) for t in self.tiles],
            seed=self.seed,
        )

    def buildable_fraction(self) -> float:
        n = sum(1 for t in self.tiles if t.terrain.buildable)
        return n / len(self.tiles)


# 5x5 block offsets minus the four corners, scanned (dy, dx) ascending.
CLUSTER_OFFSETS: tuple[tuple[int, int], ...] = tuple(
    (dx, dy)
    for dy in range(-2, 3)
    for dx in range(-2, 3)
    if not (abs(dx) == 2 and abs(dy) == 2)
)
assert len(CLUSTER_OFFSETS) == 21


@dataclass(frozen=True)
class MapCluster:
    center: tuple[int, int]
    tiles: tuple[Tile, ...]


def cluster_in_bounds(game_map: GameMap, center: tuple[int, int]) -> bool:
    cx, cy = center
    return 2 <= cx < game_map.width - 2 and 2 <= cy < game_map.height - 2


def cluster_at(game_map: GameMap, center: tuple[int, int]) -> MapCluster:
    """The 21 workable tiles around `center` (5x5 minus corners)."""
    if not cluster_in_bounds(game_map, center):
        raise ValueError(f"cluster at {center} leaves the map")
    cx, cy = center
    tiles = tuple(game_map.tiles[(cy + dy) * game_map.width + (cx + dx)] for dx, dy in CLUSTER_OFFSETS)
    return MapCluster(center=center, tiles=tiles)


# -- static cluster columns: facts that depend only on the terrain, special
# and river layers. Center one-hots, counts over the 20 surrounding tiles,
# and ocean/deep-ocean access and whale count over all 21 tiles.

STATIC_COLUMNS: tuple[str, ...] = (
    *(f"center_terrain_{t.value}" for t in BUILDABLE_TERRAINS),
    *(f"around_terrain_{t.value}" for t in TerrainKind),
    *(f"center_special_{s.value}" for s in SpecialKind),
    *(f"around_special_{s.value}" for s in SpecialKind),
    *("center_river", "ocean_access", "deep_ocean_access", "whale_count"),
)
assert len(STATIC_COLUMNS) == 58

_BUILDABLE_COLUMNS = [t.code for t in BUILDABLE_TERRAINS]


def _static_columns(game_map: GameMap) -> np.ndarray:
    """(height, width, 58) static columns per center; zero where the cluster leaves the map."""
    h, w, n = game_map.height, game_map.width, len(game_map.tiles)
    terrain = np.fromiter((t.terrain.code for t in game_map.tiles), int, n).reshape(h, w)
    special = np.fromiter((-1 if t.special is None else t.special.code for t in game_map.tiles), int, n).reshape(h, w)
    river = np.fromiter((t.river for t in game_map.tiles), bool, n).reshape(h, w)
    kinds = terrain[..., None] == np.arange(len(TerrainKind))
    specials = special[..., None] == np.arange(len(SpecialKind))
    ih, iw = max(h - 4, 0), max(w - 4, 0)
    inner = (slice(2, 2 + ih), slice(2, 2 + iw))
    kinds_21 = np.zeros((ih, iw, kinds.shape[2]))
    specials_21 = np.zeros((ih, iw, specials.shape[2]))
    for dx, dy in CLUSTER_OFFSETS:
        window = (slice(2 + dy, 2 + dy + ih), slice(2 + dx, 2 + dx + iw))
        kinds_21 += kinds[window]
        specials_21 += specials[window]
    center_kinds, center_specials = kinds[inner], specials[inner]
    out = np.zeros((h, w, len(STATIC_COLUMNS)))
    out[inner] = np.concatenate(
        [
            center_kinds[..., _BUILDABLE_COLUMNS],
            kinds_21 - center_kinds,
            center_specials,
            specials_21 - center_specials,
            river[inner][..., None],
            kinds_21[..., [TerrainKind.OCEAN.code]] > 0,
            kinds_21[..., [TerrainKind.DEEP_OCEAN.code]] > 0,
            specials_21[..., [SpecialKind.WHALES.code]],
        ],
        axis=2,
        dtype=float,
    )
    return out


@dataclass(frozen=True)
class ClusterTable:
    """Static facts of every center of one map, one row per tile (y*width + x).

    Rows of centers whose cluster leaves the map are zero and never read.
    """

    static: np.ndarray  # (n, 58) float, STATIC_COLUMNS order
    rule_mask: np.ndarray  # (n, 14) bool, rule families in rulekb.FAMILY_IDS order
    sites: np.ndarray  # (height, width) bool: buildable center, cluster in bounds
    buildable: tuple[bool, ...]  # per tile, row-major: land a settler may walk on

    def rows(self, centers) -> np.ndarray:
        """Row index of each center; ValueError if a cluster leaves the map."""
        h, w = self.sites.shape
        xy = np.array(centers, dtype=int).reshape(-1, 2)
        x, y = xy[:, 0], xy[:, 1]
        inside = (x >= 2) & (x < w - 2) & (y >= 2) & (y < h - 2)
        if not inside.all():
            raise ValueError(f"cluster at {tuple(xy[~inside][0].tolist())} leaves the map")
        return y * w + x


def cluster_table(game_map: GameMap) -> ClusterTable:
    """The map's static table, built on first use and cached on the map.

    The terrain, special and river layers must not change after this first
    call. Who claims and works each tile, and where the cities stand, is
    game state kept in `engine.GameState`, so every episode played on the
    map shares the table.
    """
    if game_map._cluster_table is None:
        from .rulekb import family_mask  # rulekb imports this module

        static = _static_columns(game_map)
        # a center one-hot is set exactly on buildable centers with in-bounds clusters
        sites = static[..., : len(BUILDABLE_TERRAINS)].any(axis=2)
        static = static.reshape(len(game_map.tiles), -1)
        game_map._cluster_table = ClusterTable(
            static=static,
            rule_mask=family_mask(static),
            sites=sites,
            buildable=tuple(t.terrain.buildable for t in game_map.tiles),
        )
    return game_map._cluster_table


@dataclass(frozen=True)
class MapGenConfig:
    width: int = 20
    height: int = 20
    land_fraction: float = 0.6
    min_buildable_fraction: float = 0.4
    # relative weights over the nine buildable kinds
    terrain_weights: tuple[tuple[str, float], ...] = (
        ("Grassland", 20.0),
        ("Plains", 18.0),
        ("Forest", 14.0),
        ("Hills", 12.0),
        ("Desert", 8.0),
        ("Tundra", 8.0),
        ("Jungle", 7.0),
        ("Swamp", 7.0),
        ("Mountains", 6.0),
    )
    special_frequency: float = 0.12
    river_frequency: float = 0.08
    continents: int = 2

    def weights_by_kind(self) -> dict[TerrainKind, float]:
        return {TerrainKind(name): w for name, w in self.terrain_weights}


def _validate_gen_config(config: MapGenConfig) -> None:
    if config.width < 12 or config.height < 12:
        raise MapGenerationError(f"map dimensions {config.width}x{config.height} below the 12x12 minimum")
    names = [name for name, _ in config.terrain_weights]
    unknown = sorted(set(names) - {kind.value for kind in TerrainKind})
    if unknown:
        raise MapGenerationError(f"terrain weights name unknown terrains {unknown}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise MapGenerationError(f"terrain weights name {repeated} more than once")
    weights = config.weights_by_kind()
    if any(not kind.buildable for kind in weights):
        raise MapGenerationError("terrain weights may only name buildable kinds")
    if any(w < 0 for w in weights.values()) or not 0 < sum(weights.values()) < math.inf:
        raise MapGenerationError("terrain weights must be non-negative and sum to a positive finite value")
    for name, value in (
        ("special_frequency", config.special_frequency),
        ("river_frequency", config.river_frequency),
    ):
        if not 0.0 <= value <= 1.0:
            raise MapGenerationError(f"{name} must lie in [0, 1]")
    if not 0.0 < config.land_fraction <= 1.0:
        raise MapGenerationError("land_fraction must lie in (0, 1]")
    if config.land_fraction < config.min_buildable_fraction:
        raise MapGenerationError("land_fraction below min_buildable_fraction is infeasible")
    if config.continents < 1:
        raise MapGenerationError("need at least one continent")


def generate_map(config: MapGenConfig, seed: int) -> GameMap:
    """Deterministic map: seeded blob-growth continents, then per-tile specials/rivers."""
    _validate_gen_config(config)
    rng = random.Random(seed)
    w, h = config.width, config.height

    land = _grow_continents(config, rng)
    # shallow ocean hugs the coastline (land among the 8 neighbours), deep ocean elsewhere
    coastal = sum(land[dy : dy + h, dx : dx + w] for dy in range(3) for dx in range(3)) > 0
    water = (TerrainKind.DEEP_OCEAN, TerrainKind.OCEAN)

    weights = config.weights_by_kind()
    kinds = list(weights)
    # the draw of random.choices(kinds, weights), with the weights accumulated once
    cum_weights = list(itertools.accumulate(weights.values()))
    total, last = cum_weights[-1] + 0.0, len(kinds) - 1
    terrains = [
        kinds[bisect(cum_weights, rng.random() * total, 0, last)] if is_land else water[is_coastal]
        for is_land, is_coastal in zip(land[1:-1, 1:-1].ravel().tolist(), coastal.ravel().tolist())
    ]

    tiles: list[Tile] = []
    for i, terrain in enumerate(terrains):
        eligible = _ELIGIBLE_SPECIALS[terrain.code]
        special = rng.choice(eligible) if eligible and rng.random() < config.special_frequency else None
        river = terrain.buildable and rng.random() < config.river_frequency
        tiles.append(Tile(i % w, i // w, terrain, special, river))

    game_map = GameMap(width=w, height=h, tiles=tiles, seed=seed)
    if game_map.buildable_fraction() < config.min_buildable_fraction:
        raise MapGenerationError(
            f"generated buildable fraction {game_map.buildable_fraction():.3f} "
            f"below required {config.min_buildable_fraction}"
        )
    return game_map


def _grow_continents(config: MapGenConfig, rng: random.Random) -> np.ndarray:
    """(height + 2, width + 2) bool land mask: the map inside a ring of water."""
    w, h = config.width, config.height
    stride = w + 2
    target = round(config.land_fraction * w * h)
    # flat cells, row-major with the ring: 0 water, 1 land, 2 ring, which the
    # growth treats as taken, so a neighbour needs no bounds check
    cells = bytearray([2]) * (stride * (h + 2))
    for y in range(1, h + 1):
        cells[y * stride + 1 : y * stride + 1 + w] = bytes(w)

    # continent cores spread across the interior
    cores = [(rng.randrange(w // 4, w - w // 4), rng.randrange(h // 4, h - h // 4)) for _ in range(config.continents)]

    frontier: list[int] = []
    count = 0
    for cx, cy in cores:
        i = (cy + 1) * stride + cx + 1
        if not cells[i]:
            cells[i] = 1
            count += 1
        frontier.append(i)

    # the map is connected, so the frontier empties only once every cell is
    # land, which meets any target
    while count < target:
        idx = rng.randrange(len(frontier))
        i = frontier[idx]
        neighbors = [j for j in (i + 1, i - 1, i + stride, i - stride) if not cells[j]]
        if not neighbors:
            frontier[idx] = frontier[-1]
            frontier.pop()
            continue
        j = neighbors[rng.randrange(len(neighbors))]
        cells[j] = 1
        count += 1
        frontier.append(j)
    return np.frombuffer(cells, np.uint8).reshape(h + 2, w + 2) == 1


def encode_map(game_map: GameMap) -> str:
    """Layered text format: `W H SEED`, terrain rows, specials, rivers.

    Built on first use and cached on the map, like its cluster table: the
    terrain, special and river layers must not change after this call.
    """
    if game_map._text is None:
        game_map._text = _encode(game_map)
    return game_map._text


def _encode(game_map: GameMap) -> str:
    w = game_map.width
    rows = [game_map.tiles[y * w : (y + 1) * w] for y in range(game_map.height)]
    lines = [f"{w} {game_map.height} {game_map.seed}"]
    terrain_chars = [TERRAIN_CHARS[t] for t in TerrainKind]  # by code
    special_chars = [SPECIAL_CHARS[s] for s in SpecialKind]
    lines += ("".join(terrain_chars[t.terrain.code] for t in row) for row in rows)
    lines.append("")
    lines += ("".join(NONE_CHAR if t.special is None else special_chars[t.special.code] for t in row) for row in rows)
    lines.append("")
    lines += ("".join(RIVER_CHAR if t.river else NONE_CHAR for t in row) for row in rows)
    return "\n".join(lines) + "\n"


def decode_map(text: str) -> GameMap:
    lines = text.splitlines()
    if not lines:
        raise MapFormatError("empty map text")
    header = lines[0].split()
    if len(header) != 3:
        raise MapFormatError(f"bad header {lines[0]!r}; expected 'W H SEED'")
    try:
        w, h, seed = (int(part) for part in header)
    except ValueError as exc:
        raise MapFormatError(f"non-integer header {lines[0]!r}") from exc
    if w < 1 or h < 1:
        raise MapFormatError("non-positive map dimensions")

    blocks = _split_blocks(lines[1:])
    if len(blocks) != 3:
        raise MapFormatError(f"expected 3 layers (terrain, special, river), found {len(blocks)}")
    for name, block in zip(("terrain", "special", "river"), blocks):
        if len(block) != h:
            raise MapFormatError(f"{name} layer has {len(block)} rows, expected {h}")
        for row in block:
            if len(row) != w:
                raise MapFormatError(f"{name} row {row!r} has length {len(row)}, expected {w}")

    tiles = []
    for y, row_chars in enumerate(zip(*blocks)):
        for x, (tc, sc, rc) in enumerate(zip(*row_chars)):
            terrain = CHAR_TERRAINS.get(tc)
            if terrain is None:
                raise MapFormatError(f"unknown terrain char {tc!r} at ({x},{y})")
            special = CHAR_SPECIALS.get(sc)
            if special is None and sc != NONE_CHAR:
                raise MapFormatError(f"unknown special char {sc!r} at ({x},{y})")
            if rc not in (NONE_CHAR, RIVER_CHAR):
                raise MapFormatError(f"unknown river char {rc!r} at ({x},{y})")
            if rc == RIVER_CHAR and not terrain.buildable:
                raise MapFormatError(f"river on water tile at ({x},{y})")
            if special is not None and special not in _ELIGIBLE_SPECIALS[terrain.code]:
                raise MapFormatError(f"{special.value} not allowed on {terrain.value} at ({x},{y})")
            tiles.append(Tile(x, y, terrain, special, rc == RIVER_CHAR))
    return GameMap(width=w, height=h, tiles=tiles, seed=seed)


def _split_blocks(lines: list[str]) -> list[list[str]]:
    blocks: list[list[str]] = []
    current: list[str] = []
    for line in lines:
        if line.strip() == "":
            if current:
                blocks.append(current)
                current = []
        else:
            current.append(line)
    if current:
        blocks.append(current)
    return blocks
