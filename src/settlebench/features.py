"""Map-cluster feature vectors, city labels, and dataset construction.

A cluster is encoded positionlessly: center terrain/special one-hots,
counts of terrain and special kinds over the 20 surrounding tiles, water
flags, whale count, and neighbouring-city counts in the two-tile band
outside the cluster. 60 columns total.

Labels are the city's accumulated weighted output over its first 100
turns of existence (later turns of short episodes simply contribute
nothing). Duplicate feature rows are merged by averaging their labels.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .engine import EpisodeLog, GameState
from .world import STATIC_COLUMNS, cluster_table
from .world import cluster_at  # noqa: F401  bench/test_bench.py expects the tracer to patch it here

LABEL_HORIZON = 100
NEIGHBOR_BAND = (3, 4)  # Chebyshev distances just outside the cluster radius of 2

# the map's static cluster columns, then the two neighbour-band counts
COLUMNS: tuple[str, ...] = (*STATIC_COLUMNS, "my_neighb", "enemy_neighb")
assert len(COLUMNS) == 60
LAYOUT_VERSION = 1  # written to dataset sidecars and model files; bump when COLUMNS change


def feature_rows(state: GameState, centers, player: int) -> np.ndarray:
    """(len(centers), 60) feature rows of the clusters at `centers`, from `player`'s side.

    The static columns come from the map's cluster table; the last two
    count the game's cities in the two-tile-wide band behind each cluster
    border, `player`'s own and everyone else's.
    """
    table = cluster_table(state.map)
    out = np.empty((len(centers), len(COLUMNS)))
    out[:, : len(STATIC_COLUMNS)] = table.static[table.rows(centers)]
    cities = list(state.all_cities())
    seats = np.array([c.coord for c in cities], dtype=int).reshape(1, -1, 2)
    mine = np.array([c.player == player for c in cities], dtype=bool)
    ring = np.abs(np.array(centers, dtype=int).reshape(-1, 1, 2) - seats).max(axis=2)
    band = (ring >= NEIGHBOR_BAND[0]) & (ring <= NEIGHBOR_BAND[1])
    out[:, -2] = (band & mine).sum(axis=1)
    out[:, -1] = (band & ~mine).sum(axis=1)
    return out


def extract_features(state: GameState, center: tuple[int, int], player: int) -> np.ndarray:
    """60-dim feature vector for the cluster at `center`, from `player`'s side."""
    return feature_rows(state, [center], player)[0]


@dataclass
class MinMaxNormalization:
    feature_min: np.ndarray
    feature_max: np.ndarray
    label_min: float
    label_max: float

    def to_dict(self) -> dict:
        return {
            "feature_min": self.feature_min.tolist(),
            "feature_max": self.feature_max.tolist(),
            "label_min": self.label_min,
            "label_max": self.label_max,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MinMaxNormalization":
        return cls(
            feature_min=np.asarray(d["feature_min"], dtype=float),
            feature_max=np.asarray(d["feature_max"], dtype=float),
            label_min=float(d["label_min"]),
            label_max=float(d["label_max"]),
        )


@dataclass
class Dataset:
    """Training data: `x`, the (n, 60) feature rows, and `y`, their (n,) labels."""

    x: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.y)


def city_label(log: EpisodeLog, city_id: int) -> float:
    """Weighted output over the city's first LABEL_HORIZON turns of existence."""
    points = log.city_points(city_id)
    if not points:
        if city_id not in log.city_ids():
            raise KeyError(f"city {city_id} not in log")
        return 0.0
    return float(sum(p.weighted_total() for p in points[:LABEL_HORIZON]))


def build_dataset(logs: list[EpisodeLog]) -> Dataset:
    """One row per distinct feature vector, in sorted order; duplicates average their labels."""
    groups: dict[tuple[float, ...], list[float]] = {}
    for log in logs:
        for f in log.foundings():
            if f.player != log.player:
                continue
            if f.features is None:
                raise ValueError(
                    f"founding of city {f.city_id} at turn {f.turn} carries no feature vector"
                )
            key = tuple(float(v) for v in f.features)
            groups.setdefault(key, []).append(city_label(log, f.city_id))
    rows = sorted(groups.items())
    return Dataset(
        x=np.array([key for key, _ in rows], dtype=float).reshape(len(rows), len(COLUMNS)),
        y=np.array([sum(labels) / len(labels) for _, labels in rows], dtype=float),
    )


def minmax_fit(dataset: Dataset) -> MinMaxNormalization:
    if len(dataset) == 0:
        raise ValueError("cannot fit normalization on an empty dataset")
    return MinMaxNormalization(
        feature_min=dataset.x.min(axis=0),
        feature_max=dataset.x.max(axis=0),
        label_min=float(dataset.y.min()),
        label_max=float(dataset.y.max()),
    )


def minmax_scale(x, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(x - lo) / (hi - lo) per column; constant columns map to 0.

    Values outside [lo, hi] extrapolate (no clamping).
    """
    x = np.asarray(x, dtype=float)
    span = hi - lo
    out = np.zeros_like(x)
    nz = span != 0
    out[..., nz] = (x[..., nz] - lo[nz]) / span[nz]
    return out


def minmax_apply(norm: MinMaxNormalization, vector: np.ndarray) -> np.ndarray:
    return minmax_scale(vector, norm.feature_min, norm.feature_max)


def normalize_label(norm: MinMaxNormalization, label):
    span = norm.label_max - norm.label_min
    if span == 0:
        return np.zeros_like(np.asarray(label, dtype=float))
    return (np.asarray(label, dtype=float) - norm.label_min) / span


def denormalize_label(norm: MinMaxNormalization, value):
    span = norm.label_max - norm.label_min
    return np.asarray(value, dtype=float) * span + norm.label_min


def write_dataset_csv(dataset: Dataset, path) -> None:
    """CSV with one named column per feature plus `label`, and a
    `<path>.meta.json` sidecar naming the layout version and the columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*COLUMNS, "label"])
        for row, label in zip(dataset.x.tolist(), dataset.y.tolist()):
            writer.writerow([csv_number(v) for v in row] + [csv_number(label)])
    with open(str(path) + ".meta.json", "w") as fh:
        json.dump({"layout_version": LAYOUT_VERSION, "columns": list(COLUMNS)}, fh, indent=2)


def read_dataset_csv(path) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[-1] != "label" or tuple(header[:-1]) != COLUMNS:
            raise ValueError(f"{path}: header does not match feature layout v{LAYOUT_VERSION}")
        rows = [[float(v) for v in row] for row in reader]
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return Dataset(x=table[:, :-1], y=table[:, -1])


def csv_number(v: float) -> str:
    """An integral value as an int, anything else as repr(float)."""
    return repr(int(v)) if float(v).is_integer() else repr(float(v))
