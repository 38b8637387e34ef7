"""Feature scaling and synthetic minority oversampling.

Min-max scaling maps each feature to [0, 1] using training-set extrema:
x' = (x - min(x)) / (max(x) - min(x)). The scaler is fit on training data
only; test values may land outside [0, 1] and are deliberately not clamped
so the transform stays affine.

SMOTE generates synthetic minority rows by interpolating each seed point
toward one of its k nearest minority neighbors. All random draws are made
positionally by synthetic-sample index from one seeded generator, so the
output is reproducible regardless of how the generation loop is scheduled.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from math import ceil

import numpy as np

from .ingest import Dataset, class_counts

__all__ = [
    "Scaler",
    "SmoteConfig",
    "fit_minmax",
    "apply_minmax",
    "scale_dataset",
    "smote",
    "smote_audit",
    "write_smote_log",
    "read_smote_log",
]


# Bytes of the (rows, n_min, n_features) difference tensor of one kNN chunk.
_KNN_CHUNK_BYTES = 8 << 20


@dataclass(frozen=True)
class Scaler:
    """Per-feature extrema of the training data."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = np.asarray(self.mins, dtype=np.float64)
        maxs = np.asarray(self.maxs, dtype=np.float64)
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ValueError(f"mins/maxs must be equal-length vectors, got {mins.shape}, {maxs.shape}")
        if np.any(mins > maxs):
            raise ValueError("per-feature min exceeds max")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)


@dataclass(frozen=True)
class SmoteConfig:
    k: int = 5
    target_ratio: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ValueError(f"target_ratio must be in (0, 1], got {self.target_ratio}")


def fit_minmax(train: Dataset) -> Scaler:
    """Column-wise extrema of the training features."""
    return Scaler(mins=train.features.min(axis=0), maxs=train.features.max(axis=0))


def apply_minmax(s: Scaler, m: np.ndarray) -> np.ndarray:
    """Rescale a matrix with training extrema; constant columns map to 0.0."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != s.mins.shape[0]:
        raise ValueError(f"matrix has shape {m.shape}, scaler expects {s.mins.shape[0]} columns")
    span = s.maxs - s.mins
    safe = np.where(span == 0.0, 1.0, span)
    out = (m - s.mins) / safe
    out[:, span == 0.0] = 0.0
    return out


def scale_dataset(s: Scaler, d: Dataset) -> Dataset:
    return Dataset(apply_minmax(s, d.features), d.labels, d.feature_names)


def _minority_class(counts: dict[int, int]) -> tuple[int, int, int]:
    """(minority id, minority count, majority count); ties go to the lower id."""
    if len(counts) < 2:
        present = next(iter(counts)) if counts else None
        raise ValueError(f"need two classes to oversample, found only {present}")
    by_count = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    minority, n_min = by_count[0]
    n_maj = by_count[-1][1]
    return minority, n_min, n_maj


def _minority_neighbors(pts: np.ndarray, k: int) -> np.ndarray:
    """k nearest neighbors of each point (squared Euclidean), self excluded,
    ordered by (distance, row index): the head of a stable sort, found by
    selecting the k-th distance. Rows are taken in chunks whose difference
    tensor stays within _KNN_CHUNK_BYTES, or one row at a time when a single
    row exceeds it."""
    n, n_features = pts.shape
    step = max(1, _KNN_CHUNK_BYTES // (8 * n * n_features))
    table = np.empty((n, k), dtype=np.intp)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        d2 = np.sum((pts[lo:hi, None, :] - pts[None, :, :]) ** 2, axis=-1)
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        keep = d2 <= kth
        tied = np.flatnonzero(keep.sum(axis=1) > k)  # keep their lowest-index ties only
        below, at = d2[tied] < kth[tied], d2[tied] == kth[tied]
        need = k - below.sum(axis=1, keepdims=True)
        keep[tied] = below | (at & (np.cumsum(at, axis=1) <= need))
        cols = np.nonzero(keep)[1].reshape(hi - lo, k)  # ascending index per row
        dist = np.take_along_axis(d2, cols, axis=1)
        table[lo:hi] = np.take_along_axis(cols, np.argsort(dist, axis=1, kind="stable"), axis=1)
    return table


def smote_audit(
    d: Dataset, cfg: SmoteConfig
) -> tuple[Dataset, np.ndarray, np.ndarray, np.ndarray]:
    """Oversample the minority class: (augmented dataset, seed rows, neighbor
    rows, coefficients). Output row M+i interpolates between source rows
    seed_rows[i] and neighbor_rows[i] with coefficient lams[i].

    The minority count is raised to ceil(target_ratio * majority count).
    If that target is already met the input dataset is returned unchanged
    with empty provenance arrays. Draw protocol (fixed by sample index):
    seed-point choices, then neighbor ranks, then interpolation coefficients.
    """
    counts = class_counts(d)
    minority, n_min, n_maj = _minority_class(counts)
    target = ceil(cfg.target_ratio * n_maj)
    n_syn = target - n_min
    if n_syn <= 0:
        return d, np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)

    min_idx = np.flatnonzero(d.labels == minority)
    pts = d.features[min_idx]

    k_eff = min(cfg.k, n_min - 1)
    if n_min == 1:
        warnings.warn(
            "single minority instance: no neighbors exist, emitting exact duplicates",
            stacklevel=2,
        )
        k_eff = 1
        neighbor_table = np.zeros((1, 1), dtype=np.intp)
    else:
        neighbor_table = _minority_neighbors(pts, k_eff)

    rng = np.random.default_rng(cfg.seed)
    seed_choices = rng.integers(0, n_min, size=n_syn)
    neighbor_ranks = rng.integers(0, k_eff, size=n_syn)
    lams = rng.random(n_syn)

    nb_choices = neighbor_table[seed_choices, neighbor_ranks]
    base = pts[seed_choices]
    synth = base + lams[:, None] * (pts[nb_choices] - base)

    features = np.vstack([d.features, synth])
    labels = np.concatenate([d.labels, np.full(n_syn, minority, dtype=np.int64)])
    out = Dataset(features, labels, d.feature_names)
    return out, min_idx[seed_choices], min_idx[nb_choices], lams


def smote(d: Dataset, cfg: SmoteConfig) -> Dataset:
    """The augmented dataset of smote_audit, without its provenance."""
    return smote_audit(d, cfg)[0]


def write_smote_log(seed_rows, neighbor_rows, lams, path) -> None:
    """One CSV row per synthetic row; coefficients are written with repr, so
    read_smote_log gives them back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed_index", "neighbor_index", "lam"])
        rows = zip(*(np.asarray(a).tolist() for a in (seed_rows, neighbor_rows, lams)))
        writer.writerows([s, n, repr(lam)] for s, n, lam in rows)


def read_smote_log(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(seed rows, neighbor rows, coefficients) of a write_smote_log file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        seeds, neighbors, lams = list(zip(*reader)) or ((), (), ())
    return (
        np.array([int(v) for v in seeds], dtype=np.intp),
        np.array([int(v) for v in neighbors], dtype=np.intp),
        np.array([float(v) for v in lams], dtype=np.float64),
    )
