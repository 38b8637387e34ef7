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


# Bytes of the two (rows, n_min, n_features) gathers of one kNN chunk, the
# two sides of its differences, in the worst case of every pair a candidate;
# the filter's (rows, n_min) arrays are n_features times smaller.
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
    """k nearest neighbors of each point, never the point itself, ordered by
    (d, row index) where d = np.sum((pts[i] - pts[j]) ** 2, axis=-1) is the
    exact squared distance, inf where it overflows.

    Filter: per chunk of rows, one matrix product gives the Gram form
    g = |q_i|^2 + |q_j|^2 - 2 q_i.q_j of q = pts * 2^e, scaled by a power of
    two so that no entry of q reaches 1. In q's units, g and d differ by at
    most slack_i: both forms' rounding, d's underflow and a 4x margin. So
    the first k by d are among the j with g_ij <= g_(k) + 2 slack_i. g is
    clamped at a quarter of d's overflow threshold, where every pair whose
    d may be inf ties. Refine: only those candidates get d, and are ordered
    by (d, index). A chunk has as many rows as keep the worst case, every
    pair a candidate, within _KNN_CHUNK_BYTES."""
    n, n_features = pts.shape
    e = -int(np.frexp(np.max(np.abs(pts)))[1])
    step = max(1, _KNN_CHUNK_BYTES // (16 * n * n_features))
    table = np.empty((n, k), dtype=np.intp)
    with np.errstate(over="ignore"):  # inf d ties; an inf cap or slack only adds candidates
        q = np.ldexp(pts, e)
        norms, minus_2q = np.einsum("ij,ij->i", q, q), -2.0 * q
        cap = np.ldexp(1.0, 1022 + 2 * e)
        unit = 8 * (n_features + 4) * np.finfo(np.float64).eps
        slack = unit * (norms + norms.max()) + np.ldexp(n_features + 4.0, 2 * e - 1074)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            own = np.arange(hi - lo), np.arange(lo, hi)
            g = q[lo:hi] @ minus_2q.T
            g += norms
            g += norms[lo:hi, None]
            np.minimum(g, cap, out=g)
            g[own] = np.inf
            kth = np.partition(g, k - 1, axis=1)[:, k - 1]
            keep = g <= (kth + 2.0 * slack[lo:hi])[:, None]
            keep[own] = False
            r, c = np.divmod(np.flatnonzero(keep), n)
            diff = np.take(pts, lo + r, axis=0)
            diff -= np.take(pts, c, axis=0)
            diff *= diff
            d = np.sum(diff, axis=-1)  # bit for bit np.sum((pts[i] - pts[j]) ** 2, axis=-1)
            starts = np.searchsorted(r, np.arange(hi - lo))
            first = np.lexsort((d, r))[starts[:, None] + np.arange(k)]  # stable: c ascends within r
            table[lo:hi] = c[first]
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
