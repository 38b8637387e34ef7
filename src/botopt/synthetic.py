"""Seeded synthetic flow datasets for experiments and tests."""

from __future__ import annotations

import numpy as np

from .ingest import Dataset

__all__ = ["gaussian_clusters"]


def gaussian_clusters(
    n_attack: int,
    n_normal: int,
    seed: int,
    n_features: int = 2,
    spread: float = 1.0,
) -> Dataset:
    """Imbalance-friendly Gaussian mixture: attack traffic in two blobs with
    the normal blob between them, mimicking a skewed, non-linear flow mix."""
    if n_attack < 1 or n_normal < 1:
        raise ValueError("need at least one row per class")
    if n_features < 2:
        raise ValueError("need at least two features")
    rng = np.random.default_rng(seed)

    centers = np.zeros((3, n_features))
    centers[1, :2] = 8.0
    centers[2, :2] = 4.0  # normal blob sits between the attack blobs

    half = n_attack // 2
    attack = np.vstack(
        [
            centers[0] + spread * rng.standard_normal((half, n_features)),
            centers[1] + spread * rng.standard_normal((n_attack - half, n_features)),
        ]
    )
    normal = centers[2] + spread * rng.standard_normal((n_normal, n_features))

    features = np.vstack([attack, normal])
    labels = np.concatenate([np.ones(n_attack, dtype=np.int64), np.zeros(n_normal, dtype=np.int64)])
    order = rng.permutation(features.shape[0])
    names = tuple(f"f{i}" for i in range(n_features))
    # np.take's C-ordered (n_features, rows) result is the column-major
    # matrix Dataset keeps, so it makes no copy of its own
    columns = np.take(features.T, order, axis=1)
    return Dataset(columns.T, labels[order], names)
