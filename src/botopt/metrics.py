"""Confusion-matrix metrics and a two-component PCA projection.

Accuracy = (TP + TN) / (TP + TN + FP + FN), Precision = TP / (TP + FP),
Recall = TP / (TP + FN), F-score = 2 P R / (P + R). Zero-denominator cases
are defined as 0 rather than NaN so reports stay well formed for degenerate
predictors. Because the positive-class convention matters a lot under heavy
imbalance, every report carries both per-class values and their macro
averages.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfusionMatrix",
    "MetricsReport",
    "confusion",
    "compute_metrics",
    "pca2",
    "write_pca_csv",
    "metrics_to_text",
]


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int
    positive_class: int = 1

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsReport:
    """Per-convention metrics plus macro averages over both conventions."""

    accuracy: float
    precision: float
    recall: float
    f_score: float
    macro_precision: float
    macro_recall: float
    macro_f_score: float
    positive_class: int


def confusion(y_true, y_pred, positive_class: int = 1) -> ConfusionMatrix:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError(f"label vectors differ in shape: {y_true.shape} vs {y_pred.shape}")
    if y_true.size < 1:
        raise ValueError("need at least one instance")
    pos_t = y_true == positive_class
    pos_p = y_pred == positive_class
    return ConfusionMatrix(
        tp=int(np.sum(pos_t & pos_p)),
        tn=int(np.sum(~pos_t & ~pos_p)),
        fp=int(np.sum(~pos_t & pos_p)),
        fn=int(np.sum(pos_t & ~pos_p)),
        positive_class=positive_class,
    )


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f


def compute_metrics(cm: ConfusionMatrix) -> MetricsReport:
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision, recall, f = _prf(cm.tp, cm.fp, cm.fn)
    precision_o, recall_o, f_o = _prf(cm.tn, cm.fn, cm.fp)  # the opposite positive class
    return MetricsReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f_score=f,
        macro_precision=(precision + precision_o) / 2.0,
        macro_recall=(recall + recall_o) / 2.0,
        macro_f_score=(f + f_o) / 2.0,
        positive_class=cm.positive_class,
    )


def pca2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project mean-centered rows onto the top two principal components.

    Returns (projections M x 2, components 2 x N, explained variances).
    Components are orthonormal rows with the sign fixed so the
    largest-magnitude entry of each is positive; explained variances are the
    top two eigenvalues of the sample covariance, in nonincreasing order.
    The rows are read in C order whatever the layout of ``m`` (a
    column-major matrix is copied), because the column means and products
    sum in a layout-dependent order and the result must not depend on it.
    """
    m = np.ascontiguousarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 2 or m.shape[1] < 2:
        raise ValueError(f"need at least a 2 x 2 matrix, got shape {m.shape}")
    if np.all(np.ptp(m, axis=0) == 0.0):
        raise ValueError("data has zero variance in every column")
    centered = m - m.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:2].copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    explained = s[:2] ** 2 / (m.shape[0] - 1)
    return centered @ components.T, components, explained


def write_pca_csv(projections: np.ndarray, labels, path) -> None:
    """(pc1, pc2, label) rows for external plotting."""
    projections = np.asarray(projections, dtype=np.float64)
    labels = np.asarray(labels)
    if projections.shape != (labels.shape[0], 2):
        raise ValueError(f"projections shape {projections.shape} does not match {labels.shape[0]} labels")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pc1", "pc2", "label"])
        for (a, b), lab in zip(projections, labels):
            writer.writerow([repr(float(a)), repr(float(b)), int(lab)])


def metrics_to_text(r: MetricsReport) -> str:
    lines = [
        f"accuracy: {r.accuracy:.6f}",
        f"precision (positive={r.positive_class}): {r.precision:.6f}",
        f"recall (positive={r.positive_class}): {r.recall:.6f}",
        f"f_score (positive={r.positive_class}): {r.f_score:.6f}",
        f"macro_precision: {r.macro_precision:.6f}",
        f"macro_recall: {r.macro_recall:.6f}",
        f"macro_f_score: {r.macro_f_score:.6f}",
    ]
    return "\n".join(lines)
