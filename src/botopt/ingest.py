"""Loading, validation and stratified splitting of labeled flow records.

Flow records arrive as comma-delimited text with a mandatory header row.
Values are rejected rather than imputed: a missing or non-numeric cell in a
feature column is an error, because silently repairing cells would distort
the class-imbalance statistics the rest of the pipeline is built around.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Dataset",
    "SplitPair",
    "load_flows",
    "sample_flows",
    "write_flows",
    "class_counts",
    "stratified_split",
]


@dataclass(frozen=True)
class Dataset:
    """Immutable labeled feature matrix.

    features : (M, N) float array, all values finite
    labels   : (M,) int64 array, 0 = normal, 1 = attack; any label that does
               not equal 0 or 1 as given is an error
    feature_names : N column names
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        given = np.asarray(self.labels)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        m, n = feats.shape
        if m < 1 or n < 1:
            raise ValueError(f"need at least one row and one feature, got shape {feats.shape}")
        if given.shape != (m,):
            raise ValueError(f"labels shape {given.shape} does not match {m} feature rows")
        bad = np.flatnonzero((given != 0) & (given != 1))
        if bad.size:
            i = bad[0]
            raise ValueError(f"label {given[i]} at row {i + 1} is not 0 (normal) or 1 (attack)")
        labels = np.ascontiguousarray(given, dtype=np.int64)
        names = tuple(str(c) for c in self.feature_names)
        if len(names) != n:
            raise ValueError(f"{len(names)} feature names for {n} feature columns")
        finite = np.isfinite(feats)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise ValueError(
                f"non-finite feature value {float(feats[i, j])} at row {i + 1}, column {names[j]!r}"
            )
        feats.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @cached_property
    def column_order(self) -> np.ndarray:
        """Read-only row order of each feature column, (n_features, n_rows),
        computed on first use; every tree fit on this dataset shares it.

        Equal values may come in any order: the split search reads class
        counts only where the value changes, so a tree does not depend on
        it, and the default sort is several times faster than kind="stable".
        """
        order = np.argsort(np.ascontiguousarray(self.features.T), axis=1)
        order.flags.writeable = False
        return order

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row subset in the given index order."""
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.features[idx], self.labels[idx], self.feature_names)


@dataclass(frozen=True)
class SplitPair:
    """Stratified train/test partition of a source dataset.

    The index arrays record which source rows landed where; downstream code
    uses them to assert train/test disjointness before any fitting happens.
    """

    train: Dataset
    test: Dataset
    seed: int
    train_indices: np.ndarray = field(repr=False)
    test_indices: np.ndarray = field(repr=False)


def load_flows(
    path,
    label_column: str,
    positive_label: str,
    feature_columns: list[str] | None = None,
    negative_label: str | None = None,
) -> Dataset:
    """Read a comma-delimited flow file into a Dataset.

    The header row is mandatory. ``feature_columns`` is the explicit
    include-list of feature columns; when omitted, every non-label column is
    treated as a numeric feature. Rows keep their file order. The label
    column is mapped to 1 for ``positive_label`` and 0 for the (single)
    remaining label value; any other value is an error. Row numbers in error
    messages are 1-based data rows (the header is row 0).
    """
    return _read_flows(path, label_column, positive_label, feature_columns, negative_label)[0]


def sample_flows(
    path,
    label_column: str,
    positive_label: str,
    n_positive: int,
    seed: int,
    feature_columns: list[str] | None = None,
) -> tuple[Dataset, dict[int, int]]:
    """Every negative row plus a seeded uniform sample of positive rows.

    Built for extremely skewed flow files: only the sampled rows are
    materialized, so a multi-million-row file costs two streaming passes and
    a subsample of memory. Both passes check every row's cell count and
    label as ``load_flows`` does; only the second parses feature cells, and
    only those of the sampled rows. Returns the sampled Dataset together
    with the full-file class counts seen during the scan.
    """
    args = (path, label_column, positive_label, feature_columns, None)
    total_pos = _read_flows(*args, keep=lambda label: False)[1][1]
    rng = np.random.default_rng(seed)
    n_take = min(n_positive, total_pos)
    chosen = set(rng.choice(total_pos, size=n_take, replace=False).tolist()) if n_take else set()
    ordinal = itertools.count()  # index of each positive row among all positives
    d, counts = _read_flows(*args, keep=lambda label: label == 0 or next(ordinal) in chosen)
    if d is None:
        raise ValueError(f"{path}: no rows survived sampling")
    return d, counts


def _read_flows(path, label_column, positive_label, feature_columns, negative_label, keep=None):
    """One pass over a flow file: (Dataset of the kept rows or None,
    full-file class counts). ``keep(label)`` is asked once per row, in file
    order, after the row's cell count and label are checked; only kept rows
    have their feature cells parsed."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        label_pos, feat_names, feat_pos = _header_layout(
            header, label_column, feature_columns, path
        )
        n_header = len(header)

        negative = negative_label
        counts = {0: 0, 1: 0}
        rows: list[list[float]] = []
        labels: list[int] = []
        kept: list[int] = []  # file row numbers of the kept rows, when some are skipped
        for rownum, rec in enumerate(reader, start=1):
            if len(rec) != n_header:
                raise ValueError(
                    f"{path}: row {rownum} has {len(rec)} cells, header has {n_header}"
                )
            raw = rec[label_pos].strip()
            if raw == positive_label:
                label = 1
            else:
                if negative is None:
                    negative = raw
                if raw != negative:
                    raise ValueError(
                        f"{path}: unknown label {raw!r} at row {rownum}, column {label_column!r} "
                        f"(expected {positive_label!r} or {negative!r})"
                    )
                label = 0
            counts[label] += 1
            if keep is not None:
                if not keep(label):
                    continue
                kept.append(rownum)
            try:
                rows.append([float(rec[p]) for p in feat_pos])
            except ValueError:
                _raise_bad_cell(path, rownum, rec, feat_names, feat_pos)
            labels.append(label)

    if not counts[0] + counts[1]:
        raise ValueError(f"{path}: no data rows")
    if not rows:
        return None, counts
    features = np.array(rows, dtype=np.float64)
    finite = np.isfinite(features)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(
            f"{path}: non-finite value {float(features[i, j])} at row "
            f"{kept[i] if kept else i + 1}, column {feat_names[j]!r}"
        )
    return Dataset(features, np.array(labels), tuple(feat_names)), counts


def _header_layout(header, label_column, feature_columns, path):
    header = [h.strip() for h in header]
    if label_column not in header:
        raise ValueError(f"{path}: label column {label_column!r} not in header {header}")
    if feature_columns is None:
        feat_names = [h for h in header if h != label_column]
    else:
        missing = [c for c in feature_columns if c not in header]
        if missing:
            raise ValueError(f"{path}: feature columns {missing} not in header")
        feat_names = list(feature_columns)
    if not feat_names:
        raise ValueError(f"{path}: no feature columns left after excluding the label")
    return header.index(label_column), feat_names, [header.index(c) for c in feat_names]


def _raise_bad_cell(path, rownum, rec, feat_names, feat_pos):
    for name, pos in zip(feat_names, feat_pos):
        cell = rec[pos].strip()
        if not cell:
            raise ValueError(f"{path}: missing value at row {rownum}, column {name!r}")
        try:
            float(cell)
        except ValueError:
            raise ValueError(
                f"{path}: non-numeric value {cell!r} at row {rownum}, column {name!r}"
            ) from None


def write_flows(
    d: Dataset,
    path,
    label_column: str = "label",
    positive_label: str = "attack",
    negative_label: str = "normal",
) -> None:
    """Write a Dataset back to comma-delimited text.

    Floats are written with ``repr``, i.e. shortest round-trip precision, so
    ``load_flows(write_flows(d))`` reproduces every value exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(d.feature_names) + [label_column])
        for row, lab in zip(d.features, d.labels):
            writer.writerow(
                [repr(float(v)) for v in row]
                + [positive_label if lab == 1 else negative_label]
            )


def class_counts(d: Dataset) -> dict[int, int]:
    """Number of rows per class id."""
    ids, counts = np.unique(d.labels, return_counts=True)
    return {int(c): int(n) for c, n in zip(ids, counts)}


def stratified_split(d: Dataset, test_fraction: float, seed: int) -> SplitPair:
    """Seeded stratified partition into train and test datasets.

    Each class contributes round(count * test_fraction) rows to the test
    side, clamped so both sides keep at least one row of every class; the
    per-class proportions therefore stay within one instance of the source
    proportions. Identical seeds yield identical partitions.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for cls, count in sorted(class_counts(d).items()):
        if count < 2:
            raise ValueError(f"class {cls} has {count} instance(s); need >= 2 to stratify")
        members = rng.permutation(np.flatnonzero(d.labels == cls))
        n_test = int(np.floor(count * test_fraction + 0.5))
        n_test = min(max(n_test, 1), count - 1)
        test_idx.append(members[:n_test])
        train_idx.append(members[n_test:])
    train_indices = np.sort(np.concatenate(train_idx))
    test_indices = np.sort(np.concatenate(test_idx))
    return SplitPair(
        train=d.take(train_indices),
        test=d.take(test_indices),
        seed=seed,
        train_indices=train_indices,
        test_indices=test_indices,
    )
