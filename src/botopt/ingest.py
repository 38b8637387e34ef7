"""Loading, validation and stratified splitting of labeled flow records.

Flow records arrive as comma-delimited text with a mandatory header row.
Values are rejected rather than imputed: a missing or non-numeric cell in a
feature column is an error, because silently repairing cells would distort
the class-imbalance statistics the rest of the pipeline is built around.

``load_flows`` has two readers. Plain rows (no quotes, LF or CRLF endings,
every row as wide as the header) are split a chunk at a time with string
methods and parsed by one ``np.array(..., dtype=np.float64)`` per chunk.
Any other file, and any file with a bad row, is read by a ``csv.reader``
loop from the first row; that loop alone reports row errors, so both
readers give the same Dataset or the same message.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

import numpy as np

__all__ = [
    "Dataset",
    "SplitPair",
    "load_flows",
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
                f"non-finite value {float(feats[i, j])} at row {i + 1}, column {names[j]!r}"
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
        order = np.empty(self.features.shape[::-1], dtype=np.int32)  # fit_tree's rows fit int32
        for j, column in enumerate(self.features.T):
            order[j] = np.argsort(column)
        order.flags.writeable = False
        return order

    @cached_property
    def split_memo(self) -> dict:
        """Split-search records that the tree fits on this dataset share,
        keyed by (node path, feature), empty until the first fit; ``dtree``
        fills it (see its docstring)."""
        return {}

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row subset in the given index order; indices must be integers."""
        idx = np.asarray(indices)
        if idx.dtype.kind not in "iu":
            raise TypeError(f"row indices must have an integer dtype, got {idx.dtype}")
        return Dataset(self.features[idx], self.labels[idx], self.feature_names)


@dataclass(frozen=True)
class SplitPair:
    """Stratified train/test partition of a source dataset.

    The index arrays record which source rows landed where; downstream code
    uses them to assert train/test disjointness before any fitting happens.
    """

    train: Dataset
    test: Dataset
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

    The header row is mandatory, and a column it names twice is an error.
    ``feature_columns`` is the explicit include-list of feature columns;
    when omitted, every non-label column is treated as a numeric feature.
    Rows keep their file order. The label column is mapped to 1 for
    ``positive_label`` and 0 for the (single) remaining label value; any
    other value is an error. Row numbers in error messages are 1-based data
    rows (the header is row 0). Label cells are stripped, so a label
    argument that is empty or has surrounding whitespace, or a
    ``negative_label`` equal to ``positive_label``, is rejected before the
    file is read. Cells are parsed into one float64 buffer, 8 bytes per
    cell, which becomes the feature matrix without a copy.

    Two readers share the header and the checks after the last row. Plain
    rows are split about 32 KiB at a time, and each chunk's feature cells
    are parsed by one ``np.array(cells, dtype=np.float64)``, which calls
    ``float()`` on each. A quote, a lone CR or NUL, a row of the wrong
    width, or a cell or label the ``csv.reader`` loop would reject sends
    the file back to that loop from the first row: it reads every quoted
    or irregular file and raises every error about a row.
    """
    _check_labels(positive_label, negative_label)
    if isinstance(feature_columns, str):
        raise ValueError(f"feature_columns must be a list of column names, got {feature_columns!r}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        label_pos, feat_names, feat_pos = _header_layout(
            header, label_column, feature_columns, path
        )
        n_header = len(header)

        plain = _read_plain(fh, n_header, label_pos, feat_pos, positive_label, negative_label)
        if plain is not None:
            cells, labels = plain
        else:
            fh.seek(0)
            next(reader)
            negative = negative_label
            cells = array("d")
            labels = bytearray()
            for rownum, rec in enumerate(reader, start=1):
                if len(rec) != n_header:
                    raise ValueError(
                        f"{path}: row {rownum} has {len(rec)} cells, header has {n_header}"
                    )
                raw = rec[label_pos].strip()
                if raw == positive_label:
                    label = 1
                else:
                    if not raw:
                        raise ValueError(
                            f"{path}: missing label at row {rownum}, column {label_column!r}"
                        )
                    if negative is None:
                        negative = raw
                    if raw != negative:
                        raise ValueError(
                            f"{path}: unknown label {raw!r} at row {rownum}, column {label_column!r} "
                            f"(expected {positive_label!r} or {negative!r})"
                        )
                    label = 0
                try:
                    cells.extend([float(rec[p]) for p in feat_pos])
                except ValueError:
                    _raise_bad_cell(path, rownum, rec, feat_names, feat_pos)
                labels.append(label)

    if not labels:
        raise ValueError(f"{path}: no data rows")
    features = np.frombuffer(cells, dtype=np.float64).reshape(-1, len(feat_pos))
    try:
        return Dataset(features, np.frombuffer(labels, dtype=np.uint8), tuple(feat_names))
    except ValueError as exc:  # a non-finite cell: Dataset names its row and column
        raise ValueError(f"{path}: {exc}") from None


def _check_labels(positive_label, negative_label):
    """Reject label arguments that a label cell, which is read stripped,
    could never equal, or that would not tell the classes apart."""
    for name, label in (("positive_label", positive_label), ("negative_label", negative_label)):
        if label is not None and (not label or label != label.strip()):
            raise ValueError(f"{name} {label!r} is empty or has surrounding whitespace")
    if negative_label == positive_label:
        raise ValueError(f"negative_label {negative_label!r} equals positive_label")


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
    used = [label_column, *feat_names]
    for name in used:
        if header.count(name) > 1:
            raise ValueError(f"{path}: column {name!r} is named twice in the header")
        if used.count(name) > 1:
            raise ValueError(
                f"{path}: column {name!r} is named twice in the label and feature columns"
            )
    return header.index(label_column), feat_names, [header.index(c) for c in feat_names]


# Characters read per chunk by the plain-row reader. It holds a few times
# this much at once as row and cell strings; far larger chunks would raise
# the peak memory of a load above the feature matrix itself.
_CHUNK_CHARS = 32 * 1024


def _read_plain(fh, n_header, label_pos, feat_pos, positive, negative):
    """The cells and labels of the rows left in ``fh``, or None where the
    csv loop must read the file.

    Only commas, quotes, CR, LF and NUL are special to ``csv.reader`` here,
    so a chunk no longer than the csv field limit, without quotes, lone CRs
    or NULs, whose rows each hold ``n_header - 1`` commas (a blank line
    holds none), splits into the same cells.
    """
    n_feat = len(feat_pos)
    cells, labels = array("d"), bytearray()
    label_of = {}
    rest = ""
    while True:
        text = fh.read(_CHUNK_CHARS)
        block = rest + text
        cut = block.rfind("\n") + 1 if text else len(block)
        block, rest = block[:cut].replace("\r\n", "\n"), block[cut:]
        if not block:
            if text:
                continue
            return cells, labels
        if '"' in block or "\r" in block or "\0" in block or len(block) > csv.field_size_limit():
            return None
        rows = block.removesuffix("\n").split("\n")
        if set(map(str.count, rows, repeat(","))) != {n_header - 1}:
            return None
        flat = ",".join(rows).split(",")
        raw = flat[label_pos::n_header]
        for cell in set(raw).difference(label_of):
            name = cell.strip()
            if name != positive:
                if negative is None:
                    negative = name
                if not name or name != negative:
                    return None
            label_of[cell] = int(name == positive)
        ordered = [""] * (len(rows) * n_feat)
        for j, p in enumerate(feat_pos):
            ordered[j::n_feat] = flat[p::n_header]
        try:
            values = np.array(ordered, dtype=np.float64)
        except ValueError:
            return None
        cells.frombytes(values.view(np.uint8))
        labels += bytes(map(label_of.__getitem__, raw))


def _raise_bad_cell(path, rownum, rec, feat_names, feat_pos):
    for name, pos in zip(feat_names, feat_pos):
        cell = rec[pos]
        # strip() also drops \x1c-\x1f, which float() does not: only a blank
        # cell is missing, and float() is tried on the cell as read
        if not cell.strip():
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
    ``load_flows(write_flows(d))`` reproduces every value exactly. Labels
    and column names that ``load_flows`` would misread or reject (equal
    labels, a header name that repeats once stripped) are rejected before
    the file is opened.
    """
    _check_labels(positive_label, negative_label)
    header = [*d.feature_names, label_column]
    stripped = [h.strip() for h in header]
    for name in stripped:
        if stripped.count(name) > 1:
            raise ValueError(f"column {name!r} would be named twice in the header")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
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
        train_indices=train_indices,
        test_indices=test_indices,
    )
