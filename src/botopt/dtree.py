"""Binary CART classifier with exhaustive threshold search.

Each feature column of a training matrix is sorted once (SLIQ, Mehta,
Agrawal & Rissanen 1996): the root's row orders are the training set's
``Dataset.column_order``, which every fit on that dataset shares, and a
split stable-partitions its node's orders into fresh arrays for the two
children, so that both keep their rows in ascending feature order and the
shared sort is never written. The split search at a node therefore scans
already-sorted rows and never sorts. Trees grow from an explicit stack, so
their depth is not bounded by Python's recursion limit.

Split candidates are the midpoints of consecutive distinct sorted values of
each allowed feature. A candidate's quality is the Gini impurity decrease

    dec = g(parent) - (nl/n) g(left) - (nr/n) g(right)
        = (n*nr*S_l + n*nl*S_r - nl*nr*S_p) / (n^2 * nl * nr)

where S_* are sums of squared class counts. The numerator is an integer, so
the decrease is a rational number; candidates whose float scores land within
1e-12 of the best are re-compared exactly (Fraction arithmetic) before the
tie rule - lower feature index, then lower threshold - is applied. That
keeps split selection bit-reproducible and lets an exhaustive reference
implementation agree with this one node for node.

Per-node split search across features is embarrassingly parallel; with
n_threads > 1 features are scored concurrently and reduced in ascending
feature order, which is guaranteed to match the serial result.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

import numpy as np

from .ingest import Dataset

__all__ = [
    "HyperParams",
    "Leaf",
    "Split",
    "TreeModel",
    "gini",
    "best_split",
    "fit_tree",
    "predict",
    "predict_many",
    "dump_tree",
]

# Relative width of the float-score band that triggers exact re-comparison.
_TIE_BAND = 1e-12


@dataclass(frozen=True)
class HyperParams:
    max_depth: int = 50
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_features_fraction: float = 1.0

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if self.min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if not 0.0 < self.max_features_fraction <= 1.0:
            raise ValueError(
                f"max_features_fraction must be in (0, 1], got {self.max_features_fraction}"
            )


@dataclass(frozen=True)
class Leaf:
    counts: np.ndarray  # class counts of the rows routed here during fit
    majority: int       # argmax of counts; ties resolve to the lowest class id


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    left: "Leaf | Split"
    right: "Leaf | Split"


@dataclass(frozen=True)
class TreeModel:
    root: Leaf | Split
    n_features: int
    n_classes: int
    depth: int
    hp: HyperParams


def gini(counts) -> float:
    """1 - sum((c_i / sum(c))^2); 0 for a pure node."""
    c = np.asarray(counts, dtype=np.float64)
    if np.any(c < 0):
        raise ValueError("class counts must be non-negative")
    total = c.sum()
    if total < 1:
        raise ValueError("class counts sum to zero")
    p = c / total
    return float(1.0 - np.sum(p * p))


def _onehot(y: np.ndarray, n_classes: int) -> np.ndarray:
    """Class-major float64 indicator matrix, (n_classes, n_rows)."""
    return np.ascontiguousarray(np.eye(n_classes)[y].T)


def _feature_candidates(x, onehot, rows, min_leaf, sum_p2, feature):
    """Band of near-best candidates for one feature, given a node's rows in
    ascending order of that feature's values x and the class-major one-hot
    labels (n_classes, n_rows) as float64.

    Returns (feature_best_float, [(dec, feature, threshold, nl, counts_left)]),
    or None when the feature admits no positive-decrease split.
    """
    xs = x[rows]
    n = xs.shape[0]
    cut = np.flatnonzero(xs[:-1] != xs[1:])  # left part = sorted rows 0..cut
    # both children keep min_leaf rows: min_leaf - 1 <= cut < n - min_leaf
    cut = cut[np.searchsorted(cut, min_leaf - 1) : np.searchsorted(cut, n - min_leaf)]
    if cut.size == 0:
        return None
    nl = cut + 1

    # class counts and their sums of squares are integers below 2**53, so
    # they are exact in float64 whatever the summation order
    cum = np.cumsum(np.take(onehot, rows, axis=1), axis=1)
    cl = np.take(cum, cut, axis=1)  # np.take: far faster than cum[:, cut]
    cr = cum[:, -1:] - cl
    nlf = nl.astype(np.float64)
    nrf = n - nlf
    sl = np.einsum("ij,ij->j", cl, cl)
    sr = np.einsum("ij,ij->j", cr, cr)
    dec = (n * nrf * sl + n * nlf * sr - nlf * nrf * sum_p2) / (n * n * nlf * nrf)

    fbest = float(dec.max())
    if not fbest > 0.0:
        return None
    floor = fbest - _TIE_BAND * max(1.0, fbest)
    sel = np.flatnonzero(dec >= floor if floor > 0.0 else dec > 0.0)
    thresholds = (xs[cut[sel]] + xs[cut[sel] + 1]) / 2.0
    candidates = [
        (float(dec[i]), feature, float(t), int(nl[i]), tuple(int(v) for v in cl[:, i]))
        for i, t in zip(sel, thresholds)
    ]
    return fbest, candidates


def _exact_decrease(n: int, nl: int, counts_left, counts_parent) -> Fraction:
    sl = sum(c * c for c in counts_left)
    sr = sum((p - c) * (p - c) for p, c in zip(counts_parent, counts_left))
    sp = sum(p * p for p in counts_parent)
    nr = n - nl
    return Fraction(n * nr * sl + n * nl * sr - nl * nr * sp, n * n * nl * nr)


def _node_split(columns, onehot, order, features, counts, min_leaf, pool):
    """Best (feature, threshold, impurity decrease) of one node, or None.

    ``order[f]`` lists the node's rows in ascending order of ``columns[f]``;
    ``counts`` are the node's class counts; ``features`` is ascending.
    """
    n = order.shape[1]
    sum_p2 = float(np.sum(counts.astype(np.float64) ** 2))
    args = [(columns[f], onehot, order[f], min_leaf, sum_p2, f) for f in features]
    if pool is not None:
        results = list(pool.map(lambda a: _feature_candidates(*a), args))
    else:
        results = [_feature_candidates(*a) for a in args]

    kept: list[tuple] = []
    best_float = -np.inf
    for res in results:  # ascending feature order
        if res is None:
            continue
        fbest, rows = res
        best_float = max(best_float, fbest)
        kept.extend(rows)
    if not kept:
        return None

    band = _TIE_BAND * max(1.0, best_float)
    finalists = [c for c in kept if c[0] >= best_float - band]
    if len(finalists) == 1:
        dec, f, thr, _, _ = finalists[0]
        return f, thr, dec

    parent_counts = tuple(int(v) for v in counts)
    best = None
    best_exact = None
    for dec, f, thr, nl, cl in finalists:  # already in (feature, threshold) order
        exact = _exact_decrease(n, nl, cl, parent_counts)
        if best_exact is None or exact > best_exact:
            best, best_exact = (f, thr, dec), exact
    if best_exact <= 0:
        return None
    return best


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    hp: HyperParams,
    feature_subset,
    n_classes: int | None = None,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, impurity decrease) over the allowed features,
    or None when no split has a strictly positive decrease or both children
    cannot reach min_samples_leaf."""
    y = np.asarray(y, dtype=np.int64)
    if y.shape[0] < hp.min_samples_split:
        return None
    d = Dataset(X, y, tuple(map(str, range(np.shape(X)[-1]))))
    if n_classes is None:
        n_classes = int(y.max()) + 1
    counts = np.bincount(y, minlength=n_classes)
    features = sorted(int(f) for f in feature_subset)
    return _node_split(
        d.features.T, _onehot(y, n_classes), d.column_order, features, counts,
        hp.min_samples_leaf, None,
    )


def fit_tree(train: Dataset, hp: HyperParams, seed: int, n_threads: int = 1) -> TreeModel:
    """Grow a tree by greedy splitting.

    A node becomes a leaf when it is at max_depth, has fewer than
    min_samples_split rows, is pure, or admits no positive-decrease split.
    The per-node feature subset of size ceil(max_features_fraction * N) is
    drawn from one seeded generator in preorder (node, left subtree, right
    subtree), so the tree is a pure function of (data, hp, seed).
    """
    X, y = train.features, train.labels
    n_rows, n_features = X.shape
    n_classes = max(2, int(y.max()) + 1)
    m_feat = ceil(hp.max_features_fraction * n_features)
    rng = np.random.default_rng(seed)
    columns = np.ascontiguousarray(X.T)
    onehot = _onehot(y, n_classes)
    goes_left = np.zeros(n_rows, dtype=bool)
    pool = ThreadPoolExecutor(max_workers=n_threads) if n_threads > 1 else None

    # nodes in preorder: a Leaf, or the (feature, threshold) of a split whose
    # left subtree follows it and whose right subtree follows that
    preorder: list[Leaf | tuple[int, float]] = []
    depth = 0
    # (the node's rows in each feature's order, depth); the left child is popped first
    stack = [(train.column_order, 0)]
    try:
        while stack:
            order, level = stack.pop()
            n = order.shape[1]
            counts = np.bincount(y[order[0]], minlength=n_classes)
            found = None
            if level < hp.max_depth and n >= hp.min_samples_split and counts.max() < n:
                subset = np.sort(rng.choice(n_features, size=m_feat, replace=False)).tolist()
                found = _node_split(
                    columns, onehot, order, subset, counts, hp.min_samples_leaf, pool
                )
            if found is not None:
                f, thr, _ = found
                rows = order[f]
                n_left = int(np.searchsorted(columns[f][rows], thr, side="right"))
                if 0 < n_left < n:  # else the midpoint rounded onto a data value
                    goes_left[rows[:n_left]] = True
                    goes_left[rows[n_left:]] = False
                    # stable partition keeps each feature's order within both children
                    mask = np.take(goes_left, order).ravel()
                    left = np.compress(mask, order).reshape(n_features, n_left)
                    right = np.compress(~mask, order).reshape(n_features, n - n_left)
                    preorder.append((f, thr))
                    stack.append((right, level + 1))
                    stack.append((left, level + 1))
                    continue
            counts.flags.writeable = False
            preorder.append(Leaf(counts=counts, majority=int(np.argmax(counts))))
            depth = max(depth, level)
    finally:
        if pool is not None:
            pool.shutdown()

    built: list[Leaf | Split] = []  # subtrees of the reversed preorder; the last is leftmost
    for node in reversed(preorder):
        if isinstance(node, Leaf):
            built.append(node)
        else:
            left = built.pop()
            built.append(Split(feature=node[0], threshold=node[1], left=left, right=built.pop()))
    return TreeModel(root=built[0], n_features=n_features, n_classes=n_classes, depth=depth, hp=hp)


def predict(t: TreeModel, row) -> int:
    """Route one row to its leaf; values <= threshold go left."""
    row = np.asarray(row, dtype=np.float64).ravel()
    if row.shape[0] != t.n_features:
        raise ValueError(f"row has {row.shape[0]} features, tree was fit on {t.n_features}")
    return int(predict_many(t, row[None])[0])


def predict_many(t: TreeModel, X: np.ndarray) -> np.ndarray:
    """The leaf class of each row of X; values <= threshold go left."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != t.n_features:
        raise ValueError(f"matrix has shape {X.shape}, tree was fit on {t.n_features} features")
    out = np.empty(X.shape[0], dtype=np.int64)
    stack: list[tuple[Leaf | Split, np.ndarray]] = [(t.root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if isinstance(node, Leaf):
            out[idx] = node.majority
        else:
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
    return out


def dump_tree(t: TreeModel, feature_names=None) -> str:
    """Indented one-line-per-node text rendering for inspection."""
    names = feature_names or [f"f{i}" for i in range(t.n_features)]
    lines: list[str] = []
    stack: list[tuple[Leaf | Split, int]] = [(t.root, 0)]  # (node, indent), preorder
    while stack:
        node, indent = stack.pop()
        pad = "  " * indent
        if isinstance(node, Leaf):
            lines.append(f"{pad}leaf class={node.majority} counts={node.counts.tolist()}")
        else:
            lines.append(f"{pad}{names[node.feature]} <= {node.threshold!r}")
            stack.append((node.right, indent + 1))
            stack.append((node.left, indent + 1))
    return "\n".join(lines)
