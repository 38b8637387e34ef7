"""Binary CART classifier with exhaustive threshold search.

Each feature column of a training matrix is sorted once (SLIQ, Mehta,
Agrawal & Rissanen 1996): the root's row orders are the training set's
``Dataset.column_order``, which every fit on that dataset shares, and the
split search reads each feature's values from ``Dataset.features.T``, a
C-contiguous view of the column-major matrix, so a fit copies neither. A
split stable-partitions its node's orders into fresh arrays for those of
its two children that can still split, so that they keep their rows in
ascending feature order and the shared sort is never written; a child that
cannot split gets no orders, only the class counts the split gives it. The
split search at a node therefore scans already-sorted rows and never sorts.
Trees grow from an explicit stack, so their depth is not bounded by
Python's recursion limit.

Labels are 0 (normal) and 1 (attack), which ``Dataset`` enforces. A split
candidate is a cut between consecutive distinct sorted values of an allowed
feature, nl of the node's rows left of it; one cumulative sum of the labels
in that feature's order gives a_l, the attack count left of every cut. For
two classes the Gini impurity decrease of a cut is (Breiman et al., CART, 1984)

    dec = 2 (nl nr / n^2) (p_l - p_r)^2 = 2 S / n^2,   S = e^2 / (nl nr),

where e = n a_l - A nl is an integer (A is the node's attack count). Every
product in e is an integer of at most n^2, so while n^2 <= 2^53 (fit_tree's
row limit) e is exact in float64: a cut has a positive decrease exactly when
e != 0, and zero-gain cuts are never taken. Candidates are ranked by the
float S, which carries at most about 2 ulp of relative error; those within
a relative 1e-12 of the best are re-compared exactly as Fraction(e^2, nl nr),
and the first exact best in (feature, cut) order wins. That keeps split
selection bit-reproducible and lets an exhaustive reference implementation
agree with this one node for node. The winner's threshold is a/2 + b/2 for
the values a < b either side of it, or a where that rounds onto b (adjacent
floats): a <= threshold < b, as in scikit-learn, so X <= threshold sends
left exactly the nl rows the cut scored.

The fits on one Dataset also share its split memo (``Dataset.split_memo``),
so that the search trials which regrow a tree on the same CV fold do not
rescan the nodes they have in common. The memo is one dict keyed by
(path, feature). A node's path is () at the root and (parent's path,
feature, n_left, side) below it: a split sends ``order[f][:n_left]`` left
and the root's orders are the Dataset's, so the path fixes the node's rows
and their orders. For each (node, feature) it scans, a fit stores the
feature's band for min_samples_leaf = 1, over every cut, with the nl_lo
and nl_hi of the band's lowest and highest cut. A later fit takes the
record as its own result when min_leaf <= nl_lo and nl_hi <= n - min_leaf:
its cuts are the record's trimmed to that range, which holds the whole
band, so its best score and its band are the record's and the tree is the
same bit for bit. Otherwise it scans the feature once and derives both its
own band and the record from that pass. The memo stops storing, and goes on
serving, once it holds one record per 32 rows of the Dataset. Hashing a
path costs its depth and recurses in C, so nodes at depth 64 or more
neither read nor write the memo, and their paths are None.

The fits on one Dataset also share its fit memo (``Dataset.tree_memo``),
which serves whole trees. It is keyed by (seed, m_feat), m_feat =
ceil(max_features_fraction * n_features), and pairs each tree a fit grew
with the box of (max_depth, min_samples_split, min_samples_leaf) in which
every decision of that fit comes out the same; a later fit whose settings
fall in a stored box returns the stored TreeModel. The box starts unbounded
and each decision narrows it. An impure node that grows needs max_depth >
level and min_samples_split <= n, one stopped by depth max_depth <= level,
and one stopped by size min_samples_split > n. A split search in which
every feature's record serves min_samples_leaf bounds it by the least
min(nl_lo, n - nl_hi) of those records (inf for a feature without a cut);
any other search pins min_samples_leaf. In the box the random draws, the
nodes and every split repeat, so the stored tree is the one a fresh fit
grows. The memo stops storing, and goes on serving, once its trees hold one
node per 4 rows of the Dataset.

Per-node split search across features is embarrassingly parallel; with
n_threads > 1 the features a node must scan are scored concurrently and
reduced in ascending feature order, which is guaranteed to match the serial
result. Memo reads and writes stay on the calling thread.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, inf, isqrt

import numpy as np

from .ingest import Dataset

__all__ = [
    "HyperParams",
    "Leaf",
    "Split",
    "TreeModel",
    "fit_tree",
    "predict_many",
    "dump_tree",
]

# Relative width of the float-score band that triggers exact re-comparison.
_TIE_BAND = 1e-12
# Largest n with n^2 <= 2^53, so that every e of a split search is exact.
_MAX_ROWS = isqrt(2**53)
# A Dataset's split memo stops storing at one record per this many rows.
_ROWS_PER_RECORD = 32
# A Dataset's fit memo stops storing at one stored tree node per this many rows.
_ROWS_PER_NODE = 4
# Record of a feature without a cut of positive decrease: it serves any min_leaf.
_NO_CUT = (inf, -inf, None)
# Nodes this deep or deeper have no path and leave the split memo alone.
_MEMO_DEPTH = 64


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
    counts: np.ndarray  # [normal, attack] counts of the rows routed here during fit
    majority: int       # argmax of counts; a tie resolves to 0 (normal)


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
    depth: int


def _band(score, nl, e, lo, hi, feature):
    """Memo record (nl_lo, nl_hi, found) of the cuts lo:hi of one feature:
    found is (feature_best_score, [(score, feature, nl, e)]), the near-best
    cuts in ascending order from nl_lo to nl_hi rows left, or None when every
    one of the cuts has e == 0."""
    s = score[lo:hi]
    fbest = float(s.max()) if s.size else 0.0
    if fbest == 0.0:
        return _NO_CUT
    sel = lo + np.flatnonzero(s >= fbest * (1.0 - _TIE_BAND))
    band = [(float(score[i]), feature, int(nl[i]), int(e[i])) for i in sel]
    return band[0][2], band[-1][2], (fbest, band)


def _feature_candidates(x, attack, rows, min_leaf, feature):
    """Scan one feature at a node, given the node's rows in ascending order
    of the feature's values x and the float64 0/1 labels.

    Returns (record, found): the memo record of every cut (min_leaf = 1),
    and found, the (feature_best_score, candidates) or None of the cuts that
    leave min_leaf rows on both sides; both as ``_band`` gives them.
    """
    rows = rows.astype(np.intp)  # numpy casts int32 indices on every gather; cast once
    xs = x[rows]
    n = xs.shape[0]
    cut = np.flatnonzero(xs[:-1] != xs[1:])  # left part = sorted rows 0..cut
    nl = (cut + 1).astype(np.float64)
    cum = np.cumsum(np.take(attack, rows))
    # integers of at most n^2 < 2^53: exact in float64
    e = n * np.take(cum, cut) - cum[-1] * nl  # np.take: far faster than cum[cut]
    score = e * e / (nl * (n - nl))
    record = _band(score, nl, e, 0, cut.size, feature)
    if _serves(record, min_leaf, n):
        return record, record[2]
    # both children keep min_leaf rows: min_leaf - 1 <= cut < n - min_leaf
    lo, hi = np.searchsorted(cut, (min_leaf - 1, n - min_leaf)).tolist()
    return record, _band(score, nl, e, lo, hi, feature)[2]


def _serves(record, min_leaf, n):
    """Whether a feature's memo record is also its result for min_leaf: the
    whole band leaves min_leaf rows on both sides, so trimming the cuts to
    that range keeps the best score and the band."""
    return min_leaf <= record[0] and record[1] <= n - min_leaf


def _node_split(columns, attack, order, n_attack, features, min_leaf, pool, memo, path):
    """(reach, best): best is the (feature, threshold, n_left, score S,
    a_left) of one node, or None when no cut has a positive Gini decrease
    (2 S / n^2). The split sends ``order[f][:n_left]`` left, a_left of them
    attacks; ``order[f]`` lists the node's rows in ascending order of
    ``columns[f]``, n_attack of them attacks, and ``features`` is ascending.
    reach is the largest min_leaf that every feature's record serves (inf
    when none has a cut): when min_leaf <= reach, best is the same for every
    min_leaf from 1 to reach.

    ``memo[path, f]`` is feature f's record at this node; a feature whose
    record does not serve min_leaf is scanned (by ``pool`` when given), and
    its record is stored while the memo holds fewer than one per 32 rows.
    A node whose path is None scans every feature and leaves the memo alone.
    """
    n = order.shape[1]
    if path is None:
        memo = {}
    records, found = {}, {}
    for f in features:
        record = memo.get((path, f))
        if record is not None and _serves(record, min_leaf, n):
            records[f], found[f] = record, record[2]
    missed = [f for f in features if f not in found]
    args = [(columns[f], attack, order[f], min_leaf, f) for f in missed]
    if pool is not None:
        scans = pool.map(lambda a: _feature_candidates(*a), args)
    else:
        scans = (_feature_candidates(*a) for a in args)
    room = columns.shape[1] // _ROWS_PER_RECORD
    for f, (record, res) in zip(missed, scans):
        if len(memo) < room:
            memo[path, f] = record
        records[f], found[f] = record, res
    # _serves(record, min_leaf, n) exactly when min_leaf <= min(nl_lo, n - nl_hi)
    reach = min(min(lo, n - hi) for lo, hi, _ in records.values())
    results = [found[f] for f in features if found[f] is not None]  # ascending feature order
    if not results:
        return reach, None

    floor = max(fbest for fbest, _ in results) * (1.0 - _TIE_BAND)
    finalists = [c for _, rows in results for c in rows if c[0] >= floor]
    # max keeps the first exact best, in (feature, cut) order
    score, f, nl, e = max(finalists, key=lambda c: Fraction(c[3] ** 2, c[2] * (n - c[2])))
    a, b = columns[f][order[f][nl - 1 : nl + 1]].tolist()
    # halving first: (a + b) / 2 overflows to inf near the float64 maximum
    mid = a / 2.0 + b / 2.0
    return reach, (f, mid if mid < b else a, nl, score, (e + n_attack * nl) // n)  # e = n a_l - A nl


def fit_tree(train: Dataset, hp: HyperParams, seed: int, n_threads: int = 1) -> TreeModel:
    """Grow a tree by greedy splitting.

    A node becomes a leaf when it is at max_depth, has fewer than
    min_samples_split rows, is pure, or admits no positive-decrease split;
    the first three are known from the parent's split, before it partitions
    the rows, so only the children that can still split get row orders.
    The per-node feature subset of size ceil(max_features_fraction * N) is
    drawn from one seeded generator in preorder (node, left subtree, right
    subtree), so the tree is a pure function of (data, hp, seed), whatever
    the dataset's memos hold; a fit the fit memo serves returns the very
    tree it stored. Raises ValueError above 94,906,265 training rows, where
    the split scores stop being exact.
    """
    X, y = train.features, train.labels
    n_rows, n_features = X.shape
    if n_rows > _MAX_ROWS:
        raise ValueError(f"{n_rows} training rows exceed the limit of {_MAX_ROWS} rows")
    m_feat = ceil(hp.max_features_fraction * n_features)
    settings = (hp.max_depth, hp.min_samples_split, hp.min_samples_leaf)
    fits = train.tree_memo.setdefault((seed, m_feat), [])
    for box_lo, box_hi, tree, _ in fits:
        if all(a <= v <= b for a, v, b in zip(box_lo, settings, box_hi)):
            return tree
    # the box of settings that repeat every decision of this fit so far:
    # lo[i] <= settings[i] <= hi[i]
    lo, hi = [1, 2, 1], [inf, inf, inf]

    def grows(n, n_attack, level):  # below max_depth, large enough and impure; narrows the box
        if not 0 < n_attack < n:
            return False  # a pure node stops under any settings
        if level >= hp.max_depth:
            hi[0] = min(hi[0], level)
            return False
        if n < hp.min_samples_split:
            lo[1] = max(lo[1], n + 1)
            return False
        lo[0], hi[1] = max(lo[0], level + 1), min(hi[1], n)
        return True

    rng = np.random.default_rng(seed)
    columns = X.T  # Dataset keeps features column-major: one contiguous row per feature
    attack = y.astype(np.float64)
    goes_left = np.zeros(n_rows, dtype=bool)
    pool = ThreadPoolExecutor(max_workers=n_threads) if n_threads > 1 else None

    # nodes in preorder: a Leaf, or the (feature, threshold) of a split whose
    # left subtree follows it and whose right subtree follows that
    preorder: list[Leaf | tuple[int, float]] = []
    depth = 0
    memo = train.split_memo
    # (the node's rows in each feature's order, None when it cannot grow; its
    # row and attack counts; depth; its path in the memo, None from depth
    # _MEMO_DEPTH on); the left child is popped first
    n_attack = int(np.bincount(y, minlength=2)[1])
    stack = [(train.column_order if grows(n_rows, n_attack, 0) else None, n_rows, n_attack, 0, ())]
    try:
        while stack:
            order, n, n_attack, level, path = stack.pop()
            found = None
            if order is not None:
                subset = np.sort(rng.choice(n_features, size=m_feat, replace=False)).tolist()
                reach, found = _node_split(
                    columns, attack, order, n_attack, subset, hp.min_samples_leaf, pool, memo, path
                )
                if reach >= hp.min_samples_leaf:
                    hi[2] = min(hi[2], reach)
                else:  # min_samples_leaf trimmed some feature's band: pin it
                    lo[2] = hi[2] = hp.min_samples_leaf
            if found is not None:
                f, thr, n_left, _, a_left = found
                preorder.append((f, thr))
                sides = [(n - n_left, n_attack - a_left, True), (n_left, a_left, False)]
                grow = [grows(m, a, level + 1) for m, a, _ in sides]
                if any(grow):
                    goes_left[order[f][:n_left]] = True
                    goes_left[order[f][n_left:]] = False
                    mask = np.take(goes_left, order).ravel()
                named = level + 1 < _MEMO_DEPTH
                for (m, a, right), g in zip(sides, grow):
                    part = None
                    if g:  # a stable partition keeps each feature's order within the child
                        part = np.compress(~mask if right else mask, order).reshape(n_features, m)
                    stack.append((part, m, a, level + 1, (path, f, n_left, right) if named else None))
                continue
            counts = np.array([n - n_attack, n_attack], dtype=np.int64)
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
    tree = TreeModel(root=built[0], n_features=n_features, depth=depth)
    stored = sum(nodes for boxes in train.tree_memo.values() for *_, nodes in boxes)
    if stored + len(preorder) <= n_rows // _ROWS_PER_NODE:
        fits.append((tuple(lo), tuple(hi), tree, len(preorder)))
    return tree


def predict_many(t: TreeModel, X: np.ndarray) -> np.ndarray:
    """The leaf class of each row of X; values <= threshold go left."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != t.n_features:
        raise ValueError(f"matrix has shape {X.shape}, tree was fit on {t.n_features} features")
    finite = np.isfinite(X)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"non-finite feature value {float(X[i, j])} at row {i + 1}, feature {j}")
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
