"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force: dense inverses instead of
Cholesky solves, per-candidate mask counting instead of incremental scans,
exact rational arithmetic instead of floats, numerical quadrature instead of
closed forms. These functions never call into the package paths they check.
"""

from __future__ import annotations

import csv
import math
from array import array
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from botopt.ingest import Dataset


# --- Gaussian process -------------------------------------------------------

def ref_kernel_matrix(A, B, signal_variance, lengthscale):
    A, B = np.atleast_2d(A), np.atleast_2d(B)
    K = np.empty((A.shape[0], B.shape[0]))
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            sq = sum((x - y) ** 2 for x, y in zip(a, b))
            K[i, j] = signal_variance * math.exp(-sq / (2.0 * lengthscale**2))
    return K


def ref_gp_predict(X, y, signal_variance, lengthscale, noise, q):
    """Posterior via explicit dense inverse: k*^T (K + nI)^-1 y."""
    X = np.atleast_2d(X)
    K = ref_kernel_matrix(X, X, signal_variance, lengthscale) + noise * np.eye(X.shape[0])
    K_inv = np.linalg.inv(K)
    k_star = ref_kernel_matrix(X, np.atleast_2d(q), signal_variance, lengthscale)[:, 0]
    mean = k_star @ K_inv @ np.asarray(y)
    var = signal_variance - k_star @ K_inv @ k_star
    return float(mean), float(var)


def ref_log_marginal_likelihood(X, y, signal_variance, lengthscale, noise):
    """Evidence via dense inverse and log-determinant."""
    X = np.atleast_2d(X)
    y = np.asarray(y, dtype=float)
    t = X.shape[0]
    K = ref_kernel_matrix(X, X, signal_variance, lengthscale) + noise * np.eye(t)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return float(-0.5 * y @ np.linalg.inv(K) @ y - 0.5 * logdet - 0.5 * t * math.log(2 * math.pi))


def log_marginal_likelihood(m):
    """The evidence of a fitted GPModel read off its factor: -1/2 w^T w +
    sum(log diag L^-1) - t/2 log(2 pi), where w^T w = y^T (K + noise*I)^-1 y.
    Checked against ref_log_marginal_likelihood, it checks m's L^-1 and w."""
    w = m.w
    return float(-0.5 * (w @ w) + np.sum(np.log(np.diag(m.chol_inv))) - 0.5 * len(w) * math.log(2.0 * math.pi))


def ref_profile_best(X, y, lengthscales, nugget, scales):
    """The highest evidence over every pair of a signal variance s in scales
    and a lengthscale, from ref_log_marginal_likelihood with the noise
    nugget * s."""
    return max(
        ref_log_marginal_likelihood(X, y, float(s), ls, nugget * float(s))
        for ls in lengthscales
        for s in scales
    )


def ref_cross_kernel_gram(signal_variance, lengthscale, X, Q):
    """k(X, Q) from the Gram form in one fresh (len(X), len(Q)) array, as
    botopt computed it before predictions took blocks."""
    Xs, Qs = X / lengthscale, Q / lengthscale
    K = Xs @ Qs.T
    K -= 0.5 * np.einsum("ij,ij->i", Xs, Xs)[:, None]
    K -= 0.5 * np.einsum("ij,ij->i", Qs, Qs)
    np.minimum(K, 0.0, out=K)
    np.exp(K, out=K)
    K *= signal_variance
    return K


def ref_gp_predict_full_width(m, Q):
    """A fitted GPModel's posterior means and variances at the rows of Q,
    from one full-width product v = L^-1 k* over every query point."""
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    v = m.chol_inv @ ref_cross_kernel_gram(m.kernel.signal_variance, m.kernel.lengthscale, m.X, Q)
    mean = m.w @ v
    var = np.maximum(m.kernel.signal_variance - np.einsum("ij,ij->j", v, v), 0.0)
    return mean, var


# --- Expected improvement ----------------------------------------------------

def ref_expected_improvement(mean, std, best, xi=0.0):
    """E[max(Y - best - xi, 0)] by quadrature, Y ~ N(mean, std^2)."""
    if std == 0.0:
        return 0.0
    lo = best + xi
    hi = max(mean + 12.0 * std, lo + 12.0 * std)

    def integrand(yv):
        return (yv - lo) * math.exp(-0.5 * ((yv - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi))

    val, _ = quad(integrand, lo, hi, limit=200)
    return val


_ref_erfc = np.frompyfunc(math.erfc, 1, 1)


def ref_ei_vector_two_term(mean, std, best_so_far, xi):
    """Expected Improvement as botopt computed it before it skipped the cdf
    in the lower tail: the two-term form at every candidate, then the tail
    form (the package's own _tail_ratio, not what is checked here) written
    over it below TAIL_Z."""
    from botopt.bayesopt import TAIL_Z, _tail_ratio

    improve = mean - best_so_far - xi
    out = np.zeros_like(mean)
    pos = std > 0.0
    with np.errstate(over="ignore"):
        z = np.clip(improve[pos] / std[pos], -1e8, 1e8)
    cdf = 0.5 * _ref_erfc(-z / math.sqrt(2.0)).astype(np.float64)
    pdf = np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi)
    ei = improve[pos] * cdf + std[pos] * pdf
    tail = z < TAIL_Z
    ei[tail] = std[pos][tail] * pdf[tail] * _tail_ratio(-z[tail])
    out[pos] = ei
    return np.maximum(out, 0.0)


# --- CART splits and trees ---------------------------------------------------

def ref_gini_fraction(counts) -> Fraction:
    counts = [int(c) for c in counts]  # Python ints: numpy's overflow past 2^63
    total = sum(counts)
    return 1 - sum(Fraction(c, total) ** 2 for c in counts)


def ref_best_split(X, y, min_samples_leaf, features, n_classes):
    """Exhaustive enumeration of the partitions X[:, f] <= lo, for every pair
    lo < hi of consecutive distinct values, with exact arithmetic.

    Returns (feature, threshold, Fraction decrease, lo) or None. Ties keep
    the earliest candidate in (feature index, lo) order. The threshold is
    the midpoint lo/2 + hi/2, or lo when that midpoint rounds onto hi
    (adjacent floats), so that lo <= threshold < hi.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = len(y)
    parent = np.bincount(y, minlength=n_classes)
    g_parent = ref_gini_fraction(parent)

    best = None
    for f in sorted(features):
        values = np.unique(X[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            mask = X[:, f] <= lo
            nl = int(mask.sum())
            nr = n - nl
            if nl < min_samples_leaf or nr < min_samples_leaf:
                continue
            g_left = ref_gini_fraction(np.bincount(y[mask], minlength=n_classes))
            g_right = ref_gini_fraction(np.bincount(y[~mask], minlength=n_classes))
            dec = g_parent - Fraction(nl, n) * g_left - Fraction(nr, n) * g_right
            if best is None or dec > best[2]:
                mid = float(lo) / 2.0 + float(hi) / 2.0
                best = (f, mid if mid < hi else float(lo), dec, lo)
    if best is None or best[2] <= 0:
        return None
    return best


def ref_fit_tree(
    X, y, max_depth, min_samples_split, min_samples_leaf, n_classes,
    max_features_fraction=1.0, seed=0,
):
    """Reference grower, recursive.

    Every node that is not a leaf by depth, size or purity draws its
    candidate features, ceil(max_features_fraction * n_features) of them,
    from one generator seeded with ``seed``, in preorder (node, left
    subtree, right subtree). Nodes are plain tuples: ("leaf", counts,
    majority) and ("split", feature, threshold, left, right).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(seed)
    m_feat = math.ceil(max_features_fraction * X.shape[1])

    def grow(idx, depth):
        counts = np.bincount(y[idx], minlength=n_classes)
        majority = int(np.argmax(counts))
        leaf = ("leaf", tuple(int(c) for c in counts), majority)
        if depth >= max_depth or len(idx) < min_samples_split or counts.max() == len(idx):
            return leaf
        features = rng.choice(X.shape[1], size=m_feat, replace=False)
        found = ref_best_split(X[idx], y[idx], min_samples_leaf, features, n_classes)
        if found is None:
            return leaf
        f, thr, _, lo = found
        mask = X[idx, f] <= thr
        assert np.array_equal(mask, X[idx, f] <= lo)
        return ("split", f, thr, grow(idx[mask], depth + 1), grow(idx[~mask], depth + 1))

    return grow(np.arange(len(y)), 0)


def same_tree(node, ref_node) -> bool:
    """Structural equality between a package tree node and a reference tuple."""
    from botopt.dtree import Leaf, Split

    if isinstance(node, Leaf):
        return (
            ref_node[0] == "leaf"
            and tuple(int(c) for c in node.counts) == ref_node[1]
            and node.majority == ref_node[2]
        )
    assert isinstance(node, Split)
    return (
        ref_node[0] == "split"
        and node.feature == ref_node[1]
        and node.threshold == ref_node[2]
        and same_tree(node.left, ref_node[3])
        and same_tree(node.right, ref_node[4])
    )


# --- SMOTE -------------------------------------------------------------------

def ref_smote_points(points, k, seed, n_syn):
    """Re-derive synthetic coordinates from the documented draw protocol:
    one bulk draw of seed choices, then neighbor ranks, then lambdas."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    k_eff = max(1, min(k, n - 1))

    neighbors = []
    for i in range(n):
        others = [(float(np.sum((points[i] - points[j]) ** 2)), j) for j in range(n) if j != i]
        others.sort()
        neighbors.append([j for _, j in others[:k_eff]] or [i])

    rng = np.random.default_rng(seed)
    seed_choices = rng.integers(0, n, size=n_syn)
    ranks = rng.integers(0, k_eff, size=n_syn)
    lams = rng.random(n_syn)

    out = np.empty((n_syn, points.shape[1]))
    for i, (s, r, lam) in enumerate(zip(seed_choices, ranks, lams)):
        base = points[s]
        nb = points[neighbors[s][r]]
        out[i] = base + lam * (nb - base)
    return out


def knn_indices(points, i, k):
    """k nearest neighbors of row i (squared Euclidean, index tie-break)."""
    points = np.asarray(points, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing distance is inf, tied by index
        others = [
            (float(np.sum((points[i] - points[j]) ** 2)), j)
            for j in range(points.shape[0])
            if j != i
        ]
    others.sort()
    return [j for _, j in others[:k]]


def ref_dense_neighbors(points, k):
    """knn_indices for every row at once: the full (rows, n, n_features)
    difference tensor of a chunk of rows, the row's own column dropped, then
    a stable sort of each row's distances."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    table = np.empty((n, k), dtype=np.intp)
    for lo in range(0, n, 64):
        rows = np.arange(lo, min(lo + 64, n))
        others = np.arange(n)[None, :] != rows[:, None]
        with np.errstate(over="ignore"):
            d2 = np.sum((points[rows, None, :] - points[None, :, :]) ** 2, axis=-1)
        cols = np.broadcast_to(np.arange(n), others.shape)[others].reshape(len(rows), n - 1)
        order = np.argsort(d2[others].reshape(len(rows), n - 1), axis=1, kind="stable")
        table[rows] = np.take_along_axis(cols, order[:, :k], axis=1)
    return table


# --- PCA ---------------------------------------------------------------------

def ref_pca2(m):
    """Top-2 eigendecomposition of the sample covariance matrix."""
    m = np.asarray(m, dtype=float)
    centered = m - m.mean(axis=0)
    cov = centered.T @ centered / (m.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:2]
    comps = eigvecs[:, order].T.copy()
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return centered @ comps.T, comps, eigvals[order]


# --- Flow file ingest ---------------------------------------------------------

def ref_load_flows(
    path,
    label_column: str,
    positive_label: str,
    feature_columns: list[str] | None = None,
    negative_label: str | None = None,
) -> Dataset:
    """The csv.reader loop that read every flow file before the plain-row
    reader: one row at a time, a float() per feature cell, into the same
    Dataset."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        label_pos, feat_names, feat_pos = _ref_header_layout(
            header, label_column, feature_columns, path
        )
        n_header = len(header)

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
                _ref_raise_bad_cell(path, rownum, rec, feat_names, feat_pos)
            labels.append(label)

    if not labels:
        raise ValueError(f"{path}: no data rows")
    features = np.frombuffer(cells, dtype=np.float64).reshape(-1, len(feat_pos))
    if not np.isfinite(features).all():
        i, j = np.argwhere(~np.isfinite(features))[0]
        raise ValueError(
            f"{path}: non-finite value {float(features[i, j])} at row {i + 1}, "
            f"column {feat_names[j]!r}"
        )
    return Dataset(features, np.frombuffer(labels, dtype=np.uint8), tuple(feat_names))


def _ref_header_layout(header, label_column, feature_columns, path):
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


def _ref_raise_bad_cell(path, rownum, rec, feat_names, feat_pos):
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
