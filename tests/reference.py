"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force: dense inverses instead of
Cholesky solves, per-candidate mask counting instead of incremental scans,
exact rational arithmetic instead of floats, numerical quadrature instead of
closed forms. These functions never call into the package paths they check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad


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


# --- CART splits and trees ---------------------------------------------------

def ref_gini_fraction(counts) -> Fraction:
    total = sum(counts)
    return 1 - sum(Fraction(int(c), total) ** 2 for c in counts)


def ref_best_split(X, y, min_samples_leaf, features, n_classes):
    """Exhaustive (feature, midpoint) enumeration with exact arithmetic.

    Returns (feature, threshold, Fraction decrease) or None. Ties keep the
    earliest candidate in (feature index, threshold) order.
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
            thr = (float(lo) + float(hi)) / 2.0
            mask = X[:, f] <= thr
            nl = int(mask.sum())
            nr = n - nl
            if nl < min_samples_leaf or nr < min_samples_leaf:
                continue
            g_left = ref_gini_fraction(np.bincount(y[mask], minlength=n_classes))
            g_right = ref_gini_fraction(np.bincount(y[~mask], minlength=n_classes))
            dec = g_parent - Fraction(nl, n) * g_left - Fraction(nr, n) * g_right
            if best is None or dec > best[2]:
                best = (f, thr, dec)
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
        f, thr, _ = found
        mask = X[idx, f] <= thr
        if not 0 < int(mask.sum()) < len(idx):
            return leaf
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
