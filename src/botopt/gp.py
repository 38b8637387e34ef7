"""Gaussian-process regression with an RBF kernel.

A fit is one Cholesky factorization of [[K + noise*I, y'], [y'^T, c]], with
y' = y 2^-e below 1 in magnitude and c the largest float64: the factor's
top-left block is L (L L^T = K + noise*I) and its last row is L^-1 y', so
w = L^-1 y takes no triangular solve. The fit inverts L once and keeps only
L^-1, so a prediction is one matrix product: posterior mean at q is v^T w
and variance k(q,q) - ||v||^2, with v = L^-1 k*. The prior mean is zero;
callers who want a non-zero prior standardize their targets before fitting.

With the kernel held fixed, ``gp_extend`` adds rows to a fitted model by the
bordered Cholesky step (Rasmussen & Williams, GPML, 2006, Alg. 2.1 and
App. A.3): each new row borders L^-1 in O(t^2), where a new fit costs
O(t^3).

``tune_kernel`` maximizes the profile likelihood (GPML Sec. 5.4; Jones,
Schonlau & Welch, J. Global Optim., 1998): one factorization per candidate
lengthscale, with the signal variance in closed form.

Distances between the inputs are summed feature by feature (``_sqdist``);
the kernel between inputs and query points comes from the Gram form
|x|^2 + |q|^2 - 2 x.q (``_cross_kernel``), which rounds differently.

``gp_predict_batch`` scores query points 256 columns at a time in one
buffer of two (t, 256) blocks, instead of two (t, n_query) arrays.

For query points Q that stay fixed while a model grows, ``gp_project``
keeps V = L^-1 k(X, Q) itself, built by the same blocked loop into the first
t rows of a caller's (capacity, len(Q)) array, with its column sums of
squares. ``gp_extend`` then borders V as it borders L^-1: an input x whose
row of L is [l^T, d] adds the row (k(x, Q) - l^T V) / d, in O(t n) where a
new projection costs O(t^2 n) (the sequential Cholesky update of Osborne,
Garnett & Roberts, LION 3, 2009), and ``gp_predict_projected`` reads the
mean w^T V and the variance k(q,q) - sum v^2 off it, in O(t n) too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, log, sqrt

import numpy as np

__all__ = [
    "KernelParams",
    "GPModel",
    "gp_fit",
    "gp_extend",
    "gp_predict_batch",
    "Projection",
    "gp_project",
    "gp_predict_projected",
    "tune_kernel",
    "default_kernel_grid",
]

# Diagonal jitter ladder tried after a failed factorization.
_JITTERS = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
# Query columns per block of a prediction or projection. A multiple of 8:
# OpenBLAS sums a product's last n % 8 columns in an order that depends on its
# width n, so every full block rounds as the same columns of one full-width
# product.
_BLOCK = 256


@dataclass(frozen=True)
class KernelParams:
    signal_variance: float
    lengthscale: float

    def __post_init__(self):
        if self.signal_variance <= 0 or self.lengthscale <= 0:
            raise ValueError(
                f"kernel parameters must be strictly positive, got "
                f"signal_variance={self.signal_variance}, lengthscale={self.lengthscale}"
            )


@dataclass(frozen=True)
class GPModel:
    """Fitted GP state. noise is the requested observation noise; jitter is
    any extra diagonal added to rescue the factorization. chol_inv is L^-1,
    the inverse of the lower Cholesky factor L of K + (noise + jitter) * I,
    and w == chol_inv @ y for the fitted targets y."""

    X: np.ndarray
    kernel: KernelParams
    noise: float
    jitter: float
    chol_inv: np.ndarray
    w: np.ndarray


@dataclass
class Projection:
    """V = L^-1 k(X, Q) for a model's t inputs X and fixed query points Q:
    the first t rows of V, a (capacity, len(Q)) array the caller owns, and
    vv, the column sums of their squares. gp_project builds it, and
    gp_extend borders it in place by one row per input it adds."""

    Q: np.ndarray
    V: np.ndarray
    vv: np.ndarray
    t: int


def _sqdist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of A and B, summed feature by
    feature in column order: bit-equal to np.sum(diff**2, axis=-1) below 8
    features, without building the (len(A), len(B), d) difference tensor."""
    sq = (A[:, None, 0] - B[None, :, 0]) ** 2
    for j in range(1, A.shape[1]):
        sq += (A[:, None, j] - B[None, :, j]) ** 2
    return sq


def _rbf(p: KernelParams, sq: np.ndarray) -> np.ndarray:
    return p.signal_variance * np.exp(-sq / (2.0 * p.lengthscale**2))


def _cross_kernel(p: KernelParams, X: np.ndarray, Q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """k(X, Q) built in one (len(X), len(Q)) buffer, out if given, from the
    Gram form: with x and q in lengthscale units, -|x - q|^2 / 2 =
    x.q - |x|^2/2 - |q|^2/2, clamped at 0 where rounding leaves it above.
    Close to, not bit-equal to, _rbf(p, _sqdist(X, Q))."""
    Xs, Qs = X / p.lengthscale, Q / p.lengthscale
    K = np.matmul(Xs, Qs.T, out=out)
    K -= 0.5 * np.einsum("ij,ij->i", Xs, Xs)[:, None]
    K -= 0.5 * np.einsum("ij,ij->i", Qs, Qs)
    np.minimum(K, 0.0, out=K)
    np.exp(K, out=K)
    K *= p.signal_variance
    return K


def _targets(X: np.ndarray, y, noise: float) -> np.ndarray:
    """y as a flat float array, after the checks every fit makes."""
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} inputs but {y.shape[0]} targets")
    if X.shape[0] < 1:
        raise ValueError("need at least one observation")
    if noise < 0:
        raise ValueError(f"noise must be non-negative, got {noise}")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    return y


def _exponent(y: np.ndarray) -> int:
    """e with max|y| < 2^e, so |y 2^-e| < 1 and w'^T w' cannot overflow."""
    return int(np.frexp(np.max(np.abs(y)))[1])


def _factor(K: np.ndarray, y: np.ndarray, noise: float) -> tuple[float, np.ndarray, np.ndarray]:
    """(jitter, L, w = L^-1 y) for the kernel matrix K, escalating the
    diagonal jitter on Cholesky failure."""
    t = y.shape[0]
    e = _exponent(y)
    B = np.empty((t + 1, t + 1))
    B[:t, :t] = K
    B[t, :t] = B[:t, t] = np.ldexp(y, -e)
    B[t, t] = np.finfo(np.float64).max  # the last pivot, c - w'^T w', stays positive
    diag = np.arange(t)
    last_err = None
    for jitter in _JITTERS:
        B[diag, diag] = K[diag, diag] + (noise + jitter)
        try:
            F = np.linalg.cholesky(B)
        except np.linalg.LinAlgError as err:
            last_err = err
            continue
        return jitter, F[:t, :t], np.ldexp(F[t, :t], e)
    raise np.linalg.LinAlgError(
        f"Cholesky factorization failed up to jitter {_JITTERS[-1]}: {last_err}"
    )


def gp_fit(X: np.ndarray, y: np.ndarray, p: KernelParams, noise: float) -> GPModel:
    """Fit the GP; escalates diagonal jitter on Cholesky failure."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = _targets(X, y, noise)
    jitter, chol, w = _factor(_rbf(p, _sqdist(X, X)), y, noise)
    chol_inv = np.tril(np.linalg.inv(chol))  # inv pivots, leaving rounding above the diagonal
    return GPModel(X=X, kernel=p, noise=noise, jitter=jitter, chol_inv=chol_inv, w=w)


def gp_extend(m: GPModel, X: np.ndarray, y: np.ndarray, proj: Projection | None = None) -> GPModel:
    """gp_fit(X, y, m.kernel, m.noise) for an X whose first len(m.X) rows
    are m.X, by bordering m's L^-1 with one row per new input and keeping
    m's jitter. New targets y may differ from m's throughout. Falls back to
    gp_fit, and its jitter ladder, when a new pivot is not positive.

    A projection proj of m's inputs is bordered too, in place: the input x
    whose row of L is [l^T, d] adds the row v = (k(x, Q) - l^T V) / d to V
    and v^2 to vv. On the fallback, proj is rebuilt from the fresh fit."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    t0, t = m.X.shape[0], X.shape[0]
    if X.shape[1] != m.X.shape[1] or t < t0 or not np.array_equal(X[:t0], m.X):
        raise ValueError(f"X must start with the model's {t0} inputs")
    if proj is not None and (proj.t != t0 or proj.V.shape[0] < t):
        raise ValueError(f"projection of {proj.t} inputs in {proj.V.shape[0]} rows cannot grow from {t0} to {t}")
    y = _targets(X, y, m.noise)
    p = m.kernel
    L_inv = np.zeros((t, t))
    L_inv[:t0, :t0] = m.chol_inv
    pivot = p.signal_variance + (m.noise + m.jitter)  # the full fit's diagonal
    for r in range(t0, t):
        l = L_inv[:r, :r] @ _rbf(p, _sqdist(X[:r], X[r : r + 1]))[:, 0]
        d2 = pivot - float(l @ l)
        if not d2 > 0.0:
            fit = gp_fit(X, y, p, m.noise)
            if proj is not None:
                rebuilt = gp_project(fit, proj.Q, proj.V)
                proj.vv, proj.t = rebuilt.vv, rebuilt.t
            return fit
        d = sqrt(d2)  # L gains the row [l^T, d]
        L_inv[r, :r], L_inv[r, r] = (l @ L_inv[:r, :r]) / -d, 1.0 / d
        if proj is not None:
            v = _cross_kernel(p, X[r : r + 1], proj.Q, out=proj.V[r : r + 1])[0]
            v -= l @ proj.V[:r]
            v /= d
            proj.vv += v * v
            proj.t = r + 1
    e = _exponent(y)
    w = np.ldexp(L_inv @ np.ldexp(y, -e), e)
    return GPModel(X=X, kernel=p, noise=m.noise, jitter=m.jitter, chol_inv=L_inv, w=w)


def _queries(m: GPModel, Q) -> np.ndarray:
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    if Q.shape[1] != m.X.shape[1]:
        raise ValueError(f"query dimension {Q.shape[1]} does not match model dimension {m.X.shape[1]}")
    return Q


def _blocks(m: GPModel, Q: np.ndarray):
    """(lo, hi, v) for each block of 256 rows of Q, the last one what is
    left: k* and v = L^-1 k* of a block of b rows fill the first 2 t b
    floats of one buffer, which the next block overwrites."""
    t, n = m.X.shape[0], Q.shape[0]
    buf = np.empty(2 * t * min(n, _BLOCK))
    for lo in range(0, n, _BLOCK):
        b = min(_BLOCK, n - lo)
        # contiguous (t, b) views: a strided view of a wider block rounds differently
        k = _cross_kernel(m.kernel, m.X, Q[lo : lo + b], out=buf[: t * b].reshape(t, b))
        yield lo, lo + b, np.matmul(m.chol_inv, k, out=buf[t * b : 2 * t * b].reshape(t, b))


def gp_predict_batch(m: GPModel, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances at each row of Q, 256 rows at a time.
    Bit-equal to one full-width product if len(Q) is a multiple of 8 or at
    most 256; else its last len(Q) % 8 results can differ in rounding, as
    that product's own do between BLAS thread counts."""
    Q = _queries(m, Q)
    mean, var = np.empty(Q.shape[0]), np.empty(Q.shape[0])
    for lo, hi, v in _blocks(m, Q):
        np.matmul(m.w, v, out=mean[lo:hi])
        np.einsum("ij,ij->j", v, v, out=var[lo:hi])
    np.subtract(m.kernel.signal_variance, var, out=var)
    return mean, np.maximum(var, 0.0, out=var)


def gp_project(m: GPModel, Q: np.ndarray, out: np.ndarray) -> Projection:
    """The projection of the query points Q under m, block by block as
    gp_predict_batch computes it, in the first len(m.X) rows of out, a
    (capacity, len(Q)) float64 array that gp_extend can grow it into."""
    Q = _queries(m, Q)
    t, n = m.X.shape[0], Q.shape[0]
    if out.ndim != 2 or out.shape[0] < t or out.shape[1] != n:
        raise ValueError(f"out must have at least {t} rows of {n} columns, got {out.shape}")
    vv = np.empty(n)
    for lo, hi, v in _blocks(m, Q):
        out[:t, lo:hi] = v
        np.einsum("ij,ij->j", v, v, out=vv[lo:hi])
    return Projection(Q=Q, V=out, vv=vv, t=t)


def gp_predict_projected(m: GPModel, proj: Projection) -> tuple[np.ndarray, np.ndarray]:
    """gp_predict_batch(m, proj.Q) read off proj in O(t n): the means w^T V
    and the variances s - vv. proj must be m's own projection: built by
    gp_project for m, or grown to m's inputs by gp_extend."""
    t = m.X.shape[0]
    if proj.t != t:
        raise ValueError(f"projection holds {proj.t} inputs, the model {t}")
    var = np.subtract(m.kernel.signal_variance, proj.vv)
    return m.w @ proj.V[:t], np.maximum(var, 0.0, out=var)


def tune_kernel(X: np.ndarray, y: np.ndarray, grid: list[float], noise: float) -> KernelParams:
    """KernelParams(s, l) with the highest evidence over the lengthscales l
    in grid, the signal variance s profiled out: with K = s (R + g I), R the
    unit-variance kernel and g = noise a nugget relative to s, the evidence
    peaks at s = y^T (R + g I)^-1 y / t = w.w / t (1 for all-zero targets),
    where it is -t/2 log s - sum(log diag L) up to a constant. One
    factorization of R + g I per lengthscale; the earliest lengthscale wins
    ties, and one whose factorization fails is skipped. Raises ValueError
    when s overflows float64: the targets are too large to model."""
    if not grid:
        raise ValueError("kernel grid is empty")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = _targets(X, y, noise)
    t = y.shape[0]
    sq = _sqdist(X, X)
    best, best_score = None, -np.inf
    with np.errstate(over="ignore"):  # an overflow leaves s = inf, which raises below
        for lengthscale in grid:
            try:
                _, chol, w = _factor(_rbf(KernelParams(1.0, lengthscale), sq), y, noise)
            except np.linalg.LinAlgError:
                continue
            s = float(w @ w) / t or 1.0  # all-zero targets leave s free; 1 keeps it positive
            if not isfinite(s):
                raise ValueError("the targets' scale is not representable: s overflows float64")
            score = -0.5 * t * log(s) - float(np.sum(np.log(np.diag(chol))))
            if score > best_score:
                best, best_score = KernelParams(s, lengthscale), score
    if best is None:
        raise np.linalg.LinAlgError("every kernel candidate failed to factorize")
    return best


def default_kernel_grid() -> list[float]:
    """The lengthscales tune_kernel searches: 2^-4..2^4, log-spaced."""
    return [float(2.0**j) for j in range(-4, 5)]
