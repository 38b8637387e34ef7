"""Gaussian-process regression with an RBF kernel.

A fit is one Cholesky factorization of [[K + noise*I, y'], [y'^T, c]], with
y' = y 2^-e below 1 in magnitude and c the largest float64: the factor's
top-left block is L (L L^T = K + noise*I) and its last row is L^-1 y', so
w = L^-1 y takes no triangular solve. Posterior mean at q is v^T w and
variance k(q,q) - ||v||^2, with v = L^-1 k*. The prior mean is zero; callers
who want a non-zero prior standardize their targets before fitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, pi

import numpy as np

__all__ = [
    "KernelParams",
    "GPModel",
    "gp_fit",
    "gp_predict_batch",
    "log_marginal_likelihood",
    "tune_kernel",
    "default_kernel_grid",
]

# Diagonal jitter ladder tried after a failed factorization.
_JITTERS = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)


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
    any extra diagonal added to rescue the factorization, so
    chol @ chol.T == K + (noise + jitter) * I, and chol @ w == y for the
    fitted targets y."""

    X: np.ndarray
    kernel: KernelParams
    noise: float
    jitter: float
    chol: np.ndarray
    w: np.ndarray


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


def gp_fit(X: np.ndarray, y: np.ndarray, p: KernelParams, noise: float) -> GPModel:
    """Fit the GP; escalates diagonal jitter on Cholesky failure."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return _fit(X, y, p, noise, _sqdist(X, X))


def _fit(X: np.ndarray, y: np.ndarray, p: KernelParams, noise: float, sq: np.ndarray) -> GPModel:
    """gp_fit on a 2-D float X, given the squared distances sq between its rows."""
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} inputs but {y.shape[0]} targets")
    if X.shape[0] < 1:
        raise ValueError("need at least one observation")
    if noise < 0:
        raise ValueError(f"noise must be non-negative, got {noise}")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")

    t = y.shape[0]
    K = _rbf(p, sq)
    e = int(np.frexp(np.max(np.abs(y)))[1])  # max|y| < 2^e: |y'| < 1, so w'^T w' cannot overflow
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
        return GPModel(X=X, kernel=p, noise=noise, jitter=jitter, chol=F[:t, :t], w=np.ldexp(F[t, :t], e))
    raise np.linalg.LinAlgError(
        f"Cholesky factorization failed up to jitter {_JITTERS[-1]}: {last_err}"
    )


def gp_predict_batch(m: GPModel, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances at each row of Q."""
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    if Q.shape[1] != m.X.shape[1]:
        raise ValueError(f"query dimension {Q.shape[1]} does not match model dimension {m.X.shape[1]}")
    v = np.linalg.inv(m.chol) @ _rbf(m.kernel, _sqdist(m.X, Q))  # L^-1 k*, (t, n_query)
    mean = v.T @ m.w
    var = np.maximum(m.kernel.signal_variance - np.sum(v * v, axis=0), 0.0)
    return mean, var


def log_marginal_likelihood(m: GPModel) -> float:
    """-1/2 w^T w - sum(log diag L) - t/2 log(2 pi), where w^T w = y^T (K + noise*I)^-1 y."""
    t = m.w.shape[0]
    return float(
        -0.5 * float(m.w @ m.w)
        - float(np.sum(np.log(np.diag(m.chol))))
        - 0.5 * t * log(2.0 * pi)
    )


def tune_kernel(
    X: np.ndarray, y: np.ndarray, grid: list[KernelParams], noise: float
) -> KernelParams:
    """Grid member maximizing the evidence; earliest grid order wins ties.
    The squared distances between the rows of X are computed once and
    shared by every candidate's fit."""
    if not grid:
        raise ValueError("kernel grid is empty")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    sq = _sqdist(X, X)
    best: KernelParams | None = None
    best_lml = -np.inf
    for cand in grid:
        try:
            lml = log_marginal_likelihood(_fit(X, y, cand, noise, sq))
        except np.linalg.LinAlgError:
            continue
        if lml > best_lml:
            best, best_lml = cand, lml
    if best is None:
        raise np.linalg.LinAlgError("every kernel candidate failed to factorize")
    return best


def default_kernel_grid() -> list[KernelParams]:
    """Log-spaced grid: lengthscale 2^-4..2^4, signal variance 2^-2..2^2."""
    return [
        KernelParams(signal_variance=float(2.0**i), lengthscale=float(2.0**j))
        for j in range(-4, 5)
        for i in range(-2, 3)
    ]
