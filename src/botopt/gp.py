"""Gaussian-process regression with an RBF kernel.

Fitting follows the standard Cholesky route: factor K + noise*I = L L^T,
then alpha = (K + noise*I)^-1 y via two triangular solves. Posterior mean
at q is k*^T alpha and posterior variance is k(q,q) - ||L^-1 k*||^2. The
prior mean is zero; callers who want a non-zero prior standardize their
targets before fitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, pi

import numpy as np
from scipy.linalg import solve_triangular

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
    chol @ chol.T == K + (noise + jitter) * I."""

    X: np.ndarray
    y: np.ndarray
    kernel: KernelParams
    noise: float
    jitter: float
    chol: np.ndarray
    alpha: np.ndarray


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

    K = _rbf(p, sq)
    t = K.shape[0]
    last_err = None
    for jitter in _JITTERS:
        try:
            L = np.linalg.cholesky(K + (noise + jitter) * np.eye(t))
        except np.linalg.LinAlgError as err:
            last_err = err
            continue
        alpha = solve_triangular(L.T, solve_triangular(L, y, lower=True), lower=False)
        return GPModel(X=X, y=y, kernel=p, noise=noise, jitter=jitter, chol=L, alpha=alpha)
    raise np.linalg.LinAlgError(
        f"Cholesky factorization failed up to jitter {_JITTERS[-1]}: {last_err}"
    )


def gp_predict_batch(m: GPModel, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances at each row of Q."""
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    if Q.shape[1] != m.X.shape[1]:
        raise ValueError(f"query dimension {Q.shape[1]} does not match model dimension {m.X.shape[1]}")
    k_star = _rbf(m.kernel, _sqdist(m.X, Q))  # (t, n_query)
    mean = k_star.T @ m.alpha
    v = solve_triangular(m.chol, k_star, lower=True)
    var = np.maximum(m.kernel.signal_variance - np.sum(v * v, axis=0), 0.0)
    return mean, var


def log_marginal_likelihood(m: GPModel) -> float:
    """-1/2 y^T alpha - sum(log diag L) - t/2 log(2 pi)."""
    t = m.y.shape[0]
    return float(
        -0.5 * float(m.y @ m.alpha)
        - float(np.sum(np.log(np.diag(m.chol))))
        - 0.5 * t * log(2.0 * pi)
    )


def tune_kernel(
    X: np.ndarray, y: np.ndarray, grid: list[KernelParams], noise: float
) -> KernelParams:
    """Grid member maximizing the evidence; earliest grid order wins ties."""
    if not grid:
        raise ValueError("kernel grid is empty")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return _tune(X, y, grid, noise, _sqdist(X, X)).kernel


def _tune(X: np.ndarray, y: np.ndarray, grid: list[KernelParams], noise: float, sq: np.ndarray) -> GPModel:
    """The fitted model of tune_kernel's winner, every candidate sharing sq."""
    best: GPModel | None = None
    best_lml = -np.inf
    for cand in grid:
        try:
            model = _fit(X, y, cand, noise, sq)
        except np.linalg.LinAlgError:
            continue
        lml = log_marginal_likelihood(model)
        if lml > best_lml:
            best, best_lml = model, lml
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
