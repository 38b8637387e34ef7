"""Sequential model-based search over a bounded hyperparameter space.

The loop is standard: a seeded Latin-hypercube design seeds the surrogate,
then each iteration fits a GP to all observations (targets standardized to
zero mean and unit variance), maximizes Expected Improvement over a cloud
of uniform random candidates in the unit cube, and evaluates the winner.
The GP is used through its public calls only, at the observation noise
DEFAULT_NOISE. On the first proposal step and every RETUNE_EVERY steps
after it (a re-tune), ``tune_kernel`` picks the lengthscale by the profile
likelihood, with the signal variance in closed form, ``gp_fit`` factorizes
afresh with that kernel, a fresh candidate cloud is drawn, and
``gp_project`` computes the candidates' V = L^-1 k(X, C) in O(t^2 n) into
one (budget, n_candidates) array allocated once per search (1.6 MB at 200
trials and 1,000 candidates). The cloud stays fixed until the next
re-tune: on the steps in between, ``gp_extend`` borders the last model's
factor and V by the one new trial, in O(t^2 + t n), so at most
RETUNE_EVERY - 1 bordered rows pile up before the next fresh
factorization, and each step scores the candidates off V in O(t n).
Integer dimensions are optimized continuously and rounded at evaluation
time; rounded configurations are cached so a duplicate proposal never
re-runs the objective.

Everything is deterministic given (space, budget, n_init, seed, objective):
per-stage generators are derived from the seed, and candidate scoring ties
resolve to the earliest candidate.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .gp import (
    GPModel,
    default_kernel_grid,
    gp_extend,
    gp_fit,
    gp_predict_batch,
    gp_predict_projected,
    gp_project,
    tune_kernel,
)

__all__ = [
    "Dim",
    "SearchSpace",
    "Trial",
    "Trace",
    "propose_next",
    "optimize",
    "write_trace",
    "default_dt_space",
]

DEFAULT_XI = 0.01
DEFAULT_CANDIDATES = 1000
DEFAULT_NOISE = 1e-6
RETUNE_EVERY = 5
_erfc = np.frompyfunc(math.erfc, 1, 1)  # numpy has no erfc
TAIL_Z = -2.5  # EI below this z comes from _tail_ratio
TAIL_TERMS = 80


@dataclass(frozen=True)
class Dim:
    name: str
    kind: str  # "integer" | "continuous"
    lower: float
    upper: float

    def __post_init__(self):
        if self.kind not in ("integer", "continuous"):
            raise ValueError(f"{self.name}: unknown dimension kind {self.kind!r}")
        for side, bound in (("lower", self.lower), ("upper", self.upper)):
            if isinstance(bound, bool) or not isinstance(bound, numbers.Real) or not math.isfinite(bound):
                raise ValueError(f"{self.name}: {side} bound {bound!r} is not a finite number")
        if not self.lower < self.upper:
            raise ValueError(f"{self.name}: lower bound {self.lower} must be < upper {self.upper}")
        if self.kind == "integer" and (self.lower != int(self.lower) or self.upper != int(self.upper)):
            raise ValueError(f"{self.name}: integer dimension needs integer bounds")


@dataclass(frozen=True)
class SearchSpace:
    dims: tuple[Dim, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        if not self.dims:
            raise ValueError("search space has no dimensions")
        # a trial's config is keyed by name, so a repeated name would hide a dimension
        names = self.names
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"search space names {name!r} twice")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dims)


@dataclass(frozen=True)
class Trial:
    config: dict
    objective: float
    index: int
    failed: bool = False
    error: str = ""  # "ExceptionType: message" of a failed trial


@dataclass(frozen=True)
class Trace:
    trials: tuple[Trial, ...]
    best: Trial = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "trials", tuple(self.trials))
        if not self.trials:
            raise ValueError("trace has no trials")
        best = self.trials[0]
        for t in self.trials[1:]:
            if t.objective > best.objective:
                best = t
        object.__setattr__(self, "best", best)


def _ei_vector(mean: np.ndarray, std: np.ndarray, best_so_far: float, xi: float) -> np.ndarray:
    """E[max(Y - best_so_far - xi, 0)] for Y ~ N(mean, std^2), for each
    (mean, std) pair; 0 where std = 0. The cdf is computed only at z >= TAIL_Z."""
    improve = mean - best_so_far - xi
    out = np.zeros_like(mean)
    pos = std > 0.0
    with np.errstate(over="ignore"):  # a tiny std overflows to +-inf, which the clip takes
        z = np.clip(improve[pos] / std[pos], -1e8, 1e8)  # cdf/pdf are exactly 0/1 out here
    ei = std[pos] * (np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi))  # std * pdf
    tail = z < TAIL_Z
    ei[tail] *= _tail_ratio(-z[tail])
    body = ~tail
    ei[body] += improve[pos][body] * (0.5 * _erfc(-z[body] / math.sqrt(2.0)).astype(np.float64))  # improve * cdf
    out[pos] = ei
    return np.maximum(out, 0.0)


def _tail_ratio(t: np.ndarray) -> np.ndarray:
    """(pdf(t) - t * (1 - cdf(t))) / pdf(t) for t >= -TAIL_Z, the lower-tail
    EI over std * pdf(z) at z = -t.

    Below TAIL_Z, z * cdf(z) + pdf(z) is a difference of terms about t^2
    times larger than itself, and the rounding of z inside erfc and exp
    grows with t as well: at z = -21 the two-term form is off by 3e-11
    relative and can fall when the mean rises. Laplace's continued fraction
    for the Mills ratio, (1 - cdf(t)) / pdf(t) = 1/(t + k) with
    k = 1/(t + 2/(t + 3/(t + ...))), gives the ratio as k / (t + k), with no
    subtraction; TAIL_TERMS terms reach full double precision from TAIL_Z on.
    """
    rest = np.zeros_like(t)
    for n in range(TAIL_TERMS, 1, -1):
        rest = n / (t + rest)
    k = 1.0 / (t + rest)
    return k / (t + k)


def _to_native(space: SearchSpace, u: np.ndarray) -> dict:
    """Map a unit-cube point to native bounds; integer dims round half-up."""
    config = {}
    for dim, ui in zip(space.dims, u):
        raw = dim.lower + float(ui) * (dim.upper - dim.lower)
        if dim.kind == "integer":
            val = int(np.floor(raw + 0.5))
            config[dim.name] = int(min(max(val, dim.lower), dim.upper))
        else:
            config[dim.name] = float(min(max(raw, dim.lower), dim.upper))
    return config


def _to_unit(space: SearchSpace, config: dict) -> np.ndarray:
    return np.array(
        [(config[d.name] - d.lower) / (d.upper - d.lower) for d in space.dims],
        dtype=np.float64,
    )


def _key(space: SearchSpace, config: dict) -> tuple:
    return tuple(config[d.name] for d in space.dims)


def latin_hypercube(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n stratified points in the unit cube, one per stratum per dimension."""
    u = np.empty((n, d))
    for j in range(d):
        u[:, j] = (rng.permutation(n) + rng.random(n)) / n
    return u


def propose_next(
    m: GPModel,
    space: SearchSpace,
    best_so_far: float,
    seed: int,
    n_candidates: int = DEFAULT_CANDIDATES,
    xi: float = DEFAULT_XI,
) -> dict:
    """EI-argmax over seeded uniform candidates, mapped back to native bounds.

    best_so_far must live in the same target space as the model (here: the
    standardized objective). Ties go to the earliest candidate drawn.
    """
    if n_candidates < 1:
        raise ValueError(f"need n_candidates >= 1, got n_candidates={n_candidates}")
    cands = np.random.default_rng(seed).random((n_candidates, len(space.dims)))
    mean, var = gp_predict_batch(m, cands)
    return _ei_argmax(space, cands, mean, var, best_so_far, xi)


def _ei_argmax(space: SearchSpace, cands: np.ndarray, mean, var, best_so_far: float, xi: float) -> dict:
    """The candidate of highest EI, the earliest on ties, in native bounds."""
    ei = _ei_vector(mean, np.sqrt(var), best_so_far, xi)
    return _to_native(space, cands[int(np.argmax(ei))])


def optimize(
    objective,
    space: SearchSpace,
    budget: int,
    n_init: int | None = None,
    seed: int = 0,
    n_candidates: int = DEFAULT_CANDIDATES,
) -> Trace:
    """Maximize objective(config) over the space within an evaluation budget.

    The first n_init trials (default max(5, 2 * dims), capped at the
    budget) come from a Latin hypercube; each of the rest is the EI-argmax
    over n_candidates uniform candidates, drawn on the re-tune step (with
    the seed propose_next would get on that step) and kept until the next
    one, scored off their projection V (see the module docstring). A
    proposal whose rounded config was already evaluated is replaced by one
    fresh uniform candidate; if that also repeats, the trial is recorded
    with the cached objective and the objective is not called again. A
    raising objective records a failed trial at one unit below the worst
    value seen so far, with the exception's type and message as its error,
    and the loop keeps going.
    """
    d = len(space.dims)
    if n_init is None:
        n_init = min(budget, max(5, 2 * d))
    if not budget >= n_init >= 1:
        raise ValueError(f"need budget >= n_init >= 1, got budget={budget}, n_init={n_init}")
    if n_candidates < 1:
        raise ValueError(f"need n_candidates >= 1, got n_candidates={n_candidates}")

    init_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    sub_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))

    trials: list[Trial] = []
    units = np.empty((budget, d))
    cache: dict[tuple, tuple[float, bool, str]] = {}

    def record(config: dict, index: int) -> None:
        key = _key(space, config)
        if key not in cache:
            try:
                cache[key] = (float(objective(config)), False, "")
            except Exception as err:
                worst = min((t.objective for t in trials), default=0.0)
                cache[key] = (worst - 1.0, True, f"{type(err).__name__}: {err}")
        value, failed, error = cache[key]
        trials.append(Trial(config=config, objective=value, index=index, failed=failed, error=error))
        units[index] = _to_unit(space, config)  # index == number of earlier trials

    for i, u in enumerate(latin_hypercube(n_init, d, init_rng)):
        record(_to_native(space, u), i)

    V = np.empty((budget, n_candidates))  # L^-1 k(X, C), one row per trial in the model
    for i in range(n_init, budget):
        y = np.array([t.objective for t in trials])
        sigma = float(np.std(y))
        y_std = (y - float(np.mean(y))) / (sigma if sigma > 0 else 1.0)
        if (i - n_init) % RETUNE_EVERY == 0:  # true on the first proposal step
            kernel = tune_kernel(units[:i], y_std, default_kernel_grid(), DEFAULT_NOISE)
            model = gp_fit(units[:i], y_std, kernel, DEFAULT_NOISE)
            prop_seed = int(np.random.SeedSequence([seed, 1, i]).generate_state(1)[0])
            proj = gp_project(model, np.random.default_rng(prop_seed).random((n_candidates, d)), V)
        else:  # same kernel and candidates, one more row, new standardized targets
            model = gp_extend(model, units[:i], y_std, proj)

        mean, var = gp_predict_projected(model, proj)
        config = _ei_argmax(space, proj.Q, mean, var, float(y_std.max()), DEFAULT_XI)
        if _key(space, config) in cache:
            config = _to_native(space, sub_rng.random(d))
        record(config, i)

    return Trace(trials=tuple(trials))


def write_trace(trace: Trace, path, space: SearchSpace) -> None:
    """Trial-per-row delimited export: index, config in ``space``'s order,
    objective, running best."""
    names = space.names
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", *names, "objective", "running_best", "failed"])
        running = -np.inf
        for t in trace.trials:
            running = max(running, t.objective)
            writer.writerow(
                [t.index, *[repr(t.config[n]) for n in names], repr(t.objective), repr(running), int(t.failed)]
            )


def default_dt_space() -> SearchSpace:
    """Decision-tree hyperparameter box used by the detection pipeline."""
    return SearchSpace(
        dims=(
            Dim("max_depth", "integer", 1, 50),
            Dim("min_samples_split", "integer", 2, 100),
            Dim("min_samples_leaf", "integer", 1, 50),
            Dim("max_features_fraction", "continuous", 0.05, 1.0),
        )
    )
