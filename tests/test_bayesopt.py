import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import botopt
from botopt.bayesopt import (
    DEFAULT_XI,
    Dim,
    SearchSpace,
    Trace,
    Trial,
    RETUNE_EVERY,
    TAIL_Z,
    _ei_vector,
    _key,
    _to_native,
    default_dt_space,
    latin_hypercube,
    optimize,
    propose_next,
    write_trace,
)
from botopt.gp import (
    KernelParams,
    default_kernel_grid,
    gp_extend,
    gp_fit,
    gp_predict_projected,
    gp_project,
    tune_kernel,
)

from reference import ref_ei_vector_two_term, ref_expected_improvement, ref_gp_predict

SPACE_1D = SearchSpace((Dim("x", "continuous", 0.0, 1.0),))


def parabola(config):
    return -((config["x"] - 0.3) ** 2)


# --- expected improvement ----------------------------------------------------

def expected_improvement(mean, std, best_so_far, xi=0.0):
    """_ei_vector at one (mean, std) pair."""
    return float(_ei_vector(np.array([mean]), np.array([std]), best_so_far, xi)[0])


def test_ei_zero_std_is_zero():
    assert expected_improvement(5.0, 0.0, -1.0) == 0.0
    assert expected_improvement(-5.0, 0.0, -1.0) == 0.0


def test_ei_at_incumbent_equals_standard_normal_density():
    assert expected_improvement(0.0, 1.0, 0.0, xi=0.0) == pytest.approx(
        1.0 / math.sqrt(2 * math.pi), abs=1e-10
    )


def test_ei_certain_improvement():
    val = expected_improvement(7.0, 0.5, 2.0, xi=0.0)
    assert val == pytest.approx(5.0, abs=1e-6)  # mean - best, 10 sigmas above


@pytest.mark.parametrize("mean,std,best,xi", [
    (0.3, 0.8, 0.5, 0.0),
    (1.2, 0.1, 1.0, 0.01),
    (-0.4, 2.0, 0.9, 0.05),
    (0.0, 1.0, 3.0, 0.0),
])
def test_ei_matches_quadrature_oracle(mean, std, best, xi):
    assert expected_improvement(mean, std, best, xi) == pytest.approx(
        ref_expected_improvement(mean, std, best, xi), abs=1e-9
    )


@settings(max_examples=80, deadline=None)
@given(
    mean=st.floats(-100, 100),
    std=st.floats(0, 50),
    best=st.floats(-100, 100),
    xi=st.floats(0, 1),
)
def test_ei_nonnegative(mean, std, best, xi):
    assert expected_improvement(mean, std, best, xi) >= 0.0


@settings(max_examples=80, deadline=None)
@given(
    means=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
    std=st.floats(1e-6, 20),
    best=st.floats(-50, 50),
)
def test_ei_nondecreasing_in_mean(means, std, best):
    lo, hi = sorted(means)
    assert expected_improvement(hi, std, best) >= expected_improvement(lo, std, best)


def test_ei_lower_tail_is_accurate_and_rises_with_the_mean():
    # z * cdf(z) + pdf(z) cancels below TAIL_Z: at z = -21 it was off by
    # 1e-11 relative and fell as the mean rose by 2e-14
    from scipy.integrate import quad
    from scipy.special import ndtr

    assert expected_improvement(2.04833823564852e-14, 1.0, 21.0) >= expected_improvement(0.0, 1.0, 21.0)
    for z in (-3.0, -8.0, -21.0, -30.0):
        # E[max(Y, 0)] for Y ~ N(z, 1) is the integral of P(Y > s) over s > 0
        ref, _ = quad(lambda s: ndtr(-s), -z, np.inf, epsabs=0.0, epsrel=1e-13)
        assert expected_improvement(z, 1.0, 0.0) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_ei_vector_equals_scipy_normal_formula():
    # the cdf comes from libm's erfc, not scipy's ndtr: equal to a few ulps
    # relative, out to the +-1e8 clip, and exactly 0 at std = 0
    from scipy.stats import norm

    rng = np.random.default_rng(0)
    mean = np.concatenate([rng.normal(0, 3, 5000), [1e9, -1e9, 40.0, -40.0, 0.0]])
    std = np.concatenate([np.abs(rng.normal(0, 2, 5000)), [1e-9, 1e-9, 1.0, 1.0, 0.0]])
    std[::50] = 0.0
    improve = mean - 0.3 - 0.01
    pos = std > 0.0
    z = np.clip(improve[pos] / std[pos], -1e8, 1e8)
    expected = np.zeros_like(mean)
    expected[pos] = improve[pos] * norm.cdf(z) + std[pos] * norm.pdf(z)
    ei = _ei_vector(mean, std, 0.3, 0.01)
    np.testing.assert_allclose(ei, np.maximum(expected, 0.0), rtol=1e-9, atol=0.0)
    assert np.all(ei[~pos] == 0.0)


def _ei_draws(rng, draws):
    """(mean, std, best, xi) vectors: mixed, all in the lower tail, none in
    it, and with zero, subnormal and tiny stds among normal ones."""
    for k in range(draws):
        n = int(rng.integers(1, 40))
        mean = rng.normal(0.0, 3.0, n)
        std = np.abs(rng.normal(0.0, 2.0, n))
        kind = k % 4
        if kind == 1:  # all in the lower tail
            mean = -np.abs(mean) - 3.0 * std - 1.0
        elif kind == 2:  # none in it
            mean = np.abs(mean) + 3.0
        elif kind == 3:
            std[rng.random(n) < 0.3] = 0.0
            std[rng.random(n) < 0.2] = rng.choice([5e-324, 1e-300, 1e-200, 1e-12], size=1)
        yield mean, std, float(rng.normal(0.0, 1.0)), float(rng.choice([0.0, 0.01, 0.3]))


def test_ei_vector_equals_the_two_term_form_bit_for_bit():
    # skipping the cdf in the lower tail leaves every value as it was: the
    # tail takes std * pdf times the same ratio, the rest adds the same two
    # terms in the other order
    rng = np.random.default_rng(29)
    kinds = set()
    for mean, std, best, xi in _ei_draws(rng, 3000):
        ei = _ei_vector(mean, std, best, xi)
        assert ei.tobytes() == ref_ei_vector_two_term(mean, std, best, xi).tobytes()
        with np.errstate(over="ignore"):
            z = (mean - best - xi)[std > 0] / std[std > 0]
        kinds.add((bool(np.all(z < TAIL_Z)), bool(np.all(z >= TAIL_Z)), bool(np.any(std == 0.0))))
    assert {(True, False, False), (False, True, False), (False, False, True)} <= kinds


def test_ei_vector_takes_the_cdf_only_outside_the_lower_tail(monkeypatch):
    erfc, erfc_args = botopt.bayesopt._erfc, []

    def counting(x):
        erfc_args.append(len(x))
        return erfc(x)

    monkeypatch.setattr(botopt.bayesopt, "_erfc", counting)
    rng = np.random.default_rng(31)
    for mean, std, best, xi in _ei_draws(rng, 200):
        erfc_args.clear()
        _ei_vector(mean, std, best, xi)
        pos = std > 0
        with np.errstate(over="ignore"):
            z = np.clip((mean - best - xi)[pos] / std[pos], -1e8, 1e8)
        assert sum(erfc_args) == np.count_nonzero(z >= TAIL_Z)


def test_importing_botopt_loads_no_scipy():
    # botopt's runtime is numpy only; scipy is a test dependency
    src = str(Path(botopt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, botopt, botopt.cli; "
        "sys.exit(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')) or None)"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_search_traces_do_not_depend_on_the_blas_thread_count():
    # a prediction's last n % 8 columns may round differently under one and
    # two BLAS threads; the searches' trials must not
    src = str(Path(botopt.__file__).resolve().parents[1])
    code = (
        "from botopt.bayesopt import default_dt_space, optimize\n"
        "def objective(c):\n"
        "    return -abs(c['max_depth'] - 17) / 9 - c['min_samples_leaf'] / 50 + c['max_features_fraction'] / 3\n"
        "for n in (257, 500, 1000):\n"
        "    print(repr(optimize(objective, default_dt_space(), budget=40, seed=0, n_candidates=n).trials))\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


# --- propose_next ------------------------------------------------------------

def fitted_bump_model():
    X = np.array([[0.0], [0.5], [1.0]])
    y = np.array([0.0, 1.0, 0.0])
    return gp_fit(X, y, KernelParams(1.0, 0.25), noise=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_proposal_respects_bounds_and_integrality(seed):
    model = gp_fit(
        np.array([[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]]), np.array([0.1, 0.4]),
        KernelParams(1.0, 0.5), 1e-6,
    )
    space = SearchSpace((
        Dim("depth", "integer", 1, 50),
        Dim("leaf", "integer", 1, 10),
        Dim("frac", "continuous", 0.05, 1.0),
    ))
    config = propose_next(model, space, 0.4, seed)
    assert 1 <= config["depth"] <= 50 and isinstance(config["depth"], int)
    assert 1 <= config["leaf"] <= 10 and isinstance(config["leaf"], int)
    assert 0.05 <= config["frac"] <= 1.0


def test_proposal_deterministic():
    model = fitted_bump_model()
    a = propose_next(model, SPACE_1D, 1.0, seed=42)
    b = propose_next(model, SPACE_1D, 1.0, seed=42)
    assert a == b


@pytest.mark.parametrize("n_candidates", [0, -2])
def test_proposal_rejects_no_candidates(n_candidates):
    with pytest.raises(ValueError, match=rf"^need n_candidates >= 1, got n_candidates={n_candidates}$"):
        propose_next(fitted_bump_model(), SPACE_1D, 1.0, seed=0, n_candidates=n_candidates)


def test_proposal_ei_close_to_dense_grid_maximum():
    model = fitted_bump_model()
    best = 1.0
    X = np.array([[0.0], [0.5], [1.0]])
    y = np.array([0.0, 1.0, 0.0])

    def oracle_ei(x):
        mean, var = ref_gp_predict(X, y, 1.0, 0.25, 1e-6, [x])
        return expected_improvement(mean, math.sqrt(max(var, 0.0)), best, xi=0.01)

    grid = np.linspace(0.0, 1.0, 10_001)
    grid_ei = np.array([oracle_ei(x) for x in grid])
    ei_star = float(grid_ei.max())
    x_star = float(grid[np.argmax(grid_ei)])
    # worst EI inside the sampling-gap window around the optimum bounds the
    # loss a 1000-candidate uniform draw can suffer
    window = np.abs(grid - x_star) <= 0.01
    tol = ei_star - float(grid_ei[window].min())

    config = propose_next(model, SPACE_1D, best, seed=5, n_candidates=1000)
    assert oracle_ei(config["x"]) >= ei_star - tol - 1e-12


# --- optimize ----------------------------------------------------------------

def test_optimize_finds_parabola_peak():
    trace = optimize(parabola, SPACE_1D, budget=20, n_init=5, seed=0)
    assert abs(trace.best.config["x"] - 0.3) <= 0.05
    assert len(trace.trials) == 20


def test_budget_equals_n_init_is_pure_initial_design():
    calls = []

    def objective(config):
        calls.append(config)
        return parabola(config)

    trace = optimize(objective, SPACE_1D, budget=5, n_init=5, seed=3)
    assert len(trace.trials) == 5 and len(calls) == 5
    for t in trace.trials:
        assert 0.0 <= t.config["x"] <= 1.0


def test_constant_objective_completes_and_keeps_first_best():
    trace = optimize(lambda c: 1.25, SPACE_1D, budget=10, n_init=4, seed=1)
    assert trace.best.index == 0
    assert all(t.objective == 1.25 for t in trace.trials)


def test_failing_objective_gets_penalty_and_loop_continues():
    def objective(config):
        if config["x"] > 0.5:
            raise RuntimeError("boom")
        return config["x"]

    trace = optimize(objective, SPACE_1D, budget=12, n_init=6, seed=2)
    assert len(trace.trials) == 12
    failed = [t for t in trace.trials if t.failed]
    ok = [t for t in trace.trials if not t.failed]
    assert failed and ok
    assert not trace.best.failed
    worst_ok = min(t.objective for t in ok)
    assert all(t.objective < worst_ok for t in failed)
    assert all(t.error == "RuntimeError: boom" for t in failed)
    assert all(t.error == "" for t in ok)


def test_always_failing_objective_records_every_trial():
    def objective(config):
        raise ValueError("nope")

    trace = optimize(objective, SPACE_1D, budget=6, n_init=3, seed=4)
    assert len(trace.trials) == 6
    assert all(t.failed for t in trace.trials)
    assert trace.trials[0].objective == -1.0  # one below the 0.0 default
    # cache hits of a failed config carry the same text
    assert [t.error for t in trace.trials] == ["ValueError: nope"] * 6


def test_duplicates_use_cache_instead_of_reevaluating():
    calls = []

    def objective(config):
        calls.append(config["flag"])
        return float(config["flag"])

    space = SearchSpace((Dim("flag", "integer", 0, 1),))
    trace = optimize(objective, space, budget=8, n_init=2, seed=0)
    assert len(trace.trials) == 8
    assert len(calls) <= 2  # two possible configs, objective never re-runs
    assert trace.best.objective == 1.0


def test_optimize_equals_unshared_surrogate_loop():
    # optimize's loop rebuilt from the public GP calls, with the unit points
    # rebuilt from the trial configs on every step: candidates drawn on each
    # re-tune step and projected afresh, then bordered by one row per extend
    # step, in a buffer of this loop's own
    space, budget, seed, noise, n_candidates = default_dt_space(), 45, 3, 1e-6, 1000

    def objective(config):
        if config["max_depth"] > 40:
            raise ArithmeticError(f"depth {config['max_depth']}")
        return -abs(config["max_depth"] - 12) - config["min_samples_leaf"] / 7 + config["max_features_fraction"]

    d = len(space.dims)
    n_init = max(5, 2 * d)
    init_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    sub_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    trials, cache = [], {}

    def record(config, index):
        key = _key(space, config)
        if key not in cache:
            try:
                cache[key] = (float(objective(config)), False, "")
            except Exception as err:
                worst = min((t.objective for t in trials), default=0.0)
                cache[key] = (worst - 1.0, True, f"{type(err).__name__}: {err}")
        value, failed, error = cache[key]
        trials.append(Trial(config, value, index, failed, error))

    for i, u in enumerate(latin_hypercube(n_init, d, init_rng)):
        record(_to_native(space, u), i)
    V = np.full((budget, n_candidates), np.nan)
    for i in range(n_init, budget):
        U = np.array([[(t.config[m.name] - m.lower) / (m.upper - m.lower) for m in space.dims] for t in trials])
        y = np.array([t.objective for t in trials])
        y_std = (y - np.mean(y)) / (np.std(y) or 1.0)
        if (i - n_init) % RETUNE_EVERY == 0:
            kp = tune_kernel(U, y_std, default_kernel_grid(), noise)
            model = gp_fit(U, y_std, kp, noise)
            prop_seed = int(np.random.SeedSequence([seed, 1, i]).generate_state(1)[0])
            cands = np.random.default_rng(prop_seed).random((n_candidates, d))
            proj = gp_project(model, cands, V)
        else:
            model = gp_extend(model, U, y_std, proj)
        assert proj.t == i and not np.isnan(V[:i]).any() and np.isnan(V[i:]).all()
        mean, var = gp_predict_projected(model, proj)
        ei = _ei_vector(mean, np.sqrt(var), float(y_std.max()), DEFAULT_XI)
        config = _to_native(space, cands[int(np.argmax(ei))])
        if _key(space, config) in cache:
            config = _to_native(space, sub_rng.random(d))
        record(config, i)

    trace = optimize(objective, space, budget=budget, seed=seed, n_candidates=n_candidates)
    assert any(t.failed for t in trials) and not all(t.failed for t in trials)
    assert trace.trials == tuple(trials)


@pytest.mark.parametrize("budget, n_init", [(23, 5), (20, 5), (6, 5), (5, 5)])
def test_optimize_fits_every_step_and_retunes_every_retune_every(monkeypatch, budget, n_init):
    # a fresh fit (and the only inverse of L) on re-tune steps, a bordered
    # extension of the last model on every other step
    fits, tunes, extends, inverses = [], [], [], []

    def counting(calls, fn):
        def wrapped(X, *args):
            calls.append(len(X))  # the step: one row per earlier trial
            return fn(X, *args)
        return wrapped

    def counting_extend(m, X, y, *proj):
        extends.append((len(m.X), len(X)))
        return gp_extend(m, X, y, *proj)

    monkeypatch.setattr(botopt.bayesopt, "gp_fit", counting(fits, gp_fit))
    monkeypatch.setattr(botopt.bayesopt, "tune_kernel", counting(tunes, tune_kernel))
    monkeypatch.setattr(botopt.bayesopt, "gp_extend", counting_extend)
    monkeypatch.setattr(np.linalg, "inv", counting(inverses, np.linalg.inv))
    optimize(parabola, SPACE_1D, budget=budget, n_init=n_init, seed=2)
    retunes = list(range(n_init, budget, RETUNE_EVERY))  # ceil((budget - n_init) / RETUNE_EVERY) steps
    assert tunes == fits == inverses == retunes
    assert extends == [(i - 1, i) for i in range(n_init, budget) if i not in retunes]


def test_optimize_deterministic():
    def run():
        return optimize(parabola, SPACE_1D, budget=14, n_init=5, seed=11)

    a, b = run(), run()
    assert [t.config for t in a.trials] == [t.config for t in b.trials]
    assert [t.objective for t in a.trials] == [t.objective for t in b.trials]
    assert a.best.index == b.best.index


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_running_best_nondecreasing_and_bounds_respected(seed):
    space = SearchSpace((
        Dim("k", "integer", 1, 7),
        Dim("x", "continuous", 0.0, 1.0),
    ))

    def objective(config):
        return -((config["x"] - 0.3) ** 2) - (config["k"] - 3) ** 2 / 10.0

    trace = optimize(objective, space, budget=15, n_init=6, seed=seed)
    running = -np.inf
    seen_best = []
    for t in trace.trials:
        assert 1 <= t.config["k"] <= 7 and isinstance(t.config["k"], int)
        assert 0.0 <= t.config["x"] <= 1.0
        running = max(running, t.objective)
        seen_best.append(running)
    assert all(a <= b for a, b in zip(seen_best, seen_best[1:]))
    assert trace.best.objective == running


def test_optimize_validates_budget():
    with pytest.raises(ValueError, match="budget >= n_init"):
        optimize(parabola, SPACE_1D, budget=3, n_init=5, seed=0)


def test_optimize_caps_the_default_design_at_the_budget():
    # the default space's default design is max(5, 2 * 4) = 8 trials
    space = default_dt_space()
    trace = optimize(lambda c: c["max_features_fraction"], space, budget=3, seed=0)
    init_rng = np.random.default_rng(np.random.SeedSequence([0, 0]))
    assert [t.config for t in trace.trials] == [_to_native(space, u) for u in latin_hypercube(3, 4, init_rng)]


def test_optimize_rejects_no_candidates_before_any_trial():
    calls = []

    def objective(config):
        calls.append(config)
        return parabola(config)

    with pytest.raises(ValueError, match=r"^need n_candidates >= 1, got n_candidates=0$"):
        optimize(objective, SPACE_1D, budget=6, n_init=3, seed=0, n_candidates=0)
    assert calls == []


def test_trace_best_breaks_ties_earliest():
    trials = (
        Trial({"x": 0.1}, 1.0, 0),
        Trial({"x": 0.2}, 2.0, 1),
        Trial({"x": 0.3}, 2.0, 2),
    )
    assert Trace(trials).best.index == 1


def test_latin_hypercube_stratification():
    rng = np.random.default_rng(0)
    u = latin_hypercube(8, 3, rng)
    assert u.shape == (8, 3)
    for j in range(3):
        strata = np.floor(u[:, j] * 8).astype(int)
        assert sorted(strata) == list(range(8))


def test_write_trace_format(tmp_path):
    trace = optimize(parabola, SPACE_1D, budget=8, n_init=4, seed=5)
    out = tmp_path / "trace.csv"
    write_trace(trace, out, SPACE_1D)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert list(rows[0]) == ["index", "x", "objective", "running_best", "failed"]
    bests = [float(r["running_best"]) for r in rows]
    assert bests == sorted(bests)
    assert float(rows[-1]["running_best"]) == trace.best.objective


def test_default_dt_space_shape():
    space = default_dt_space()
    assert space.names == (
        "max_depth", "min_samples_split", "min_samples_leaf", "max_features_fraction",
    )
    kinds = {d.name: d.kind for d in space.dims}
    assert kinds["max_depth"] == "integer"
    assert kinds["max_features_fraction"] == "continuous"


def test_dim_validation():
    with pytest.raises(ValueError, match="lower bound"):
        Dim("x", "continuous", 1.0, 1.0)
    with pytest.raises(ValueError, match="integer bounds"):
        Dim("k", "integer", 0.5, 2.0)
    with pytest.raises(ValueError, match="kind"):
        Dim("x", "categorical", 0.0, 1.0)


@pytest.mark.parametrize("bad", ["a", True, None, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("kind", ["integer", "continuous"])
def test_dim_bound_must_be_a_finite_number(kind, bad):
    with pytest.raises(ValueError, match=r"^depth: lower bound .* is not a finite number$"):
        Dim("depth", kind, bad, 5)
    with pytest.raises(ValueError, match=r"^depth: upper bound .* is not a finite number$"):
        Dim("depth", kind, 1, bad)


def test_search_space_rejects_a_repeated_name():
    # a trial's config is a dict keyed by name: the later range would win
    dims = (Dim("depth", "integer", 1, 3), Dim("x", "continuous", 0, 1), Dim("depth", "integer", 10, 20))
    with pytest.raises(ValueError, match=r"^search space names 'depth' twice$"):
        SearchSpace(dims)
