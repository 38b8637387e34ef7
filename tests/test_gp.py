import math
import tracemalloc

import numpy as np
import pytest

import botopt.gp
from botopt.gp import (
    KernelParams,
    _cross_kernel,
    _rbf,
    _sqdist,
    default_kernel_grid,
    gp_extend,
    gp_fit,
    gp_predict_batch,
    log_marginal_likelihood,
    tune_kernel,
)

from reference import (
    ref_gp_predict,
    ref_gp_predict_full_width,
    ref_kernel_matrix,
    ref_log_marginal_likelihood,
    ref_profile_best,
)


def kernel(p, a, b):
    """The RBF kernel value of two points."""
    return float(_rbf(p, _sqdist(np.atleast_2d(a), np.atleast_2d(b)))[0, 0])


def test_kernel_zero_distance():
    p = KernelParams(signal_variance=2.0, lengthscale=1.0)
    assert kernel(p, [1.0, 2.0], [1.0, 2.0]) == 2.0


def test_kernel_one_lengthscale_apart():
    p = KernelParams(signal_variance=1.0, lengthscale=0.7)
    assert kernel(p, [0.0], [0.7]) == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_kernel_matches_reference_on_random_pair():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    p = KernelParams(signal_variance=1.7, lengthscale=0.9)
    expected = ref_kernel_matrix(a.reshape(1, -1), b.reshape(1, -1), 1.7, 0.9)[0, 0]
    assert kernel(p, a, b) == pytest.approx(expected, abs=1e-14)
    assert kernel(p, b, a) == kernel(p, a, b)


def test_gp_predict_batch_dimension_mismatch():
    m = gp_fit(np.array([[0.0]]), np.array([1.0]), KernelParams(1.0, 1.0), noise=0.0)
    with pytest.raises(ValueError, match="query dimension 2 does not match model dimension 1"):
        gp_predict_batch(m, [[0.0, 1.0]])


def test_kernel_params_must_be_positive():
    with pytest.raises(ValueError):
        KernelParams(0.0, 1.0)
    with pytest.raises(ValueError):
        KernelParams(1.0, -2.0)


def test_gp_fit_single_point_unit_kernel():
    m = gp_fit(np.array([[0.0]]), np.array([1.0]), KernelParams(1.0, 1.0), noise=0.0)
    assert m.chol_inv[0, 0] == pytest.approx(1.0)
    assert m.w[0] == pytest.approx(1.0)
    assert m.jitter == 0.0


def test_gp_fit_huge_targets_keep_jitter_zero():
    # the bordered factorization scales y by a power of two first: unscaled,
    # w^T w would overflow at these targets and every jitter rung would fail
    rng = np.random.default_rng(5)
    X = rng.random((12, 2))
    y = rng.standard_normal(12) * 1e200
    m = gp_fit(X, y, KernelParams(1.0, 0.3), noise=1e-6)
    assert m.jitter == 0.0
    np.testing.assert_allclose(np.linalg.solve(m.chol_inv, m.w), y, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gp_fit_rejects_non_finite_targets(bad):
    y = np.array([0.5, bad, -1.0])
    with pytest.raises(ValueError, match="finite"):
        gp_fit(np.array([[0.0], [0.5], [1.0]]), y, KernelParams(1.0, 0.5), 1e-6)


def test_gp_fit_duplicate_rows_takes_jitter_path():
    X = np.array([[0.5], [0.5]])
    m = gp_fit(X, np.array([1.0, 1.0]), KernelParams(1.0, 1.0), noise=0.0)
    assert m.jitter > 0.0  # plain factorization of a singular kernel must fail


def test_gp_fit_reconstructs_kernel_matrix():
    rng = np.random.default_rng(11)
    X = rng.random((5, 2))
    y = rng.standard_normal(5)
    p = KernelParams(1.3, 0.6)
    m = gp_fit(X, y, p, noise=1e-4)
    K = ref_kernel_matrix(X, X, 1.3, 0.6) + (m.noise + m.jitter) * np.eye(5)
    assert np.max(np.abs(m.chol_inv @ K @ m.chol_inv.T - np.eye(5))) < 1e-8


def test_gp_predict_interpolates_training_points():
    rng = np.random.default_rng(2)
    X = rng.random((4, 2))
    y = rng.standard_normal(4)
    m = gp_fit(X, y, KernelParams(1.0, 0.8), noise=0.0)
    mean, var = gp_predict_batch(m, X)
    np.testing.assert_allclose(mean, y, rtol=0, atol=1e-8)
    assert np.all(var < 1e-8)


def test_gp_predict_reverts_to_prior_far_away():
    X = np.array([[0.0], [0.1], [0.2]])
    m = gp_fit(X, np.array([1.0, 2.0, 1.5]), KernelParams(1.5, 0.1), noise=1e-6)
    (mean,), (var,) = gp_predict_batch(m, [[5.0]])  # 48 lengthscales from the data
    assert abs(mean) < 1e-6
    assert var == pytest.approx(1.5, abs=1e-6)


def test_gp_predict_matches_dense_oracle():
    rng = np.random.default_rng(7)
    X = rng.random((3, 2))
    y = rng.standard_normal(3)
    m = gp_fit(X, y, KernelParams(1.0, 0.5), noise=1e-6)
    q = rng.random(2)
    (mean,), (var,) = gp_predict_batch(m, q)
    ref_mean, ref_var = ref_gp_predict(X, y, 1.0, 0.5, 1e-6, q)
    assert mean == pytest.approx(ref_mean, abs=1e-8)
    assert var == pytest.approx(ref_var, abs=1e-8)


def test_posterior_variance_nonnegative_everywhere():
    rng = np.random.default_rng(13)
    X = rng.random((8, 3))
    m = gp_fit(X, rng.standard_normal(8), KernelParams(2.0, 0.3), noise=1e-6)
    _, var = gp_predict_batch(m, rng.random((200, 3)))
    assert np.all(var >= 0.0)


def _search_model(t, seed=0, extended=False):
    """A GP like optimize's at step t: unit-cube inputs, 4 dimensions. If
    extended, it is fitted to all but the last inputs (at most 4) and grown
    to t by gp_extend, as optimize grows its model between re-tunes."""
    rng = np.random.default_rng(seed)
    X, y, p = rng.random((t, 4)), rng.standard_normal(t), KernelParams(1.3, 0.4)
    if not extended:
        return gp_fit(X, y, p, noise=1e-6), rng
    t0 = max(1, t - 4)
    return gp_extend(gp_fit(X[:t0], y[:t0], p, noise=1e-6), X, y), rng


def _blocks(n):
    """gp_predict_batch's blocks: 256 columns, the last one what is left."""
    return [(lo, min(lo + 256, n)) for lo in range(0, n, 256)]


@pytest.mark.parametrize("t", [1, 2, 7, 51, 200])
@pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
@pytest.mark.parametrize("extended", [False, True])
def test_blocked_prediction_equals_the_full_width_product(t, n, extended):
    # every block is one full-width product of its own columns; the whole is
    # bit-equal to one product over all n unless n % 8 columns are left over
    # for a last block: BLAS sums a product's last n % 8 columns in an order
    # that depends on its width (and, at n = 257 and t = 200, on its thread
    # count too)
    m, rng = _search_model(t, extended=extended)
    Q = rng.random((n, 4))
    mean, var = gp_predict_batch(m, Q)
    blocks = _blocks(n)
    by_block = [ref_gp_predict_full_width(m, Q[lo:hi]) for lo, hi in blocks]
    assert mean.tobytes() == np.concatenate([b[0] for b in by_block]).tobytes()
    assert var.tobytes() == np.concatenate([b[1] for b in by_block]).tobytes()
    full_mean, full_var = ref_gp_predict_full_width(m, Q)
    same = n if n % 8 == 0 or len(blocks) == 1 else n - n % 8
    assert mean[:same].tobytes() == full_mean[:same].tobytes()
    assert var[:same].tobytes() == full_var[:same].tobytes()


@pytest.mark.parametrize("t", [7, 200])
@pytest.mark.parametrize("n, blocks", [(256, 1), (257, 2), (500, 2), (1000, 4)])
def test_a_prediction_takes_blocks_of_256_columns(monkeypatch, t, n, blocks):
    calls = []

    def counting(p, X, Q, out):
        calls.append(len(Q))
        return _cross_kernel(p, X, Q, out=out)

    monkeypatch.setattr(botopt.gp, "_cross_kernel", counting)
    m, rng = _search_model(t)
    gp_predict_batch(m, rng.random((n, 4)))
    assert calls == [b - a for a, b in _blocks(n)] and len(calls) == blocks


def test_gp_predict_batch_takes_no_query_rows():
    m, _ = _search_model(3)
    mean, var = gp_predict_batch(m, np.empty((0, 4)))
    assert mean.shape == var.shape == (0,)


def test_a_blocked_prediction_holds_no_full_width_array():
    # one (t, n) float64 array is t * n * 8 bytes, and a full-width
    # prediction builds two: it peaked at 2.0x. With two blocks of 256
    # columns, it peaks at 0.58x
    t, n = 200, 1000
    m, rng = _search_model(t)
    Q = rng.random((n, 4))
    tracemalloc.start()
    try:
        gp_predict_batch(m, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * t * n * 8


def test_adding_observation_never_increases_variance():
    rng = np.random.default_rng(17)
    for _ in range(10):
        t = rng.integers(2, 8)
        X = rng.random((t, 2))
        y = rng.standard_normal(t)
        p = KernelParams(1.0, 0.5)
        small = gp_fit(X[:-1], y[:-1], p, noise=1e-3)
        full = gp_fit(X, y, p, noise=1e-3)
        Q = rng.random((20, 2))
        _, var_small = gp_predict_batch(small, Q)
        _, var_full = gp_predict_batch(full, Q)
        for q, v_small, v_full in zip(Q, var_small, var_full):
            assert v_full <= v_small + 1e-10
            # and both agree with the dense-inverse oracle on the way
            _, ref_small = ref_gp_predict(X[:-1], y[:-1], 1.0, 0.5, 1e-3, q)
            _, ref_full = ref_gp_predict(X, y, 1.0, 0.5, 1e-3, q)
            assert v_small == pytest.approx(max(ref_small, 0.0), abs=1e-8)
            assert v_full == pytest.approx(max(ref_full, 0.0), abs=1e-8)


def test_lml_single_zero_observation():
    m = gp_fit(np.array([[0.0]]), np.array([0.0]), KernelParams(1.0, 1.0), noise=0.0)
    assert log_marginal_likelihood(m) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_lml_zero_targets_drop_data_fit_term():
    rng = np.random.default_rng(23)
    X = rng.random((4, 2))
    p = KernelParams(1.2, 0.7)
    m = gp_fit(X, np.zeros(4), p, noise=1e-3)
    _, logdet = np.linalg.slogdet(ref_kernel_matrix(X, X, 1.2, 0.7) + 1e-3 * np.eye(4))
    expected = -0.5 * logdet - 2.0 * math.log(2 * math.pi)
    assert log_marginal_likelihood(m) == pytest.approx(expected, abs=1e-12)


def test_lml_matches_dense_oracle():
    rng = np.random.default_rng(29)
    X = rng.random((4, 3))
    y = rng.standard_normal(4)
    m = gp_fit(X, y, KernelParams(0.8, 0.4), noise=1e-4)
    expected = ref_log_marginal_likelihood(X, y, 0.8, 0.4, 1e-4)
    assert log_marginal_likelihood(m) == pytest.approx(expected, abs=1e-8)


def test_tune_kernel_singleton_grid():
    rng = np.random.default_rng(31)
    X, y = rng.random((5, 1)), rng.standard_normal(5)
    chosen = tune_kernel(X, y, [0.5], 1e-6)
    assert chosen.lengthscale == 0.5
    # the closed-form signal variance: w.w / t at the nugget 1e-6 relative to it
    R = ref_kernel_matrix(X, X, 1.0, 0.5) + 1e-6 * np.eye(5)
    assert chosen.signal_variance == pytest.approx(y @ np.linalg.inv(R) @ y / 5, rel=1e-9)


# Sample pinned from a seeded draw of a GP with lengthscale 0.5 and unit
# signal variance on 25 inputs in [0, 3]; the dense-evidence oracle confirms
# lengthscale 0.5 dominates 0.1 and 2.5 on this sample.
PINNED_X = np.array(
    [0.19145177, 0.28253204, 0.3843409, 0.68171617, 1.0635779,
     1.11239407, 1.31663532, 1.3302426, 1.35115781, 1.66375436,
     1.8949932, 1.93159536, 2.09210409, 2.27426322, 2.28341911,
     2.32186815, 2.33515049, 2.35819292, 2.46828484, 2.48289352,
     2.57579376, 2.67936336, 2.78029497, 2.91209407, 2.92686705]
).reshape(-1, 1)
PINNED_Y = np.array(
    [-0.35213355, -0.25017254, -0.11131064, 0.341871, 0.73483678,
     0.79678382, 1.13692056, 1.16171879, 1.19936414, 1.45733371,
     1.12059097, 1.04797696, 0.76689842, 0.59186557, 0.58630859,
     0.56442203, 0.55716238, 0.54453583, 0.47306953, 0.46104325,
     0.36559887, 0.22427275, 0.07357109, -0.08189844, -0.09322392]
)


def test_tune_kernel_recovers_generating_lengthscale():
    grid = (0.1, 0.5, 2.5)
    evidences = [ref_log_marginal_likelihood(PINNED_X, PINNED_Y, 1.0, ls, 1e-6) for ls in grid]
    assert int(np.argmax(evidences)) == 1  # oracle agrees 0.5 wins
    chosen = tune_kernel(PINNED_X, PINNED_Y, list(grid), 1e-6)
    assert chosen.lengthscale == 0.5


def test_tune_kernel_tie_keeps_first():
    # one input: R = [[1]] at every lengthscale, so every score ties
    X, y = np.array([[0.3]]), np.array([0.7])
    assert tune_kernel(X, y, [2.0, 0.5, 8.0], 1e-6).lengthscale == 2.0


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("shape", [(1, 1), (7, 1000), (200, 200)])
def test_sqdist_bit_equal_to_axis_sum(d, shape):
    rng = np.random.default_rng(d)
    A, B = rng.random((shape[0], d)), rng.random((shape[1], d))
    axis_sum = np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=-1)
    if d < 8:  # numpy sums fewer than 8 terms left to right, as _sqdist does
        assert np.array_equal(_sqdist(A, B), axis_sum)
    else:
        np.testing.assert_allclose(_sqdist(A, B), axis_sum, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("k, t", [(1, 2), (1, 12), (5, 6), (5, 9), (20, 24), (39, 40)])
def test_gp_extend_matches_a_fresh_fit(k, t):
    # K + noise*I kept well conditioned (noise 1e-2), so the bordered and the
    # fresh factors agree far below the tolerance
    rng = np.random.default_rng(100 * k + t)
    X = rng.random((t, 3))
    y = rng.standard_normal(t)
    p = KernelParams(1.3, 0.4)
    fresh = gp_fit(X, y, p, 1e-2)
    grown = gp_extend(gp_fit(X[:k], rng.standard_normal(k), p, 1e-2), X, y)
    assert grown.jitter == fresh.jitter == 0.0
    for a, b in ((grown.chol_inv, fresh.chol_inv), (grown.w, fresh.w)):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10)
    Q = rng.random((50, 3))
    for a, b in zip(gp_predict_batch(grown, Q), gp_predict_batch(fresh, Q)):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10)
    assert np.array_equal(np.tril(grown.chol_inv), grown.chol_inv)


@pytest.mark.parametrize("grow", [False, True])
def test_chol_inv_inverts_chol(grow):
    # against the Cholesky factor of the dense oracle kernel
    rng = np.random.default_rng(19)
    X, y = rng.random((30, 2)), rng.standard_normal(30)
    p = KernelParams(0.8, 0.3)
    m = gp_extend(gp_fit(X[:26], y[:26], p, 1e-4), X, y) if grow else gp_fit(X, y, p, 1e-4)
    chol = np.linalg.cholesky(ref_kernel_matrix(X, X, 0.8, 0.3) + 1e-4 * np.eye(30))
    np.testing.assert_allclose(m.chol_inv @ chol, np.eye(30), rtol=0.0, atol=1e-10)


def test_gp_extend_by_no_rows_refits_the_targets_only():
    rng = np.random.default_rng(47)
    X, y = rng.random((6, 2)), rng.standard_normal(6)
    m = gp_fit(X, rng.standard_normal(6), KernelParams(1.0, 0.5), 1e-3)
    same = gp_extend(m, X, y)
    assert np.array_equal(same.chol_inv, m.chol_inv)
    np.testing.assert_allclose(same.w, same.chol_inv @ y, rtol=0.0, atol=1e-12)


def test_gp_extend_duplicate_row_falls_back_to_the_jitter_ladder():
    # the two inputs are 40 lengthscales apart, so K = I exactly, L = L^-1 = I,
    # and a duplicate of the first leaves the new pivot 1 - 1 = 0 at noise 0
    X = np.array([[0.5], [3.0], [0.5]])
    y = np.array([1.0, -1.0, 0.5])
    p = KernelParams(1.0, 1.0 / 16)
    m = gp_fit(X[:2], y[:2], p, noise=0.0)
    assert m.jitter == 0.0 and np.array_equal(m.chol_inv, np.eye(2))
    grown = gp_extend(m, X, y)
    fresh = gp_fit(X, y, p, noise=0.0)
    assert grown.jitter == fresh.jitter > 0.0
    assert np.array_equal(grown.chol_inv, fresh.chol_inv)


def test_gp_extend_keeps_the_models_jitter():
    X = np.array([[0.5], [0.5], [0.9]])
    y = np.array([1.0, 1.0, -0.5])
    p = KernelParams(1.0, 0.2)
    m = gp_fit(X[:2], y[:2], p, noise=0.0)
    assert m.jitter > 0.0
    grown = gp_extend(m, X, y)
    assert grown.jitter == m.jitter
    K = ref_kernel_matrix(X, X, 1.0, 0.2) + m.jitter * np.eye(3)
    chol = np.linalg.inv(grown.chol_inv)
    np.testing.assert_allclose(chol @ chol.T, K, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize(
    "X",
    [
        np.array([[0.1, 0.2], [0.9, 0.4]]),  # first row changed
        np.array([[0.1, 0.3]]),  # fewer rows than the model
        np.array([[0.1, 0.3, 0.0], [0.7, 0.6, 0.0], [0.2, 0.2, 0.0]]),  # another dimension
    ],
    ids=["changed-row", "fewer-rows", "wider"],
)
def test_gp_extend_rejects_rows_that_do_not_extend_the_model(X):
    m = gp_fit(np.array([[0.1, 0.3], [0.7, 0.6]]), np.array([0.0, 1.0]), KernelParams(1.0, 0.5), 1e-6)
    with pytest.raises(ValueError, match="must start with the model's 2 inputs"):
        gp_extend(m, X, np.zeros(len(X)))


def test_gp_extend_checks_its_targets():
    m = gp_fit(np.array([[0.1]]), np.array([0.0]), KernelParams(1.0, 0.5), 1e-6)
    with pytest.raises(ValueError, match="2 inputs but 1 targets"):
        gp_extend(m, np.array([[0.1], [0.2]]), np.array([1.0]))
    with pytest.raises(ValueError, match="finite"):
        gp_extend(m, np.array([[0.1], [0.2]]), np.array([1.0, np.nan]))


@pytest.mark.parametrize("lengthscale", [1.0 / 16, 0.3, 1.0, 16.0])
def test_cross_kernel_matches_reference(lengthscale):
    # Gram form against the per-pair loop: at zero distance (where the
    # expansion cancels and is clamped), at 48 lengthscales (exp underflows
    # to 0) and at random pairs in the unit cube
    rng = np.random.default_rng(53)
    X = rng.random((7, 4))
    Q = np.vstack([X[:3], X[:2] + 48.0 * lengthscale / 2.0, rng.random((5, 4))])
    p = KernelParams(1.7, lengthscale)
    K = _cross_kernel(p, X, Q)
    expected = ref_kernel_matrix(X, Q, 1.7, lengthscale)
    np.testing.assert_allclose(K, expected, rtol=1e-12, atol=1e-300)
    assert np.all(np.diag(K[:3, :3]) <= 1.7)
    np.testing.assert_allclose(np.diag(K[:3, :3]), 1.7, rtol=1e-13)
    assert np.all(K[:2, 3:5].diagonal() == 0.0)


def _random_design():
    rng = np.random.default_rng(41)
    return rng.random((12, 3)), rng.standard_normal(12)


def _duplicate_rows_design():
    rng = np.random.default_rng(43)
    X = rng.random((6, 3))
    return X[[0, 1, 2, 0, 3, 4, 5, 2, 2]], rng.standard_normal(9)


@pytest.mark.parametrize("design", [_random_design, _duplicate_rows_design])
def test_tune_kernel_matches_brute_force_profile(design):
    # the closed-form signal variance against a fine log-grid of variances at
    # every lengthscale, all through the dense-inverse evidence
    X, y = design()
    grid, nugget = default_kernel_grid(), 1e-6
    chosen = tune_kernel(X, y, grid, nugget)
    s, ls = chosen.signal_variance, chosen.lengthscale

    def evidence(scale):
        return ref_log_marginal_likelihood(X, y, scale, ls, nugget * scale)

    # the duplicate rows' differing targets put s near 1e5
    brute = ref_profile_best(X, y, grid, nugget, np.logspace(-2, 6, 321))
    assert brute - 1e-9 <= evidence(s) < brute + 1e-2
    assert evidence(s * (1 - 1e-3)) < evidence(s) > evidence(s * (1 + 1e-3))


def test_tune_kernel_factors_once_per_lengthscale(monkeypatch):
    calls = []

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", counting)
    X, y = _random_design()
    tune_kernel(X, y, default_kernel_grid(), 1e-6)
    assert calls == [(13, 13)] * len(default_kernel_grid())


def test_tune_kernel_all_zero_targets():
    # y = 0 leaves the evidence unbounded as s -> 0; s = 1 and the lengthscale
    # the oracle evidence prefers at that variance
    rng = np.random.default_rng(59)
    X, grid = rng.random((8, 2)), [0.1, 0.3, 1.0]
    chosen = tune_kernel(X, np.zeros(8), grid, 1e-3)
    assert chosen.signal_variance == 1.0
    evidences = [ref_log_marginal_likelihood(X, np.zeros(8), 1.0, ls, 1e-3) for ls in grid]
    assert chosen.lengthscale == grid[int(np.argmax(evidences))]


def test_tune_kernel_skips_a_lengthscale_whose_factorization_fails(monkeypatch):
    X, y = _random_design()
    grid = default_kernel_grid()
    best = tune_kernel(X, y, grid, 1e-6).lengthscale
    failing_at = {best}

    def failing(K, *args):
        if any(np.array_equal(K, _rbf(KernelParams(1.0, ls), _sqdist(X, X))) for ls in failing_at):
            raise np.linalg.LinAlgError("forced")
        return factor(K, *args)

    factor = botopt.gp._factor
    monkeypatch.setattr(botopt.gp, "_factor", failing)
    assert tune_kernel(X, y, grid, 1e-6).lengthscale != best
    failing_at.update(grid)
    with pytest.raises(np.linalg.LinAlgError, match="every kernel candidate failed"):
        tune_kernel(X, y, grid, 1e-6)


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_tune_kernel_rejects_targets_whose_variance_overflows(scale):
    # every factorization succeeds, but y^T R^-1 y is beyond float64; the
    # error must say so, without an overflow warning on the way
    X, y = _random_design()
    with pytest.raises(ValueError, match="targets' scale is not representable"):
        tune_kernel(X, y * scale, default_kernel_grid(), 1e-6)


def test_tune_kernel_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        tune_kernel(np.zeros((1, 1)), np.zeros(1), [], 1e-6)


def test_default_kernel_grid_span():
    assert default_kernel_grid() == [2.0**j for j in range(-4, 5)]


def test_gp_fit_rejects_bad_shapes():
    with pytest.raises(ValueError, match="targets"):
        gp_fit(np.zeros((2, 1)), np.zeros(3), KernelParams(1.0, 1.0), 1e-6)
    with pytest.raises(ValueError, match="noise"):
        gp_fit(np.zeros((2, 1)), np.zeros(2), KernelParams(1.0, 1.0), -1.0)
