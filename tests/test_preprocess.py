import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from botopt import preprocess
from botopt.ingest import Dataset, class_counts
from botopt.preprocess import (
    Scaler,
    SmoteConfig,
    apply_minmax,
    fit_minmax,
    read_smote_log,
    smote,
    smote_audit,
    write_smote_log,
)

from reference import knn_indices, ref_dense_neighbors, ref_smote_points


def dataset(features, labels):
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features.reshape(-1, 1)
    names = tuple(f"f{i}" for i in range(features.shape[1]))
    return Dataset(features, np.asarray(labels), names)


# --- min-max scaling ---------------------------------------------------------

def test_fit_minmax_extrema():
    s = fit_minmax(dataset([0.0, 10.0, 5.0], [0, 1, 1]))
    assert s.mins[0] == 0.0 and s.maxs[0] == 10.0


def test_fit_minmax_constant_column():
    s = fit_minmax(dataset([7.0, 7.0, 7.0], [0, 1, 1]))
    assert s.mins[0] == 7.0 and s.maxs[0] == 7.0


def test_fit_minmax_two_columns():
    s = fit_minmax(dataset([[1.0, 4.0], [3.0, 2.0]], [0, 1]))
    np.testing.assert_array_equal(s.mins, [1.0, 2.0])
    np.testing.assert_array_equal(s.maxs, [3.0, 4.0])


def test_apply_minmax_midpoint():
    s = Scaler(np.array([0.0]), np.array([10.0]))
    assert apply_minmax(s, np.array([[5.0]]))[0, 0] == 0.5


def test_apply_minmax_constant_column_maps_to_zero():
    s = Scaler(np.array([7.0]), np.array([7.0]))
    assert apply_minmax(s, np.array([[7.0]]))[0, 0] == 0.0


def test_apply_minmax_out_of_range_not_clamped():
    s = Scaler(np.array([0.0]), np.array([10.0]))
    assert apply_minmax(s, np.array([[12.0]]))[0, 0] == pytest.approx(1.2)


def test_apply_minmax_column_mismatch():
    s = Scaler(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="expects 2 columns"):
        apply_minmax(s, np.zeros((3, 3)))


@settings(max_examples=50, deadline=None)
@given(
    m=arrays(
        np.float64,
        st.tuples(st.integers(2, 20), st.integers(1, 5)),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )
)
def test_training_matrix_maps_into_unit_interval(m):
    s = fit_minmax(dataset(m, np.zeros(m.shape[0], dtype=int)))
    out = apply_minmax(s, m)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    span = s.maxs - s.mins
    for j in range(m.shape[1]):
        if span[j] > 0:
            assert out[:, j].min() == 0.0 and out[:, j].max() == 1.0
        else:
            assert np.all(out[:, j] == 0.0)


# --- SMOTE -------------------------------------------------------------------

def test_two_point_minority_interpolates_on_segment():
    d = dataset(
        [[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [6.0, 5.0], [7.0, 5.0]],
        [0, 0, 1, 1, 1],
    )
    out, _, _, lams = smote_audit(d, SmoteConfig(k=1, target_ratio=1.0, seed=4))
    assert class_counts(out) == {0: 3, 1: 3}
    (lam,) = lams
    pt = out.features[-1]
    assert pt[0] == pytest.approx(pt[1])  # collinear with (0,0)-(1,1)
    assert 0.0 <= lam <= 1.0 and 0.0 <= pt[0] <= 1.0


def test_synthetic_row_count_at_published_class_sizes():
    # 477 minority vs 3,668,045 majority at full balance -> 3,667,568 new rows
    rng = np.random.default_rng(0)
    n_min, n_maj = 477, 3_668_045
    feats = np.vstack([rng.random((n_min, 2)), rng.random((n_maj, 2)) + 3.0])
    labels = np.concatenate([np.zeros(n_min, dtype=int), np.ones(n_maj, dtype=int)])
    d = Dataset(feats, labels, ("a", "b"))
    out, seeds, neighbors, lams = smote_audit(d, SmoteConfig(k=5, target_ratio=1.0, seed=1))
    assert len(seeds) == len(neighbors) == len(lams) == 3_667_568
    assert class_counts(out) == {0: 3_668_045, 1: 3_668_045}


# Coordinates pinned from a reference run of the documented draw protocol
# (seed 11, three minority points, k=2, four synthetic rows).
PINNED_SYNTH = np.array(
    [
        [0.14792608, 0.07396304],
        [0.92821102, 0.46410551],
        [0.18591588, 0.83662148],
        [0.89618084, 0.55190958],
    ]
)


def test_pinned_synthetic_coordinates():
    minority = np.array([[0.0, 0.0], [1.0, 0.5], [0.2, 0.9]])
    majority = np.array([[5.0, 5.0]] * 7) + np.arange(7).reshape(-1, 1) * 0.1
    d = Dataset(
        np.vstack([minority, majority]),
        np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 1]),
        ("x", "y"),
    )
    out, seeds, _, _ = smote_audit(d, SmoteConfig(k=2, target_ratio=1.0, seed=11))
    synth = out.features[10:]
    np.testing.assert_allclose(synth, PINNED_SYNTH, rtol=0, atol=1e-8)
    # and the reference protocol reproduces them independently
    np.testing.assert_allclose(
        ref_smote_points(minority, k=2, seed=11, n_syn=4), synth, atol=1e-12
    )
    assert len(seeds) == 4


def test_originals_untouched_and_majority_unchanged():
    rng = np.random.default_rng(7)
    d = dataset(rng.random((30, 3)), [0] * 6 + [1] * 24)
    out = smote_audit(d, SmoteConfig(k=3, target_ratio=1.0, seed=2))[0]
    np.testing.assert_array_equal(out.features[:30], d.features)
    np.testing.assert_array_equal(out.labels[:30], d.labels)
    assert class_counts(out)[1] == 24


def test_target_already_met_returns_input_unchanged():
    d = dataset(np.random.default_rng(1).random((10, 2)), [0] * 5 + [1] * 5)
    out, seeds, neighbors, lams = smote_audit(d, SmoteConfig(k=2, target_ratio=1.0, seed=0))
    assert out is d and len(seeds) == len(neighbors) == len(lams) == 0


def test_same_seed_identical_output():
    rng = np.random.default_rng(9)
    d = dataset(rng.random((40, 2)), [0] * 8 + [1] * 32)
    cfg = SmoteConfig(k=4, target_ratio=0.8, seed=21)
    a = smote_audit(d, cfg)[0]
    b = smote_audit(d, cfg)[0]
    np.testing.assert_array_equal(a.features, b.features)


def test_k_reduced_when_minority_small():
    d = dataset([[0.0], [1.0], [9.0], [10.0], [11.0], [12.0]], [0, 0, 1, 1, 1, 1])
    out, seeds, neighbors, _ = smote_audit(d, SmoteConfig(k=5, target_ratio=1.0, seed=3))
    # k_eff = 1: every neighbor must be the other minority point
    for s, n in zip(seeds, neighbors):
        assert {s, n} == {0, 1}
    assert class_counts(out)[0] == 4


def test_single_minority_point_duplicates_with_warning():
    d = dataset([[2.0, 3.0], [9.0, 9.0], [8.0, 9.0], [9.0, 8.0]], [0, 1, 1, 1])
    with pytest.warns(UserWarning, match="duplicates"):
        out, seeds, neighbors, _ = smote_audit(d, SmoteConfig(k=5, target_ratio=1.0, seed=0))
    for row in out.features[4:]:
        np.testing.assert_array_equal(row, [2.0, 3.0])
    assert all(s == n == 0 for s, n in zip(seeds, neighbors))


def test_empty_minority_errors():
    d = dataset([[0.0], [1.0]], [1, 1])
    with pytest.raises(ValueError, match="two classes"):
        smote_audit(d, SmoteConfig(k=1, target_ratio=1.0, seed=0))


def test_target_ratio_validation():
    with pytest.raises(ValueError):
        SmoteConfig(k=1, target_ratio=1.5, seed=0)
    with pytest.raises(ValueError):
        SmoteConfig(k=0, target_ratio=1.0, seed=0)


@settings(max_examples=25, deadline=None)
@given(
    n_min=st.integers(2, 12),
    n_maj=st.integers(12, 40),
    k=st.integers(1, 6),
    ratio=st.floats(0.3, 1.0),
    seed=st.integers(0, 2**31),
)
def test_audit_every_synthetic_point(n_min, n_maj, k, ratio, seed):
    rng = np.random.default_rng(seed)
    feats = np.vstack([rng.random((n_min, 3)), rng.random((n_maj, 3)) + 2.0])
    labels = np.concatenate([np.zeros(n_min, dtype=int), np.ones(n_maj, dtype=int)])
    d = Dataset(feats, labels, ("a", "b", "c"))
    cfg = SmoteConfig(k=k, target_ratio=ratio, seed=seed)
    out, seeds, neighbors, lams = smote_audit(d, cfg)

    expected_minority = int(np.ceil(ratio * n_maj))
    assert class_counts(out)[0] == max(expected_minority, n_min)
    k_eff = min(k, n_min - 1)
    for i, (s, n, lam) in enumerate(zip(seeds, neighbors, lams)):
        x = d.features[s]
        nb = d.features[n]
        synth = out.features[d.n_rows + i]
        assert 0.0 <= lam <= 1.0
        np.testing.assert_allclose(synth, x + lam * (nb - x), atol=1e-12)
        # neighbor really is one of the k nearest minority neighbors
        local = s  # minority rows are 0..n_min-1 here
        assert n in knn_indices(feats[:n_min], local, k_eff)


@pytest.mark.parametrize("chunk_rows", [1, 3, 7])
def test_chunked_neighbor_search_matches_reference(monkeypatch, chunk_rows):
    # integer coordinates give many equal distances; the lower row index wins
    rng = np.random.default_rng(chunk_rows)
    pts = rng.integers(0, 3, size=(23, 2)).astype(float)
    d = dataset(np.vstack([pts, rng.random((40, 2)) + 5.0]), [0] * 23 + [1] * 40)
    cfg = SmoteConfig(k=4, target_ratio=1.0, seed=chunk_rows)
    whole = smote(d, cfg)
    monkeypatch.setattr(preprocess, "_KNN_CHUNK_BYTES", 16 * pts.size * chunk_rows)
    table = preprocess._minority_neighbors(pts, 4)
    for i in range(pts.shape[0]):
        assert list(table[i]) == knn_indices(pts, i, 4)
    np.testing.assert_array_equal(smote(d, cfg).features, whole.features)


@pytest.mark.parametrize(
    "pts, k",
    [
        (np.arange(7.0).reshape(-1, 1), 3),  # an inner point has 2 neighbors at 1 and 2 at 4
        (np.array([[0.0, 0.0], [1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [5, 5]]), 2),
        (np.ones((6, 2)), 3),  # every distance is a tie
        (np.arange(12.0).reshape(6, 2) * 1e200, 2),  # all inf; the row's own inf must not win
    ],
)
def test_neighbors_with_ties_at_the_kth_distance(pts, k):
    with np.errstate(over="ignore"):
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    kth = np.sort(d2, axis=1)[:, k - 1 : k]
    assert np.any(np.sum(d2 <= kth, axis=1) > k)  # some row has more candidates than places
    table = preprocess._minority_neighbors(pts, k)
    for i in range(pts.shape[0]):
        assert list(table[i]) == knn_indices(pts, i, k)


@st.composite
def neighbor_inputs(draw):
    n = draw(st.integers(2, 90))
    n_features = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.integers(0, draw(st.integers(1, 4)), size=(n, n_features)).astype(float)
    shape = draw(st.sampled_from(["scale", "mixed columns", "duplicated rows"]))
    if shape == "scale":
        pts *= draw(st.sampled_from([1.0, 1e-200, 1e200, 1e-310, 1e-322]))
    elif shape == "mixed columns":
        pts *= 10.0 ** rng.integers(-300, 300, size=n_features)
    else:
        pts = pts[rng.integers(0, n, size=n)]
    k = draw(st.integers(1, min(n - 1, 6)))
    chunk_rows = draw(st.sampled_from([1, 2, 5, 64]))
    return pts, k, 16 * pts.size * chunk_rows


@settings(max_examples=150, deadline=None)
@given(case=neighbor_inputs())
def test_filtered_neighbors_equal_the_dense_reference(case):
    pts, k, chunk_bytes = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(preprocess, "_KNN_CHUNK_BYTES", chunk_bytes)
        table = preprocess._minority_neighbors(pts, k)
    np.testing.assert_array_equal(table, ref_dense_neighbors(pts, k))
    if pts.shape[0] <= 60:
        assert table.tolist() == [knn_indices(pts, i, k) for i in range(pts.shape[0])]


def test_neighbors_at_the_eval_file_size_equal_the_dense_reference():
    pts = np.random.default_rng(3).random((3200, 10))
    np.testing.assert_array_equal(preprocess._minority_neighbors(pts, 5), ref_dense_neighbors(pts, 5))


def test_neighbor_search_holds_no_dense_difference_tensor():
    # a few candidates per row: far from the (rows, n, n_features) gathers of all-pairs input
    pts = np.random.default_rng(4).random((3200, 10))
    tracemalloc.start()
    try:
        preprocess._minority_neighbors(pts, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < preprocess._KNN_CHUNK_BYTES


def test_provenance_log_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    d = dataset(rng.random((20, 2)), [0] * 5 + [1] * 15)
    log = tmp_path / "smote_log.csv"
    cfg = SmoteConfig(k=2, target_ratio=1.0, seed=8)
    out = smote(d, cfg)
    _, *direct = smote_audit(d, cfg)
    write_smote_log(*direct, log)
    logged = read_smote_log(log)
    assert len(logged[0]) == class_counts(out)[0] - 5
    for read, written in zip(logged, direct):
        np.testing.assert_array_equal(read, written)


def test_write_read_log_preserves_lambda_exactly(tmp_path):
    p = tmp_path / "log.csv"
    lam = 0.12345678901234567
    write_smote_log([3], [7], [lam], p)
    assert p.read_text() == f"seed_index,neighbor_index,lam\n3,7,{lam!r}\n"
    seeds, neighbors, lams = read_smote_log(p)
    assert list(seeds) == [3] and list(neighbors) == [7]
    assert list(lams) == [lam]


def test_empty_log_round_trip(tmp_path):
    # a dataset already at its target adds no rows and logs only the header
    d = dataset(np.random.default_rng(1).random((10, 2)), [0] * 5 + [1] * 5)
    p = tmp_path / "log.csv"
    write_smote_log(*smote_audit(d, SmoteConfig(k=2, target_ratio=1.0, seed=0))[1:], p)
    seeds, neighbors, lams = read_smote_log(p)
    assert len(seeds) == len(neighbors) == len(lams) == 0
