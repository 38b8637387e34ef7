import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botopt.metrics import (
    ConfusionMatrix,
    compute_metrics,
    confusion,
    metrics_to_text,
    pca2,
    write_pca_csv,
)
from botopt.pipeline import PUBLISHED_REFERENCE

from reference import ref_pca2


# --- confusion counts --------------------------------------------------------

def test_confusion_basic_counts():
    cm = confusion([1, 1, 1, 0], [1, 1, 0, 0], positive_class=1)
    assert (cm.tp, cm.fn, cm.tn, cm.fp) == (2, 1, 1, 0)


def test_confusion_perfect_prediction():
    cm = confusion([0, 1, 0, 1], [0, 1, 0, 1])
    assert cm.fp == 0 and cm.fn == 0
    assert cm.total == 4


def test_confusion_all_predict_positive():
    y_true = [1] * 90 + [0] * 10
    cm = confusion(y_true, [1] * 100, positive_class=1)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (90, 10, 0, 0)


def test_confusion_length_mismatch():
    with pytest.raises(ValueError, match="shape"):
        confusion([0, 1], [0, 1, 1])


def test_confusion_rejects_negative_counts():
    with pytest.raises(ValueError):
        ConfusionMatrix(tp=-1, tn=0, fp=0, fn=0)


# --- metric formulas ---------------------------------------------------------

def test_compute_metrics_worked_example():
    r = compute_metrics(ConfusionMatrix(tp=3, tn=5, fp=1, fn=1))
    assert r.accuracy == pytest.approx(0.8)
    assert r.precision == pytest.approx(0.75)
    assert r.recall == pytest.approx(0.75)
    assert r.f_score == pytest.approx(0.75)


def test_compute_metrics_perfect():
    r = compute_metrics(ConfusionMatrix(tp=7, tn=3, fp=0, fn=0))
    assert (r.accuracy, r.precision, r.recall, r.f_score) == (1.0, 1.0, 1.0, 1.0)
    assert r.macro_f_score == 1.0


def test_zero_denominators_define_zero_not_nan():
    # degenerate predictor: everything called negative
    r = compute_metrics(ConfusionMatrix(tp=0, tn=90, fp=0, fn=10))
    assert r.precision == 0.0 and r.recall == 0.0 and r.f_score == 0.0


@settings(max_examples=200, deadline=None)
@given(
    tp=st.integers(0, 10_000),
    tn=st.integers(0, 10_000),
    fp=st.integers(0, 10_000),
    fn=st.integers(0, 10_000),
)
def test_metric_identities(tp, tn, fp, fn):
    if tp + tn + fp + fn == 0:
        return
    r = compute_metrics(ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn))
    assert r.accuracy * (tp + tn + fp + fn) == pytest.approx(tp + tn, abs=1e-9)
    assert r.precision * (tp + fp) == pytest.approx(tp, abs=1e-9)
    assert r.recall * (tp + fn) == pytest.approx(tp, abs=1e-9)
    if r.precision + r.recall > 0:
        assert r.f_score == pytest.approx(
            2 * r.precision * r.recall / (r.precision + r.recall), abs=1e-12
        )
    else:
        assert r.f_score == 0.0


def test_macro_f_of_majority_predictor_is_misleadingly_low():
    # predict "attack" for every row of the 477 / 3,668,045 mix: accuracy is
    # stellar, macro-F exposes the useless normal-class performance
    cm = confusion(
        np.concatenate([np.ones(3_668_045, dtype=np.int8), np.zeros(477, dtype=np.int8)]),
        np.ones(3_668_522, dtype=np.int8),
        positive_class=1,
    )
    r = compute_metrics(cm)
    assert r.accuracy > 0.999
    assert r.macro_f_score < 0.51


def test_published_optimized_row_constants():
    name, acc, prec, rec, f = PUBLISHED_REFERENCE[-1]
    assert name == "optimized decision tree"
    assert (acc, prec, rec, f) == (99.99, 0.99, 1.00, 1.00)


# --- PCA ---------------------------------------------------------------------

def test_pca2_line_through_origin():
    t = np.linspace(-2, 2, 11)
    proj, comps, explained = pca2(np.c_[t, t])
    np.testing.assert_allclose(comps[0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
    assert explained[1] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(proj[:, 1], 0.0, atol=1e-10)


def test_pca2_axis_aligned_data():
    rng = np.random.default_rng(0)
    m = np.c_[rng.normal(0, 5.0, 400), rng.normal(0, 0.5, 400)]
    proj, comps, explained = pca2(m)
    np.testing.assert_allclose(np.abs(comps), np.eye(2), atol=0.05)
    assert explained[0] == pytest.approx(np.var(m[:, 0], ddof=1), rel=0.05)
    assert explained[1] == pytest.approx(np.var(m[:, 1], ddof=1), rel=0.05)


def test_pca2_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(12)
    m = rng.random((50, 5)) @ rng.random((5, 5))
    proj, comps, explained = pca2(m)
    ref_proj, ref_comps, ref_explained = ref_pca2(m)
    np.testing.assert_allclose(proj, ref_proj, atol=1e-6)
    np.testing.assert_allclose(comps, ref_comps, atol=1e-6)
    np.testing.assert_allclose(explained, ref_explained, atol=1e-6)


def test_pca2_does_not_depend_on_the_layout_of_its_input():
    # Dataset features are column-major; pca2 must give the bits it gives
    # for the same matrix in row-major order
    m = np.random.default_rng(3).standard_normal((200, 10)) * np.arange(1, 11) + 5.0
    for got, want in zip(pca2(np.asfortranarray(m)), pca2(m)):
        assert got.tobytes() == want.tobytes()


def test_pca2_components_orthonormal_and_variance_ordered():
    rng = np.random.default_rng(21)
    m = rng.standard_normal((40, 6))
    _, comps, explained = pca2(m)
    np.testing.assert_allclose(comps @ comps.T, np.eye(2), atol=1e-10)
    assert explained[0] >= explained[1] >= 0


def test_pca2_projections_uncorrelated():
    rng = np.random.default_rng(33)
    m = rng.random((60, 4)) * np.array([5.0, 1.0, 0.2, 3.0])
    proj, _, _ = pca2(m)
    cov = np.cov(proj, rowvar=False)
    assert abs(cov[0, 1]) < 1e-8


def test_pca2_sign_rule():
    rng = np.random.default_rng(44)
    m = rng.standard_normal((30, 4))
    _, comps, _ = pca2(m)
    for row in comps:
        assert row[np.argmax(np.abs(row))] > 0


def test_pca2_zero_variance_errors():
    with pytest.raises(ValueError, match="zero variance"):
        pca2(np.ones((5, 3)))


def test_pca2_shape_validation():
    with pytest.raises(ValueError, match="2 x 2"):
        pca2(np.ones((1, 5)))
    with pytest.raises(ValueError, match="2 x 2"):
        pca2(np.ones((5, 1)))


def test_write_pca_csv(tmp_path):
    rng = np.random.default_rng(3)
    m = rng.random((10, 3))
    proj, _, _ = pca2(m)
    labels = rng.integers(0, 2, 10)
    out = tmp_path / "pca.csv"
    write_pca_csv(proj, labels, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "pc1,pc2,label"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert float(first[0]) == proj[0, 0]
    assert first[2] == str(labels[0])


def test_metrics_to_text_keys():
    r = compute_metrics(ConfusionMatrix(tp=3, tn=5, fp=1, fn=1))
    text = metrics_to_text(r)
    for key in ("accuracy", "precision", "recall", "f_score", "macro_f_score"):
        assert key in text
