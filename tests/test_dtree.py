import gc
import sys
from fractions import Fraction

import numpy as np
import pytest

from botopt.dtree import (
    HyperParams,
    Leaf,
    Split,
    best_split,
    dump_tree,
    fit_tree,
    predict,
    predict_many,
)
from botopt.ingest import Dataset

from reference import ref_best_split, ref_fit_tree, ref_gini_fraction, same_tree


def dataset(X, y):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    return Dataset(X, np.asarray(y), tuple(f"f{i}" for i in range(X.shape[1])))


# --- best_split --------------------------------------------------------------

HP_OPEN = HyperParams(max_depth=50, min_samples_split=2, min_samples_leaf=1)


def test_best_split_perfect_separation_midpoint():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    f, thr, dec = best_split(X, y, HP_OPEN, [0])
    assert (f, thr) == (0, 1.5)
    assert dec == pytest.approx(0.5)


def test_best_split_pure_rows_returns_none():
    X = np.array([[0.0], [1.0], [2.0]])
    assert best_split(X, np.array([1, 1, 1]), HP_OPEN, [0]) is None


def test_best_split_no_candidate_when_feature_constant():
    X = np.array([[2.0], [2.0], [2.0], [2.0]])
    assert best_split(X, np.array([0, 0, 1, 1]), HP_OPEN, [0]) is None


def test_best_split_respects_min_samples_leaf():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 1, 1])
    hp = HyperParams(min_samples_leaf=2)
    found = best_split(X, y, hp, [0])
    assert found is not None
    _, thr, _ = found
    assert thr == 1.5  # the 0.5 cut would starve the left child


@pytest.mark.parametrize("seed", range(10))
def test_best_split_matches_bruteforce_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 21))
    X = rng.random((n, 3))
    y = rng.integers(0, 2, n)
    hp = HyperParams(min_samples_leaf=int(rng.integers(1, 3)))
    got = best_split(X, y, hp, [0, 1, 2])
    want = ref_best_split(X, y, hp.min_samples_leaf, [0, 1, 2], n_classes=2)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (got[0], got[1]) == (want[0], want[1])
        assert got[2] == pytest.approx(float(want[2]), abs=1e-12)


def test_best_split_tie_prefers_lower_feature_then_threshold():
    # identical columns: every candidate on feature 1 duplicates feature 0
    X = np.c_[np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0, 3.0])]
    y = np.array([0, 0, 1, 1])
    f, thr, _ = best_split(X, y, HP_OPEN, [0, 1])
    assert (f, thr) == (0, 1.5)


# --- fit_tree / predict ------------------------------------------------------

def test_separable_data_yields_single_split_pure_leaves():
    d = dataset([0.0, 1.0, 2.0, 10.0, 11.0, 12.0], [0, 0, 0, 1, 1, 1])
    t = fit_tree(d, HP_OPEN, seed=0)
    assert isinstance(t.root, Split)
    assert isinstance(t.root.left, Leaf) and isinstance(t.root.right, Leaf)
    assert t.depth == 1
    assert list(predict_many(t, d.features)) == list(d.labels)


def test_max_depth_one_gives_stump():
    rng = np.random.default_rng(0)
    d = dataset(rng.random((50, 3)), rng.integers(0, 2, 50))
    t = fit_tree(d, HyperParams(max_depth=1), seed=1)
    assert t.depth <= 1
    if isinstance(t.root, Split):
        assert isinstance(t.root.left, Leaf) and isinstance(t.root.right, Leaf)


def test_tree_matches_reference_on_gaussian_mixture():
    rng = np.random.default_rng(42)
    X = np.vstack([
        rng.normal(0.0, 1.0, size=(100, 2)),
        rng.normal(2.0, 1.0, size=(100, 2)),
    ])
    y = np.array([0] * 100 + [1] * 100)
    hp = HyperParams(max_depth=5, min_samples_split=8, min_samples_leaf=3)
    t = fit_tree(dataset(X, y), hp, seed=9)
    ref = ref_fit_tree(X, y, hp.max_depth, hp.min_samples_split, hp.min_samples_leaf, 2)
    assert same_tree(t.root, ref)


def tied_data(seed, n=90):
    """Few distinct values per feature and a duplicated column: many equal
    values, and exact Gini ties within and across features."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, 3)).astype(float)
    X = np.c_[X, X[:, 1]]  # every candidate on feature 3 ties one on feature 1
    y = rng.integers(0, 2, n)
    return X, y


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "hp",
    [
        HyperParams(min_samples_split=5, min_samples_leaf=3),
        HyperParams(max_depth=6, min_samples_split=9, min_samples_leaf=2),
    ],
)
def test_tree_matches_reference_on_tied_values(seed, hp):
    X, y = tied_data(seed)
    t = fit_tree(dataset(X, y), hp, seed=seed)
    ref = ref_fit_tree(X, y, hp.max_depth, hp.min_samples_split, hp.min_samples_leaf, 2)
    assert same_tree(t.root, ref)


@pytest.mark.parametrize("seed", range(4))
def test_feature_subsets_match_reference_draws(seed):
    X, y = tied_data(seed)
    X = np.c_[X, np.random.default_rng(seed).random((X.shape[0], 2))]
    hp = HyperParams(max_depth=8, min_samples_split=4, min_samples_leaf=2, max_features_fraction=0.5)
    d = dataset(X, y)
    t = fit_tree(d, hp, seed=seed)
    ref = ref_fit_tree(
        X, y, hp.max_depth, hp.min_samples_split, hp.min_samples_leaf, 2,
        max_features_fraction=hp.max_features_fraction, seed=seed,
    )
    assert same_tree(t.root, ref)
    assert dump_tree(fit_tree(d, hp, seed=seed)) == dump_tree(t)
    assert dump_tree(fit_tree(d, hp, seed=seed + 100)) != dump_tree(t)


def test_tree_does_not_depend_on_the_order_of_equal_values():
    X, y = tied_data(1)
    d = dataset(X, y)
    hp = HyperParams(min_samples_leaf=2)
    ascending = np.argsort(X, axis=0, kind="stable").T  # equal values by ascending row
    descending = (X.shape[0] - 1 - np.argsort(X[::-1], axis=0, kind="stable")).T
    assert not np.array_equal(ascending, descending)
    texts = []
    for order in map(np.ascontiguousarray, (ascending, descending)):
        given = dataset(X, y)
        given.__dict__["column_order"] = order  # where cached_property keeps it
        texts.append(dump_tree(fit_tree(given, hp, seed=0)))
        assert given.column_order is order
    assert texts[0] == texts[1] == dump_tree(fit_tree(d, hp, seed=0))


def test_fits_share_the_datasets_column_order():
    rng = np.random.default_rng(7)
    X = rng.integers(0, 6, (300, 3)).astype(float)  # many equal values
    d = dataset(X, rng.integers(0, 2, 300))
    order = d.column_order
    before = order.copy()
    fit_tree(d, HP_OPEN, seed=0)
    fit_tree(d, HyperParams(max_depth=3, max_features_fraction=0.5), seed=1)
    assert d.column_order is order
    assert not order.flags.writeable
    assert np.array_equal(order, before)
    assert order.shape == (3, 300)
    for f in range(3):
        assert np.array_equal(np.sort(order[f]), np.arange(300))
        assert np.all(np.diff(X[order[f], f]) >= 0)


def test_fit_leaves_no_reference_cycles():
    # a cycle keeps each fit's work arrays alive until the cyclic collector runs
    rng = np.random.default_rng(6)
    d = dataset(rng.random((200, 3)), rng.integers(0, 2, 200))
    gc.collect()
    gc.disable()
    try:
        fit_tree(d, HP_OPEN, seed=0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_fit_tree_needs_no_recursion_headroom():
    # alternating labels make the lowest cut win at every node, so each
    # split peels off one row: depth n - 1
    n = 120
    d = dataset(np.arange(n, dtype=float), np.arange(n) % 2)
    depth_now, frame = 0, sys._getframe()
    while frame is not None:
        depth_now, frame = depth_now + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth_now + 40)
    try:
        t = fit_tree(d, HyperParams(max_depth=n), seed=0)
        text = dump_tree(t)
    finally:
        sys.setrecursionlimit(limit)
    assert t.depth == n - 1
    assert list(predict_many(t, d.features)) == list(d.labels)
    assert text.count("leaf") == n


def test_predict_routes_left_on_equality():
    d = dataset([0.0, 1.0, 2.0, 3.0], [0, 0, 1, 1])
    t = fit_tree(d, HP_OPEN, seed=0)
    assert isinstance(t.root, Split) and t.root.threshold == 1.5
    left_class = t.root.left.majority
    assert predict(t, [1.5]) == left_class  # boundary value goes left
    assert predict(t, [1.0]) == left_class


def test_predict_rejects_non_finite_rows():
    # nan <= threshold is false, so a nan would silently go right at every split
    d = dataset([0.0, 1.0, 2.0, 3.0], [0, 0, 1, 1])
    t = fit_tree(d, HP_OPEN, seed=0)
    with pytest.raises(ValueError, match=r"^non-finite feature value nan at row 1, feature 0$"):
        predict(t, [np.nan])
    X = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, -np.inf]])
    t2 = fit_tree(dataset([[0.0, 1.0], [2.0, 3.0]], [0, 1]), HP_OPEN, seed=0)
    with pytest.raises(ValueError, match=r"^non-finite feature value -inf at row 3, feature 1$"):
        predict_many(t2, X)


def test_memorizing_tree_replays_training_labels():
    rng = np.random.default_rng(3)
    X = np.unique(rng.random((120, 4)), axis=0)  # distinct rows => consistent labels
    y = rng.integers(0, 2, X.shape[0])
    d = dataset(X, y)
    t = fit_tree(d, HyperParams(max_depth=50, min_samples_split=2, min_samples_leaf=1), seed=5)
    assert list(predict_many(t, X)) == list(y)
    for row, label in zip(X, y):
        assert predict(t, row) == label


def test_predict_dimension_mismatch():
    d = dataset([[0.0, 1.0], [2.0, 3.0]], [0, 1])
    t = fit_tree(d, HP_OPEN, seed=0)
    with pytest.raises(ValueError, match="features"):
        predict(t, [1.0])
    with pytest.raises(ValueError, match="features"):
        predict_many(t, np.zeros((3, 3)))


def walk_splits(node, rows_idx, X, y, hp, acc):
    if isinstance(node, Leaf):
        return
    mask = X[rows_idx, node.feature] <= node.threshold
    left_idx, right_idx = rows_idx[mask], rows_idx[~mask]
    acc.append((node, left_idx.size, right_idx.size, rows_idx))
    walk_splits(node.left, left_idx, X, y, hp, acc)
    walk_splits(node.right, right_idx, X, y, hp, acc)


@pytest.mark.parametrize("seed", range(5))
def test_accepted_splits_have_positive_decrease_and_legal_children(seed):
    rng = np.random.default_rng(seed)
    X = rng.random((80, 3))
    y = rng.integers(0, 2, 80)
    hp = HyperParams(max_depth=6, min_samples_split=5, min_samples_leaf=2)
    t = fit_tree(dataset(X, y), hp, seed=seed)
    acc = []
    walk_splits(t.root, np.arange(80), X, y, hp, acc)
    for node, n_left, n_right, rows_idx in acc:
        assert n_left >= hp.min_samples_leaf and n_right >= hp.min_samples_leaf
        mask = X[rows_idx, node.feature] <= node.threshold
        parent = ref_gini_fraction(np.bincount(y[rows_idx], minlength=2))
        left = ref_gini_fraction(np.bincount(y[rows_idx[mask]], minlength=2))
        right = ref_gini_fraction(np.bincount(y[rows_idx[~mask]], minlength=2))
        n = rows_idx.size
        assert parent - Fraction(n_left, n) * left - Fraction(n_right, n) * right > 0


def max_path_len(node):
    if isinstance(node, Leaf):
        return 0
    return 1 + max(max_path_len(node.left), max_path_len(node.right))


@pytest.mark.parametrize("max_depth", [1, 2, 4, 8])
def test_depth_bound_holds(max_depth):
    rng = np.random.default_rng(max_depth)
    d = dataset(rng.random((150, 4)), rng.integers(0, 2, 150))
    t = fit_tree(d, HyperParams(max_depth=max_depth), seed=0)
    assert t.depth <= max_depth
    assert max_path_len(t.root) == t.depth


def test_parallel_split_search_matches_serial():
    rng = np.random.default_rng(8)
    d = dataset(rng.random((300, 6)), rng.integers(0, 2, 300))
    hp = HyperParams(max_depth=7, min_samples_split=4, min_samples_leaf=2)
    serial = fit_tree(d, hp, seed=2, n_threads=1)
    threaded = fit_tree(d, hp, seed=2, n_threads=4)

    def as_tuple(node):
        if isinstance(node, Leaf):
            return ("leaf", tuple(node.counts), node.majority)
        return ("split", node.feature, node.threshold, as_tuple(node.left), as_tuple(node.right))

    assert as_tuple(serial.root) == as_tuple(threaded.root)


def test_feature_subsetting_is_seeded_and_sized():
    rng = np.random.default_rng(10)
    d = dataset(rng.random((100, 8)), rng.integers(0, 2, 100))
    hp = HyperParams(max_depth=4, max_features_fraction=0.5)  # ceil(0.5*8) = 4 per node
    a = fit_tree(d, hp, seed=33)
    b = fit_tree(d, hp, seed=33)
    c = fit_tree(d, hp, seed=34)

    def as_tuple(node):
        if isinstance(node, Leaf):
            return ("leaf", tuple(node.counts), node.majority)
        return ("split", node.feature, node.threshold, as_tuple(node.left), as_tuple(node.right))

    assert as_tuple(a.root) == as_tuple(b.root)
    assert as_tuple(a.root) != as_tuple(c.root)  # chosen to differ on this data


def test_leaf_tie_breaks_toward_class_zero():
    d = dataset([[0.0], [1.0]], [1, 0])  # one row each, unsplittable pair
    t = fit_tree(d, HyperParams(max_depth=1, min_samples_split=3), seed=0)
    assert isinstance(t.root, Leaf)
    assert t.root.majority == 0


def test_dump_tree_lists_every_node():
    d = dataset([0.0, 1.0, 2.0, 3.0], [0, 0, 1, 1])
    t = fit_tree(d, HP_OPEN, seed=0)
    assert dump_tree(t, feature_names=["rate"]) == (
        "rate <= 1.5\n"
        "  leaf class=0 counts=[2, 0]\n"
        "  leaf class=1 counts=[0, 2]"
    )


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(max_depth=0)
    with pytest.raises(ValueError):
        HyperParams(min_samples_split=1)
    with pytest.raises(ValueError):
        HyperParams(min_samples_leaf=0)
    with pytest.raises(ValueError):
        HyperParams(max_features_fraction=0.0)
