import gc
import sys
import tracemalloc
from fractions import Fraction
from math import gcd, inf
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botopt import dtree
from botopt.dtree import (
    HyperParams,
    Leaf,
    Split,
    _node_split,
    dump_tree,
    fit_tree,
    predict_many,
)
from botopt.ingest import Dataset
from botopt.synthetic import gaussian_clusters

from reference import ref_best_split, ref_fit_tree, ref_gini_fraction, same_tree


def dataset(X, y):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    return Dataset(X, np.asarray(y), tuple(f"f{i}" for i in range(X.shape[1])))


# --- best split of one node --------------------------------------------------

HP_OPEN = HyperParams(max_depth=50, min_samples_split=2, min_samples_leaf=1)

# Where neighbouring values a < b are adjacent floats, a/2 + b/2 can round
# onto b. Here it does: a = 1 + 2^-52, and one cut, at a, separates the classes.
ADJ_A = 1.0 + 2.0**-52
ADJ_B = float(np.nextafter(ADJ_A, 2.0))
ADJ_X = np.array([[ADJ_A], [ADJ_A], [ADJ_B], [ADJ_B], [3.0], [3.0]])
ADJ_Y = np.array([0, 0, 1, 1, 1, 1])
FLOAT_MAX = float(np.finfo(np.float64).max)
ADJACENT_BASES = [1.0, -1.0, 0.0, 5e-324, -5e-324, 3 * 5e-324, -8 * 5e-324, FLOAT_MAX, -FLOAT_MAX]


def adjacent_run(base, length):
    """length consecutive float64 values from base, stepping toward -base."""
    run = [base]
    toward = -np.inf if base > 0 else np.inf
    for _ in range(length - 1):
        run.append(float(np.nextafter(run[-1], toward)))
    return run


def best_split(X, y, hp, feature_subset):
    """Best (feature, threshold, Gini decrease) over the allowed features of
    one node, or None: _node_split's score S as the decrease 2 S / n^2."""
    d = dataset(X, y)
    _, found = _node_split(
        d.features.T, d.labels.astype(np.float64), d.column_order, int(d.labels.sum()),
        sorted(feature_subset), hp.min_samples_leaf, None, {}, (),
    )
    if found is None:
        return None
    f, thr, n_left, score, a_left = found
    assert a_left == d.labels[d.column_order[f][:n_left]].sum()
    return f, thr, 2.0 * score / len(y) ** 2


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


def random_node(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 21))
    X = rng.random((n, 3))
    y = rng.integers(0, 2, n)
    return X, y, int(rng.integers(1, 3))


@pytest.mark.parametrize(
    "X, y, min_leaf",
    [
        *(pytest.param(*random_node(seed), id=str(seed)) for seed in range(10)),
        pytest.param(ADJ_X, ADJ_Y, 1, id="adjacent-floats"),
    ],
)
def test_best_split_matches_bruteforce_oracle(X, y, min_leaf):
    features = list(range(X.shape[1]))
    got = best_split(X, y, HyperParams(min_samples_leaf=min_leaf), features)
    want = ref_best_split(X, y, min_leaf, features, n_classes=2)
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


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_thresholds_near_the_float_maximum_stay_finite(sign):
    # (a + b) / 2 overflows to inf here; halving each value first does not
    X = sign * np.array([[1e308], [1.5e308], [1.2e308], [1.6e308]])
    y = np.array([0, 1, 0, 1])
    t = fit_tree(dataset(X, y), HP_OPEN, seed=0)
    assert isinstance(t.root, Split) and np.isfinite(t.root.threshold)
    assert isinstance(t.root.left, Leaf) and isinstance(t.root.right, Leaf)
    ref = ref_fit_tree(X, y, HP_OPEN.max_depth, HP_OPEN.min_samples_split, HP_OPEN.min_samples_leaf, 2)
    assert same_tree(t.root, ref)


@st.composite
def adjacent_float_nodes(draw):
    """(X, y, hp, seed): 2 to 24 rows of 1 to 3 features, each column drawn
    from one to three runs of adjacent floats."""
    n = draw(st.integers(2, 24))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        run = st.tuples(st.sampled_from(ADJACENT_BASES), st.integers(1, 4))
        runs = draw(st.lists(run, min_size=1, max_size=3))
        values = [v for base, length in runs for v in adjacent_run(base, length)]
        columns.append(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    hp = HyperParams(
        min_samples_leaf=draw(st.integers(1, 3)),
        max_features_fraction=draw(st.sampled_from([0.34, 0.5, 1.0])),
    )
    return np.array(columns).T, np.array(y), hp, draw(st.integers(0, 2**16))


@given(adjacent_float_nodes())
@example((ADJ_X, ADJ_Y, HP_OPEN, 0))
@example((-ADJ_X, ADJ_Y, HP_OPEN, 0))
@settings(max_examples=150, deadline=None)
def test_cuts_between_adjacent_floats_are_the_cuts_applied(node):
    X, y, hp, seed = node
    t = fit_tree(dataset(X, y), hp, seed=seed)
    ref = ref_fit_tree(
        X, y, hp.max_depth, hp.min_samples_split, hp.min_samples_leaf, 2,
        max_features_fraction=hp.max_features_fraction, seed=seed,
    )
    assert same_tree(t.root, ref)
    acc = []
    walk_splits(t.root, np.arange(len(y)), X, y, acc)
    for split, _, _, rows_idx in acc:
        col = X[rows_idx, split.feature]
        a, b = col[col <= split.threshold].max(), col[col > split.threshold].min()
        mid = a / 2.0 + b / 2.0
        assert a <= split.threshold < b and split.threshold == (mid if mid < b else a)
    # where one cut separates the classes, as in the examples, both leaves are pure
    root = ref_best_split(X, y, hp.min_samples_leaf, range(X.shape[1]), n_classes=2)
    if hp.max_features_fraction == 1.0 and root and root[2] == ref_gini_fraction(np.bincount(y)):
        assert list(predict_many(t, X)) == list(y)


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
    assert order.dtype == np.int32
    assert not order.flags.writeable
    assert np.array_equal(order, before)
    assert order.shape == (3, 300)
    for f in range(3):
        assert np.array_equal(np.sort(order[f]), np.arange(300))
        assert np.all(np.diff(X[order[f], f]) >= 0)


def test_a_fit_on_a_warm_column_order_copies_no_feature_matrix():
    # features.T is the split search's columns as they are; a copy of the
    # matrix would add features.nbytes to the fit's peak (about 1.4 times
    # features.nbytes without it), which the partition of the root's rows
    # sets here, where both children grow: np.take casts the int32 orders to
    # intp, features.nbytes, beside the bool mask
    d = gaussian_clusters(40_000, 2_000, seed=1, n_features=10)
    d.column_order
    tracemalloc.start()
    try:
        fit_tree(d, HP_OPEN, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * d.features.nbytes


def test_a_stump_partitions_no_rows():
    # at max_depth 1 neither child of the root can split, so the fit makes
    # no partition, and no intp cast of the orders (features.nbytes): the
    # peak is the split search's per-feature work arrays
    d = gaussian_clusters(20_000, 1_000, seed=1, n_features=40)
    d.column_order
    tracemalloc.start()
    try:
        t = fit_tree(d, HyperParams(max_depth=1), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(t.root, Split)
    assert peak < 0.5 * d.features.nbytes


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
    assert list(predict_many(t, [[1.5], [1.0]])) == [left_class] * 2  # boundary value goes left


def test_predict_rejects_non_finite_rows():
    # nan <= threshold is false, so a nan would silently go right at every split
    d = dataset([0.0, 1.0, 2.0, 3.0], [0, 0, 1, 1])
    t = fit_tree(d, HP_OPEN, seed=0)
    with pytest.raises(ValueError, match=r"^non-finite feature value nan at row 1, feature 0$"):
        predict_many(t, [[np.nan]])
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


def test_predict_dimension_mismatch():
    d = dataset([[0.0, 1.0], [2.0, 3.0]], [0, 1])
    t = fit_tree(d, HP_OPEN, seed=0)
    with pytest.raises(ValueError, match="features"):
        predict_many(t, [[1.0]])
    with pytest.raises(ValueError, match="features"):
        predict_many(t, np.zeros((3, 3)))


def walk_splits(node, rows_idx, X, y, acc):
    """Route rows_idx down the tree by X <= threshold, appending (split,
    n_left, n_right, rows) for each split reached. Every leaf's counts must
    be the class counts of exactly the rows routed to it, so predict sends
    each training row to the leaf that fit counted it in."""
    if isinstance(node, Leaf):
        assert node.counts.dtype == np.int64 and not node.counts.flags.writeable
        assert node.counts.tolist() == np.bincount(y[rows_idx], minlength=2).tolist()
        return
    mask = X[rows_idx, node.feature] <= node.threshold
    left_idx, right_idx = rows_idx[mask], rows_idx[~mask]
    acc.append((node, left_idx.size, right_idx.size, rows_idx))
    walk_splits(node.left, left_idx, X, y, acc)
    walk_splits(node.right, right_idx, X, y, acc)


def random_rows(seed):
    rng = np.random.default_rng(seed)
    return rng.random((80, 3)), rng.integers(0, 2, 80)


def adjacent_float_rows(seed):
    """80 rows of 3 features, each column drawn from three runs of four
    adjacent floats."""
    rng = np.random.default_rng(seed)
    columns = []
    for _ in range(3):
        bases = rng.choice(ADJACENT_BASES, size=3, replace=False).tolist()
        columns.append(rng.choice([v for base in bases for v in adjacent_run(base, 4)], 80))
    return np.array(columns).T, rng.integers(0, 2, 80)


@pytest.mark.parametrize(
    "seed, X, y",
    [
        *(pytest.param(seed, *random_rows(seed), id=str(seed)) for seed in range(5)),
        pytest.param(0, *adjacent_float_rows(0), id="adjacent-floats"),
    ],
)
def test_accepted_splits_have_positive_decrease_and_legal_children(seed, X, y):
    hp = HyperParams(max_depth=6, min_samples_split=5, min_samples_leaf=2)
    t = fit_tree(dataset(X, y), hp, seed=seed)
    acc = []
    walk_splits(t.root, np.arange(80), X, y, acc)
    for node, n_left, n_right, rows_idx in acc:
        assert n_left >= hp.min_samples_leaf and n_right >= hp.min_samples_leaf
        mask = X[rows_idx, node.feature] <= node.threshold
        parent = ref_gini_fraction(np.bincount(y[rows_idx], minlength=2))
        left = ref_gini_fraction(np.bincount(y[rows_idx[mask]], minlength=2))
        right = ref_gini_fraction(np.bincount(y[rows_idx[~mask]], minlength=2))
        n = rows_idx.size
        assert parent - Fraction(n_left, n) * left - Fraction(n_right, n) * right > 0


def leaf_depths(node, depth=0):
    if isinstance(node, Leaf):
        return [(node, depth)]
    return leaf_depths(node.left, depth + 1) + leaf_depths(node.right, depth + 1)


# (hyperparameters, whether a leaf's counts and depth show that rule stopped it)
STOPPING_RULES = {
    "max_depth": (HyperParams(max_depth=2), lambda c, depth: depth == 2 and c.min() > 0),
    "min_samples_split": (
        HyperParams(min_samples_split=40), lambda c, _: c.min() > 0 and c.sum() < 40
    ),
    "pure": (HyperParams(), lambda c, _: c.min() == 0),
}


@pytest.mark.parametrize("hp, stopped", STOPPING_RULES.values(), ids=STOPPING_RULES.keys())
def test_leaf_counts_hold_for_leaves_stopped_by_each_rule(hp, stopped):
    # a child's counts come from its parent's split, not from its rows;
    # attack-heavy labels make pure blocks of attacks, as in the paper's data
    rng = np.random.default_rng(12)
    X = rng.random((400, 3))
    y = (X[:, 0] + 0.3 * rng.random(400) > 0.35).astype(np.int64)
    t = fit_tree(dataset(X, y), hp, seed=0)
    walk_splits(t.root, np.arange(400), X, y, [])
    assert any(stopped(leaf.counts, depth) for leaf, depth in leaf_depths(t.root))


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
    # a fresh copy has an empty split memo, so the pool scores every feature
    threaded = fit_tree(d.take(np.arange(d.n_rows)), hp, seed=2, n_threads=4)
    # on d the split memo serves the root, and the pool scores the rest;
    # the fit memo would serve the whole tree
    d.tree_memo.clear()
    warm = fit_tree(d, hp, seed=2, n_threads=4)

    def as_tuple(node):
        if isinstance(node, Leaf):
            return ("leaf", tuple(node.counts), node.majority)
        return ("split", node.feature, node.threshold, as_tuple(node.left), as_tuple(node.right))

    assert as_tuple(serial.root) == as_tuple(threaded.root) == as_tuple(warm.root)


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


# --- exact split scores at scale ----------------------------------------------
# A cut's Gini decrease is 2 e^2 / (n^2 nl nr) with the integer
# e = n a_l - A nl. Each case below is one 0/1 feature whose single cut, at
# 0.5, has e = 0 (a zero-gain split) or e = +-1 (the smallest positive
# decrease). At these sizes the products of the textbook formula,
# (n nr S_l + n nl S_r - nl nr S_p) / (n^2 nl nr), pass 2^53.

def cut_with_imbalance(seed, e):
    """(n, nl, A, a_l) with 10^4 <= n <= 10^5 and n a_l - A nl == e."""
    rng = np.random.default_rng([seed, e + 1])
    while True:
        n = int(rng.integers(10**4, 10**5 + 1))
        nl = int(rng.integers(1, n))
        g = gcd(n, nl)
        if e == 0 and g > 1:
            n_attack = int(rng.integers(1, g)) * (n // g)
        elif e != 0 and g == 1:
            n_attack = -e * pow(nl, -1, n) % n  # so that n divides n_attack nl + e
        else:
            continue
        attack_left = (n_attack * nl + e) // n
        if 0 < n_attack < n and 0 <= attack_left <= nl and n_attack - attack_left <= n - nl:
            return n, nl, n_attack, attack_left


CUTS = [
    (29_418, 1_407, 9_806, 469),  # e = 0: the textbook formula scores it positive
    (28_285, 873, 162, 5),  # e = -1: the textbook formula scores it 0.0
    *(cut_with_imbalance(seed, e) for seed in range(6) for e in (-1, 0, 1)),
]


@pytest.mark.parametrize("n, nl, n_attack, attack_left", CUTS)
def test_a_cut_is_taken_exactly_when_its_imbalance_is_nonzero(n, nl, n_attack, attack_left):
    # nl rows of value 0 hold attack_left attacks, the other rows the rest
    X = (np.arange(n) >= nl).astype(float).reshape(-1, 1)
    y = np.zeros(n, dtype=np.int64)
    y[:attack_left] = 1
    y[nl : nl + n_attack - attack_left] = 1
    t = fit_tree(dataset(X, y), HP_OPEN, seed=0)
    ref = ref_fit_tree(X, y, HP_OPEN.max_depth, HP_OPEN.min_samples_split, HP_OPEN.min_samples_leaf, 2)
    assert same_tree(t.root, ref)
    assert isinstance(t.root, Split) == (n * attack_left - n_attack * nl != 0)


def test_fit_tree_rejects_rows_beyond_exact_scores():
    limit = 94_906_265
    assert limit**2 <= 2**53 < (limit + 1) ** 2
    n = limit + 1
    # zero-stride views: nothing of the n rows is allocated
    train = SimpleNamespace(
        features=np.broadcast_to(0.0, (n, 3)), labels=np.broadcast_to(np.int64(0), (n,))
    )
    with pytest.raises(ValueError, match=rf"^{n} training rows exceed the limit of {limit} rows$"):
        fit_tree(train, HP_OPEN, seed=0)


# --- the split memo shared by the fits on one Dataset -------------------------

def memo_rows(seed, n=1280):
    """n rows of three features with 8, 4 and 16 distinct values, and labels
    that lean on the first: many ties, and records for 40 nodes x features."""
    rng = np.random.default_rng(seed)
    X = np.c_[rng.integers(0, 8, n), rng.integers(0, 4, n), rng.integers(0, 16, n)].astype(float)
    y = (rng.random(n) < np.where(X[:, 0] > 4, 0.8, 0.2)).astype(int)
    return X, y


def fresh_copy(d):
    return d.take(np.arange(d.n_rows))  # same rows, empty split memo


def count_scans(monkeypatch):
    """A list that gets one entry per feature the split search scans."""
    scans = []
    scan = dtree._feature_candidates

    def counted(*args):
        scans.append(args[-1])
        return scan(*args)

    monkeypatch.setattr(dtree, "_feature_candidates", counted)
    return scans


memo_fits = st.tuples(
    st.builds(
        HyperParams,
        max_depth=st.integers(1, 8),
        min_samples_split=st.sampled_from([2, 5, 40]),
        # the larger ones push many bands out of a node's trimmed range
        min_samples_leaf=st.sampled_from([1, 2, 5, 30, 150, 500]),
        max_features_fraction=st.sampled_from([0.34, 0.67, 1.0]),
    ),
    st.integers(0, 3),
)


@given(data_seed=st.integers(0, 2), fits=st.lists(memo_fits, min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_fits_that_share_a_split_memo_match_fresh_fits(data_seed, fits):
    X, y = memo_rows(data_seed)
    d = dataset(X, y)
    for hp, seed in fits:
        t = fit_tree(d, hp, seed)
        assert dump_tree(t) == dump_tree(fit_tree(fresh_copy(d), hp, seed))
        ref = ref_fit_tree(
            X, y, hp.max_depth, hp.min_samples_split, hp.min_samples_leaf, 2,
            max_features_fraction=hp.max_features_fraction, seed=seed,
        )
        assert same_tree(t.root, ref)
    assert 0 < len(d.split_memo) <= d.n_rows // 32


@pytest.mark.parametrize("attack_row", [0, 63], ids=["low-edge", "high-edge"])
def test_a_record_out_of_the_leaf_range_is_scanned_again(monkeypatch, attack_row):
    # one attack at an end of the feature's order: the best cut of all
    # peels it off, one row from the edge, where min_samples_leaf=3 bars it
    X = np.arange(64.0)
    y = (np.arange(64) == attack_row).astype(int)
    d = dataset(X, y)
    scans = count_scans(monkeypatch)
    wide, narrow = HyperParams(max_depth=1), HyperParams(max_depth=1, min_samples_leaf=3)
    first = dump_tree(fit_tree(d, wide, seed=0))
    assert len(scans) == 1 and len(d.split_memo) == 1
    t = fit_tree(d, narrow, seed=0)
    assert len(scans) == 2  # the stored band does not serve min_samples_leaf=3
    assert dump_tree(t) == dump_tree(fit_tree(fresh_copy(d), narrow, seed=0))
    assert same_tree(t.root, ref_fit_tree(X.reshape(-1, 1), y, 1, 2, 3, 2))
    assert t.root.threshold == (2.5 if attack_row == 0 else 60.5)
    # the rescan kept the untrimmed record, which still serves min_samples_leaf=1
    # (the fit memo would serve the whole tree)
    d.tree_memo.clear()
    before = len(scans)
    assert dump_tree(fit_tree(d, wide, seed=0)) == first
    assert len(scans) == before


def test_the_split_memo_stops_storing_at_its_ceiling(monkeypatch):
    X, y = memo_rows(5, n=320)  # room for 10 records
    d = dataset(X, y)
    records = d.split_memo
    hp = HyperParams(max_depth=6)
    t = fit_tree(d, hp, seed=0)
    assert len(records) == 10
    held = dict(records)
    for seed, fraction in [(1, 0.34), (2, 0.67), (0, 1.0)]:
        other = HyperParams(max_depth=8, min_samples_leaf=2, max_features_fraction=fraction)
        assert dump_tree(fit_tree(d, other, seed)) == dump_tree(fit_tree(fresh_copy(d), other, seed))
    assert records == held
    # a full memo still serves: the refit scans fewer features than a fresh
    # fit (the fit memo would serve the whole tree)
    d.tree_memo.clear()
    scans = count_scans(monkeypatch)
    assert dump_tree(fit_tree(d, hp, seed=0)) == dump_tree(t)
    served = len(scans)
    assert dump_tree(fit_tree(fresh_copy(d), hp, seed=0)) == dump_tree(t)
    assert served < len(scans) - served


def test_deep_nodes_leave_the_split_memo_alone():
    # hashing a node's path costs its depth and recurses in C, so nodes from
    # depth 64 on neither read nor write the memo; the chain of one-row peels
    # of test_fit_tree_needs_no_recursion_headroom reaches depth n - 1
    n = 300
    d = dataset(np.arange(n, dtype=float), np.arange(n) % 2)
    depths = []

    def nesting(path):
        level = 0
        while path:
            path, level = path[0], level + 1
        return level

    class Recording(dict):
        def get(self, key, default=None):
            depths.append(nesting(key[0]))
            return super().get(key, default)

        def __setitem__(self, key, value):
            depths.append(nesting(key[0]))
            super().__setitem__(key, value)

    d.__dict__["split_memo"] = Recording()
    hp = HyperParams(max_depth=n)
    t = fit_tree(d, hp, seed=0)
    assert t.depth == n - 1 and max(depths) == 63
    assert dump_tree(t) == dump_tree(fit_tree(fresh_copy(d), hp, seed=0))


# --- the fit memo shared by the fits on one Dataset ---------------------------

def memo_record(d, tree):
    """The (lo, hi, tree, nodes) record of the fit memo that holds tree, or None."""
    held = [r for boxes in d.tree_memo.values() for r in boxes if r[2] is tree]
    return held[0] if held else None


def stored_nodes(d):
    return sum(r[3] for boxes in d.tree_memo.values() for r in boxes)


LOWEST = (1, 2, 1)  # the smallest max_depth, min_samples_split, min_samples_leaf


def with_settings(hp, settings):
    return HyperParams(*settings, max_features_fraction=hp.max_features_fraction)


tree_memo_fits = st.tuples(
    st.builds(
        HyperParams,
        max_depth=st.integers(1, 8),
        min_samples_split=st.sampled_from([2, 5, 40, 300]),
        min_samples_leaf=st.sampled_from([1, 2, 5, 30, 150]),
        max_features_fraction=st.sampled_from([0.34, 0.67, 1.0]),
    ),
    st.integers(0, 2),
)


@given(data_seed=st.integers(0, 2), fits=st.lists(tree_memo_fits, min_size=2, max_size=5))
@settings(max_examples=30, deadline=None)
def test_fits_inside_a_recorded_box_return_the_recorded_tree(data_seed, fits):
    X, y = memo_rows(data_seed)
    d = dataset(X, y)
    for hp, seed in fits:
        t = fit_tree(d, hp, seed)
        assert dump_tree(t) == dump_tree(fit_tree(fresh_copy(d), hp, seed))
        ref = ref_fit_tree(
            X, y, hp.max_depth, hp.min_samples_split, hp.min_samples_leaf, 2,
            max_features_fraction=hp.max_features_fraction, seed=seed,
        )
        assert same_tree(t.root, ref)
        record = memo_record(d, t)
        if record is None:  # the memo is full
            continue
        lo, hi = record[0], record[1]
        for corner in np.ndindex(2, 2, 2):  # each corner of the box, inf capped
            inside = with_settings(hp, [(a, min(b, a + 1000))[c] for a, b, c in zip(lo, hi, corner)])
            assert fit_tree(d, inside, seed) is t
            assert dump_tree(t) == dump_tree(fit_tree(fresh_copy(d), inside, seed))
        # one step out of each face: some decision of the fit may come out
        # otherwise, so the memo regrows the tree, or serves another box's
        for i in range(3):
            for out in (lo[i] - 1, hi[i] + 1):
                if LOWEST[i] <= out < inf:
                    stepped = with_settings(hp, [out if j == i else v for j, v in enumerate(lo)])
                    u = fit_tree(d, stepped, seed)
                    assert u is not t
                    assert dump_tree(u) == dump_tree(fit_tree(fresh_copy(d), stepped, seed))
    assert stored_nodes(d) <= d.n_rows // 4


def test_the_fit_memo_stops_storing_at_its_ceiling():
    X, y = memo_rows(5, n=320)  # room for 80 stored nodes
    d = dataset(X, y)
    hp = HyperParams(max_depth=5)
    trees = []
    for seed in range(40):
        before = stored_nodes(d)
        trees.append(fit_tree(d, hp, seed))
        if stored_nodes(d) == before:
            break
    else:
        pytest.fail("forty fits never filled the fit memo")
    assert 0 < stored_nodes(d) <= 80
    unstored = trees[-1]
    assert memo_record(d, unstored) is None
    held = {key: list(boxes) for key, boxes in d.tree_memo.items()}
    again = fit_tree(d, hp, seed)
    assert again is not unstored and dump_tree(again) == dump_tree(unstored)
    assert d.tree_memo == held
    # a full memo still serves every tree it holds
    for seed, t in enumerate(trees[:-1]):
        assert fit_tree(d, hp, seed) is t
