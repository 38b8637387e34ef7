import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botopt.ingest import (
    Dataset,
    class_counts,
    load_flows,
    sample_flows,
    stratified_split,
    write_flows,
)
from botopt.synthetic import gaussian_clusters


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_flows_basic(tmp_path):
    p = write_csv(
        tmp_path / "flows.csv",
        "rate,bytes,label\n1.5,10,normal\n2.5,20,attack\n3.5,30,attack\n4.5,40,normal\n",
    )
    d = load_flows(p, "label", "attack")
    assert d.n_rows == 4 and d.n_features == 2
    assert d.feature_names == ("rate", "bytes")
    assert list(d.labels) == [0, 1, 1, 0]
    np.testing.assert_array_equal(d.features[:, 0], [1.5, 2.5, 3.5, 4.5])


def test_load_flows_non_numeric_cell_names_row_and_column(tmp_path):
    p = write_csv(tmp_path / "bad.csv", "rate,bytes,label\n1,2,normal\nabc,3,attack\n")
    with pytest.raises(ValueError, match=r"'abc' at row 2, column 'rate'"):
        load_flows(p, "label", "attack")


def test_load_flows_missing_cell(tmp_path):
    p = write_csv(tmp_path / "bad.csv", "rate,bytes,label\n1,,normal\n2,3,attack\n")
    with pytest.raises(ValueError, match=r"row 1, column 'bytes'"):
        load_flows(p, "label", "attack")


def test_load_flows_unknown_label(tmp_path):
    p = write_csv(tmp_path / "bad.csv", "x,label\n1,normal\n2,attack\n3,weird\n")
    with pytest.raises(ValueError, match="unknown label 'weird'"):
        load_flows(p, "label", "attack")


def test_load_flows_empty_label_is_not_the_normal_class(tmp_path):
    p = write_csv(tmp_path / "bad.csv", "a,b,label\n1,2,attack\n3,4,\n5,6,\n")
    with pytest.raises(ValueError, match=r"missing label at row 2, column 'label'"):
        load_flows(p, "label", "attack")


def test_load_flows_empty_file(tmp_path):
    p = write_csv(tmp_path / "empty.csv", "")
    with pytest.raises(ValueError, match="empty file"):
        load_flows(p, "label", "attack")


def test_load_flows_header_only(tmp_path):
    p = write_csv(tmp_path / "header.csv", "x,label\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_flows(p, "label", "attack")


def test_load_flows_missing_label_column(tmp_path):
    p = write_csv(tmp_path / "nolabel.csv", "x,y\n1,2\n")
    with pytest.raises(ValueError, match="label column 'label' not in header"):
        load_flows(p, "label", "attack")


def test_load_flows_include_list_drops_string_columns(tmp_path):
    p = write_csv(
        tmp_path / "mixed.csv",
        "saddr,rate,bytes,label\n192.168.0.1,1,2,normal\n10.0.0.2,3,4,attack\n",
    )
    d = load_flows(p, "label", "attack", feature_columns=["rate", "bytes"])
    assert d.feature_names == ("rate", "bytes")
    np.testing.assert_array_equal(d.features, [[1.0, 2.0], [3.0, 4.0]])


def test_load_flows_include_list_unknown_column(tmp_path):
    p = write_csv(tmp_path / "f.csv", "a,label\n1,normal\n2,attack\n")
    with pytest.raises(ValueError, match=r"\['b'\] not in header"):
        load_flows(p, "label", "attack", feature_columns=["b"])


@pytest.mark.parametrize(
    "header, feature_columns, column, where",
    [
        ("a,a,label", None, "a", "header"),
        ("a,b,a,label", ["a", "b"], "a", "header"),
        ("a,label,label", None, "label", "header"),
        ("a,b,label", ["a", "b", "a"], "a", "label and feature columns"),
        ("a,b,label", ["label", "a"], "label", "label and feature columns"),
    ],
)
def test_load_flows_rejects_a_column_named_twice(tmp_path, header, feature_columns, column, where):
    # reading both names from the first 'a' would drop the second column unseen
    cells = ",".join(["7"] * header.count(","))
    rows = f"{cells},normal\n{cells},attack\n"
    p = write_csv(tmp_path / "twice.csv", f"{header}\n{rows}")
    expected = f"{re.escape(str(p))}: column '{column}' is named twice in the {where}"
    with pytest.raises(ValueError, match=expected):
        load_flows(p, "label", "attack", feature_columns=feature_columns)


def test_load_flows_reads_a_file_with_a_byte_order_mark(tmp_path):
    # spreadsheet exports start with U+FEFF; it is not part of the first name
    p = tmp_path / "bom.csv"
    p.write_text("label,rate\nnormal,1.5\nattack,2.5\n", encoding="utf-8-sig")
    assert p.read_bytes().startswith(b"\xef\xbb\xbf")
    d = load_flows(p, "label", "attack")
    assert d.feature_names == ("rate",)
    assert d.labels.tolist() == [0, 1]
    np.testing.assert_array_equal(d.features, [[1.5], [2.5]])


def test_load_flows_peak_memory_stays_near_the_feature_matrix(tmp_path):
    # cells go straight into one float64 buffer, not a list of Python floats
    p = tmp_path / "flows.csv"
    write_flows(gaussian_clusters(19_500, 500, seed=2, n_features=10), p)
    tracemalloc.start()
    try:
        d = load_flows(p, "label", "attack")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.features.shape == (20_000, 10)
    assert peak < 2.5 * d.features.nbytes


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    d = Dataset(
        rng.standard_normal((37, 4)) * rng.uniform(1e-8, 1e8, size=4),
        rng.integers(0, 2, 37),
        ("a", "b", "c", "d"),
    )
    p = tmp_path / "rt.csv"
    write_flows(d, p, "label", "attack", "normal")
    back = load_flows(p, "label", "attack")
    np.testing.assert_array_equal(back.features, d.features)
    np.testing.assert_array_equal(back.labels, d.labels)
    assert back.feature_names == d.feature_names


def test_sample_flows_keeps_all_negatives_and_samples_positives(tmp_path):
    d = gaussian_clusters(200, 15, seed=4)
    p = tmp_path / "big.csv"
    write_flows(d, p, "label", "attack", "normal")
    sub, full_counts = sample_flows(p, "label", "attack", n_positive=40, seed=6)
    assert full_counts == {0: 15, 1: 200}
    assert class_counts(sub) == {0: 15, 1: 40}
    assert sub.feature_names == d.feature_names
    # negatives survive with values intact
    np.testing.assert_array_equal(
        np.sort(sub.features[sub.labels == 0], axis=0),
        np.sort(d.features[d.labels == 0], axis=0),
    )


def test_sample_flows_deterministic_and_caps_at_total(tmp_path):
    d = gaussian_clusters(30, 5, seed=8)
    p = tmp_path / "flows.csv"
    write_flows(d, p, "label", "attack", "normal")
    a, _ = sample_flows(p, "label", "attack", n_positive=10, seed=0)
    b, _ = sample_flows(p, "label", "attack", n_positive=10, seed=0)
    np.testing.assert_array_equal(a.features, b.features)
    everything, counts = sample_flows(p, "label", "attack", n_positive=10_000, seed=0)
    assert class_counts(everything) == counts == {0: 5, 1: 30}


@pytest.mark.parametrize("n_positive", [7, 40, 1_000])
def test_sample_flows_is_load_flows_with_the_documented_draw(tmp_path, n_positive):
    # below, at and above the file's 40 positives
    p = tmp_path / "flows.csv"
    write_flows(gaussian_clusters(40, 6, seed=11), p)
    full = load_flows(p, "label", "attack")
    positives = np.flatnonzero(full.labels == 1)
    n_take = min(n_positive, positives.size)
    chosen = positives[np.random.default_rng(3).choice(positives.size, size=n_take, replace=False)]
    expected = full.take(np.sort(np.concatenate([np.flatnonzero(full.labels == 0), chosen])))
    sub, counts = sample_flows(p, "label", "attack", n_positive=n_positive, seed=3)
    assert counts == {0: 6, 1: 40}
    assert sub.feature_names == expected.feature_names
    np.testing.assert_array_equal(sub.features, expected.features)
    np.testing.assert_array_equal(sub.labels, expected.labels)


def _load(path):
    return load_flows(path, "label", "attack")


def _sample(path):
    return sample_flows(path, "label", "attack", n_positive=10, seed=0)[0]


def _sample_none(path):
    # no positive row is sampled, but every row is still checked
    return sample_flows(path, "label", "attack", n_positive=0, seed=0)[0]


@pytest.mark.parametrize(
    "loader",
    [_load, _sample, _sample_none],
    ids=["load_flows", "sample_flows", "sample_flows_none"],
)
@pytest.mark.parametrize(
    "bad_row, message, column",
    [
        ("7,8,bogus", "unknown label 'bogus'", "label"),
        ("7,abc,attack", "non-numeric value 'abc'", "bytes"),
        ("7,nan,normal", "non-finite value nan", "bytes"),
        ("-inf,8,normal", "non-finite value -inf", "rate"),
        ("7,,normal", "missing value", "bytes"),
        ("7, ,attack", "missing value", "bytes"),
        ("7,1e999,attack", "non-finite value inf", "bytes"),
    ],
)
def test_loaders_reject_bad_rows_naming_path_row_and_column(
    tmp_path, loader, bad_row, message, column
):
    # the bad row is data row 3, so a 0-based or array-relative index shows
    p = write_csv(
        tmp_path / "flows.csv",
        f"rate,bytes,label\n1,2,normal\n3,4,attack\n{bad_row}\n5,6,attack\n",
    )
    expected = f"{re.escape(str(p))}: {re.escape(message)} at row 3, column '{column}'"
    with pytest.raises(ValueError, match=expected):
        loader(p)


def test_sample_flows_names_the_file_row_of_a_bad_sampled_row(tmp_path):
    # most positives are skipped, so the bad row's position among the kept
    # rows is not its row in the file
    rows = "".join(f"{i},1,attack\n" for i in range(5))
    p = write_csv(tmp_path / "flows.csv", f"rate,bytes,label\n{rows}1,2,normal\n3,inf,normal\n")
    with pytest.raises(ValueError, match=r"non-finite value inf at row 7, column 'bytes'"):
        sample_flows(p, "label", "attack", n_positive=1, seed=0)


def test_dataset_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.array([[1.0], [np.nan]]), np.array([0, 1]), ("x",))


def test_dataset_names_value_row_and_column_of_a_non_finite_cell():
    # worded like the loaders: 1-based row and the column's name
    feats = np.array([[1.0, 2.0], [3.0, np.nan], [np.inf, 4.0]])
    with pytest.raises(ValueError, match=r"^non-finite feature value nan at row 2, column 'b'$"):
        Dataset(feats, np.array([0, 1, 0]), ("a", "b"))
    # a wrong number of names is reported before any cell
    with pytest.raises(ValueError, match="1 feature names for 2 feature columns"):
        Dataset(feats, np.array([0, 1, 0]), ("a",))


@pytest.mark.parametrize("label, text", [(2, "2"), (-1, "-1"), (0.4, "0.4"), (1.99, "1.99")])
def test_dataset_rejects_a_label_other_than_0_or_1(label, text):
    # checked as given, before the int64 cast would truncate 0.4 and 1.99
    labels = np.array([0, 1, 1, 0, label, 0])
    with pytest.raises(ValueError, match=rf"^label {re.escape(text)} at row 5 is not 0 \(normal\) or 1 \(attack\)$"):
        Dataset(np.zeros((6, 1)), labels, ("x",))


@pytest.mark.parametrize("labels", [np.array([0.0, 1.0, 1.0]), np.array([False, True, True])])
def test_dataset_stores_float_and_bool_labels_as_int64(labels):
    d = Dataset(np.zeros((3, 1)), labels, ("x",))
    assert d.labels.dtype == np.int64
    assert d.labels.tolist() == [0, 1, 1]


@pytest.mark.parametrize(
    "indices, dtype",
    [(np.array([True, False, False, True]), "bool"), (np.array([0.7, 2.9]), "float64")],
)
def test_dataset_take_rejects_non_integer_indices(indices, dtype):
    d = Dataset(np.arange(4.0).reshape(-1, 1), np.array([0, 1, 0, 1]), ("x",))
    with pytest.raises(TypeError, match=dtype):
        d.take(indices)


def test_dataset_is_immutable():
    d = Dataset(np.ones((2, 2)), np.array([0, 1]), ("a", "b"))
    with pytest.raises(ValueError):
        d.features[0, 0] = 5.0


def test_class_counts():
    d = Dataset(np.zeros((4, 1)), np.array([0, 1, 1, 0]), ("x",))
    assert class_counts(d) == {0: 2, 1: 2}
    d_all = Dataset(np.zeros((5, 1)), np.ones(5, dtype=int), ("x",))
    assert class_counts(d_all) == {1: 5}


def test_stratified_split_forced_proportions():
    labels = np.array([1] * 90 + [0] * 10)
    d = Dataset(np.arange(100, dtype=float).reshape(-1, 1), labels, ("x",))
    sp = stratified_split(d, 0.2, seed=0)
    assert class_counts(sp.test) == {0: 2, 1: 18}
    assert class_counts(sp.train) == {0: 8, 1: 72}


def test_stratified_split_deterministic():
    d = gaussian_clusters(60, 12, seed=3)
    a = stratified_split(d, 0.25, seed=9)
    b = stratified_split(d, 0.25, seed=9)
    np.testing.assert_array_equal(a.test_indices, b.test_indices)
    np.testing.assert_array_equal(a.train_indices, b.train_indices)


# Golden partitions pinned from a reference run on fixed seeds: the two
# seeds must keep producing exactly these test sets, and must differ.
GOLDEN_TEST_IDX = {
    1: [5, 6, 8, 14, 18, 19, 23, 39, 52, 54, 58, 60, 62, 64, 71, 74, 77, 80, 85, 95],
    2: [7, 11, 16, 19, 28, 35, 42, 47, 49, 54, 58, 61, 63, 65, 72, 83, 87, 90, 95, 96],
}


def test_stratified_split_golden_partitions():
    d = gaussian_clusters(80, 20, seed=5)
    parts = {}
    for seed, expected in GOLDEN_TEST_IDX.items():
        sp = stratified_split(d, 0.2, seed)
        assert list(sp.test_indices) == expected
        parts[seed] = set(expected)
    assert parts[1] != parts[2]


def test_stratified_split_rejects_singleton_class():
    d = Dataset(np.arange(4, dtype=float).reshape(-1, 1), np.array([0, 1, 1, 1]), ("x",))
    with pytest.raises(ValueError, match="class 0 has 1"):
        stratified_split(d, 0.5, seed=0)


@settings(max_examples=40, deadline=None)
@given(
    n_pos=st.integers(2, 60),
    n_neg=st.integers(2, 60),
    frac=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**31),
)
def test_stratified_split_is_partition(n_pos, n_neg, frac, seed):
    labels = np.array([1] * n_pos + [0] * n_neg)
    d = Dataset(np.arange(len(labels), dtype=float).reshape(-1, 1), labels, ("x",))
    sp = stratified_split(d, frac, seed)
    merged = np.concatenate([sp.train_indices, sp.test_indices])
    assert sorted(merged) == list(range(len(labels)))
    # per-class additivity and the one-instance stratification bound
    src = class_counts(d)
    tr, te = class_counts(sp.train), class_counts(sp.test)
    for cls, count in src.items():
        assert tr.get(cls, 0) + te.get(cls, 0) == count
        assert abs(te.get(cls, 0) - count * frac) <= 1.0
