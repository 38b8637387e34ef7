import csv
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import ref_load_flows

from botopt import ingest
from botopt.ingest import (
    Dataset,
    class_counts,
    load_flows,
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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"positive_label": ""}, "positive_label '' is empty"),
        ({"positive_label": " attack"}, "positive_label ' attack' is empty or has surrounding"),
        ({"positive_label": "attack\t"}, "positive_label 'attack\\t' is empty or has surrounding"),
        ({"negative_label": ""}, "negative_label '' is empty"),
        ({"negative_label": "normal "}, "negative_label 'normal ' is empty or has surrounding"),
        ({"negative_label": "attack"}, "negative_label 'attack' equals positive_label"),
    ],
)
def test_load_flows_rejects_a_label_argument_no_cell_can_match(tmp_path, kwargs, message):
    # label cells are stripped, so such an argument would either reject a
    # valid row ('normal' against the pair 'attack'/'attack') or match no
    # row at all; it is rejected before the file is opened
    args = {"positive_label": "attack", **kwargs}
    with pytest.raises(ValueError, match=re.escape(message)):
        load_flows(tmp_path / "never-opened.csv", "label", **args)


@pytest.mark.parametrize(
    "names, kwargs, message",
    [
        (("a", "b"), {"positive_label": "a", "negative_label": "a"}, "negative_label 'a' equals"),
        (("a", "b"), {"negative_label": " normal"}, "negative_label ' normal' is empty or has"),
        (("a", "b"), {"positive_label": ""}, "positive_label '' is empty"),
        (("a", "label"), {}, "column 'label' would be named twice in the header"),
        (("a", " label"), {}, "column 'label' would be named twice in the header"),
        (("y", "b"), {"label_column": "y"}, "column 'y' would be named twice in the header"),
        (("a", "b", "a"), {}, "column 'a' would be named twice in the header"),
    ],
    ids=["equal-labels", "padded-label", "empty-label", "label-column", "padded-label-column",
         "custom-label-column", "repeated-feature"],
)
def test_write_flows_rejects_what_load_flows_would_misread(tmp_path, names, kwargs, message):
    # equal labels read back as all attack; a repeated header name is
    # rejected by load_flows: both fail before the file is created
    d = Dataset(np.arange(2.0 * len(names)).reshape(2, -1), np.array([0, 1]), names)
    p = tmp_path / "flows.csv"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_flows(d, p, **kwargs)
    assert not p.exists()


@pytest.mark.parametrize("columns", ["ab", "a,b", ""])
def test_load_flows_rejects_a_string_of_feature_columns(tmp_path, columns):
    # a str is a sequence of one-character names: "ab" would load a and b
    p = write_csv(tmp_path / "flows.csv", "a,b,c,label\n1,2,3,normal\n4,5,6,attack\n")
    expected = rf"^feature_columns must be a list of column names, got {re.escape(repr(columns))}$"
    with pytest.raises(ValueError, match=expected):
        load_flows(p, "label", "attack", feature_columns=columns)


class CsvLoopRan(Exception):
    pass


@pytest.fixture
def csv_reader_stops_after_the_header(monkeypatch):
    real = csv.reader

    def header_only(fh, *args, **kwargs):
        rows = real(fh, *args, **kwargs)
        yield next(rows)
        raise CsvLoopRan

    monkeypatch.setattr(ingest.csv, "reader", header_only)


@pytest.mark.parametrize("reverse", [False, True], ids=["default", "reordered"])
def test_a_plain_file_never_reaches_the_csv_loop(tmp_path, csv_reader_stops_after_the_header, reverse):
    # a plain reader that always fell back would pass every other test
    d = gaussian_clusters(2_000, 100, seed=3, n_features=6)
    p = tmp_path / "flows.csv"
    write_flows(d, p)
    assert p.stat().st_size > 4 * ingest._CHUNK_CHARS
    names = list(d.feature_names)[::-1] if reverse else None
    back = load_flows(p, "label", "attack", feature_columns=names)
    cols = slice(None, None, -1 if reverse else 1)
    assert back.features.tobytes() == np.ascontiguousarray(d.features[:, cols]).tobytes()
    assert back.labels.tolist() == d.labels.tolist()
    assert back.feature_names == d.feature_names[cols]


def test_a_quoted_cell_reaches_the_csv_loop(tmp_path, csv_reader_stops_after_the_header):
    p = write_csv(tmp_path / "quoted.csv", 'rate,bytes,label\n1,2,normal\n"3",4,attack\n')
    with pytest.raises(CsvLoopRan):
        load_flows(p, "label", "attack")


# Cell and label forms the two readers must treat alike: float() accepts
# underscores, Unicode digits, surrounding whitespace (\x85 and \u2028
# count, but str.splitlines would also split a row there) and inf/nan; a
# quoted cell may hold a comma; a lone CR ends a row for csv, though float()
# would strip it; a label is stripped before it is compared.
ODD_CELLS = [
    " 1.5 ", "1_0", "1e5_0", "\u0661\u0662", "\x1c1", "1\x85", "\u20281", "inf", "nan",
    "-0.0", '"7"', '"1,5"', "\r7", "abc", "",
]
ODD_LABELS = [" attack", "normal ", "\tnormal", "benign", "", '"attack"', '"nor,mal"']


@st.composite
def flow_files(draw):
    """(text, byte order mark, feature_columns, negative_label) of a small
    flow file: repr floats and two labels, with up to three of the odd cell,
    label, line-ending, blank-line and row-width forms."""
    n_feat = draw(st.integers(1, 3))
    names = [f"f{j}" for j in range(n_feat)]
    unread = draw(st.booleans())
    label_at = draw(st.integers(0, n_feat + unread))
    header = names + ["saddr"] * unread
    header.insert(label_at, "label")
    if unread or draw(st.booleans()):
        # a subset or reorder; a text column is never read
        order = draw(st.permutations(names))
        feature_columns = order[: draw(st.integers(1, n_feat))]
    else:
        feature_columns = None
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    labels = st.sampled_from(["attack", "normal"])
    rows = [
        [draw(labels) if h == "label" else "10.0.0.1" if h == "saddr" else draw(finite) for h in header]
        for _ in range(draw(st.integers(1, 5)))
    ]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    endings = [newline] * len(rows)
    blanks = set()
    for kind in draw(st.lists(st.sampled_from(["cell", "ending", "blank", "short", "long", "pair"]), max_size=3)):
        r = draw(st.integers(0, len(rows) - 1))
        if kind == "cell":
            c = draw(st.integers(0, len(rows[r]) - 1))
            rows[r][c] = draw(st.sampled_from(ODD_LABELS if c == label_at else ODD_CELLS))
        elif kind == "ending":
            endings[r] = draw(st.sampled_from(["\r\n", "\r"]))
        elif kind == "blank":
            blanks.add(r)
        elif kind in ("short", "pair") and len(rows[r]) > 1:
            rows[r].pop()
            if kind == "pair" and r + 1 < len(rows):
                rows[r + 1].append("1")
        elif kind == "long":
            rows[r].append("1")
    lines = [",".join(header) + newline]
    for r, (row, end) in enumerate(zip(rows, endings)):
        lines.append(",".join(row) + end + (newline if r in blanks else ""))
    if not draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    negative = draw(st.sampled_from([None, "normal"]))
    return "".join(lines), draw(st.booleans()), feature_columns, negative


def _outcome(loader, path, feature_columns, negative):
    try:
        d = loader(path, "label", "attack", feature_columns, negative)
    except Exception as err:  # both readers must raise alike, whatever the type
        return type(err), str(err)
    return d.features.shape, d.features.tobytes(), d.labels.tolist(), d.feature_names


@settings(max_examples=300, deadline=None)
@given(flow_file=flow_files(), chunk_chars=st.sampled_from([1, 5, 16, 32 * 1024]))
# cells np.loadtxt would parse otherwise than float(): underscores, Unicode
# digits and an \x1c before a digit
@example(flow_file=("f0,f1,label\n1e5_0,\u0661\u0662,attack\n1_0,2,normal\n", False, None, None), chunk_chars=32 * 1024)
@example(flow_file=("f0,label\n\x1c1,attack\n", False, None, None), chunk_chars=32 * 1024)
# a blank line, which np.loadtxt skips and csv reads as a row of no cells
@example(flow_file=("f0,label\n1,attack\n\n2,normal\n", False, None, None), chunk_chars=32 * 1024)
# a short and a long row whose commas add up and whose cells, joined,
# would fall into place; and a lone CR inside a row of the right width
@example(flow_file=("f0,f1,label\n1,2\nattack,3,4,normal\n", True, ["f1"], None), chunk_chars=32 * 1024)
@example(flow_file=("f0,f1,label\n1,\r2,attack\n", False, None, None), chunk_chars=32 * 1024)
# cells that str.splitlines would split, but neither csv nor float() does
@example(flow_file=("f0,label\n1\x85,attack\n\u20282,normal\n", False, None, None), chunk_chars=32 * 1024)
# a NUL, and a field over csv's size limit, in a column that is not read
@example(flow_file=("s,f0,label\na\x00b,1,attack\n", False, ["f0"], None), chunk_chars=32 * 1024)
@example(flow_file=(f"s,f0,label\n{'x' * 131_073},1,attack\n", False, ["f0"], None), chunk_chars=32 * 1024)
def test_load_flows_matches_the_csv_loop(tmp_path_factory, flow_file, chunk_chars):
    text, bom, feature_columns, negative = flow_file
    p = tmp_path_factory.mktemp("oracle") / "flows.csv"
    p.write_bytes(text.encode("utf-8-sig" if bom else "utf-8"))
    expected = _outcome(ref_load_flows, p, feature_columns, negative)
    with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars):
        assert _outcome(load_flows, p, feature_columns, negative) == expected


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


@pytest.mark.parametrize(
    "bad_row, message, column",
    [
        ("7,8,bogus", "unknown label 'bogus'", "label"),
        ("7,abc,attack", "non-numeric value 'abc'", "bytes"),
        # str.strip() drops \x1c, float() does not
        ("\x1c7,8,attack", "non-numeric value '\\x1c7'", "rate"),
        ("7,nan,normal", "non-finite value nan", "bytes"),
        ("-inf,8,normal", "non-finite value -inf", "rate"),
        ("7,,normal", "missing value", "bytes"),
        ("7, ,attack", "missing value", "bytes"),
        ("7,1e999,attack", "non-finite value inf", "bytes"),
    ],
)
def test_load_flows_rejects_bad_rows_naming_path_row_and_column(tmp_path, bad_row, message, column):
    # the bad row is data row 3, so a 0-based or array-relative index shows
    p = write_csv(
        tmp_path / "flows.csv",
        f"rate,bytes,label\n1,2,normal\n3,4,attack\n{bad_row}\n5,6,attack\n",
    )
    expected = f"{re.escape(str(p))}: {re.escape(message)} at row 3, column '{column}'"
    with pytest.raises(ValueError, match=expected):
        load_flows(p, "label", "attack")


def test_dataset_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.array([[1.0], [np.nan]]), np.array([0, 1]), ("x",))


def test_dataset_names_value_row_and_column_of_a_non_finite_cell():
    # worded like the loaders: 1-based row and the column's name
    feats = np.array([[1.0, 2.0], [3.0, np.nan], [np.inf, 4.0]])
    with pytest.raises(ValueError, match=r"^non-finite value nan at row 2, column 'b'$"):
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
