"""The scripts under scripts/ run end to end on small inputs.

Each script runs in-process as ``__main__`` with its own command line, so an
API change that breaks one fails here. The real-data script's attack draw,
which acceptance criterion 6 also uses, is checked against its documented
protocol.
"""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from botopt.ingest import Dataset, class_counts, write_flows
from botopt.synthetic import gaussian_clusters

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# run_botiot.py's names, loaded without running its main()
BOTIOT = runpy.run_path(str(SCRIPTS / "run_botiot.py"))
sample_attacks = BOTIOT["sample_attacks"]


def run_script(name, args, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_run_synthetic_writes_report_trace_and_pca(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    # the budget must cover the 8 initial points of the 4-dimensional search
    args = ["--n-attack", "600", "--n-normal", "40", "--budget", "10", "--out-dir", str(out)]
    run_script("run_synthetic.py", args, monkeypatch)
    printed = capsys.readouterr().out
    assert "== detection pipeline run (seed=0) ==" in printed
    for name in ("report.txt", "trace.csv", "pca.csv"):
        assert (out / name).is_file()
    assert (out / "report.txt").read_text(encoding="utf-8").startswith("== detection pipeline run")


def test_run_botiot_samples_attacks_and_writes_report_and_trace(tmp_path, monkeypatch, capsys):
    d = gaussian_clusters(3000, 60, seed=1, n_features=10)
    d = Dataset(d.features, d.labels, BOTIOT["BEST10_FEATURES"])
    data = tmp_path / "flows.csv"
    write_flows(d, data, label_column="attack", positive_label="1", negative_label="0")
    out = tmp_path / "out"
    args = ["--data", str(data), "--attack-sample", "1000", "--budget", "10", "--out-dir", str(out)]
    run_script("run_botiot.py", args, monkeypatch)
    printed = capsys.readouterr().out
    assert "full file class counts: {0: 60, 1: 3000}" in printed
    assert "subsample class counts: {0: 60, 1: 1000}" in printed
    for name in ("report.txt", "trace.csv"):
        assert (out / name).is_file()


def test_sample_attacks_keeps_every_normal_row_and_samples_attacks():
    d = gaussian_clusters(200, 15, seed=4)
    sub = sample_attacks(d, 40, seed=6)
    assert class_counts(sub) == {0: 15, 1: 40}
    assert sub.feature_names == d.feature_names
    # normal rows survive with values intact, in file order
    np.testing.assert_array_equal(sub.features[sub.labels == 0], d.features[d.labels == 0])


def test_sample_attacks_is_deterministic_and_caps_at_the_total():
    d = gaussian_clusters(30, 5, seed=8)
    a, b = sample_attacks(d, 10, seed=0), sample_attacks(d, 10, seed=0)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    everything = sample_attacks(d, 10_000, seed=0)
    np.testing.assert_array_equal(everything.features, d.features)
    np.testing.assert_array_equal(everything.labels, d.labels)


@pytest.mark.parametrize("n_attack", [0, 7, 40, 1_000])
def test_sample_attacks_is_the_documented_draw(n_attack):
    # none, below, at and above the 40 attack rows
    d = gaussian_clusters(40, 6, seed=11)
    attacks = np.flatnonzero(d.labels == 1)
    chosen = attacks[np.random.default_rng(3).choice(40, size=min(n_attack, 40), replace=False)]
    expected = d.take(np.sort(np.concatenate([np.flatnonzero(d.labels == 0), chosen])))
    sub = sample_attacks(d, n_attack, seed=3)
    assert sub.feature_names == expected.feature_names
    np.testing.assert_array_equal(sub.features, expected.features)
    np.testing.assert_array_equal(sub.labels, expected.labels)


def test_sample_attacks_rejects_a_negative_count():
    d = gaussian_clusters(20, 4, seed=1)
    with pytest.raises(ValueError, match=r"^n_attack must be >= 0, got -1$"):
        sample_attacks(d, -1, seed=0)
    # zero keeps its meaning: the normal rows only
    assert class_counts(sample_attacks(d, 0, seed=0)) == {0: 4}


def test_run_botiot_rejects_a_negative_attack_sample_before_reading(tmp_path, monkeypatch, capsys):
    args = ["--data", str(tmp_path / "missing.csv"), "--attack-sample", "-1"]
    with pytest.raises(SystemExit) as exc:
        run_script("run_botiot.py", args, monkeypatch)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "run_botiot.py: error: --attack-sample must be >= 0, got -1"
    )
