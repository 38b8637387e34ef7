"""The scripts under scripts/ run end to end on small inputs.

Each script runs in-process as ``__main__`` with its own command line, so an
API change that breaks one fails here.
"""

import runpy
import sys
from pathlib import Path

from botopt.ingest import Dataset, write_flows
from botopt.synthetic import gaussian_clusters

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
    names = runpy.run_path(str(SCRIPTS / "run_botiot.py"))["BEST10_FEATURES"]
    d = gaussian_clusters(3000, 60, seed=1, n_features=10)
    d = Dataset(d.features, d.labels, names)
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
