import json

import pytest

from botopt.bayesopt import write_trace
from botopt.cli import main
from botopt.dtree import HyperParams, fit_tree
from botopt.ingest import write_flows
from botopt.metrics import metrics_to_text
from botopt.pipeline import PipelineConfig, load_dataset, prepare, run_pipeline, score
from botopt.preprocess import smote
from botopt.synthetic import gaussian_clusters


@pytest.fixture(scope="module")
def flows_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "flows.csv"
    write_flows(gaussian_clusters(300, 30, seed=1), path, "label", "attack", "normal")
    return str(path)


FAST = [
    "--budget", "5", "--n-init", "4", "--cv-folds", "2",
    "--smote-k", "2", "--n-candidates", "100",
]


def test_run_writes_report_and_trace(flows_csv, tmp_path, capsys):
    report = tmp_path / "report.txt"
    trace = tmp_path / "trace.csv"
    rc = main([
        "run", "--data", flows_csv, "--seed", "3",
        "--report", str(report), "--trace", str(trace), *FAST,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "chosen hyperparameters" in out
    assert report.exists() and "published full-scale reference" in report.read_text()
    header = trace.read_text().splitlines()[0]
    assert header.startswith("index,max_depth,min_samples_split")


def test_run_requires_seed(flows_csv, capsys):
    with pytest.raises(SystemExit):
        main(["run", "--data", flows_csv])
    assert "--seed" in capsys.readouterr().err


def test_tune_emits_trace(flows_csv, tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = main(["tune", "--data", flows_csv, "--seed", "1", "--out", str(out), *FAST])
    assert rc == 0
    assert "best objective" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 6  # header + budget rows


def test_eval_prints_metrics(flows_csv, capsys):
    rc = main([
        "eval", "--data", flows_csv, "--seed", "2", "--smote-k", "2",
        "--max-depth", "6", "--min-samples-leaf", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy" in out and "macro_f_score" in out


def test_tune_and_eval_agree_with_run_pipeline(flows_csv, tmp_path, capsys):
    # the verbs share run_pipeline's preparation and search: tune writes its
    # trace, and eval with the default tree flags grows its baseline tree
    cfg = PipelineConfig(
        seed=1, data_path=flows_csv, budget=5, n_init=4, cv_folds=2, smote_k=2, n_candidates=100
    )
    report = run_pipeline(cfg)
    expected = tmp_path / "expected.csv"
    write_trace(report.trace, expected, cfg.space)

    tuned = tmp_path / "tuned.csv"
    assert main(["tune", "--data", flows_csv, "--seed", "1", "--out", str(tuned), *FAST]) == 0
    assert tuned.read_bytes() == expected.read_bytes()
    capsys.readouterr()

    assert main(["eval", "--data", flows_csv, "--seed", "1", "--smote-k", "2"]) == 0
    assert capsys.readouterr().out == metrics_to_text(report.baseline_metrics) + "\n"


def test_eval_tree_flags_set_every_hyperparameter(flows_csv, capsys):
    hp = HyperParams(max_depth=3, min_samples_split=9, min_samples_leaf=4, max_features_fraction=0.5)
    cfg = PipelineConfig(seed=2, data_path=flows_csv, smote_k=2)
    train_s, test_s, smote_cfg = prepare(cfg, load_dataset(cfg))
    expected = score(fit_tree(smote(train_s, smote_cfg), hp, cfg.seed), test_s)
    assert main([
        "eval", "--data", flows_csv, "--seed", "2", "--smote-k", "2",
        "--max-depth", "3", "--min-samples-split", "9",
        "--min-samples-leaf", "4", "--max-features-fraction", "0.5",
    ]) == 0
    assert capsys.readouterr().out == metrics_to_text(expected) + "\n"


def test_pca_exports_projection(flows_csv, tmp_path, capsys):
    out = tmp_path / "pca.csv"
    rc = main(["pca", "--data", flows_csv, "--out", str(out)])
    assert rc == 0
    assert "explained variance" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "pc1,pc2,label"
    assert len(lines) == 331


def test_config_file_with_flag_override(flows_csv, tmp_path, capsys):
    cfg = {
        "seed": 5, "data_path": flows_csv, "budget": 4, "n_init": 4,
        "cv_folds": 2, "smote_k": 2, "n_candidates": 100,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(cfg_path), "--seed", "9", "--budget", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed=9" in out
    assert "tuning trials: 5" in out


def test_space_flag_overrides_search_space(flows_csv, tmp_path, capsys):
    space = json.dumps([
        {"name": "max_depth", "kind": "integer", "lower": 2, "upper": 4},
        {"name": "min_samples_split", "kind": "integer", "lower": 2, "upper": 4},
        {"name": "min_samples_leaf", "kind": "integer", "lower": 1, "upper": 2},
        {"name": "max_features_fraction", "kind": "continuous", "lower": 0.5, "upper": 1.0},
    ])
    out = tmp_path / "trace.csv"
    rc = main([
        "tune", "--data", flows_csv, "--seed", "4", "--space", space,
        "--out", str(out), *FAST,
    ])
    assert rc == 0
    for line in out.read_text().splitlines()[1:]:
        depth = int(line.split(",")[1])
        assert 2 <= depth <= 4


def test_missing_data_is_a_clean_error():
    with pytest.raises(SystemExit, match="no data file"):
        main(["tune", "--seed", "1"])


def test_cli_run_fixes_glibc_malloc_thresholds(flows_csv, monkeypatch, capsys):
    """Every command sets glibc's mmap and trim thresholds, once each, before
    it runs; elsewhere the setting is skipped without error."""
    import botopt.cli as cli

    calls = []

    class FakeLibc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: FakeLibc())
    monkeypatch.setattr(cli.sys, "platform", "linux")
    assert main(["eval", "--data", flows_csv, "--seed", "3", "--max-depth", "2"]) == 0
    assert calls == [(-3, 1 << 20), (-1, 8 << 20)]

    calls.clear()
    monkeypatch.setattr(cli.sys, "platform", "darwin")
    assert main(["eval", "--data", flows_csv, "--seed", "3", "--max-depth", "2"]) == 0
    assert calls == []

    class NoMallopt:
        pass

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: NoMallopt())
    monkeypatch.setattr(cli.sys, "platform", "linux")
    assert main(["eval", "--data", flows_csv, "--seed", "3", "--max-depth", "2"]) == 0
    capsys.readouterr()
