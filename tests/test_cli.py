import json
import re

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


def test_config_file_without_seed_defaults_to_seed_0(flows_csv, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"data_path": flows_csv, "smote_k": 2}))
    seeded, unseeded = tmp_path / "seeded.csv", tmp_path / "unseeded.csv"
    assert main(["tune", "--data", flows_csv, "--seed", "0", "--out", str(seeded), *FAST]) == 0
    assert main(["tune", "--config", str(cfg_path), "--out", str(unseeded), *FAST]) == 0
    assert unseeded.read_bytes() == seeded.read_bytes()
    capsys.readouterr()

    assert main(["eval", "--data", flows_csv, "--seed", "0", "--smote-k", "2"]) == 0
    expected = capsys.readouterr().out
    assert main(["eval", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == expected
    assert main(["pca", "--config", str(cfg_path), "--out", str(tmp_path / "pca.csv")]) == 0


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


def test_unknown_config_field_is_a_clean_error(flows_csv, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"data_path": flows_csv, "n_thread": 2, "budjet": 5}))
    fields = re.escape("unknown config field(s) ['budjet', 'n_thread']")
    expected = rf"^error: {re.escape(str(cfg_path))}: {fields}$"
    with pytest.raises(SystemExit, match=expected):
        main(["eval", "--config", str(cfg_path)])


@pytest.mark.parametrize(
    "verb, data, flags, message",
    [
        ("eval", "bad.csv", [], r"bad\.csv: non-numeric value 'x' at row 2, column 'f1'$"),
        ("eval", "missing.csv", [], r"No such file or directory: '.*missing\.csv'$"),
        ("eval", "flows", ["--max-depth", "0"], r"max_depth must be >= 1, got 0$"),
        ("run", "bad.csv", [], r"stage 'load' failed: .*bad\.csv: .* at row 2, column 'f1'$"),
    ],
    ids=["bad-cell", "missing-file", "bad-setting", "run-bad-cell"],
)
def test_input_errors_exit_with_one_error_line(flows_csv, tmp_path, verb, data, flags, message):
    bad = tmp_path / "bad.csv"
    bad.write_text("f0,f1,label\n1,2,attack\n3,x,normal\n5,6,attack\n")
    path = flows_csv if data == "flows" else str(tmp_path / data)
    with pytest.raises(SystemExit) as exc:
        main([verb, "--data", path, "--seed", "0", *flags])
    text = str(exc.value.code)
    assert text.startswith("error: ") and "\n" not in text
    assert re.search(message, text)


NO_KIND = '[{"name": "max_depth", "lower": 1, "upper": 5}]'
DEPTH_TWICE = (
    '[{"name": "max_depth", "kind": "integer", "lower": 1, "upper": 3}, '
    '{"name": "max_depth", "kind": "integer", "lower": 10, "upper": 20}]'
)
LOG_SCALE = '[{"name": "max_depth", "kind": "integer", "lower": 1, "upper": 5, "scale": "log"}]'


def dim(name, kind, lower, upper):
    """A one-dimension --space; the bounds are spliced in as JSON text."""
    return f'[{{"name": "{name}", "kind": "{kind}", "lower": {lower}, "upper": {upper}}}]'


@pytest.mark.parametrize(
    "config, space, message",
    [
        ("{bad", None, r"{cfg}: Expecting property name"),
        (None, "{bad", r"--space: Expecting property name"),
        ('{"space": ' + NO_KIND + "}", None, r"{cfg}: space entry .*'max_depth'.* has no 'kind'$"),
        (None, NO_KIND, r"--space: space entry .*'max_depth'.* has no 'kind'$"),
        ("[1, 2]", None, r"{cfg}: the config must hold a JSON object$"),
        (None, '{"name": "max_depth"}', r"--space: space must be a list of objects, got \{"),
        (None, dim("max_dpth", "integer", 1, 5),
         r"--space: space dimension 'max_dpth' is not one of max_depth, "),
        ('{"space": ' + dim("max_depth", "continuous", 1, 5) + "}", None,
         r"{cfg}: space dimension 'max_depth' has kind 'continuous', HyperParams needs 'integer'$"),
        (None, dim("max_depth", "integer", 0, 5),
         r"--space: space dimension 'max_depth': max_depth must be >= 1, got 0$"),
        (None, dim("max_depth", "integer", '"a"', 5),
         r"--space: max_depth: lower bound 'a' is not a finite number$"),
        (None, dim("max_depth", "integer", 1, "1e999"),
         r"--space: max_depth: upper bound inf is not a finite number$"),
        ('{"budget": "6"}', None, r"{cfg}: budget must be int, got '6'$"),
        ('{"smote_k": "2"}', None, r"{cfg}: smote_k must be int, got '2'$"),
        ('{"cv_folds": "3"}', None, r"{cfg}: cv_folds must be int, got '3'$"),
        ('{"n_candidates": "10"}', None, r"{cfg}: n_candidates must be int, got '10'$"),
        ('{"n_init": 2.5}', None, r"{cfg}: n_init must be int \| None, got 2\.5$"),
        ('{"budget": true}', None, r"{cfg}: budget must be int, got True$"),
        ('{"feature_columns": "f0,f1"}', None,
         r"{cfg}: feature_columns must be list\[str\] \| None, got 'f0,f1'$"),
        # the bad field is the file's, although --space is given too
        ('{"budget": "6"}', dim("max_depth", "integer", 1, 5), r"{cfg}: budget must be int, got '6'$"),
        ('{"smote_k": 0}', None, r"{cfg}: smote_k must be >= 1, got 0$"),
        ('{"smote_ratio": -1}', None, r"{cfg}: smote_ratio must be in \(0, 1\], got -1$"),
        ('{"cv_folds": 1}', None, r"{cfg}: cv_folds must be >= 2, got 1$"),
        ('{"test_fraction": 1.0}', None, r"{cfg}: test_fraction must be in \(0, 1\), got 1\.0$"),
        ('{"budget": 0}', None, r"{cfg}: budget must be >= 1, got 0$"),
        ('{"n_init": 0}', None, r"{cfg}: n_init must be >= 1, got 0$"),
        ('{"n_candidates": 0}', None, r"{cfg}: n_candidates must be >= 1, got 0$"),
        ('{"n_threads": 0}', None, r"{cfg}: n_threads must be >= 1, got 0$"),
        (None, DEPTH_TWICE, r"--space: search space names 'max_depth' twice$"),
        (None, LOG_SCALE, r"--space: space entry .*'max_depth'.* has unknown key\(s\) 'scale'$"),
        ('{"space": ' + LOG_SCALE + "}", None, r"{cfg}: space entry .* has unknown key\(s\) 'scale'$"),
    ],
    ids=[
        "bad-json-config", "bad-json-space", "no-kind-config", "no-kind-space", "list-config",
        "space-not-a-list", "unknown-name-space", "wrong-kind-config", "bound-out-of-range-space",
        "string-bound-space", "overflow-bound-space", "string-budget-config",
        "string-smote-k-config", "string-cv-folds-config", "string-n-candidates-config",
        "float-n-init-config", "bool-budget-config", "string-feature-columns-config",
        "string-budget-config-with-space", "zero-smote-k-config", "negative-smote-ratio-config",
        "one-cv-fold-config", "test-fraction-one-config", "zero-budget-config", "zero-n-init-config",
        "zero-n-candidates-config", "zero-n-threads-config", "repeated-name-space", "unknown-key-space",
        "unknown-key-config",
    ],
)
def test_config_errors_name_their_source(flows_csv, tmp_path, config, space, message):
    cfg_path = tmp_path / "bad.json"
    argv = ["tune", "--data", flows_csv, "--seed", "0"]
    if config is not None:
        cfg_path.write_text(config)
        argv += ["--config", str(cfg_path)]
    if space is not None:
        argv += ["--space", space]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    text = str(exc.value.code)
    assert text.startswith("error: ") and "\n" not in text
    assert re.search("^error: " + message.replace("{cfg}", re.escape(str(cfg_path))), text)



@pytest.mark.parametrize(
    "flags, message",
    [
        (["--budget", "0"], r"^error: --budget: budget must be >= 1, got 0$"),
        (["--smote-ratio", "2"], r"^error: --smote-ratio: smote_ratio must be in \(0, 1\], got 2\.0$"),
        (["--n-threads", "0"], r"^error: --n-threads: n_threads must be >= 1, got 0$"),
        (["--budget", "3", "--n-init", "5"], r"^error: --n-init: n_init must be <= budget \(3\), got 5$"),
    ],
    ids=["zero-budget", "smote-ratio-above-one", "zero-n-threads", "n-init-above-budget"],
)
def test_flag_range_errors_name_the_flag(flows_csv, tmp_path, flags, message):
    cfg_path = tmp_path / "ok.json"
    cfg_path.write_text('{"budget": 6}')  # a good file under the bad flag
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--data", flows_csv, "--seed", "0", "--config", str(cfg_path), *flags])
    assert re.search(message, str(exc.value.code))