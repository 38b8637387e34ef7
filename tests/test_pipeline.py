import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from botopt.bayesopt import Dim, SearchSpace
from botopt.dtree import HyperParams, dump_tree, fit_tree
from botopt.ingest import SplitPair, stratified_split
from botopt.pipeline import (
    DEFAULT_HP,
    PipelineConfig,
    PipelineError,
    _assert_no_leakage,
    make_cv_objective,
    prepare,
    report_to_text,
    run_pipeline,
    score,
    stratified_kfold,
)
from botopt.preprocess import SmoteConfig, fit_minmax, scale_dataset, smote
from botopt.synthetic import gaussian_clusters


def small_config(**overrides):
    base = dict(
        seed=7,
        test_fraction=0.2,
        smote_k=3,
        smote_ratio=1.0,
        budget=6,
        n_init=4,
        cv_folds=3,
        n_candidates=150,
    )
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def small_data():
    return gaussian_clusters(600, 40, seed=2)


@pytest.fixture(scope="module")
def small_report(small_data):
    return run_pipeline(small_config(), dataset=small_data)


def test_run_report_is_complete(small_report):
    r = small_report
    assert r.counts_before[0] < r.counts_before[1]
    assert r.counts_after[0] == r.counts_after[1]  # full balance requested
    assert len(r.trace.trials) == 6
    # selection considers the trace winner and the always-candidate default
    if r.default_cv_objective >= r.trace.best.objective:
        assert r.best_hp == DEFAULT_HP
    else:
        assert r.best_hp == HyperParams(**r.trace.best.config)
    assert 0.0 <= r.default_cv_objective <= 1.0
    assert set(r.timings) >= {
        "load", "split", "normalize", "tune", "oversample",
        "fit_optimized", "fit_baseline", "evaluate",
    }
    assert all(t >= 0 for t in r.timings.values())
    assert 0.0 <= r.optimized_metrics.accuracy <= 1.0
    assert 0.0 <= r.baseline_metrics.accuracy <= 1.0


def test_run_pipeline_deterministic(small_data, small_report):
    again = run_pipeline(small_config(), dataset=small_data)
    a, b = small_report, again
    assert [t.config for t in a.trace.trials] == [t.config for t in b.trace.trials]
    assert [t.objective for t in a.trace.trials] == [t.objective for t in b.trace.trials]
    assert a.best_hp == b.best_hp
    assert a.optimized_metrics == b.optimized_metrics
    assert a.baseline_metrics == b.baseline_metrics
    assert a.counts_before == b.counts_before and a.counts_after == b.counts_after


def test_degenerate_tuning_budget_equals_n_init(small_data):
    cfg = small_config(budget=3, n_init=3, space=SearchSpace((Dim("max_depth", "integer", 4, 6),
                                                              Dim("min_samples_split", "integer", 2, 3),
                                                              Dim("min_samples_leaf", "integer", 1, 2),
                                                              Dim("max_features_fraction", "continuous", 0.5, 1.0))))
    r = run_pipeline(cfg, dataset=small_data)
    assert len(r.trace.trials) == 3
    assert r.optimized_metrics is not None and r.baseline_metrics is not None


def test_a_budget_below_the_default_design_runs():
    # the default space's default design is 8 trials; a budget of 3 caps it
    r = run_pipeline(PipelineConfig(seed=0, budget=3), gaussian_clusters(400, 40, seed=1))
    assert len(r.trace.trials) == 3


def test_default_config_wins_when_search_space_is_hopeless(small_data):
    # a box of deliberately crippled settings: the default candidate must be
    # kept and both arms then coincide
    bad_space = SearchSpace((
        Dim("max_depth", "integer", 1, 2),
        Dim("min_samples_split", "integer", 90, 100),
        Dim("min_samples_leaf", "integer", 40, 50),
        Dim("max_features_fraction", "continuous", 0.5, 1.0),
    ))
    r = run_pipeline(small_config(space=bad_space, budget=4, n_init=4), dataset=small_data)
    assert r.default_cv_objective >= r.trace.best.objective
    assert r.best_hp == DEFAULT_HP
    assert r.optimized_metrics == r.baseline_metrics


def test_baseline_tree_reused_only_when_default_wins(small_data, small_report):
    # seed 7 keeps the default, so its tree is the baseline tree, and it is
    # the tree a separate fit would grow
    assert small_report.best_hp == DEFAULT_HP
    assert small_report.baseline_tree is small_report.optimized_tree
    assert "fit_baseline" in small_report.timings
    train_s, _, smote_cfg = prepare(small_config(), small_data)
    regrown = fit_tree(smote(train_s, smote_cfg), DEFAULT_HP, seed=7)
    assert dump_tree(regrown) == dump_tree(small_report.baseline_tree)
    # seed 4 picks a sampled setting, so the baseline is grown on its own
    tuned = run_pipeline(small_config(seed=4), dataset=small_data)
    assert tuned.best_hp != DEFAULT_HP
    assert tuned.baseline_tree is not tuned.optimized_tree


def test_baseline_uses_default_hyperparameters():
    assert DEFAULT_HP.max_depth == 50 and DEFAULT_HP.min_samples_split == 2
    assert DEFAULT_HP.min_samples_leaf == 1 and DEFAULT_HP.max_features_fraction == 1.0


def test_stage_error_names_the_stage(small_data):
    cfg = small_config(cv_folds=200)  # more folds than minority rows
    with pytest.raises(PipelineError, match="stage 'tune'"):
        run_pipeline(cfg, dataset=small_data)


def test_missing_data_path_fails_in_load_stage():
    with pytest.raises(PipelineError, match="stage 'load'"):
        run_pipeline(small_config(data_path=None))


def test_leakage_guard_rejects_overlap(small_data):
    sp = stratified_split(small_data, 0.2, seed=0)
    bad = SplitPair(
        train=sp.train,
        test=sp.test,
        train_indices=sp.train_indices,
        test_indices=np.concatenate([[sp.train_indices[0]], sp.test_indices[1:]]),
    )
    with pytest.raises(AssertionError, match="overlap"):
        _assert_no_leakage(bad, small_data.n_rows)


def test_report_text_sections(small_report):
    text = report_to_text(small_report)
    assert "stage seconds" in text
    assert "chosen hyperparameters" in text
    assert "optimized tree" in text
    assert "default-settings tree" in text
    assert "published full-scale reference" in text
    assert "not recomputed" in text
    assert "svm: accuracy=88.37%" in text


# --- CV scaffolding ----------------------------------------------------------

def test_stratified_kfold_partitions_each_class():
    labels = np.array([0] * 10 + [1] * 50)
    folds = stratified_kfold(labels, 5, seed=1)
    all_idx = np.sort(np.concatenate(folds))
    np.testing.assert_array_equal(all_idx, np.arange(60))
    for fold in folds:
        counts = dict(zip(*np.unique(labels[fold], return_counts=True)))
        assert counts[0] == 2 and counts[1] == 10


def test_stratified_kfold_deterministic_and_seed_sensitive():
    labels = np.array([0] * 9 + [1] * 21)
    a = stratified_kfold(labels, 3, seed=5)
    b = stratified_kfold(labels, 3, seed=5)
    c = stratified_kfold(labels, 3, seed=6)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa, fb)
    assert any(list(fa) != list(fc) for fa, fc in zip(a, c))


def test_stratified_kfold_rejects_small_class():
    with pytest.raises(ValueError, match="fewer than"):
        stratified_kfold(np.array([0, 0, 1, 1, 1]), 3, seed=0)


def test_cv_objective_scores_in_unit_interval_and_deterministic(small_data):
    sp = stratified_split(small_data, 0.2, seed=3)
    scaler = fit_minmax(sp.train)
    train_s = scale_dataset(scaler, sp.train)
    folds = stratified_kfold(train_s.labels, 3, seed=3)
    objective = make_cv_objective(train_s, folds, SmoteConfig(3, 1.0, 3), tree_seed=3)
    config = {
        "max_depth": 8, "min_samples_split": 4,
        "min_samples_leaf": 2, "max_features_fraction": 1.0,
    }
    a, b = objective(config), objective(config)
    assert a == b
    assert 0.0 <= a <= 1.0


def test_cv_objective_equals_fresh_fits_on_each_fold(small_data):
    # the objective keeps each fold's oversampled set and its column sort
    # for every trial; fresh fits on the same folds must score exactly alike
    sp = stratified_split(small_data, 0.2, seed=3)
    train_s = scale_dataset(fit_minmax(sp.train), sp.train)
    folds = stratified_kfold(train_s.labels, 3, seed=3)
    smote_cfg = SmoteConfig(3, 1.0, 3)
    objective = make_cv_objective(train_s, folds, smote_cfg, tree_seed=3)
    settings = [
        DEFAULT_HP,
        HyperParams(max_depth=4, min_samples_split=6, min_samples_leaf=3),
        HyperParams(max_depth=12, max_features_fraction=0.5),
        HyperParams(max_depth=3, min_samples_split=10, min_samples_leaf=5, max_features_fraction=0.3),
    ]
    for hp in settings + settings[:1]:  # the repeat: trials leave the shared sorts intact
        scores = []
        for j, val_idx in enumerate(folds):
            fold_train = train_s.take(np.setdiff1d(np.arange(train_s.n_rows), val_idx))
            aug = smote(fold_train, replace(smote_cfg, seed=smote_cfg.seed + j))
            tree = fit_tree(aug, hp, seed=3 + j)
            scores.append(score(tree, train_s.take(val_idx)).macro_f_score)
        assert objective(asdict(hp)) == float(np.mean(scores))


# --- config plumbing ---------------------------------------------------------

def test_config_round_trip():
    cfg = small_config(data_path="flows.csv", feature_columns=["a", "b"])
    d = {  # the config as a JSON file spells it
        "seed": 7, "data_path": "flows.csv", "feature_columns": ["a", "b"],
        "test_fraction": 0.2, "smote_k": 3, "smote_ratio": 1.0, "budget": 6,
        "n_init": 4, "cv_folds": 3, "n_candidates": 150,
        "space": [
            {"name": "max_depth", "kind": "integer", "lower": 1, "upper": 50},
            {"name": "min_samples_split", "kind": "integer", "lower": 2, "upper": 100},
            {"name": "min_samples_leaf", "kind": "integer", "lower": 1, "upper": 50},
            {"name": "max_features_fraction", "kind": "continuous", "lower": 0.05, "upper": 1.0},
        ],
    }
    assert PipelineConfig.from_dict(d) == cfg
    assert PipelineConfig.from_dict(json.loads(json.dumps(d))) == cfg


@pytest.mark.parametrize(
    "dim, message",
    [
        (Dim("max_dpth", "integer", 1, 5), r"^space dimension 'max_dpth' is not one of max_depth, "),
        (Dim("max_depth", "continuous", 1.0, 5.0), r"^space dimension 'max_depth' has kind 'continuous'"),
        (Dim("min_samples_split", "integer", 1, 5), r"^space dimension 'min_samples_split': .* got 1$"),
        (Dim("max_features_fraction", "continuous", 0.5, 2.0),
         r"^space dimension 'max_features_fraction': .* got 2\.0$"),
    ],
    ids=["unknown-name", "wrong-kind", "lower-out-of-range", "upper-out-of-range"],
)
def test_config_rejects_a_space_that_hyperparams_cannot_take(dim, message):
    with pytest.raises(ValueError, match=message):
        small_config(space=SearchSpace((dim,)))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("budget", "6", r"^budget must be int, got '6'$"),
        ("budget", True, r"^budget must be int, got True$"),
        ("budget", 6.0, r"^budget must be int, got 6\.0$"),
        ("seed", None, r"^seed must be int, got None$"),
        ("test_fraction", "0.2", r"^test_fraction must be float, got '0\.2'$"),
        ("n_init", 2.5, r"^n_init must be int \| None, got 2\.5$"),
        ("label_column", 1, r"^label_column must be str, got 1$"),
        ("feature_columns", ("a", "b"), r"^feature_columns must be list\[str\] \| None, got \("),
        ("feature_columns", ["a", 1], r"^feature_columns must be list\[str\] \| None, got \["),
        ("space", [], r"^space must be SearchSpace, got \[\]$"),
    ],
)
def test_config_checks_each_field_against_its_annotation(field, value, message):
    with pytest.raises(ValueError, match=message):
        small_config(**{field: value})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("test_fraction", 0.0, r"^test_fraction must be in \(0, 1\), got 0\.0$"),
        ("test_fraction", 1, r"^test_fraction must be in \(0, 1\), got 1$"),
        ("test_fraction", float("nan"), r"^test_fraction must be in \(0, 1\), got nan$"),
        ("smote_k", 0, r"^smote_k must be >= 1, got 0$"),
        ("smote_ratio", 0.0, r"^smote_ratio must be in \(0, 1\], got 0\.0$"),
        ("smote_ratio", 1.5, r"^smote_ratio must be in \(0, 1\], got 1\.5$"),
        ("budget", 0, r"^budget must be >= 1, got 0$"),
        ("n_init", 0, r"^n_init must be >= 1, got 0$"),
        ("cv_folds", 1, r"^cv_folds must be >= 2, got 1$"),
        ("n_candidates", 0, r"^n_candidates must be >= 1, got 0$"),
        ("n_threads", 0, r"^n_threads must be >= 1, got 0$"),
        ("n_threads", -2, r"^n_threads must be >= 1, got -2$"),
    ],
)
def test_config_rejects_a_value_out_of_range(field, value, message):
    with pytest.raises(ValueError, match=message):
        small_config(**{field: value})


def test_config_takes_the_range_edges():
    cfg = small_config(smote_k=1, smote_ratio=1, budget=1, n_init=1, cv_folds=2, n_candidates=1, n_threads=1)
    assert (cfg.smote_k, cfg.budget, cfg.cv_folds) == (1, 1, 2)


def test_config_takes_an_int_for_a_float_a_path_and_none_where_optional(tmp_path):
    cfg = small_config(smote_ratio=1, test_fraction=np.float64(0.25), seed=np.int64(3),
                       data_path=tmp_path, n_init=None, negative_label=None)
    assert cfg.smote_ratio == 1 and cfg.data_path == tmp_path


# A run and an eval in a fresh process, reporting whether numpy.ma has been
# imported after `import numpy`, after run_pipeline and after `botopt eval`.
MA_PROBE = """
import contextlib, io, json, sys
import numpy
at_import = "numpy.ma" in sys.modules
from botopt import PipelineConfig, gaussian_clusters, run_pipeline, write_flows
from botopt.cli import main
d = gaussian_clusters(300, 40, seed=1, n_features=3)
run_pipeline(PipelineConfig(seed=0, budget=10, cv_folds=3), dataset=d)
after_run = "numpy.ma" in sys.modules
write_flows(d, sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["eval", "--data", sys.argv[1], "--seed", "0"])
print(json.dumps([at_import, after_run, code, "numpy.ma" in sys.modules]))
"""


def test_a_run_and_an_eval_never_import_numpy_ma(tmp_path):
    # np.unique, np.setdiff1d and np.intersect1d import numpy.ma on first
    # use, which costs 13-16 ms of every run on a 2-vCPU VM; the pipeline
    # needs none of them
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", MA_PROBE, str(tmp_path / "flows.csv")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    at_import, after_run, code, after_eval = json.loads(done.stdout)
    if at_import:
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert code == 0
    assert not after_run, "run_pipeline imported numpy.ma"
    assert not after_eval, "botopt eval imported numpy.ma"


def test_stratified_kfold_skips_a_class_with_no_rows():
    # class 0 has no rows: it is neither dealt nor rejected as too small
    folds = stratified_kfold(np.ones(6, dtype=np.int64), 3, seed=0)
    assert [f.tolist() for f in folds] == [[3, 4], [0, 2], [1, 5]]
