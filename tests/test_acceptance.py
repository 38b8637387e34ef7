"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines. Criterion 6 needs the real reduced flow file (see README)
and skips cleanly when it is absent; everything else is self-contained.
"""

import os
import time
from math import ceil
from pathlib import Path

import numpy as np
import pytest

from botopt.bayesopt import Dim, SearchSpace, optimize
from botopt.dtree import HyperParams, fit_tree, predict_many
from botopt.gp import KernelParams, gp_fit, gp_predict_batch, log_marginal_likelihood
from botopt.ingest import Dataset, class_counts, sample_flows
from botopt.metrics import ConfusionMatrix, compute_metrics
from botopt.pipeline import PipelineConfig, report_to_text, run_pipeline
from botopt.preprocess import SmoteConfig, smote_audit
from botopt.synthetic import gaussian_clusters

from reference import (
    knn_indices,
    ref_fit_tree,
    ref_gp_predict,
    ref_log_marginal_likelihood,
    same_tree,
)


def _verdict(num: int, desc: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"criterion {num} [{desc}]: {status} ({elapsed:.2f}s, limit {limit:.0f}s)")


def test_criterion_1_metric_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 1_000_000, size=4))
        if tp + tn + fp + fn == 0:
            tp = 1
        r = compute_metrics(ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn))
        total = tp + tn + fp + fn
        acc = (tp + tn) / total
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        worst = max(
            worst,
            abs(r.accuracy - acc),
            abs(r.precision - prec),
            abs(r.recall - rec),
            abs(r.f_score - f),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12
    _verdict(1, "metric identities vs direct formulas", ok, elapsed, 1.0)
    assert ok, f"max metric deviation {worst}"
    assert elapsed < 1.0


def test_criterion_2_gp_against_dense_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        t = int(rng.integers(1, 11))
        d = int(rng.integers(1, 4))
        X = rng.random((t, d))
        y = rng.standard_normal(t)
        sv = float(rng.uniform(0.5, 2.0))
        ls = float(rng.uniform(0.2, 1.2))
        # keep K + noise*I well conditioned: the dense-inverse oracle itself
        # loses tolerance-level accuracy past cond ~1e5
        noise = float(10 ** rng.uniform(-3, -2))
        m = gp_fit(X, y, KernelParams(sv, ls), noise)
        q = rng.random(d)
        (mean,), (var,) = gp_predict_batch(m, q)
        ref_mean, ref_var = ref_gp_predict(X, y, sv, ls, noise, q)
        lml = log_marginal_likelihood(m)
        ref_lml = ref_log_marginal_likelihood(X, y, sv, ls, noise)
        worst = max(
            worst, abs(mean - ref_mean), abs(var - max(ref_var, 0.0)), abs(lml - ref_lml)
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8
    _verdict(2, "gp posterior and evidence vs dense oracles", ok, elapsed, 5.0)
    assert ok, f"max gp deviation {worst}"
    assert elapsed < 5.0


def test_criterion_3_bo_finds_parabola_peak():
    start = time.perf_counter()
    space = SearchSpace((Dim("x", "continuous", 0.0, 1.0),))

    def objective(config):
        return -((config["x"] - 0.3) ** 2)

    grid = np.linspace(0.0, 1.0, 10_001)
    x_star = float(grid[np.argmax(-((grid - 0.3) ** 2))])  # grid-search oracle

    hits = 0
    monotone = True
    for seed in range(10):
        trace = optimize(objective, space, budget=20, n_init=5, seed=seed)
        if abs(trace.best.config["x"] - x_star) <= 0.05:
            hits += 1
        running = [t.objective for t in trace.trials]
        best_seq = np.maximum.accumulate(running)
        monotone &= bool(np.all(np.diff(best_seq) >= 0))
    elapsed = time.perf_counter() - start
    ok = hits >= 9 and monotone
    _verdict(3, f"bo recovers optimum in {hits}/10 seeds", ok, elapsed, 10.0)
    assert hits >= 9
    assert monotone
    assert elapsed < 10.0


def test_criterion_4_tree_matches_exhaustive_reference():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    mismatches = 0
    for _ in range(50):
        m = int(rng.integers(20, 201))
        nf = int(rng.integers(2, 6))
        X = rng.random((m, nf))
        y = (rng.random(m) < rng.uniform(0.2, 0.8)).astype(np.int64)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        hp = HyperParams(
            max_depth=int(rng.integers(2, 9)),
            min_samples_split=int(rng.integers(2, 21)),
            min_samples_leaf=int(rng.integers(1, 6)),
            max_features_fraction=1.0,
        )
        d = Dataset(X, y, tuple(f"f{i}" for i in range(nf)))
        tree = fit_tree(d, hp, seed=0)
        ref = ref_fit_tree(X, y, hp.max_depth, hp.min_samples_split, hp.min_samples_leaf, 2)
        if not same_tree(tree.root, ref):
            mismatches += 1

    # memorizing tree on consistent (distinct-row) data
    memorize_ok = True
    for seed in (0, 1, 2):
        g = np.random.default_rng(seed)
        X = np.unique(g.random((80, 3)), axis=0)
        y = g.integers(0, 2, X.shape[0])
        d = Dataset(X, y, ("a", "b", "c"))
        t = fit_tree(d, HyperParams(max_depth=X.shape[0], min_samples_split=2), seed=seed)
        memorize_ok &= bool(np.array_equal(predict_many(t, X), y))

    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and memorize_ok
    _verdict(4, "tree equals exhaustive reference node-for-node", ok, elapsed, 30.0)
    assert mismatches == 0, f"{mismatches}/50 trees diverged from the reference"
    assert memorize_ok
    assert elapsed < 30.0


def test_criterion_5_smote_provenance_audit():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    for case in range(100):
        n_min = int(rng.integers(2, 31))
        n_maj = int(rng.integers(n_min + 5, 200))
        nf = int(rng.integers(2, 5))
        k = int(rng.integers(1, 8))
        ratio = float(rng.uniform(0.4, 1.0))
        feats = np.vstack([rng.random((n_min, nf)), rng.random((n_maj, nf)) + 2.0])
        labels = np.concatenate([np.zeros(n_min, dtype=int), np.ones(n_maj, dtype=int)])
        d = Dataset(feats, labels, tuple(f"f{i}" for i in range(nf)))

        out, seeds, neighbors, lams = smote_audit(d, SmoteConfig(k=k, target_ratio=ratio, seed=case))

        expected_minority = max(ceil(ratio * n_maj), n_min)
        counts = class_counts(out)
        assert counts[0] == expected_minority, "post-oversampling count wrong"
        assert counts[1] == n_maj
        assert len(seeds) == len(neighbors) == len(lams) == expected_minority - n_min

        k_eff = min(k, n_min - 1)
        neighbor_lists = [knn_indices(feats[:n_min], i, k_eff) for i in range(n_min)]
        for i, (s, n, lam) in enumerate(zip(seeds, neighbors, lams)):
            x = d.features[s]
            nb = d.features[n]
            synth = out.features[d.n_rows + i]
            assert 0.0 <= lam <= 1.0
            # collinearity: the recorded interpolation reproduces the point
            assert np.max(np.abs(synth - (x + lam * (nb - x)))) < 1e-9
            # segment: inside the endpoint bounding box
            assert np.all(synth >= np.minimum(x, nb) - 1e-12)
            assert np.all(synth <= np.maximum(x, nb) + 1e-12)
            assert n in neighbor_lists[s]
    elapsed = time.perf_counter() - start
    ok = True
    _verdict(5, "smote collinearity/segment audit via provenance arrays", ok, elapsed, 5.0)
    assert elapsed < 5.0


# --- criterion 6: real-data reduced-scale check ------------------------------

BOTIOT_FEATURES = [
    "seq", "stddev", "N_IN_Conn_P_SrcIP", "min", "state_number",
    "mean", "N_IN_Conn_P_DstIP", "drate", "srate", "max",
]
BOTIOT_LABEL = os.environ.get("BOTIOT_LABEL", "attack")
BOTIOT_POSITIVE = os.environ.get("BOTIOT_POSITIVE", "1")


def _find_botiot() -> Path | None:
    env = os.environ.get("BOTIOT_CSV")
    if env:
        p = Path(env)
        if p.exists():
            return p
    default = Path(__file__).resolve().parent.parent / "data" / "botiot_5pct.csv"
    return default if default.exists() else None


def test_criterion_6_reduced_scale_headline():
    path = _find_botiot()
    if path is None:
        print(
            "criterion 6 [reduced-scale headline on real flows]: SKIP "
            "(flow file absent; set BOTIOT_CSV or place data/botiot_5pct.csv)"
        )
        pytest.skip("reduced flow dataset not available")
    start = time.perf_counter()
    data, full_counts = sample_flows(
        path, BOTIOT_LABEL, BOTIOT_POSITIVE, n_positive=50_000, seed=2018,
        feature_columns=BOTIOT_FEATURES,
    )
    # published reduced-set class sizes for the 5% file
    assert full_counts == {0: 477, 1: 3_668_045}
    assert data.n_features == 10
    assert class_counts(data) == {0: 477, 1: 50_000}

    cfg = PipelineConfig(
        seed=2018,
        test_fraction=0.2,
        smote_k=5,
        smote_ratio=1.0,
        budget=15,
        n_init=6,
        cv_folds=3,
        n_candidates=500,
    )
    report = run_pipeline(cfg, dataset=data)
    opt, base = report.optimized_metrics, report.baseline_metrics
    elapsed = time.perf_counter() - start
    ok = (
        opt.accuracy >= 0.999
        and opt.f_score >= 0.99
        and opt.macro_f_score >= base.macro_f_score
    )
    _verdict(6, "reduced-scale headline on real flows", ok, elapsed, 600.0)
    assert opt.accuracy >= 0.999, f"accuracy {opt.accuracy}"
    assert opt.f_score >= 0.99, f"attack-class f-score {opt.f_score}"
    assert opt.macro_f_score >= base.macro_f_score
    assert elapsed < 600.0


def test_criterion_7_synthetic_imbalance_surrogate():
    start = time.perf_counter()
    # spread 0.5 keeps the blobs cleanly separated: with only 20 normal test
    # rows, cross-region tail draws would otherwise let single outliers flip
    # the optimized-vs-default macro-F ordering by luck rather than by defect
    data = gaussian_clusters(10_000, 100, seed=2026, spread=0.5)
    cfg = PipelineConfig(
        seed=2026,
        test_fraction=0.2,
        smote_k=5,
        smote_ratio=1.0,
        budget=12,
        n_init=6,
        cv_folds=3,
        n_candidates=400,
    )
    report = run_pipeline(cfg, dataset=data)
    opt, base = report.optimized_metrics, report.baseline_metrics
    elapsed = time.perf_counter() - start
    ok = opt.macro_f_score >= base.macro_f_score and opt.accuracy >= 0.99
    _verdict(7, "synthetic 10000/100 surrogate", ok, elapsed, 300.0)
    assert opt.macro_f_score >= base.macro_f_score, (
        f"optimized macro-F {opt.macro_f_score} < baseline {base.macro_f_score}"
    )
    assert opt.accuracy >= 0.99, f"accuracy {opt.accuracy}"
    assert elapsed < 300.0


def test_criterion_8_run_reports_stage_times_without_asserting_growth():
    start = time.perf_counter()
    stages = {
        "load", "split", "normalize", "tune",
        "oversample", "fit_optimized", "fit_baseline", "evaluate",
    }
    data = gaussian_clusters(700, 60, seed=8)
    cfg = PipelineConfig(seed=8, smote_k=3, budget=6, n_init=4, n_candidates=150)
    report = run_pipeline(cfg, dataset=data)
    timings = report.timings
    ok = (
        set(timings) == stages
        and all(t > 0 for t in timings.values())
        and "stage seconds: " in report_to_text(report)
    )
    elapsed = time.perf_counter() - start
    _verdict(8, "the run reports a time for every stage; growth is never asserted", ok, elapsed, 60.0)
    print(
        "criterion 8 note: full-scale published numbers are out of desk-scale scope; "
        "criterion 6 at reduced scale plus the property suites stand in for them"
    )
    assert ok
