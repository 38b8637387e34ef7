"""Command-line front end.

Verbs: run (full pipeline), tune (search only, emits the trial trace),
eval (fit and score one hyperparameter setting), pca (projection export).
Settings come from an optional JSON config file; every field can be
overridden by a flag. Bad input (a missing or malformed file, a setting out
of range) exits with "error: <message>" on stderr and no traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .bayesopt import write_trace
from .dtree import HyperParams, fit_tree
from .metrics import metrics_to_text, pca2, write_pca_csv
from .pipeline import (
    PipelineConfig,
    PipelineError,
    load_dataset,
    prepare,
    report_to_text,
    run_pipeline,
    score,
    search,
)
from .preprocess import apply_minmax, fit_minmax, smote


def _add_common(p: argparse.ArgumentParser, seed_required: bool) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--data", dest="data_path", help="flow CSV path")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--positive-label", dest="positive_label")
    p.add_argument("--negative-label", dest="negative_label")
    p.add_argument(
        "--feature-columns",
        dest="feature_columns",
        help="comma-separated feature include-list (default: all non-label columns)",
    )
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    p.add_argument("--seed", type=int, required=seed_required, default=None)
    p.add_argument("--smote-k", dest="smote_k", type=int)
    p.add_argument("--smote-ratio", dest="smote_ratio", type=float)
    p.add_argument("--budget", type=int)
    p.add_argument("--n-init", dest="n_init", type=int)
    p.add_argument("--cv-folds", dest="cv_folds", type=int)
    p.add_argument("--n-candidates", dest="n_candidates", type=int)
    p.add_argument("--n-threads", dest="n_threads", type=int)
    p.add_argument(
        "--space",
        help='inline JSON search space, e.g. \'[{"name": "max_depth", "kind": "integer", '
        '"lower": 1, "upper": 50}]\'',
    )


def _parse_json(text: str, source: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{source}: {err}") from err


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    # every PipelineConfig field has the flag of the same name
    overrides = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)}
    overrides["feature_columns"] = (
        [c.strip() for c in args.feature_columns.split(",")] if args.feature_columns else None
    )
    overrides["space"] = _parse_json(args.space, "--space") if args.space else None
    settings = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            settings = _parse_json(fh.read(), args.config)
        if not isinstance(settings, dict):
            raise SystemExit(f"error: {args.config}: the config must hold a JSON object")
        unknown = sorted(set(settings).difference(overrides))
        if unknown:
            raise SystemExit(f"error: {args.config}: unknown config field(s) {unknown}")
    # PipelineConfig checks every field: first the file's, then each flag over
    # them, so an error names the source that gave the bad value (argparse
    # types the flags, so only a range or the space can fail, and every such
    # flag is --<field>)
    try:
        cfg = PipelineConfig.from_dict({"seed": 0, **settings})
    except ValueError as err:
        raise ValueError(f"{args.config}: {err}") from err
    for name, value in overrides.items():
        if value is not None:
            try:
                cfg = PipelineConfig.from_dict(vars(cfg) | {name: value})
            except ValueError as err:
                raise ValueError(f"--{name.replace('_', '-')}: {err}") from err
    if cfg.data_path is None:
        raise SystemExit("error: no data file (pass --data or set data_path in the config)")
    return cfg


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    report = run_pipeline(cfg)
    text = report_to_text(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    if args.trace:
        write_trace(report.trace, args.trace, cfg.space)
        print(f"trace written to {args.trace}")
    return 0


def _cmd_tune(args) -> int:
    cfg = _build_config(args)
    train_s, _, smote_cfg = prepare(cfg, load_dataset(cfg))
    trace, _ = search(cfg, train_s, smote_cfg)
    out = args.out or "trace.csv"
    write_trace(trace, out, cfg.space)
    best = trace.best
    print(f"best objective {best.objective:.6f} at trial {best.index}: {best.config}")
    print(f"trace written to {out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _build_config(args)
    hp = HyperParams(**{f.name: getattr(args, f.name) for f in fields(HyperParams)})
    train_s, test_s, smote_cfg = prepare(cfg, load_dataset(cfg))
    tree = fit_tree(smote(train_s, smote_cfg), hp, cfg.seed, cfg.n_threads)
    print(metrics_to_text(score(tree, test_s)))
    return 0


def _cmd_pca(args) -> int:
    cfg = _build_config(args)
    data = load_dataset(cfg)
    scaler = fit_minmax(data)
    projections, _, explained = pca2(apply_minmax(scaler, data.features))
    write_pca_csv(projections, data.labels, args.out)
    print(f"explained variance: {explained[0]:.6f}, {explained[1]:.6f}")
    print(f"projection data written to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="botopt", description="Botnet flow classification with a tuned decision tree"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline: split, normalize, tune, fit, evaluate")
    _add_common(p_run, seed_required=True)
    p_run.add_argument("--report", help="also write the run report to this file")
    p_run.add_argument("--trace", help="write the tuning trace CSV to this file")
    p_run.set_defaults(fn=_cmd_run)

    p_tune = sub.add_parser("tune", help="hyperparameter search only, emit the trial trace")
    _add_common(p_tune, seed_required=False)
    p_tune.add_argument("--out", help="trace CSV path (default trace.csv)")
    p_tune.set_defaults(fn=_cmd_tune)

    p_eval = sub.add_parser("eval", help="fit and score one hyperparameter setting")
    _add_common(p_eval, seed_required=False)
    # one flag per tree setting, e.g. --max-depth, typed and defaulted by HyperParams
    for f in fields(HyperParams):
        p_eval.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default)
    p_eval.set_defaults(fn=_cmd_eval)

    p_pca = sub.add_parser("pca", help="export 2-component projection data")
    _add_common(p_pca, seed_required=False)
    p_pca.add_argument("--out", required=True, help="output CSV (pc1, pc2, label)")
    p_pca.set_defaults(fn=_cmd_pca)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, PipelineError) as err:
        raise SystemExit(f"error: {err}") from err


if __name__ == "__main__":
    sys.exit(main())
