#!/usr/bin/env python3
"""Reduced-scale experiment on the real flow file.

Keeps every normal row and a seeded sample of attack rows (the full 5% file
holds 477 normal vs 3,668,045 attack flows, far more than a desk run needs),
then compares the tuned tree against the default-settings baseline.
"""

import argparse
from pathlib import Path

import numpy as np

from botopt.bayesopt import write_trace
from botopt.ingest import Dataset, class_counts, load_flows
from botopt.pipeline import PipelineConfig, report_to_text, run_pipeline

BEST10_FEATURES = [
    "seq", "stddev", "N_IN_Conn_P_SrcIP", "min", "state_number",
    "mean", "N_IN_Conn_P_DstIP", "drate", "srate", "max",
]


def sample_attacks(d: Dataset, n_attack: int, seed: int) -> Dataset:
    """Every normal row plus a seeded uniform sample of ``n_attack`` attack
    rows (all of them if there are fewer), in file order.

    ``default_rng(seed).choice(n_attacks, min(n_attack, n_attacks),
    replace=False)`` picks attacks by their ordinal among all attack rows,
    so ``n_attack=0`` keeps the normal rows only.
    """
    if n_attack < 0:
        raise ValueError(f"n_attack must be >= 0, got {n_attack}")
    attacks = np.flatnonzero(d.labels == 1)
    keep = d.labels == 0
    chosen = np.random.default_rng(seed).choice(attacks.size, min(n_attack, attacks.size), replace=False)
    keep[attacks[chosen]] = True
    return d.take(np.flatnonzero(keep))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", required=True, help="reduced flow CSV (10 best features)")
    ap.add_argument("--label-column", default="attack")
    ap.add_argument("--positive-label", default="1")
    ap.add_argument("--attack-sample", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=2018)
    ap.add_argument("--budget", type=int, default=20)
    ap.add_argument("--out-dir", default="out_botiot")
    args = ap.parse_args()
    if args.attack_sample < 0:
        ap.error(f"--attack-sample must be >= 0, got {args.attack_sample}")

    full = load_flows(args.data, args.label_column, args.positive_label, BEST10_FEATURES)
    print(f"full file class counts: {class_counts(full)}")
    data = sample_attacks(full, args.attack_sample, args.seed)
    del full  # the run needs only the sample
    print(f"subsample class counts: {class_counts(data)}")

    cfg = PipelineConfig(seed=args.seed, budget=args.budget, smote_k=5, cv_folds=3)
    report = run_pipeline(cfg, dataset=data)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text = report_to_text(report)
    print(text)
    (out / "report.txt").write_text(text + "\n", encoding="utf-8")
    write_trace(report.trace, out / "trace.csv", cfg.space)
    print(f"\nreport and trace written to {out}/")


if __name__ == "__main__":
    main()
