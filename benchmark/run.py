#!/usr/bin/env python3
"""botopt benchmark: end-to-end and per-layer metrics for three workloads.

Measure one workload (run from the root of a checkout):

    python3 benchmark/run.py --workload tune-botiot --seed 1 --seconds 35 --trace 0

Each operation runs in a fresh process (child.py) with the BLAS thread
count pinned to 1. ``--trace 0`` repeats the untraced operation (at least
twice) while the next one should end within ``--seconds``, times set-ups
between the operations and reports the end-to-end metrics named in
BENCHMARK.json, its times scaled to a fixed machine speed by the reference
kernel (reference.py); ``--trace 1`` does the same with
pairs of an untraced and a traced operation and reports the per-layer
metrics. Every operation's outputs are checked; a
failed check counts the operation as failed and makes ``correct`` false,
and the result is printed all the same. The last stdout line is the
JSON result; the full record (with the environment) and the spans go to
``benchmark/out/``.

Compare two sets of results (each a result file or a directory of them):

    python3 benchmark/run.py --compare OLD NEW
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from reference import NOMINAL_S, Reference
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
CHILD = BENCH_DIR / "child.py"

# OpenBLAS's default of 2 threads on a 2-core machine made a 200-trial
# search on 2,060 rows slower and noisier (11.9 s and 13.1 s on two runs,
# against 9.3-9.6 s with 1 thread).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_OPS = 2  # the same-seed output check needs two operations
MIN_SETUPS = 7  # setup_s is the median of at least this many set-ups
DEADLINE_S = 170.0  # a run must end within 180 s


class Op(NamedTuple):
    res: dict | None  # the child's figures; None when its process failed
    ok: bool  # every check on its outputs passed


class Run:
    """Child processes of one benchmark run and the checks on their outputs."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.problems: list[str] = []
        self.failed_ops = 0
        # outputs of the first operation; every later one must match them
        self.fingerprint: dict | None = None
        self.records: list[dict] = []
        self.reference: dict | None = None  # the scaling of an untraced run

    def child(self, mode: str) -> dict | None:
        cmd = [sys.executable, str(CHILD), self.workload, str(self.seed), mode]
        try:
            proc = subprocess.run(
                cmd,
                capture_output=True,
                text=True,
                env={**os.environ, **BLAS_ENV},
                timeout=max(self.deadline - time.monotonic(), 1.0),
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} process ran past the deadline")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            self.problems.append(f"{mode} process exited with {proc.returncode}: {tail[0]}")
            return None
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        self.records.append({"mode": mode, **{k: v for k, v in res.items() if k != "spans"}})
        return res

    def operation(self, mode: str) -> Op:
        """One checked operation."""
        self.attempted += 1
        res = self.child(mode)
        if res is None:
            self.failed_ops += 1
            return Op(None, False)
        problems = list(res["problems"])
        if self.fingerprint is None:
            self.fingerprint = res["fingerprint"]
        elif res["fingerprint"] != self.fingerprint:
            problems.append(f"{mode} outputs differ from the first operation with this seed")
        if problems:
            self.failed_ops += 1
            self.problems.extend(problems)
        return Op(res, not problems)

    def time_left(self, need: float) -> bool:
        return self.deadline - time.monotonic() > need


def figures(ops: list[Op]) -> list[dict]:
    """Figures of the operations that passed every check or, when none did,
    of those whose process at least finished, so that a failed run still
    reports what it measured."""
    return [op.res for op in ops if op.ok] or [op.res for op in ops if op.res is not None]


def median_of(results: list[dict], key: str) -> float | None:
    return statistics.median(r[key] for r in results) if results else None


def median_scaled(results: list[dict], key: str) -> float | None:
    return statistics.median(r[key] * r["scale"] for r in results) if results else None


def measure_untraced(run: Run, seconds: float) -> dict:
    """End-to-end metrics. Each child process's times are scaled to a fixed
    machine speed by the reference kernel, timed in a burst before and after
    it on the same core."""
    ref = Reference()
    ref.burst()
    ops: list[Op] = []
    setups: list[dict] = []

    def scale(res: dict | None) -> None:
        """Time the burst after a child and attach the child's scale."""
        ref.burst()
        if res is not None:
            res["scale"] = run.records[-1]["scale"] = ref.scale_last()

    def setup_only() -> bool:
        res = run.child("setup")
        scale(res)
        if res is not None:
            setups.append(res)
        return res is not None

    start = time.monotonic()
    last = 0.0
    # start another operation only if it should end within the window
    while run.attempted < MIN_OPS or (
        time.monotonic() - start + last <= seconds and run.time_left(2 * last)
    ):
        t0 = time.monotonic()
        ops.append(run.operation("run"))
        scale(ops[-1].res)
        last = time.monotonic() - t0
        # the run's first set-up warms the file cache and, for eval-file,
        # writes the CSV; the others find both warm
        if len(ops) > 1 and ops[-1].res is not None:
            setups.append(ops[-1].res)
        # set-up-only processes keep pace with the window, so that setup_s
        # samples the whole run rather than a burst at its end
        due = MIN_SETUPS * min(1.0, (time.monotonic() - start) / seconds)
        while len(setups) < due and run.time_left(10.0) and setup_only():
            pass
    while len(setups) < MIN_SETUPS and run.time_left(10.0) and setup_only():
        pass
    results = figures(ops)
    run.reference = {
        "nominal_s": NOMINAL_S,
        "bursts_s": ref.bursts,  # one before the first child, one after each
        "raw_run_s": median_of(results, "run_s"),
        "raw_setup_s": median_of(setups, "setup_s"),
    }
    return {
        "run_s": median_scaled(results, "run_s"),
        "setup_s": median_scaled(setups, "setup_s"),
        "peak_rss_mb": median_of(results, "peak_rss_mb"),
        "macro_f": results[0]["macro_f"] if results else None,
    }


def measure_traced(run: Run, seconds: float) -> tuple[dict, list[dict]]:
    plain: list[Op] = []
    traced: list[Op] = []
    start = time.monotonic()
    last = 0.0
    while not plain or (
        time.monotonic() - start + last <= seconds and run.time_left(2 * last)
    ):
        t0 = time.monotonic()
        plain.append(run.operation("run"))
        traced.append(run.operation("trace"))
        last = time.monotonic() - t0
    results = figures(traced)
    if not results:
        return {}, []
    names = results[0]["layer_metrics"]
    metrics = {k: statistics.median(r["layer_metrics"][k] for r in results) for k in names}
    plain_s = median_of(figures(plain), "run_s")
    if plain_s is not None:
        metrics["trace.overhead_s"] = median_of(results, "run_s") - plain_s
    metrics["trace.spans"] = len(results[0]["spans"])
    return metrics, [s for r in results for s in r["spans"]]


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(run: Run) -> dict:
    versions = next((r["versions"] for r in run.records if "versions" in r), {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **versions,
        "git_sha": git_sha(),
        **BLAS_ENV,
    }


def measure(args) -> int:
    if not Path("src/botopt/__init__.py").is_file():
        print("error: run from the root of a botopt checkout (no src/botopt)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    run = Run(args.workload, args.seed)
    spans: list[dict] = []
    if args.trace:
        values, spans = measure_traced(run, args.seconds)
    else:
        # one core for this process, its children and the reference kernel,
        # so that the kernel times the core the operations run on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        values = measure_untraced(run, args.seconds)
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    if missing:
        run.problems.append(f"no operation gave a value for {', '.join(missing)}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed_ops,
        "metrics": metrics,
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(run),
        "problems": run.problems,
        "reference": run.reference,
        "operations": run.records,
        "result": result,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        (OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")

    for problem in run.problems:
        print(f"check failed: {problem}")
    if run.reference is not None:
        ref = run.reference
        print(f"unscaled medians: run_s {ref['raw_run_s']} s, setup_s {ref['raw_setup_s']} s; "
              f"reference kernel {statistics.median(ref['bursts_s']):.6g} s per call "
              f"(nominal {ref['nominal_s']} s)")
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:<28} {value:>16} {m['unit']}")
    print(json.dumps(result))
    return 0


def load_results(path: Path) -> dict[tuple[str, int], list[dict]]:
    """Result records under path, grouped by (workload, trace)."""
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    out: dict[tuple[str, int], list[dict]] = {}
    for f in files:
        rec = json.loads(f.read_text())
        out.setdefault((rec["workload"], rec["trace"]), []).append(rec["result"]["metrics"])
    return out


def median_value(results: list[dict], name: str) -> float | None:
    values = [m[name]["value"] for m in results if m[name]["value"] is not None]
    return statistics.median(values) if values else None


def compare(old_path: str, new_path: str) -> int:
    """Per workload, each metric's median in OLD and NEW and both ratios."""
    old, new = load_results(Path(old_path)), load_results(Path(new_path))
    common = sorted(old.keys() & new.keys())
    if not common:
        print("error: no workload appears in both result sets", file=sys.stderr)
        return 1

    def ratio(a: float, b: float) -> str:
        return f"{a / b:.4f}" if b else "n/a"

    for workload, trace in common:
        print(f"== {workload} ({'traced' if trace else 'untraced'}; "
              f"{len(old[workload, trace])} old, {len(new[workload, trace])} new) ==")
        print(f"{'metric':<28} {'unit':<8} {'old':>12} {'new':>12} {'new/old':>9} {'old/new':>9}")
        for name, first in old[workload, trace][0].items():
            if name not in new[workload, trace][0]:
                continue
            a = median_value(old[workload, trace], name)
            b = median_value(new[workload, trace], name)
            if a is None or b is None:
                continue
            unit = first["unit"]
            print(f"{name:<28} {unit:<8} {a:>12.6g} {b:>12.6g} {ratio(b, a):>9} {ratio(a, b):>9}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required unless --compare is given")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
