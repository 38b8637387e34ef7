"""One benchmark operation in a fresh process.

    python3 benchmark/child.py <workload> <seed> <setup|run|trace>

Run from the root of a checkout, with botopt's sources under ``src``.
Prints one JSON object: the set-up time and, for ``run`` and ``trace``,
the operation's time, peak RSS, outputs and any failed output check.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402  (the script's directory is on sys.path)


def main(argv: list[str]) -> None:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    w = workloads.WORKLOADS[name]
    inputs = workloads.setup(w, seed)
    out = {"setup_s": time.perf_counter() - START}
    if mode == "run":
        start = time.perf_counter()
        out.update(workloads.run_untraced(w, inputs))
        out["run_s"] = time.perf_counter() - start
    elif mode == "trace":
        out.update(workloads.run_traced(w, inputs))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    if mode != "setup":
        out["problems"] = out.get("problems", []) + workloads.check_outputs(w, out)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import numpy
    import scipy

    out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
