"""smop benchmark driver.

Usage (from the repository root)::

    python3 benchmark/run.py --workload l1-cold --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it report every metric with its unit, the failure share, the
environment and, for traced runs, the self-check. The library is imported
from ``src/`` next to this directory; without it the driver exits with
status 2 and prints no result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread: the reduction order, and with it every iteration counter,
# then repeats exactly. Must be set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_library():
    """Put ``src/`` first on the path and check that smop comes from there."""
    if not (SRC / "smop" / "__init__.py").is_file():
        raise SystemExit(f"error: no smop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import smop

    if Path(smop.__file__).resolve().parent != SRC / "smop":
        raise SystemExit(f"error: smop imported from {smop.__file__}, not {SRC}")


def main(argv=None) -> int:
    _import_library()
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small instances of the same workload (for tests)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = workloads.tiny(w)
    trace_path = None
    if args.trace:
        (HERE / "traces").mkdir(exist_ok=True)
        trace_path = HERE / "traces" / f"{w.name}-seed{args.seed}.jsonl.gz"
    out = workloads.run(w, args.seed, args.seconds, bool(args.trace), trace_path)

    for line in out["lines"]:
        print(line, file=sys.stderr)
    env = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
           **workloads.versions()}
    print(json.dumps({"workload": w.name, "seed": args.seed, "env": env, "info": out["info"]}))
    for name, (value, unit) in out["metrics"].items():
        print(f"{name:34s} {value:14.6g} {unit}")
    info = out["info"]
    print(f"{'fail_frac':34s} {info['fail_frac']:14.6g} ratio  "
          f"({out['failed']} of {out['attempted']} solves)")
    if not args.trace:
        print(f"{'wall_solve_s_p50':34s} {info['wall_solve_s_p50']:14.6g} s  (unscaled)")
        p90 = info["wall_solve_s_p90"]
        print(f"{'wall_solve_s_p90':34s} " + (f"{p90:14.6g} s  (unscaled)" if p90 is not None
              else f"{'n/a':>14s}    (needs >= {workloads.P90_MIN_SAMPLES} solves)"))
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        # a failed solve counts as infinitely slow, but JSON has no infinity
        "metrics": {
            k: {"value": v if math.isfinite(v) else sys.float_info.max, "unit": u}
            for k, (v, u) in out["metrics"].items()
        },
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
