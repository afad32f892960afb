"""Command-line front end: solve, path and rootdemo subcommands.

Exit codes: 0 on success (tolerance reached), 2 on non-convergence, 1 on
usage or data errors. Set the environment variable ``SMOP_LOG`` to
``debug``/``info``/``warning``/``error`` (any case; empty or unset is
``warning``) to control log verbosity; any other value is a usage error.
``smop solve --trace-jsonl PATH`` writes ``SmopResult.events()``, one JSON
object per line.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

from .driver import (
    METHODS,
    PathSpec,
    SmopConfig,
    smop_solve,
    solve_path,
)
from .problem import LibsvmFormatError, ProblemData, SynthSpec, libsvm_read, synth_instance
from .regularizers import make_regularizer
from .rootfind import (
    BracketError,
    eval_beta_fn,
    eval_constructed_fn,
    secant_solve,
)

log = logging.getLogger("smop")

# iterate tables of the two scalar demos, frozen at 2 significant digits
_DEMO_TABLES = {
    "beta:1.1": ["-5.1e-5", "-4.3e-6", "2.2e-10", "-2.2e-11", "-1.8e-12",
                 "4.1e-23", "-4.1e-24", "-3.4e-25"],
    "beta:1.5": ["-5.1e-5", "-1.7e-5", "8.4e-10", "-4.2e-10", "-1.1e-10",
                 "4.5e-20", "-2.2e-20", "-5.6e-21"],
    "beta:2.1": ["-5.1e-5", "-2.6e-5", "1.3e-9", "-1.5e-9", "-5.1e-10",
                 "7.4e-19", "-8.2e-19", "-2.8e-19"],
    "constructed": {
        "x": ["1.7e-1", "3.6e-2", "4.0e-3", "1.0e-4", "2.7e-7",
              "2.0e-11", "4.0e-18", "6.1e-29"],
        "f": ["1.9e-1", "3.7e-2", "4.0e-3", "1.0e-4", "2.7e-7",
              "2.0e-11", "4.0e-18", "6.1e-29"],
    },
}


def sci(v: float) -> str:
    """Compact scientific notation with 2 significant digits (``-5.1e-5``)."""
    mant, exp = f"{v:.1e}".split("e")
    sign = "-" if exp[0] == "-" else ""
    return f"{mant}e{sign}{exp[1:].lstrip('0') or '0'}"


def _parse_synth(text: str, seed_override=None) -> SynthSpec:
    fields = {}
    for part in text.split(","):
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in ("m", "n", "s", "sigma", "seed"):
            raise ValueError(f"unknown synth field {key!r}")
        if key in fields:
            raise ValueError(f"synth field {key!r} is given twice")
        try:
            fields[key] = float(val) if key == "sigma" else int(val)
        except ValueError:
            kind = "a number" if key == "sigma" else "an integer"
            raise ValueError(f"synth field {key!r} must be {kind}, got {val!r}") from None
    missing = [key for key in ("m", "n", "s") if key not in fields]
    if missing:
        raise ValueError(f"synth spec is missing {', '.join(missing)}")
    if seed_override is not None:
        fields["seed"] = seed_override
    return SynthSpec(**fields)


def _load_data(args) -> ProblemData:
    if bool(args.input) == bool(args.synth):
        raise ValueError("exactly one of --input or --synth is required")
    if args.input:
        if args.seed is not None:
            raise ValueError("--seed applies to --synth only, not to --input")
        return libsvm_read(args.input)
    spec = _parse_synth(args.synth, args.seed)
    data, _ = synth_instance(spec)
    return data


def _resolve_rho(args, data: ProblemData) -> float:
    if (args.c is None) == (args.rho is None):
        raise ValueError("exactly one of --c or --rho is required")
    return args.c * data.bnorm if args.c is not None else args.rho


def _build_config(args) -> SmopConfig:
    # every option goes through SmopConfig's constructor, so its checks run
    return SmopConfig(stoptol=args.stoptol, method=args.method, mu=args.mu,
                      sieve=not args.no_sieve)


def _write_json(doc, out):
    """Write ``doc`` as indented JSON to the file ``out``, or to stdout."""
    text = json.dumps(doc, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--input", help="LIBSVM-format data file")
    p.add_argument("--synth", help="synthetic spec, e.g. m=200,n=2000,s=20,sigma=0.01,seed=1")
    p.add_argument("--seed", type=int, default=None, help="override the synth seed")
    p.add_argument("--reg", choices=("l1", "slope"), default="l1")
    p.add_argument("--gamma", choices=("linear", "constant"), default="linear",
                   help="weight schedule for --reg slope")
    p.add_argument("--c", type=float, default=None, help="rho = c * ||b||")
    p.add_argument("--rho", type=float, default=None, help="constraint level")
    p.add_argument("--method", choices=METHODS, default="smop")
    p.add_argument("--stoptol", type=float, default=1e-6)
    p.add_argument("--mu", type=float, default=0.5,
                   help="secant safeguard factor, in (0, 1)")
    p.add_argument("--no-sieve", action="store_true",
                   help="solve each regularized problem over all coordinates")
    p.add_argument("--out", help="write the result JSON here instead of stdout")


def cmd_solve(args) -> int:
    data = _load_data(args)
    rho = _resolve_rho(args, data)
    data = data.with_rho(rho)
    reg = make_regularizer(args.reg, data.A.n, args.gamma)
    cfg = _build_config(args)
    result = smop_solve(data, reg, cfg)
    _write_json(result.to_doc(), args.out)
    if args.trace_jsonl:
        with open(args.trace_jsonl, "w") as fh:
            fh.writelines(json.dumps(event) + "\n" for event in result.events())
    return 0 if result.converged else 2


def cmd_path(args) -> int:
    data = _load_data(args)
    if args.rho is not None:
        raise ValueError("path takes no --rho: its levels follow --c")
    if args.c is None or not 0 < args.c:
        raise ValueError("path requires --c > 0")
    reg = make_regularizer(args.reg, data.A.n, args.gamma)
    cfg = _build_config(args)
    spec = PathSpec(base_c=args.c, count=args.steps)
    path = solve_path(data, reg, spec, cfg)
    docs = [step.result.to_doc() for step in path.steps]
    _write_json({"steps": docs, "summary": path.summary()}, args.out)
    if args.csv:
        fields = ["rho", "lambda_star", "eta", "nnz", "n_subproblems", "wall_ms"]
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(fields)
            w.writerows([doc[k] for k in fields] for doc in docs)
    return 0 if path.failures == 0 else 2


def _rootdemo_rows(name: str):
    if name.startswith("beta:"):
        beta = float(name.split(":", 1)[1])
        iters = secant_solve(lambda x: eval_beta_fn(x, beta), 0.01, 0.005, 0.0, 8)
        return {"x": [sci(v) for v in iters]}
    iters = secant_solve(eval_constructed_fn, 0.545, 0.5, 0.0, 8)  # "constructed"
    return {
        "x": [sci(v) for v in iters],
        "f": [sci(eval_constructed_fn(v)) for v in iters],
    }


def cmd_rootdemo(args) -> int:
    rows = _rootdemo_rows(args.demo)
    header = "Iter  " + "  ".join(f"{k + 1:>8d}" for k in range(8))
    print(header)
    for label, vals in rows.items():
        print(f"{label:<5s} " + "  ".join(f"{v:>8s}" for v in vals))
    if args.check:
        expected = _DEMO_TABLES[args.demo]
        if isinstance(expected, list):
            expected = {"x": expected}
        for label, vals in rows.items():
            if vals != expected[label]:
                print(f"check failed for row {label}: {vals} != {expected[label]}",
                      file=sys.stderr)
                return 1
        print("check passed")
    return 0


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="smop", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one constrained problem")
    _add_common(p)
    p.add_argument("--trace-jsonl", metavar="PATH",
                   help="write the solve's trace, one JSON object per line: an "
                        "'eval' event per phi evaluation (step-down and rejected "
                        "trial points included), each followed by a 'round' event "
                        "per sieve round, then an 'iterate' event per accepted "
                        "root-finding iterate, whose 'eval' is null at the "
                        "unevaluated point (lambda_inf, ||b||); tracing changes "
                        "no iterate")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("path", help="solve a decreasing-rho solution path")
    _add_common(p)
    p.add_argument("--steps", type=int, default=100, help="number of path points")
    p.add_argument("--csv", help="per-step CSV output")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("rootdemo", help="scalar secant iterate tables")
    p.add_argument("demo", choices=list(_DEMO_TABLES))
    p.add_argument("--check", action="store_true",
                   help="compare against the embedded expected table")
    p.set_defaults(func=cmd_rootdemo)

    return top


def _log_level() -> int:
    """The logging level ``SMOP_LOG`` names, in any case; empty or unset is
    ``warning``."""
    value = os.environ.get("SMOP_LOG", "")
    name = value.lower() or "warning"
    if name not in ("debug", "info", "warning", "error"):
        raise ValueError(f"SMOP_LOG must be one of debug, info, warning, error; got {value!r}")
    return getattr(logging, name.upper())


def main(argv=None) -> int:
    try:
        level = _log_level()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage problems; map usage to 1
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, LibsvmFormatError, BracketError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main():
    sys.exit(main())
