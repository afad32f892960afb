"""Benchmark workloads for smop: instances, timed runs, checks and metrics.

Every workload solves ``min p(x) s.t. ||A x - b|| <= rho`` with method
``smop`` at ``stoptol=1e-8``, closed loop: one process, one solve at a time.
Inputs are synthetic (``sigma=0.01``, same recipe as ``smop.synth_instance``)
and come from a fixed pool of design seeds per workload. A round solves every
design at every level of a fixed grid, ``rho = c * ||b||`` with ``c`` in
``[0.095, 0.105]``; the run seed sets the order of the round's jobs and
jitters each level by at most 1e-4 of itself. A run repeats the same round.
See README.md for why the jobs are fixed this way.

A run has an untraced pass, which gives the end-to-end metrics, and for
``--trace 1`` a second, traced round over the same jobs, which gives the
per-layer metrics and must reproduce the untraced counters bit for bit.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np
import scipy

import smop
from reference import Reference
from smop import driver, problem, regularizers, sieving
from tracer import Tracer, patched

STOPTOL = 1e-8
SIGMA = 0.01
LEVEL = 0.1           # rho = c * ||b|| with c on a grid around LEVEL
LEVEL_SPREAD = 0.05   # relative half-width of the band the grid spans
JITTER = 1e-4         # relative seeded jitter of each level
REF_SHARE = 0.1       # reference kernel time after a job, as a share of it
ETA_L_MAX = 1e-8      # bound on the full-dimension KKT residual at x
SETUP_REPS = 5        # set-up is timed at least this often,
SETUP_MIN_S = 1.0     # and until this much time is spent,
SETUP_MAX_REPS = 50   # but no more often than this
P90_MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it


@dataclass(frozen=True)
class Workload:
    name: str
    reg: str                 # "l1" | "slope"
    m: int
    n: int
    s: int
    designs: tuple           # design seeds of the instance pool
    levels: int              # grid levels of c per design and round
    path_count: int = 0      # > 0: one job is a solve_path of this many steps


WORKLOADS = {
    w.name: w
    for w in (
        Workload("l1-cold", "l1", 300, 10000, 30, designs=(1, 2), levels=1),
        Workload("slope-cold", "slope", 200, 2000, 20, designs=(1, 2, 3, 4), levels=2),
        Workload("l1-path", "l1", 200, 1500, 15, designs=(1, 2, 3, 4, 5), levels=2,
                 path_count=20),
    )
}

# same code paths at a size that runs in well under a second
TINY = {
    "l1-cold": dict(m=60, n=600, s=6),
    "slope-cold": dict(m=80, n=400, s=6),
    "l1-path": dict(m=80, n=400, s=6, path_count=5),
}


def tiny(w: Workload) -> Workload:
    return replace(w, **TINY[w.name])


def make_instance(w: Workload, design: int):
    """Dense ``A`` and ``b`` as ``synth_instance(SynthSpec(m, n, s, sigma, design))``."""
    rng = np.random.default_rng(design)
    dense = rng.standard_normal((w.m, w.n))
    dense /= np.linalg.norm(dense, axis=0)
    support = np.sort(rng.choice(w.n, size=w.s, replace=False))
    signs = rng.choice([-1.0, 1.0], size=w.s)
    mags = rng.uniform(0.5, 1.5, size=w.s)
    x_true = np.zeros(w.n)
    x_true[support] = signs * mags
    b = dense @ x_true + SIGMA * rng.standard_normal(w.m)
    return dense, b


def setup(w: Workload, dense, b):
    """What the solver receives: validated matrix and data, and the penalty."""
    data = problem.ProblemData(problem.SparseMatrix.from_dense(dense), b)
    return data, regularizers.make_regularizer(w.reg, w.n)


def round_jobs(w: Workload, seed: int) -> list[tuple]:
    """The jobs of one round, ``(design index, c)``, in the seed's order.

    Every design meets every level of the grid, each jittered by the seed.
    Solve work jumps at some levels (README.md), so every round, and with it
    every run, holds the same mix of fast and slow jobs.
    """
    rng = np.random.default_rng(seed)
    grid = [LEVEL * (1.0 + LEVEL_SPREAD * ((2 * j + 1) / w.levels - 1.0))
            for j in range(w.levels)]
    jobs = [(d, c * (1.0 + JITTER * rng.uniform(-1.0, 1.0)))
            for d in range(len(w.designs)) for c in grid]
    return [jobs[i] for i in rng.permutation(len(jobs))]


# ---------------------------------------------------------------- solving

@dataclass
class Outcome:
    """One attempted constrained solve (a cold solve or one path step)."""

    ok: bool
    cause: str = ""
    counters: tuple = ()      # (n_subproblems, inner_iters_total, lambda_star)
    x: np.ndarray | None = None
    root: tuple = ()          # (secant steps, bisection steps, trial evals)


def check(res, data, reg, cause="") -> Outcome:
    """Certificates at the returned ``x``: root residual and full-dimension KKT.

    ``res`` is None for a solve that raised; ``cause`` then says why.
    """
    if res is None:
        return Outcome(False, cause)
    counters = (res.n_subproblems, res.inner_iters_total, res.lambda_star)
    steps = [rec.step for rec in res.root_state.history]
    bisections = steps.count("bisection")
    root = (steps.count("secant"), bisections, res.root_state.n_evals - bisections)
    kkt = smop.eta_l(res.x, data.A, data.b, reg, res.lambda_star)
    if not res.converged:
        cause = "converged=False"
    elif not res.eta <= STOPTOL:
        cause = f"eta={res.eta:.3g} > stoptol"
    elif not kkt <= ETA_L_MAX:
        cause = f"eta_l={kkt:.3g} > {ETA_L_MAX:g}"
    return Outcome(not cause, cause, counters, res.x, root)


def run_job(w: Workload, data, reg, c: float) -> list[tuple]:
    """One cold solve, or one path of ``w.path_count`` steps, at level ``c``.

    Returns ``(result, data, cause)`` per attempted solve, the arguments of
    :func:`check`; ``result`` is None if the solve raised. Library entry
    points are looked up on their modules at call time so that the tracing
    wrappers apply.
    """
    cfg = driver.SmopConfig(stoptol=STOPTOL, method="smop")
    try:
        if not w.path_count:
            data_c = data.with_rho(c * data.bnorm)
            return [(driver.smop_solve(data_c, reg, cfg), data_c, "")]
        spec = driver.PathSpec(base_c=c, count=w.path_count)
        path = driver.solve_path(data, reg, spec, cfg)
    except Exception as exc:  # the run goes on; the failure is counted
        return [(None, data, f"{type(exc).__name__}: {exc}")] * max(w.path_count, 1)
    by_rho = {step.rho: step.result for step in path.steps}
    out = []
    for rho in map(float, spec.rhos(data.bnorm)):
        res = by_rho.get(rho)
        cause = "" if res is not None else f"path step rho={rho:.6g} raised"
        out.append((res, data.with_rho(rho), cause))
    return out


@dataclass
class Round:
    """One pass over a round's jobs."""

    busy: float           # seconds spent in run_job, checks excluded
    solves: int           # attempted solves
    failed: int
    ref_s: float          # seconds spent in reference calls
    ref_calls: int

    def norm_s(self, nominal: float) -> float:
        """Seconds per solve, scaled to the reference speed; inf on failure."""
        if self.failed:
            return math.inf
        return self.busy / self.solves * nominal / (self.ref_s / self.ref_calls)


@dataclass
class Pass:
    """The solves of one pass, in order, with their wall times."""

    jobs: list            # the jobs of one round, (design index, c)
    outcomes: list        # every attempted solve of every round
    times: list           # wall seconds per attempted solve, inf if it failed
    rounds: list
    tracer: Tracer


def gauge(ref, took: float) -> tuple[float, int]:
    """Run the reference after ``took`` seconds of work: at least once and for
    at least ``REF_SHARE`` of it. Returns its seconds and call count."""
    spent, calls = ref.call(), 1
    while spent < REF_SHARE * took:
        spent += ref.call()
        calls += 1
    return spent, calls


def run_pass(w, pool, jobs, seconds, targets, ref, n_rounds=None) -> Pass:
    """Repeat the round ``jobs``: ``n_rounds`` times, or else while another
    round ends the pass nearer to ``seconds``, judged by the last round.

    After each job the reference kernel runs, at least once and for at least
    ``REF_SHARE`` of the job's time. The certificates are checked with
    tracing paused, so their matrix products and prox calls do not count
    towards any layer.
    """
    tracer = Tracer()
    outcomes, times, rounds = [], [], []
    with patched(tracer, targets):
        t0 = perf_counter()
        while True:
            t_round = perf_counter()
            rnd = Round(0.0, 0, 0, 0.0, 0)
            for d, c in jobs:
                data, reg = pool[d]
                first = len(tracer.names)
                t = perf_counter()
                solved = run_job(w, data, reg, c)
                took = perf_counter() - t
                rnd.busy += took
                tracer.paused = True
                got = [check(res, data_i, reg, cause) for res, data_i, cause in solved]
                spent, calls = gauge(ref, took)
                rnd.ref_s += spent
                rnd.ref_calls += calls
                tracer.paused = False
                spans = [i for i in range(first, len(tracer.names))
                         if tracer.names[i] == "solve" and tracer.parents[i] == -1]
                for j, o in enumerate(got):
                    ok_time = j < len(spans) and o.ok
                    times.append(tracer.ends[spans[j]] - tracer.starts[spans[j]]
                                 if ok_time else math.inf)
                outcomes.extend(got)
                rnd.solves += len(got)
                rnd.failed += sum(not o.ok for o in got)
            rounds.append(rnd)
            now = perf_counter()
            if n_rounds is not None:
                if len(rounds) >= n_rounds:
                    break
            elif now - t0 + (now - t_round) / 2 >= seconds:
                break
    return Pass(jobs, outcomes, times, rounds, tracer)


# ---------------------------------------------------------------- tracing

def _reduced_attrs(args, out):
    return {"k": len(args[3]), "iters": out.iters, "converged": bool(out.converged)}


def _sieve_attrs(args, out):
    result, trace = out
    rounds = trace.rounds
    empty = sum(1 for r in rounds if r.size_J == 0)
    return {
        "rounds": len(rounds),
        # the converged round also has no candidates; it is not a re-tighten
        "retighten": empty - (1 if result.converged else 0),
        "size_I": rounds[-1].size_I if rounds else 0,
        "nnz": int(np.count_nonzero(result.x)),
    }


def _gather_attrs(args, out):
    return {"bytes": 8 * out.shape[0] * out.shape[1]}


SOLVE_TARGET = [(driver, "smop_solve", "solve", None)]

LAYER_TARGETS = SOLVE_TARGET + [
    (driver, "bracket_init", "bracket", None),
    (driver, "_expand_bracket", "bracket", None),
    (driver, "hybrid_secant_solve", "root", None),
    (driver, "lambda_inf", "lambda_inf", None),
    (driver, "phi_eval", "phi_eval", None),
    (sieving, "sieve_solve", "sieve", _sieve_attrs),
    (sieving, "solve_reduced", "solve_reduced", _reduced_attrs),
    (problem.SparseMatrix, "matvec", "matvec", None),
    (problem.SparseMatrix, "rmatvec", "rmatvec", None),
    (problem.SparseMatrix, "take_columns_dense", "gather", _gather_attrs),
    (regularizers.L1, "prox", "prox", None),
    (regularizers.SortedL1, "prox", "prox", None),
    (regularizers.L1, "value", "value", None),
    (regularizers.SortedL1, "value", "value", None),
]


def layer_metrics(tr: Tracer, outcomes) -> dict:
    """Per-layer metrics of a traced pass, mostly per constrained solve."""
    n_solves = max(len(outcomes), 1)
    dur, own = tr.durations(), tr.self_times()
    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(tr.names):
        by_name.setdefault(name, []).append(i)

    def spans(name):
        return by_name.get(name, [])

    def per_solve(values):
        return sum(values) / n_solves

    def attr(name, key):
        return [tr.attrs[i][key] for i in spans(name) if i in tr.attrs]

    phase = {"bracket": 0, "root": 0}
    for i in spans("phi_eval"):
        p = tr.ancestor(i, phase)
        if p is not None:
            phase[p] += 1
    ok = [o for o in outcomes if o.ok]
    secant = sum(o.root[0] for o in ok)
    trials = sum(o.root[2] for o in ok)
    k = attr("solve_reduced", "k")
    size_I, nnz = attr("sieve", "size_I"), attr("sieve", "nnz")
    n_evals = max(len(spans("sieve")), 1)
    mv = spans("matvec") + spans("rmatvec")
    return {
        "driver.phi_evals": (per_solve([1] * len(spans("phi_eval"))), "count"),
        "driver.bracket_s": (per_solve(dur[i] for i in spans("bracket")), "s"),
        "driver.bracket_evals": (per_solve([phase["bracket"]]), "count"),
        "driver.root_s": (per_solve(dur[i] for i in spans("root")), "s"),
        "driver.root_evals": (per_solve([phase["root"]]), "count"),
        "rootfind.secant_steps": (per_solve([secant]), "count"),
        "rootfind.bisection_steps": (per_solve(o.root[1] for o in ok), "count"),
        "rootfind.accept_ratio": (secant / trials if trials else 0.0, "ratio"),
        "inner.phi_eval.s_p50": (_median([dur[i] for i in spans("phi_eval")]), "s"),
        "inner.solve_reduced.calls": (per_solve([len(k)]), "count"),
        "inner.solve_reduced.iters": (per_solve(attr("solve_reduced", "iters")), "count"),
        "inner.solve_reduced.self_s": (per_solve(own[i] for i in spans("solve_reduced")), "s"),
        "inner.solve_reduced.k_mean": (sum(k) / len(k) if k else 0.0, "count"),
        "inner.solve_reduced.k_max": (max(k, default=0), "count"),
        "inner.solve_reduced.unconverged": (
            per_solve([attr("solve_reduced", "converged").count(False)]), "count"),
        "sieving.rounds": (sum(attr("sieve", "rounds")) / n_evals, "count"),
        "sieving.retighten_rounds": (sum(attr("sieve", "retighten")) / n_evals, "count"),
        "sieving.size_I_final": (sum(size_I) / n_evals, "count"),
        "sieving.support_ratio": (sum(nnz) / sum(size_I) if sum(size_I) else 0.0, "ratio"),
        "sieving.self_s": (per_solve(own[i] for i in spans("sieve")), "s"),
        "problem.matvec.calls": (per_solve([len(spans("matvec"))]), "count"),
        "problem.rmatvec.calls": (per_solve([len(spans("rmatvec"))]), "count"),
        "problem.matvec.self_s": (per_solve(own[i] for i in mv), "s"),
        "problem.gather.calls": (per_solve([len(spans("gather"))]), "count"),
        "problem.gather.self_s": (per_solve(own[i] for i in spans("gather")), "s"),
        "problem.gather.bytes": (per_solve(attr("gather", "bytes")), "B-computed"),
        "regularizers.prox.calls": (per_solve([len(spans("prox"))]), "count"),
        "regularizers.prox.self_s": (per_solve(own[i] for i in spans("prox")), "s"),
        "regularizers.value.self_s": (per_solve(own[i] for i in spans("value")), "s"),
        "regularizers.lambda_inf.s": (per_solve(dur[i] for i in spans("lambda_inf")), "s"),
    }


def self_check(base: Pass, traced: Pass) -> list[str]:
    """Differences between the traced round and the untraced pass's first
    round; empty if none."""
    problems = []
    if len(base.outcomes) < len(traced.outcomes):
        return [f"{len(base.outcomes)} solves untraced, {len(traced.outcomes)} traced"]
    for i, (a, b) in enumerate(zip(base.outcomes, traced.outcomes)):
        if a.ok != b.ok or a.cause != b.cause:
            problems.append(f"solve {i}: outcome {a.cause or 'ok'} vs {b.cause or 'ok'}")
        elif a.ok and (a.counters != b.counters or not np.array_equal(a.x, b.x)):
            problems.append(f"solve {i}: counters {a.counters} vs {b.counters}")
    if all(o.ok for o in traced.outcomes):
        tr = traced.tracer
        evals = tr.names.count("phi_eval")
        iters = sum(a["iters"] for i, a in tr.attrs.items() if tr.names[i] == "solve_reduced")
        want_evals = sum(o.counters[0] for o in traced.outcomes)
        want_iters = sum(o.counters[1] for o in traced.outcomes)
        if (evals, iters) != (want_evals, want_iters):
            problems.append(f"spans count {evals} evals / {iters} iters, results "
                            f"{want_evals} / {want_iters}")
    return problems


# ---------------------------------------------------------------- a run

def _median(values) -> float:
    return statistics.median(values) if values else math.inf


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run(w: Workload, seed: int, seconds: float, trace: bool, trace_path=None) -> dict:
    """One benchmark run; returns the result record and report lines."""
    ref = Reference(w.reg)
    nominal = ref.nominal

    # untimed warm-up: imports, first-call set-up and allocator pools
    wt = tiny(w)
    dense, b = make_instance(wt, wt.designs[0])
    run_job(wt, *setup(wt, dense, b), LEVEL)
    ref.call()

    # set-up is timed repeatedly on the first design, each time scaled by the
    # reference run right after it, and reported as a median
    dense, b = make_instance(w, w.designs[0])
    setup_times, setup_wall, inst = [], [], None
    while len(setup_times) < SETUP_REPS or (
        sum(setup_wall) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS
    ):
        inst = None  # drop the previous copy before timing the next
        t = perf_counter()
        inst = setup(w, dense, b)
        took = perf_counter() - t
        setup_wall.append(took)
        spent, calls = gauge(ref, took)
        setup_times.append(took * nominal * calls / spent)
    del dense
    pool = [inst] + [setup(w, *make_instance(w, d)) for d in w.designs[1:]]

    jobs = round_jobs(w, seed)
    base = run_pass(w, pool, jobs, seconds, SOLVE_TARGET, ref)
    per_job = max(w.path_count, 1)
    lines = []
    for k, o in enumerate(base.outcomes):
        if not o.ok:
            d, c = jobs[(k // per_job) % len(jobs)]
            lines.append(f"FAIL workload={w.name} seed={seed} design={w.designs[d]} "
                         f"c={c!r}: {o.cause}")
    attempted = len(base.outcomes)
    n_failed = sum(not o.ok for o in base.outcomes)
    norm = [r.norm_s(nominal) for r in base.rounds]
    info = {
        "solves": attempted,
        "rounds": len(base.rounds),
        "fail_frac": n_failed / attempted,
        "wall_solve_s_p50": _median(base.times),
        "wall_solve_s_p90": _p90(base.times) if attempted >= P90_MIN_SAMPLES else None,
        "ref_call_s": _median([r.ref_s / r.ref_calls for r in base.rounds]),
        "wall_setup_s": _median(setup_wall),
        "round_solve_s": [round(v, 6) for v in norm],
        "round_wall_s": [round(r.busy / r.solves, 6) for r in base.rounds],
        "round_ref_s": [round(r.ref_s / r.ref_calls, 7) for r in base.rounds],
        "round_inner_iters": sum(o.counters[1] for o in base.outcomes[:len(jobs) * per_job]
                                 if o.ok),
    }
    correct = n_failed == 0
    if not trace:
        norm_busy = sum(r.busy * nominal / (r.ref_s / r.ref_calls) for r in base.rounds)
        metrics = {
            "solve_s": (statistics.fmean(norm), "s"),
            "solves_per_s": ((attempted - n_failed) / norm_busy, "1/s"),
            "setup_s": (_median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        traced = run_pass(w, pool, jobs, 0, LAYER_TARGETS, ref, n_rounds=1)
        problems = self_check(base, traced)
        lines += [f"SELF-CHECK workload={w.name} seed={seed}: {p}" for p in problems]
        correct = correct and not problems
        metrics = layer_metrics(traced.tracer, traced.outcomes)
        metrics["trace.overhead_s"] = (
            traced.rounds[0].norm_s(nominal) - statistics.fmean(norm), "s")
        info["self_check"] = "identical" if not problems else f"{len(problems)} differences"
        if trace_path is not None:
            traced.tracer.write(trace_path)
            info["spans"] = len(traced.tracer.names)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": metrics,
        "info": info,
        "lines": lines,
    }


def versions() -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }
