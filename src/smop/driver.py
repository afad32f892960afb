"""Constrained-problem drivers: single solves and solution paths.

``smop_solve`` finds ``lam*`` with ``phi(lam*) = rho`` by the chosen root
finder and returns the matching solution of the regularized problem. "smop"
steps to the root of the piece through its best iterate, from phi's
generalized derivative, and falls back to a secant step; "bmop" is plain
bisection. Every phi evaluation is a regularized solve; with sieving on,
the first solve starts from the empty index set and every later one is
seeded with the support of the previous solution, which keeps the
subproblems small along the root-finding trajectory and along rho paths.
``SmopConfig`` holds all a user sets: ``stoptol``, the ``method``, the
secant safeguard ``mu`` and whether evaluations are sieved; the caps are
module constants.

Each evaluation is kept as an :class:`EvalRecord` with its sieve rounds, and
``SmopResult.events()`` lists evaluations, rounds and root-finding iterates as
one event stream; keeping them changes no iterate. An evaluation's derivative
is formed at most once, when a root finder first asks for it, and kept on its
record as the value or the reason there is none.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .inner import KKT_TOL, phi_derivative
from .problem import ProblemData
from .regularizers import Regularizer, lambda_inf
from .rootfind import (
    BracketError,
    RootState,
    bisection_solve,
    bracket_init,
    eta,
    hybrid_secant_solve,
)
from .sieving import SieveRound, phi_eval

log = logging.getLogger("smop")

METHODS = ("smop", "bmop")


@dataclass(frozen=True)
class SmopConfig:
    stoptol: float = 1e-6
    method: str = "smop"
    mu: float = 0.5          # the secant safeguard's sufficient-decrease factor
    sieve: bool = True       # False: each evaluation is one direct solve

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not 0.0 < self.stoptol < np.inf:
            raise ValueError("stoptol must be positive and finite")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if not isinstance(self.sieve, bool):
            raise ValueError("sieve must be True or False")


@dataclass
class EvalRecord:
    index: int
    lam: float
    phi: float
    eta_l: float             # full-dimension relative KKT residual at the evaluation's x
    inner_iters: int
    support: int
    converged: bool          # the evaluation's solve certified its KKT residual
    rounds: list[SieveRound] = field(default_factory=list)  # empty for a direct solve
    # phi's derivative here, or why there is none; None if never asked for
    slope: float | str | None = None


@dataclass
class SmopResult:
    lambda_star: float
    x: np.ndarray
    phi: float
    rho: float
    eta: float
    kkt: float               # full-dimension relative KKT residual at x (EvalRecord.eta_l)
    n_subproblems: int
    inner_iters_total: int
    wall_ms: float
    nnz: int
    method: str
    converged: bool
    bracket: tuple           # what bracket_init returned; seeds the next path step
    root_state: RootState    # its lo/hi is the bracket the root finder ended with
    evals: list[EvalRecord]

    def to_doc(self) -> dict:
        """JSON-ready summary; solution stored sparsely."""
        idx = np.flatnonzero(self.x)
        return {
            "method": self.method,
            "lambda_star": float(self.lambda_star),
            "phi": float(self.phi),
            "rho": float(self.rho),
            "eta": float(self.eta),
            "kkt": float(self.kkt),
            "nnz": int(self.nnz),
            "n_subproblems": int(self.n_subproblems),
            "inner_iters_total": int(self.inner_iters_total),
            "wall_ms": float(self.wall_ms),
            "converged": bool(self.converged),
            "n": int(self.x.size),
            "solution_indices": [int(i) for i in idx],
            "solution_values": [float(v) for v in self.x[idx]],
        }

    def events(self):
        """The solve's trace as JSON-ready dicts: per evaluation an ``eval`` event
        and then a ``round`` event per sieve round, then an ``iterate`` event per
        accepted root-finding iterate, each naming its ``EvalRecord.index``."""
        for rec in self.evals:
            yield {"event": "eval", "eval": rec.index, "lam": rec.lam, "phi": rec.phi,
                   "eta": eta(rec.phi, self.rho), "eta_l": rec.eta_l,
                   "inner_iters": rec.inner_iters, "support": rec.support,
                   "converged": rec.converged, "slope": rec.slope}
            for i, rnd in enumerate(rec.rounds, 1):
                yield {"event": "round", "eval": rec.index, "round": i, **asdict(rnd)}
        # each iterate's lam is the exact key the oracle cached its evaluation under
        index = {rec.lam: rec.index for rec in self.evals}
        for it in self.root_state.history:
            yield {"event": "iterate", "k": it.k, "eval": index[it.lam], "step": it.step,
                   "lo": it.lo, "hi": it.hi}


def nnz(x) -> int:
    """Number of entries needed to capture 99.9% of the l1 mass."""
    ax = np.sort(np.abs(np.asarray(x, dtype=np.float64)))[::-1]
    total = ax.sum()
    if total == 0.0:
        return 0
    return int(np.searchsorted(np.cumsum(ax), 0.999 * total) + 1)


class _PhiOracle:
    """Caching, warm-starting phi evaluator shared by the solvers.

    ``cache`` maps each evaluated ``lam`` to its :class:`EvalRecord`, in
    evaluation order, and ``xs`` to its solution, the warm starts of later
    evaluations. Each evaluation solves to ``tol``, sieved if ``sieve``.
    """

    def __init__(self, data, reg, tol, sieve, x_warm=None):
        self.data = data
        self.reg = reg
        self.tol = tol
        self.sieve = sieve
        self.x_warm = x_warm
        self.cache: dict[float, EvalRecord] = {}
        self.xs: dict[float, np.ndarray] = {}

    def _warm_start(self, lam):
        """Interpolate the two nearest cached solutions around ``lam``.

        The solution path is piecewise affine in the penalty strength for
        these polyhedral gauges, so interpolation is exact away from the
        kinks and a strong start elsewhere.
        """
        below = above = None
        for l0 in self.cache:
            if l0 < lam and (below is None or l0 > below):
                below = l0
            elif l0 > lam and (above is None or l0 < above):
                above = l0
        if below is not None and above is not None:
            w = (lam - below) / (above - below)
            return (1.0 - w) * self.xs[below] + w * self.xs[above]
        if below is not None or above is not None:
            return self.xs[below if below is not None else above]
        return self.x_warm

    def __call__(self, lam):
        rec = self.cache.get(lam)
        if rec is None:
            res, trace = phi_eval(
                self.data,
                self.reg,
                lam,
                x0=self._warm_start(lam),
                tol=self.tol,
                sieve=self.sieve,
            )
            rec = self.cache[lam] = EvalRecord(
                index=len(self.cache) + 1,
                lam=lam,
                phi=res.phi,
                eta_l=res.eta_l,
                inner_iters=res.iters,
                support=int(np.count_nonzero(res.x)),
                converged=res.converged,
                rounds=trace.rounds,
            )
            self.xs[lam] = res.x
            log.debug("phi(%0.6g) = %0.6g, support %d", lam, rec.phi, rec.support)
        return rec.phi

    def derivative(self, lam):
        """``phi_derivative`` from the ``x`` and ``phi`` cached at ``lam``,
        formed once and kept as ``EvalRecord.slope``. Only a certified
        evaluation gives one: an uncertified ``x`` may sit on the wrong piece.
        Where there is none, the kept reason is raised as ``ValueError`` and
        the caller falls back."""
        rec = self.cache.get(lam)
        if rec is None:
            raise ValueError(f"no certified evaluation at lam={lam:.6g}")
        if rec.slope is None and not rec.converged:
            rec.slope = f"no certified evaluation at lam={lam:.6g}"
        elif rec.slope is None:
            try:
                rec.slope = phi_derivative(self.data, self.reg, self.xs[lam], lam, rec.phi)
            except ValueError as exc:  # np.linalg.LinAlgError included
                rec.slope = str(exc)
        if isinstance(rec.slope, str):
            raise ValueError(rec.slope)
        return rec.slope


def smop_solve(
    data: ProblemData,
    reg: Regularizer,
    cfg: SmopConfig | None = None,
    warm: SmopResult | None = None,
) -> SmopResult:
    """Solve ``min p(x) s.t. ||A x - b|| <= rho`` by level-set root finding.

    ``warm`` is the result of a solve on the same data at a nearby ``rho``.
    Its ``x`` seeds the first evaluation. When ``warm.rho > rho``, as on every
    ``solve_path`` step, ``bracket_init`` turns the guess
    ``(warm.bracket[0], 1.5 * warm.lambda_star)`` into a sign-changing bracket;
    from a level at or below ``rho`` the bracket search is the cold one.
    The root finders see phi's values only; ``x`` is the oracle's at ``lambda*``.
    """
    cfg = cfg or SmopConfig()
    if data.rho is None:
        raise ValueError("data.rho must be set")
    rho = data.rho
    t0 = time.perf_counter()
    lam_top = lambda_inf(reg, data.A, data.b, data.Atb)
    tol = min(KKT_TOL, 0.01 * cfg.stoptol * max(1.0, rho))
    oracle = _PhiOracle(data, reg, tol, cfg.sieve, x_warm=None if warm is None else warm.x)

    # a level at or below rho gives no upper guess: its lambda* lies below ours
    lo, hi = (None, None)
    if warm is not None and warm.rho > rho:
        lo, hi = warm.bracket[0], 1.5 * warm.lambda_star
    phase = "bracket search"
    try:
        lo, hi = bracket_init(oracle, rho, lam_top, data.bnorm, oracle.derivative, lo, hi)
        phase = "bracket and root search"
        if cfg.method == "smop":
            lam_star, state = hybrid_secant_solve(oracle, rho, lo, hi, cfg.stoptol, cfg.mu,
                                                  oracle.derivative)
        else:
            lam_star, state = bisection_solve(oracle, rho, lo, hi, cfg.stoptol)
    except BracketError as exc:
        # an evaluation that stopped short of its KKT tolerance can misplace
        # the sign of phi - rho; name that cause rather than the bracket's
        uncertified = sum(not rec.converged for rec in oracle.cache.values())
        if not uncertified:
            raise
        raise BracketError(
            f"{uncertified} of {len(oracle.cache)} phi evaluations in the {phase} "
            f"did not certify their KKT residual ({exc})"
        ) from exc

    final, x_star = oracle.cache[lam_star], oracle.xs[lam_star]
    evals = list(oracle.cache.values())
    if not final.converged:
        log.warning("the phi evaluation at lambda*=%.8g did not certify its KKT residual",
                    lam_star)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    result = SmopResult(
        lambda_star=lam_star,
        x=x_star,
        phi=final.phi,
        rho=rho,
        eta=eta(final.phi, rho),
        kkt=final.eta_l,
        n_subproblems=len(evals),
        inner_iters_total=sum(rec.inner_iters for rec in evals),
        wall_ms=wall_ms,
        nnz=nnz(x_star),
        method=cfg.method,
        converged=state.converged and final.converged,
        bracket=(lo, hi),
        root_state=state,
        evals=evals,
    )
    log.info(
        "%s: lambda*=%.8g eta=%.2e solves=%d wall=%.1fms",
        cfg.method, lam_star, result.eta, result.n_subproblems, wall_ms,
    )
    return result


@dataclass
class PathSpec:
    """Levels ``rho_i = c_i * base_c * ||b||``, ``c_i`` falling evenly from 1.5 to 1."""

    base_c: float
    count: int = 100

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be positive")

    def rhos(self, bnorm: float) -> np.ndarray:
        c = 1.5 - 0.5 * np.arange(self.count) / max(self.count - 1, 1)
        r = c * self.base_c * bnorm
        if np.any(r <= 0) or np.any(r >= bnorm):
            raise ValueError("every rho_i must lie in (0, ||b||)")
        return r


@dataclass
class PathStep:
    rho: float
    result: SmopResult


@dataclass
class PathResult:
    steps: list[PathStep]
    failures: int

    def summary(self) -> dict:
        solves = [s.result.n_subproblems for s in self.steps]
        return {
            "steps": len(self.steps),
            "failures": self.failures,
            "mean_subproblems": float(np.mean(solves)) if solves else 0.0,
            "total_subproblems": int(np.sum(solves)) if solves else 0,
            "total_wall_ms": float(sum(s.result.wall_ms for s in self.steps)),
        }


def solve_path(
    data: ProblemData,
    reg: Regularizer,
    spec: PathSpec,
    cfg: SmopConfig | None = None,
) -> PathResult:
    """Solve the constrained problem along a decreasing rho schedule.

    Each step is warm-started from the last converged step (see
    :func:`smop_solve`); a failed step is recorded and the path continues
    from the last successful one.
    """
    cfg = cfg or SmopConfig()
    steps = []
    failures = 0
    prev = None
    for rho_i in spec.rhos(data.bnorm):
        try:
            res = smop_solve(data.with_rho(float(rho_i)), reg, cfg, warm=prev)
        except BracketError as exc:
            log.warning("path step rho=%.6g failed: %s", rho_i, exc)
            failures += 1
            continue
        steps.append(PathStep(rho=float(rho_i), result=res))
        if not res.converged:
            failures += 1
        else:
            prev = res
    return PathResult(steps=steps, failures=failures)
