"""Univariate root finding on the value function phi.

Three solvers share one safeguarded skeleton for the equation
``phi(lam) = rho`` on a sign-changing bracket:

* ``hybrid_secant_solve`` proposes secant steps and falls back to bisection
  when a proposal leaves the initial bracket or fails a sufficient-decrease
  test against the residual three accepted iterates ago;
* ``bisection_solve`` is the plain bisection baseline: the same skeleton
  with no proposal, so every step bisects the current bracket;
* ``newton_hybrid_solve`` replaces the secant proposal with a Newton step
  using a generalized derivative of phi supplied by the caller.

``bracket_init`` supplies the bracket for cold and warm starts alike. A cold
search starts from the exact point ``(lam_inf, ||b||)``, where ``x = 0`` is
optimal, without a solve; a warm one walks the upper end up from its guess by
doubling (capped at ``lam_inf``). The lower end steps down to the root of the
piece through the last evaluation: on a fixed pattern of a polyhedral gauge
``phi^2`` is affine in ``lam^2``, so with ``v`` the generalized derivative
of phi at ``lam``

    lam' = sqrt(lam^2 - (phi^2 - rho^2) * lam / (phi * v))

is exact on the piece (Newton on ``phi^2`` as a function of ``lam^2``).
Where no derivative is at hand (empty pattern, uncertified evaluation, no
``dphi``), where ``lam'`` leaves ``(max(floor, 0.1 * lam), lam)``, or where
it moves ``lam`` by no more than roundoff (a piece root that landed above
``rho`` by roundoff would only find itself again), the step falls back to
``lam *= max(0.1, 0.5 * rho / phi(lam))``: where phi is proportional to lam
that lands at half the root. No step shrinks ``lam`` by more than a decade:
on a degenerate design a far jump can land where the warm start of its
evaluation is poor, and that evaluation then runs to its iteration cap.
Every evaluated point tightens the bracket, so no evaluation lies strictly
inside the bracket it returns.

The module also provides the plain (unsafeguarded) secant iteration together
with two scalar test functions and a convergence-order estimator used to
validate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


# a piece root that moves lam by no more than this share of it is roundoff:
# from a point already at the root, steps of 10-12 eps were seen
_ROUNDOFF = 64.0 * np.finfo(np.float64).eps


class BracketError(ValueError):
    """The supplied points do not bracket a root."""


class DegenerateSecantError(ArithmeticError):
    """Equal function values make the secant step undefined."""


@dataclass(frozen=True)
class RootConfig:
    mu: float = 0.5           # sufficient-decrease factor, in (0, 1)
    max_outer: int = 200

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")


@dataclass
class IterRecord:
    k: int
    lam: float
    phi: float
    eta: float
    step: str                 # "init" | "secant" | "newton" | "bisection"
    lo: float
    hi: float


@dataclass
class RootState:
    """Bracket, accepted-iterate history and safeguard counter of one run."""

    lo: float
    hi: float
    history: list[IterRecord] = field(default_factory=list)
    safeguard_i: int = 0
    converged: bool = False
    n_evals: int = 0

    def record(self, lam, phi, eta, step):
        self.history.append(
            IterRecord(len(self.history), lam, phi, eta, step, self.lo, self.hi)
        )


def secant_step(lam_k: float, lam_km1: float, f_k: float, f_km1: float) -> float:
    """One secant update; exact on affine functions."""
    if f_k == f_km1:
        raise DegenerateSecantError("f(lam_k) == f(lam_km1)")
    return lam_k - (lam_k - lam_km1) / (f_k - f_km1) * f_k


def secant_solve(f, x_m1: float, x_0: float, stoptol: float = 0.0, max_iter: int = 50):
    """Plain secant iteration; returns the iterates after the two start points.

    No safeguard: a degenerate step aborts with :class:`DegenerateSecantError`.
    Iteration stops once ``|f(x_k)| <= stoptol`` or after ``max_iter`` steps.
    """
    xs = [float(x_m1), float(x_0)]
    out = []
    f_prev, f_cur = f(xs[0]), f(xs[1])
    for _ in range(max_iter):
        if abs(f_cur) <= stoptol:
            break
        x_next = secant_step(xs[-1], xs[-2], f_cur, f_prev)
        xs.append(x_next)
        out.append(x_next)
        f_prev, f_cur = f_cur, f(x_next)
    return np.asarray(out)


def eval_beta_fn(x: float, beta: float) -> float:
    """Piecewise-quadratic scalar test function with a kink at its root 0."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if x < 0:
        return x * (x + 1.0)
    return -beta * x * (x - 1.0)


def eval_constructed_fn(x: float, kappa: float = 1.0) -> float:
    """Scalar test function with infinitely many kinks accumulating at 0.

    Linear with slope ``kappa`` on the negative axis, affine with slope
    ``1 + 2^-k`` on each dyadic interval ``[2^-(k+1), 2^-k]`` and slope 2
    beyond 1; continuous everywhere, value 0 at 0.
    """
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if x < 0:
        return kappa * x
    if x == 0:
        return 0.0
    if x > 1:
        return 2.0 * x - 1.0 / 3.0
    k = max(0, math.ceil(-math.log2(x)) - 1)
    return -(4.0 ** -k) / 3.0 + (1.0 + 2.0 ** -k) * x


def q_order_estimate(errors) -> float:
    """Convergence order from an error sequence.

    Least-squares slope of ``log e_{k+1}`` against ``log e_k`` over the last
    four pairs; the tail used must be positive and strictly decreasing.
    """
    e = np.asarray(errors, dtype=np.float64)
    if e.size < 4:
        raise ValueError("need at least 4 error values")
    tail = e[-5:]
    if np.any(tail <= 0):
        raise ValueError("error tail must be positive")
    if np.any(np.diff(tail) >= 0):
        raise ValueError("error tail must be strictly decreasing")
    xs = np.log(tail[:-1])
    ys = np.log(tail[1:])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def eta(phi_tilde: float, rho: float) -> float:
    """Relative constraint residual ``|phi - rho| / max(1, rho)``."""
    return abs(phi_tilde - rho) / max(1.0, rho)


def _finish(state, lam, x, phi_val, rho, step):
    state.converged = True
    state.record(lam, phi_val, eta(phi_val, rho), step)
    return lam, x, state


def _safeguarded_solve(phi, rho, lam_m1, lam_0, stoptol, cfg, proposal, step_name):
    """Shared skeleton of the secant and Newton hybrids and of bisection.

    A run stops at the first evaluation with ``eta <= stoptol``, bracket ends
    included. ``proposal(history, x_last)`` returns a trial lambda from the
    accepted iterates (``state.history``, a list of ``IterRecord``) or None to
    force bisection. Every evaluation updates the bracket by the sign of
    ``phi - rho``; trial points are only evaluated inside the *initial*
    interval, and an accepted trial must either be among the first two since
    the last bisection or shrink the residual by ``mu`` relative to three
    iterates back; a rejected one is followed by a bisection. A run that does
    not converge returns the evaluated point, bracket ends included, with the
    smallest ``|phi - rho|``.
    """
    if stoptol < 0:
        raise ValueError("stoptol must be nonnegative")
    if not 0 < lam_m1 < lam_0:
        raise BracketError("need 0 < lam_lo < lam_hi")
    cfg = cfg or RootConfig()
    state = RootState(lo=lam_m1, hi=lam_0)
    p_hi, x_hi = phi(lam_0)
    if eta(p_hi, rho) <= stoptol:
        return _finish(state, lam_0, x_hi, p_hi, rho, "init")
    p_lo, x_lo = phi(lam_m1)
    if eta(p_lo, rho) <= stoptol:
        return _finish(state, lam_m1, x_lo, p_lo, rho, "init")
    if not p_lo < rho < p_hi:
        raise BracketError(
            f"phi({lam_m1:.6g})={p_lo:.6g}, phi({lam_0:.6g})={p_hi:.6g} "
            f"do not bracket rho={rho:.6g}"
        )
    state.record(lam_m1, p_lo, eta(p_lo, rho), "init")
    state.record(lam_0, p_hi, eta(p_hi, rho), "init")
    x_last = x_hi
    seen = [(lam_0, x_hi, p_hi), (lam_m1, x_lo, p_lo)]  # every evaluated point, in order

    for _ in range(cfg.max_outer):
        lam = proposal(state.history, x_last)
        step = step_name if lam is not None and lam_m1 <= lam <= lam_0 else None
        while True:
            if step is None:
                step, lam = "bisection", 0.5 * (state.lo + state.hi)
            p, x = phi(lam)
            state.n_evals += 1
            state.safeguard_i = 0 if step == "bisection" else state.safeguard_i + 1
            if eta(p, rho) <= stoptol:
                return _finish(state, lam, x, p, rho, step)
            if p > rho:
                state.hi = min(state.hi, lam)
            else:
                state.lo = max(state.lo, lam)
            seen.append((lam, x, p))
            if (step == "bisection" or state.safeguard_i < 3
                    or abs(p - rho) <= cfg.mu * abs(state.history[-3].phi - rho)):
                break
            step = None  # the rejected trial tightened the bracket; bisect it
        x_last = x
        state.record(lam, p, eta(p, rho), step)

    state.converged = False
    lam, x, _ = min(seen, key=lambda e: abs(e[2] - rho))
    return lam, x, state


def hybrid_secant_solve(phi, rho: float, lam_m1: float, lam_0: float, stoptol: float,
                        cfg: RootConfig | None = None):
    """Globally convergent safeguarded secant method for ``phi(lam) = rho``.

    ``phi`` maps a penalty strength to ``(phi_value, x)``. Requires
    ``phi(lam_m1) < rho < phi(lam_0)``; returns ``(lam, x, RootState)`` at the
    first point with ``eta = |phi - rho| / max(1, rho) <= stoptol``.
    """

    def proposal(history, _x_last):
        prev, last = history[-2], history[-1]
        try:
            return secant_step(last.lam, prev.lam, last.phi - rho, prev.phi - rho)
        except DegenerateSecantError:
            return None

    return _safeguarded_solve(phi, rho, lam_m1, lam_0, stoptol, cfg, proposal, "secant")


def newton_hybrid_solve(phi, dphi, rho: float, lam_m1: float, lam_0: float, stoptol: float,
                        cfg: RootConfig | None = None):
    """Safeguarded semismooth-Newton variant.

    The trial point is ``lam_k - (phi(lam_k) - rho) / v`` with
    ``v = dphi(x, lam_k, phi(lam_k))`` the generalized derivative at the last
    accepted iterate; derivative failures fall back to bisection.
    """

    def proposal(history, x_last):
        lam_k, p_k = history[-1].lam, history[-1].phi
        try:
            v = dphi(x_last, lam_k, p_k)
        except (ValueError, np.linalg.LinAlgError):
            return None
        if v <= 0 or not math.isfinite(v):
            return None
        return lam_k - (p_k - rho) / v

    return _safeguarded_solve(phi, rho, lam_m1, lam_0, stoptol, cfg, proposal, "newton")


def bisection_solve(phi, rho: float, lam_lo: float, lam_hi: float, stoptol: float,
                    cfg: RootConfig | None = None):
    """Plain bisection baseline: the safeguarded skeleton with no proposal."""
    return _safeguarded_solve(phi, rho, lam_lo, lam_hi, stoptol, cfg, lambda _h, _x: None,
                              "bisection")


def bracket_init(phi, rho: float, lam_inf: float, lo=None, hi=None, *, bnorm=None,
                 dphi=None):
    """Grow a guess into the tightest sign-changing bracket ``(lo, hi)`` seen.

    The upper end starts at ``hi`` (cold: ``lam_inf``) and doubles, capped at
    ``lam_inf``, until ``phi(hi) > rho``; a point passed on the way with
    ``phi < rho`` is the lower end. ``bnorm`` is ``phi(lam_inf) = ||b||``:
    given, the point ``lam_inf`` is never evaluated. Otherwise the lower end
    starts at ``lo`` (if given and below ``hi``) or one step below ``hi`` and
    steps down until ``phi(lam) < rho``; each point passed on the way becomes
    the upper end. A step is the root of the piece through the last point
    when ``dphi(x, lam, phi)``, phi's derivative there, gives a usable one
    (see the module docstring), else ``lam *= max(0.1, 0.5 * rho / phi(lam))``.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    hi = lam_inf if hi is None else min(hi, lam_inf)
    below = None
    while True:
        # x = 0 at lam_inf: no pattern, so no piece root from there
        p, x = (bnorm, None) if hi >= lam_inf and bnorm is not None else phi(hi)
        if p > rho:
            break
        if p < rho:
            below = hi
        if hi >= lam_inf:
            raise BracketError("require 0 < rho < ||b||")
        hi = min(2.0 * hi, lam_inf)
    floor = 1e-12 * hi

    def step_down(lam, p, x):
        """The root of the piece through ``(lam, p, x)`` if it lies in
        ``(max(floor, 0.1 * lam), lam)`` and moves ``lam`` by more than
        roundoff; else ``lam * max(0.1, 0.5 * rho / p)``."""
        new = 0.0
        if dphi is not None and x is not None:
            try:
                v = dphi(x, lam, p)
            except (ValueError, np.linalg.LinAlgError):
                v = 0.0
            if 0.0 < v < math.inf:
                new = math.sqrt(max(lam * lam - (p * p - rho * rho) * lam / (p * v), 0.0))
        if max(floor, 0.1 * lam) < new < (1.0 - _ROUNDOFF) * lam:
            return new
        return lam * max(0.1, 0.5 * rho / p)

    lam = lo if lo is not None and lo < hi else step_down(hi, p, x)
    while below is None:
        if lam < floor:
            raise BracketError(
                f"rho={rho:.6g} too small: phi({hi:.3g})={p:.6g} near the lam floor; no "
                "level below the least-squares residual min ||A x - b|| is reachable"
            )
        p, x = phi(lam)
        if p < rho:
            below = lam
        else:
            hi = lam
            lam = step_down(lam, p, x)
    return below, hi
