"""Univariate root finding on the value function phi.

Two solvers share one safeguarded search for ``phi(lam) = rho``:

* ``hybrid_secant_solve`` proposes the root of the piece of phi (below), then
  the secant step, and falls back to bisection when a proposal leaves the
  first bracket or fails a sufficient-decrease test against the residual
  three accepted iterates ago; ``mu`` in (0, 1), the method's one free
  parameter, is that test's factor;
* ``bisection_solve`` is the plain bisection baseline: the same search with
  no proposal, so every step bisects the current bracket.

The search starts from an upper point ``hi``. ``smop_solve`` starts it from
the exact point ``(lam_inf, ||b||)``, where ``x = 0`` is optimal: a value
given as ``phi_hi`` is never evaluated, and no derivative is asked for there.
Without a lower end, the search first evaluates its ``guesses`` in order, each
only while it lies inside the bracket found so far, and then steps down until
``phi < rho``; each point at or above ``rho`` on the way becomes the upper end. A
step is the piece root through the last point where there is one in
``(max(floor, 0.1 * lam), lam)``, else ``lam *= max(0.1, 0.5 * rho / phi(lam))``:
where phi is proportional to lam that lands at half the root. No step shrinks
``lam`` by more than a decade: on a degenerate design a far jump can land
where the warm start of its evaluation is poor, and that evaluation then runs
to its iteration cap. Once both ends are known, they are checked against
``stoptol``, ``hi`` first, and the safeguarded steps begin inside that first
bracket.

``phi(lam)`` and ``dphi(lam)`` return numbers, and every solver returns
``(lam, RootState)``: the caller keeps the solution behind each value. A run
that has not reached ``stoptol`` after ``MAX_OUTER`` proposals stops unconverged;
a ``phi`` that is not finite ends the search at once with a ``BracketError``.

On a fixed pattern of a polyhedral gauge ``phi^2`` is affine in ``lam^2``, so
with ``v`` the generalized derivative of phi at ``lam`` the root of the piece
through ``(lam, phi)``

    lam' = sqrt(lam^2 - (phi^2 - rho^2) * lam / (phi * v))

is exact on that piece (Newton on ``phi^2`` as a function of ``lam^2``). It is
no step where ``dphi`` gives no positive, finite slope (``x = 0`` has no
pattern; ``dphi`` refuses an uncertified evaluation) or where it moves ``lam``
by no more than roundoff: a piece root that landed off ``rho`` by roundoff
would only find itself again. The secant hybrid proposes the piece root
through whichever of the last two accepted iterates lies nearer ``rho``
first, and the secant step only where there is none or it leaves the first
bracket.

The module also provides the plain (unsafeguarded) secant iteration together
with two scalar test functions and a convergence-order estimator used to
validate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


# the skeleton proposes at most this many trial points, far more than a
# solve takes; it bounds the run on a phi that defeats the safeguard
MAX_OUTER = 200
# a piece root that moves lam by no more than this share of it is roundoff:
# from a point already at the root, steps of 10-12 eps were seen
_ROUNDOFF = 64.0 * np.finfo(np.float64).eps


class BracketError(ValueError):
    """The supplied points do not bracket a root."""


class DegenerateSecantError(ArithmeticError):
    """Equal function values make the secant step undefined."""


@dataclass
class IterRecord:
    k: int
    lam: float
    phi: float
    step: str                 # "init" | "piece" | "secant" | "bisection"
    lo: float
    hi: float


@dataclass
class RootState:
    """Bracket and accepted-iterate history of one run."""

    lo: float
    hi: float
    history: list[IterRecord] = field(default_factory=list)
    converged: bool = False
    n_evals: int = 0          # evaluated trials inside the first bracket
    bracket: tuple = ()       # the first sign-changing bracket (lo, hi)

    def record(self, lam, phi, step):
        self.history.append(IterRecord(len(self.history), lam, phi, step, self.lo, self.hi))


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


def _finish(state, lam, phi_val, step):
    state.converged = True
    state.record(lam, phi_val, step)
    return lam, state


def _slope(dphi, lam):
    """``dphi(lam)`` if it is positive and finite, else None (also if it raises)."""
    try:
        v = dphi(lam)
    except (ValueError, np.linalg.LinAlgError):
        return None
    return v if 0.0 < v < math.inf else None


def _piece_root(dphi, lam, p, rho):
    """The root of the piece through ``(lam, p)`` (module docstring), or None
    where ``p``, a norm, is not positive, where there is no ``dphi`` or it
    gives no usable slope at ``lam`` or where the root moves ``lam`` by no more
    than roundoff."""
    v = _slope(dphi, lam) if p > 0.0 and dphi is not None else None
    if v is None:
        return None
    new = math.sqrt(max(lam * lam - (p * p - rho * rho) * lam / (p * v), 0.0))
    # written so that a nan is no step either
    return new if abs(new - lam) > _ROUNDOFF * lam else None


def _evaluate(phi, lam):
    """``phi(lam)``; a value that is not finite raises ``BracketError``."""
    p = phi(lam)
    if not math.isfinite(p):
        # nan compares as neither above nor below rho
        raise BracketError(f"phi({lam:.3g})={p} is not finite")
    return p


def _safeguarded_solve(phi, rho, lo, hi, stoptol, mu, propose, dphi, phi_hi, guesses):
    """The search shared by the secant hybrid and bisection (module docstring).

    ``phi_hi``, if given, is ``phi(hi)``. A given ``lo`` is evaluated as the
    lower end; else the search finds one from ``guesses`` and step-downs, and
    raises ``BracketError`` below the floor ``1e-12 * hi``. A run stops at the
    first evaluation with ``eta <= stoptol``, bracket ends included.
    ``propose(history, piece)`` yields ``(step, lam)`` trials from the
    accepted iterates (``state.history``, a list of ``IterRecord``), where
    ``piece(lam, phi)`` is the piece root through an iterate or None; the
    first inside the first bracket is taken, and with none the step bisects.
    Every evaluation updates the bracket by the sign of ``phi - rho``; an
    accepted trial must either be among the first two since the last
    bisection or shrink the residual by ``mu`` relative to three iterates
    back; a rejected one is followed by a bisection. A run that does not
    converge returns the evaluated point, bracket ends included, with the
    smallest ``|phi - rho|``. A ``phi`` that is not finite ends the run at
    once with a ``BracketError``.
    """
    if stoptol < 0:
        raise ValueError("stoptol must be nonnegative")
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    if not (0 < hi and (lo is None or 0 < lo < hi)):
        raise BracketError("need 0 < lam_lo < lam_hi")
    top = None if phi_hi is None else hi  # known, not evaluated: no derivative there
    p_hi = _evaluate(phi, hi) if phi_hi is None else phi_hi

    def piece(lam, p):
        return None if lam == top else _piece_root(dphi, lam, p, rho)

    if lo is not None:
        p_lo = _evaluate(phi, lo)
    else:
        if not 0 < rho < p_hi:
            raise BracketError(f"require 0 < rho < phi({hi:.6g}) = {p_hi:.6g}")
        floor, lam, p, guesses = 1e-12 * hi, hi, p_hi, iter(guesses)
        while p >= rho:
            new = next((g for g in guesses if 0 < g < hi), None)
            if new is None:
                new = piece(lam, p)
                if new is None or not max(floor, 0.1 * lam) < new < lam:
                    new = lam * max(0.1, 0.5 * rho / p)
                if new < floor:
                    raise BracketError(
                        f"rho={rho:.6g} too small: phi({lam:.3g})={p:.6g} near the lam floor; "
                        "no level below the least-squares residual min ||A x - b|| is reachable"
                    )
            lam, p = new, _evaluate(phi, new)
            if p >= rho:
                hi, p_hi = lam, p
        lo, p_lo = lam, p
    state = RootState(lo=lo, hi=hi, bracket=(lo, hi))
    if eta(p_hi, rho) <= stoptol:
        return _finish(state, hi, p_hi, "init")
    if eta(p_lo, rho) <= stoptol:
        return _finish(state, lo, p_lo, "init")
    if not p_lo < rho < p_hi:
        raise BracketError(
            f"phi({lo:.6g})={p_lo:.6g}, phi({hi:.6g})={p_hi:.6g} do not bracket rho={rho:.6g}"
        )
    state.record(lo, p_lo, "init")
    state.record(hi, p_hi, "init")
    seen = [(hi, p_hi), (lo, p_lo)]  # the ends, then every trial, in order
    since_bisection = 0  # evaluated trials since the last bisection

    for _ in range(MAX_OUTER):
        step, lam = next(((name, lam) for name, lam in propose(state.history, piece)
                          if lam is not None and lo <= lam <= hi), (None, None))
        while True:
            if step is None:
                step, lam = "bisection", 0.5 * (state.lo + state.hi)
            p = _evaluate(phi, lam)
            state.n_evals += 1
            since_bisection = 0 if step == "bisection" else since_bisection + 1
            if eta(p, rho) <= stoptol:
                return _finish(state, lam, p, step)
            if p > rho:
                state.hi = min(state.hi, lam)
            else:
                state.lo = max(state.lo, lam)
            seen.append((lam, p))
            if (step == "bisection" or since_bisection < 3
                    or abs(p - rho) <= mu * abs(state.history[-3].phi - rho)):
                break
            step = None  # the rejected trial tightened the bracket; bisect it
        state.record(lam, p, step)

    state.converged = False
    lam, _ = min(seen, key=lambda e: abs(e[1] - rho))
    return lam, state


def hybrid_secant_solve(phi, rho: float, lam_lo, lam_hi: float, stoptol: float,
                        mu: float = 0.5, dphi=None, phi_hi=None, guesses=()):
    """Globally convergent safeguarded secant method for ``phi(lam) = rho``.

    Returns ``(lam, RootState)`` at the first point with
    ``eta = |phi - rho| / max(1, rho) <= stoptol``. With ``lam_lo`` given,
    ``phi(lam_lo) < rho < phi(lam_hi)`` is required; with ``lam_lo=None`` the
    search finds the lower end below ``lam_hi`` (module docstring). ``mu``, in
    (0, 1), is the sufficient-decrease factor of the safeguard. Given ``dphi``,
    phi's generalized derivative, the piece root comes first and the secant
    step is its fallback; the step-down uses it too.
    """

    def propose(history, piece):
        near = min(history[-2:], key=lambda rec: abs(rec.phi - rho))
        yield "piece", piece(near.lam, near.phi)
        prev, last = history[-2], history[-1]
        try:
            secant = secant_step(last.lam, prev.lam, last.phi - rho, prev.phi - rho)
        except DegenerateSecantError:
            return
        yield "secant", secant

    return _safeguarded_solve(phi, rho, lam_lo, lam_hi, stoptol, mu, propose, dphi, phi_hi,
                              guesses)


def bisection_solve(phi, rho: float, lam_lo, lam_hi: float, stoptol: float, dphi=None,
                    phi_hi=None, guesses=()):
    """Plain bisection baseline: the search with no proposal, where ``dphi``
    drives only the step-down to a lower end."""
    # every step bisects, so the safeguard factor is never read
    return _safeguarded_solve(phi, rho, lam_lo, lam_hi, stoptol, 0.5, lambda h, piece: (), dphi,
                              phi_hi, guesses)
