"""Univariate root finding on the value function phi.

Three solvers share one safeguarded skeleton for the equation
``phi(lam) = rho`` on a sign-changing bracket:

* ``hybrid_secant_solve`` proposes secant steps and falls back to bisection
  when a proposal leaves the initial bracket or fails a sufficient-decrease
  test against the residual three accepted iterates ago;
* ``bisection_solve`` is the plain bisection baseline: the same skeleton
  with no proposal, so every step bisects the current bracket;
* ``newton_hybrid_solve`` replaces the secant proposal with a Newton step
  using the generalized derivative of phi available for the l1 penalty.

``bracket_init`` supplies the bracket for cold and warm starts alike. It
walks the upper end up from its guess by doubling (capped at ``lam_inf``)
and the lower end down by ``lam *= max(0.1, 0.5 * rho / phi(lam))``. Where
phi is proportional to lam that step lands at half the root, safely below
it but not far; it never shrinks ``lam`` by more than a decade. Every
evaluated point tightens the bracket, so no evaluation lies strictly inside
the bracket it returns.

The module also provides the plain (unsafeguarded) secant iteration together
with two scalar test functions and a convergence-order estimator used to
validate it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve


class BracketError(ValueError):
    """The supplied points do not bracket a root."""


class DegenerateSecantError(ArithmeticError):
    """Equal function values make the secant step undefined."""


@dataclass
class RootConfig:
    stoptol: float = 1e-6     # on eta = |phi - rho| / max(1, rho)
    mu: float = 0.5           # sufficient-decrease factor, in (0, 1)
    max_outer: int = 200

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if self.stoptol < 0:
            raise ValueError("stoptol must be nonnegative")


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


def hs_derivative_l1(x, A, lam: float, phi: float) -> float:
    """Generalized derivative of phi at lam for the l1 penalty.

    With J the support of x and s its sign pattern, the derivative element is
    ``lam * ||h||^2 / phi`` where ``h = A_J (A_J^T A_J)^{-1} s``; it is
    strictly positive below the zero-solution threshold.
    """
    if phi <= 0:
        raise ValueError("phi must be positive")
    x = np.asarray(x, dtype=np.float64)
    J = np.flatnonzero(x)
    if J.size == 0:
        raise ValueError("derivative undefined at zero support")
    A_J = A.take_columns(J)
    gram = A_J.T @ A_J
    G = gram.toarray() if hasattr(gram, "toarray") else np.asarray(gram)
    s = np.sign(x[J])
    try:
        w = cho_solve(cho_factor(G), s)
    except np.linalg.LinAlgError:
        ridge = 1e-10 * max(np.trace(G), 1.0)
        warnings.warn("rank-deficient support columns; ridge-regularized derivative")
        w = np.linalg.solve(G + ridge * np.eye(G.shape[0]), s)
    h = A_J @ w
    return float(lam * (h @ h) / phi)


def eta(phi_tilde: float, rho: float) -> float:
    """Relative constraint residual ``|phi - rho| / max(1, rho)``."""
    return abs(phi_tilde - rho) / max(1.0, rho)


def _validate_bracket(phi, rho, lam_lo, lam_hi, stoptol):
    """Evaluate the bracket ends; early-return a root hit at either end.

    Returns ``(p_lo, x_lo, p_hi, x_hi, hit)`` where ``hit`` is a solved
    ``(lam, x, phi)`` triple or None.
    """
    if not 0 < lam_lo < lam_hi:
        raise BracketError("need 0 < lam_lo < lam_hi")
    p_hi, x_hi = phi(lam_hi)
    if eta(p_hi, rho) <= stoptol:
        return None, None, None, None, (lam_hi, x_hi, p_hi)
    p_lo, x_lo = phi(lam_lo)
    if eta(p_lo, rho) <= stoptol:
        return None, None, None, None, (lam_lo, x_lo, p_lo)
    if not p_lo < rho < p_hi:
        raise BracketError(
            f"phi({lam_lo:.6g})={p_lo:.6g}, phi({lam_hi:.6g})={p_hi:.6g} "
            f"do not bracket rho={rho:.6g}"
        )
    return p_lo, x_lo, p_hi, x_hi, None


def _finish(state, lam, x, phi_val, rho, step):
    state.converged = True
    state.record(lam, phi_val, eta(phi_val, rho), step)
    return lam, x, state


def _safeguarded_solve(phi, rho, lam_m1, lam_0, cfg, proposal, step_name):
    """Shared skeleton of the secant and Newton hybrids and of bisection.

    ``proposal(hist, x_last)`` returns a trial lambda from the accepted
    iterate history (list of (lam, phi) pairs) or None to force bisection.
    Every evaluation updates the bracket by the sign of ``phi - rho``; trial
    points are only evaluated inside the *initial* interval, and an accepted
    trial must either be among the first two since the last bisection or
    shrink the residual by ``mu`` relative to three iterates back. A run that
    does not converge returns the evaluated point, bracket ends included,
    with the smallest ``|phi - rho|``.
    """
    p_lo, x_lo, p_hi, x_hi, hit = _validate_bracket(phi, rho, lam_m1, lam_0, cfg.stoptol)
    state = RootState(lo=lam_m1, hi=lam_0)
    if hit is not None:
        return _finish(state, hit[0], hit[1], hit[2], rho, "init")
    state.record(lam_m1, p_lo, eta(p_lo, rho), "init")
    state.record(lam_0, p_hi, eta(p_hi, rho), "init")
    hist = [(lam_m1, p_lo), (lam_0, p_hi)]
    x_last = x_hi
    best = (abs(p_hi - rho), lam_0, x_hi, p_hi)
    if abs(p_lo - rho) < best[0]:
        best = (abs(p_lo - rho), lam_m1, x_lo, p_lo)

    def update_bracket(lam, p):
        if p > rho:
            state.hi = min(state.hi, lam)
        else:
            state.lo = max(state.lo, lam)

    def track_best(lam, p, x):
        nonlocal best
        if abs(p - rho) < best[0]:
            best = (abs(p - rho), lam, x, p)

    for _ in range(cfg.max_outer):
        lam_hat = proposal(hist, x_last)
        take_bisection = True
        if lam_hat is not None and lam_m1 <= lam_hat <= lam_0:
            p_hat, x_hat = phi(lam_hat)
            state.n_evals += 1
            state.safeguard_i += 1
            if eta(p_hat, rho) <= cfg.stoptol:
                return _finish(state, lam_hat, x_hat, p_hat, rho, step_name)
            update_bracket(lam_hat, p_hat)
            track_best(lam_hat, p_hat, x_hat)
            decrease_ok = (
                state.safeguard_i < 3
                or abs(p_hat - rho) <= cfg.mu * abs(hist[-3][1] - rho)
            )
            if decrease_ok:
                hist.append((lam_hat, p_hat))
                x_last = x_hat
                state.record(lam_hat, p_hat, eta(p_hat, rho), step_name)
                take_bisection = False
        if take_bisection:
            lam_b = 0.5 * (state.lo + state.hi)
            p_b, x_b = phi(lam_b)
            state.n_evals += 1
            state.safeguard_i = 0
            if eta(p_b, rho) <= cfg.stoptol:
                return _finish(state, lam_b, x_b, p_b, rho, "bisection")
            update_bracket(lam_b, p_b)
            track_best(lam_b, p_b, x_b)
            hist.append((lam_b, p_b))
            x_last = x_b
            state.record(lam_b, p_b, eta(p_b, rho), "bisection")

    state.converged = False
    return best[1], best[2], state


def hybrid_secant_solve(phi, rho: float, lam_m1: float, lam_0: float, cfg: RootConfig):
    """Globally convergent safeguarded secant method for ``phi(lam) = rho``.

    ``phi`` maps a penalty strength to ``(phi_value, x)``. Requires
    ``phi(lam_m1) < rho < phi(lam_0)``; returns ``(lam, x, RootState)``.
    """

    def proposal(hist, _x_last):
        (l_km1, p_km1), (l_k, p_k) = hist[-2], hist[-1]
        try:
            return secant_step(l_k, l_km1, p_k - rho, p_km1 - rho)
        except DegenerateSecantError:
            return None

    return _safeguarded_solve(phi, rho, lam_m1, lam_0, cfg, proposal, "secant")


def newton_hybrid_solve(phi, rho: float, lam_m1: float, lam_0: float, cfg: RootConfig, A):
    """Safeguarded semismooth-Newton variant (l1 only).

    The trial point is ``lam_k - (phi(lam_k) - rho) / v`` with ``v`` the
    generalized derivative from :func:`hs_derivative_l1` at the last accepted
    iterate; derivative failures fall back to bisection.
    """

    def proposal(hist, x_last):
        lam_k, p_k = hist[-1]
        try:
            v = hs_derivative_l1(x_last, A, lam_k, p_k)
        except (ValueError, np.linalg.LinAlgError):
            return None
        if v <= 0 or not math.isfinite(v):
            return None
        return lam_k - (p_k - rho) / v

    return _safeguarded_solve(phi, rho, lam_m1, lam_0, cfg, proposal, "newton")


def bisection_solve(phi, rho: float, lam_lo: float, lam_hi: float, cfg: RootConfig):
    """Plain bisection baseline: the safeguarded skeleton with no proposal."""
    return _safeguarded_solve(phi, rho, lam_lo, lam_hi, cfg, lambda _h, _x: None, "bisection")


def bracket_init(phi, rho: float, lam_inf: float, lo=None, hi=None):
    """Grow a guess into the tightest sign-changing bracket ``(lo, hi)`` seen.

    The upper end starts at ``hi`` (cold: ``0.95 * lam_inf``) and doubles,
    capped at ``lam_inf``, until ``phi(hi) > rho``; a point passed on the way
    with ``phi < rho`` is the lower end. Otherwise the lower end starts at
    ``lo`` (if given and below ``hi``) or one step below ``hi`` and steps down
    by ``lam *= max(0.1, 0.5 * rho / phi(lam))`` until ``phi(lam) < rho``;
    each point passed on the way becomes the upper end.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    hi = 0.95 * lam_inf if hi is None else min(hi, lam_inf)
    below = None
    while True:
        p, _ = phi(hi)
        if p > rho:
            break
        if p < rho:
            below = hi
        if hi >= lam_inf:
            raise BracketError("require 0 < rho < ||b||")
        hi = min(2.0 * hi, lam_inf)
    floor = 1e-12 * hi
    lam = lo if lo is not None and lo < hi else hi * max(0.1, 0.5 * rho / p)
    while below is None:
        if lam < floor:
            raise BracketError("rho too small for numeric range")
        p, _ = phi(lam)
        if p < rho:
            below = lam
        else:
            hi = lam
            lam *= max(0.1, 0.5 * rho / p)
    return below, hi
