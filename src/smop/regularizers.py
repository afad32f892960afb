"""Gauge penalties: l1 and weighted sorted-l1, with prox and polar maps.

Both penalties are gauges (nonnegative, positively homogeneous, zero at the
origin). ``prox(v, t)`` minimizes ``t*p(z) + 0.5*||z - v||^2``; ``polar`` is
the dual gauge, used for the threshold ``lambda_inf = polar(A^T b)`` above
which the zero vector solves the regularized problem.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import isotonic_regression


class Regularizer:
    """Interface shared by the penalty implementations."""

    def value(self, x) -> float:
        raise NotImplementedError

    def prox(self, v, t: float) -> np.ndarray:
        raise NotImplementedError

    def polar(self, z) -> float:
        raise NotImplementedError

    def restrict(self, size: int) -> "Regularizer":
        """Penalty applied to a coordinate subset of the given size."""
        raise NotImplementedError

    def piece(self, x):
        """Pattern ``(J, s, starts, w)`` of the piece through ``x``: the support
        ``J`` grouped into clusters of equal ``|x|``, the signs ``s = sign(x[J])``,
        each cluster's offset in ``J`` and each cluster's total weight."""
        raise NotImplementedError


class L1(Regularizer):
    """Plain l1 norm."""

    def value(self, x) -> float:
        return float(np.sum(np.abs(x)))

    def prox(self, v, t: float) -> np.ndarray:
        if not 0.0 < t < np.inf:
            raise ValueError("prox parameter t must be positive and finite")
        v = np.asarray(v, dtype=np.float64)
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

    def polar(self, z) -> float:
        z = np.asarray(z, dtype=np.float64)
        return float(np.max(np.abs(z))) if z.size else 0.0

    def restrict(self, size: int) -> "L1":
        return self

    def piece(self, x):
        x = np.asarray(x, dtype=np.float64)
        J = np.flatnonzero(x)
        return J, np.sign(x[J]), np.arange(J.size), np.ones(J.size)

    def __repr__(self):
        return "L1()"


class SortedL1(Regularizer):
    """Weighted sorted-l1 penalty ``sum_i w_i |x|_(i)`` (|x| sorted descending).

    Weights must be finite, nonincreasing and nonnegative with ``w[0] > 0``.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if w[0] <= 0:
            raise ValueError("leading weight must be positive")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if np.any(np.diff(w) > 0):
            raise ValueError("weights must be nonincreasing")
        self.weights = w

    @property
    def n(self):
        return self.weights.size

    def _check(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}")
        return x

    def value(self, x) -> float:
        x = self._check(x)
        return float(np.dot(self.weights, np.sort(np.abs(x))[::-1]))

    def prox(self, v, t: float) -> np.ndarray:
        if not 0.0 < t < np.inf:
            raise ValueError("prox parameter t must be positive and finite")
        v = self._check(v)
        av = np.abs(v)
        order = np.argsort(-av)
        a = av[order]
        if (a[1:] == a[:-1]).any():
            # tied magnitudes take index order, as in piece(): PAVA's block
            # means round, so a run of equal z can get two values an ulp
            # apart, and the order of the tied entries would set which gets
            # which. The sorted values a are the same in either order
            order = np.argsort(-av, kind="stable")
        u = a - t * self.weights
        if not (u[1:] < u[:-1]).all():
            # PAVA pools nothing in a strictly decreasing u and returns it as
            # it is; pooling equal values can move their last bit
            u = isotonic_regression(u, increasing=False).x
        np.maximum(u, 0.0, out=u)
        out = np.empty_like(v)  # order is a permutation: every entry is set
        out[order] = u
        out *= np.sign(v)
        return out

    def polar(self, z) -> float:
        z = self._check(z)
        az = np.sort(np.abs(z))[::-1]
        # prefix-ratio formula; w[0] > 0 keeps every denominator positive
        return float(np.max(np.cumsum(az) / np.cumsum(self.weights)))

    def restrict(self, size: int) -> "SortedL1":
        if not 1 <= size <= self.n:
            raise ValueError("restriction size out of range")
        out = SortedL1.__new__(SortedL1)  # a nonempty prefix of valid weights is valid
        out.weights = self.weights[:size]
        return out

    def piece(self, x):
        x = self._check(x)
        ax = np.abs(x)
        # the support in rank order, ties in index order as in prox; runs of
        # equal |x| cluster
        J = np.flatnonzero(x)
        a = ax[J]
        order = np.argsort(-a, kind="stable")
        J, a = J[order], a[order]
        starts = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))[: J.size]
        return J, np.sign(x[J]), starts, np.add.reduceat(self.weights[: J.size], starts)

    def __repr__(self):
        return f"SortedL1(n={self.n})"


def linear_weights(n: int) -> np.ndarray:
    """Linearly decaying weights ``1 - (i-1)/(n-1)`` for i = 1..n."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return np.ones(1)
    return 1.0 - np.arange(n) / (n - 1)


def constant_weights(n: int, value: float = 1.0) -> np.ndarray:
    if n < 1 or value <= 0:
        raise ValueError("need n >= 1 and a positive weight")
    return np.full(n, float(value))


def make_regularizer(kind: str, n: int, schedule: str = "linear") -> Regularizer:
    """Construct a penalty by name; ``n`` is the problem dimension."""
    if kind == "l1":
        return L1()
    if kind == "slope":
        if schedule == "linear":
            return SortedL1(linear_weights(n))
        if schedule == "constant":
            return SortedL1(constant_weights(n))
        raise ValueError(f"unknown weight schedule {schedule!r}")
    raise ValueError(f"unknown regularizer kind {kind!r}")


def lambda_inf(reg: Regularizer, A, b, Atb=None) -> float:
    """Smallest penalty strength at which the zero vector is optimal.

    Equals ``polar(A^T b)``; pass ``Atb`` when that product is already formed.
    Raises if ``A^T b = 0`` (degenerate instance).
    """
    val = reg.polar(A.rmatvec(b) if Atb is None else Atb)
    if val == 0.0:
        raise ValueError("lambda_inf is zero: constrained problem degenerate")
    return val
