"""Regularized least-squares solves and the value function phi.

``solve_reduced`` solves ``min 0.5*||A_I z - b||^2 + lam * p_I(z)`` over a
coordinate subset I and returns the prox-polished point. Convergence is
certified by two unit-step quantities at the candidate: the inexactness
certificate ``||z - xh + grad(xh) - grad(z)||`` (xh the polished point) and
the proximal residual at xh itself; both must fall below the tolerance.
The columns ``A_I`` come from ``SparseMatrix.take_columns``, which alone
picks their form (dense or CSC). The Gram matrix ``A_I^T A_I`` is formed
only when it holds no more entries than ``A_I``; otherwise each Gram
product is ``A_I^T (A_I z)``.

On a fixed pattern of a polyhedral gauge the solution is ``x_J = P z`` with
``(P^T G_JJ P) z = P^T c_J - lam*w``: ``Regularizer.piece`` gives the
pattern and ``piece_solve`` the solve, one LAPACK Cholesky factorization
(``dpotrf``/``dpotrs``). This Newton step is the main step of a solve. The
first check runs at the start point, ``x0`` on I or zero: if its certificate
fails, a chain of Newton points follows, each on the piece through the last
polished point and certified at the same tolerance, while the larger
certificate norm strictly shrinks from link to link. A pattern is solved at
most once per solve. Only when that check fails does an accelerated
proximal-gradient method run (fixed step 1/L, function-value restart), with
the same check every third iteration; the chain never moves its iterate.
L is formed when APG first needs a step and kept with the reduced operator.
``phi_derivative`` uses the same piece solve for phi's derivative, on the
support's columns from the same ``take_columns``.

A solve certifies to ``tol`` (default ``KKT_TOL``) and otherwise stops
uncertified: after ``MAX_ITERS`` APG iterations, or at once when its
objective or its certificate is no longer finite. Its result carries its
APG iteration count, its piece solves and the certificate at its point; the
per-round log of an evaluation is the sieve's ``SieveRound`` list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .problem import ProblemData, index_array
from .regularizers import Regularizer

# default certificate tolerance of a solve, and the APG iteration cap
KKT_TOL = 1e-8
MAX_ITERS = 20000


@dataclass
class InnerSolveResult:
    x: np.ndarray            # full length n, zeros off the active set
    y: np.ndarray            # b - A x
    phi: float               # ||y||
    eta_l: float             # relative KKT residual of the solved problem
    iters: int               # APG iterations
    objective: float         # 0.5*||A x - b||^2 + lam * p(x)
    converged: bool
    piece_solves: int = 0    # piece systems solved by Newton points


def residual_R(x, grad, reg: Regularizer, lam: float) -> np.ndarray:
    """Unit-step proximal residual ``x - prox(x - grad, lam)``.

    Zero exactly at solutions of the lam-regularized problem; ``grad`` must be
    ``A^T (A x - b)`` supplied by the caller.
    """
    return x - reg.prox(x - grad, lam)


def eta_l(x, A, b, reg: Regularizer, lam: float) -> float:
    """Relative KKT residual ``||R(x)|| / (1 + ||x|| + ||A x - b||)``."""
    x = np.asarray(x, dtype=np.float64)
    r = A.matvec(x) - b
    grad = A.rmatvec(r)
    num = np.linalg.norm(residual_R(x, grad, reg, lam))
    return float(num / (1.0 + np.linalg.norm(x) + np.linalg.norm(r)))


def _power_iteration_bound(gram_mv, k: int, iters: int = 20, safety: float = 1.1) -> float:
    """Upper estimate of the largest eigenvalue of the reduced Gram matrix.

    Runs at most ``iters`` power steps, exiting early once the Rayleigh
    quotient has stabilized.
    """
    v = np.full(k, 1.0 / np.sqrt(k))
    lam_est = 0.0
    for _ in range(iters):
        w = gram_mv(v)
        nw = float(np.sqrt(w @ w))
        if nw == 0.0:
            return 0.0
        prev = lam_est
        lam_est = float(v @ w)
        v = w / nw
        if abs(lam_est - prev) <= 1e-12 * max(lam_est, 1.0):
            break
    return safety * max(lam_est, 0.0)


def _dense_gram(A_I) -> np.ndarray:
    """``A_I^T A_I`` as a dense array, for a dense or sparse ``A_I``."""
    gram = A_I.T @ A_I
    return gram.toarray() if hasattr(gram, "toarray") else np.asarray(gram)


def _reduced_operator(data: ProblemData, idx: np.ndarray):
    """``(A_I, c, G, gram_mv, lipschitz)`` for the index set ``idx``: the
    column submatrix, ``c = A_I^T b``, the dense Gram matrix if
    ``k * k <= A_I.size`` (nonzeros of a sparse ``A_I``; for a dense one
    ``k <= m``, where ``G @ z`` also costs less than ``A_I^T (A_I z)``) else
    None, the Gram product, and ``lipschitz()``, which returns the step bound
    L of APG: formed on its first call, then kept with the operator.

    The operator of the last index set is kept on ``data``: every direct phi
    evaluation reuses the set [n], and for a handful of columns building the
    operator costs more than the solve. It is keyed on the index set alone.
    A different set drops the kept one before the new one is built, so no
    two are held at once.
    """
    k = idx.size
    key = idx.tobytes()
    kept = data.__dict__.get("_reduced_operator")
    if kept is not None and kept[0] == key:
        return kept[1]
    del kept
    data.__dict__.pop("_reduced_operator", None)
    if k != np.unique(idx).size:
        raise ValueError("index set must not contain duplicates")
    if idx.min() < 0 or idx.max() >= data.A.n:
        raise ValueError("index set out of range")

    A_I = data.A.take_columns(idx)
    c = A_I.T @ data.b
    if k * k <= A_I.size:
        G = _dense_gram(A_I)
        gram_mv = lambda z: G @ z
    else:
        G = None
        gram_mv = lambda z: A_I.T @ (A_I @ z)
    bound = []

    def lipschitz() -> float:
        if not bound:
            L = _power_iteration_bound(gram_mv, k)
            diag = np.diag(G) if G is not None else np.asarray((A_I * A_I).sum(axis=0)).ravel()
            # the power start can lie in the null space of G (columns [u, -u]);
            # the largest diagonal entry bounds lambda_max below and the trace
            # above it
            if L < diag.max():
                L = float(diag.sum())
            bound.append(max(L, 1e-12))
        return bound[0]

    op = (A_I, c, G, gram_mv, lipschitz)
    data.__dict__["_reduced_operator"] = (key, op)
    return op


def piece_solve(G_JJ, s, starts, rhs, m: int) -> np.ndarray:
    """``x_J = P z`` where ``(P^T G_JJ P) z = rhs`` and column i of ``P`` holds
    the signs ``s`` on the rows of cluster i, ``starts[i]`` to the next start.

    One LAPACK Cholesky factorization (``dpotrf``, then ``dpotrs``, the calls
    ``scipy.linalg.cho_factor``/``cho_solve`` make, with the same result bit
    for bit) when there are at most ``m`` clusters; the minimum-norm
    least-squares solution when the matrix is singular or there are more
    clusters. Raises ``ValueError`` if the matrix or ``rhs`` is not finite.
    """
    M = s[:, None] * G_JJ * s
    if starts.size < s.size:  # a one-entry cluster sum is the entry itself
        M = np.add.reduceat(M, starts, axis=0)
        M = np.add.reduceat(M, starts, axis=1)
    if not (np.isfinite(M).all() and np.isfinite(rhs).all()):
        raise ValueError("piece system must be finite")
    z = None
    if starts.size <= m:
        # the upper triangle, as cho_factor reads it; info > 0: not positive definite
        c, info = dpotrf(M, lower=0, clean=0)
        if info == 0:
            z, info = dpotrs(c, rhs, lower=0)
        if info < 0:
            raise ValueError(f"LAPACK rejected argument {-info} of the piece system")
    if z is None:
        z = np.linalg.lstsq(M, rhs, rcond=None)[0]
    if starts.size < s.size:
        z = np.repeat(z, np.diff(starts, append=s.size))
    return s * z


def phi_derivative(data: ProblemData, reg: Regularizer, x, lam: float, phi: float) -> float:
    """Generalized derivative ``lam * ||h||^2 / phi`` of phi at ``lam``.

    ``h = A_J P (P^T G_JJ P)^{-1} w`` on the piece ``(J, s, starts, w)`` through
    ``x``, as ``P^T A_J^T (b - A x) = lam w`` there; positive below lambda_inf.
    """
    if phi <= 0:
        raise ValueError("phi must be positive")
    J, s, starts, w = reg.piece(x)
    if J.size == 0:
        raise ValueError("derivative undefined at zero support")
    A_J = data.A.take_columns(J)
    h = A_J @ piece_solve(_dense_gram(A_J), s, starts, w, data.A.m)
    return float(lam * (h @ h) / phi)


def start_point(x0, n: int, name: str = "x0"):
    """``x0`` as a float64 vector, or None; any shape but ``(n,)`` raises
    ``ValueError`` naming both shapes."""
    if x0 is None:
        return None
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {x0.shape}")
    return x0


def _zero_result(data: ProblemData) -> InnerSolveResult:
    """The solve over an empty index set: ``x = 0``, ``y = b``, no products.

    The reduced problem has no coordinates, so its KKT residual is zero.
    """
    y = data.b.copy()
    return InnerSolveResult(
        x=np.zeros(data.A.n),
        y=y,
        phi=float(np.linalg.norm(y)),
        eta_l=0.0,
        iters=0,
        objective=0.5 * float(y @ y),
        converged=True,
    )


def solve_reduced(
    data: ProblemData,
    reg: Regularizer,
    lam: float,
    index_set,
    x0=None,
    tol: float = KKT_TOL,
) -> InnerSolveResult:
    """Solve the regularized problem restricted to ``index_set``.

    The first check runs at the start point, ``x0`` on the index set or zero:
    its certificate, then the chain of Newton points from its polished point.
    APG runs only when that check fails, and checks again every third
    iteration. The sorted-l1 penalty restricted to k coordinates uses its k
    leading (largest) weights; the sieving loop's full-dimension residual
    check is the authoritative certificate for the assembled point. Returns a
    result whose ``x`` is a full-length vector supported on the index set.
    An index set that is not of integer dtype (a bool mask, floats) raises
    ``IndexError``, and an ``x0`` not of shape ``(n,)`` ``ValueError``.
    """
    if not 0.0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    x0 = start_point(x0, data.A.n)
    idx = index_array(index_set)
    if idx.size == 0:
        return _zero_result(data)
    A_I, c, G, gram_mv, lipschitz = _reduced_operator(data, idx)
    reg_r = reg.restrict(idx.size)
    b = data.b
    k = idx.size
    bb = float(b @ b)

    def smooth(z, Gz):
        return 0.5 * float(z @ Gz) - float(c @ z) + 0.5 * bb

    def certify(zc, Gzc):
        """Polished point of ``zc`` and both certificate norms."""
        xh = reg_r.prox(zc - (Gzc - c), lam)
        Gxh = gram_mv(xh)
        cert_vec = zc - xh + (Gxh - Gzc)
        r_hat = xh - reg_r.prox(xh - (Gxh - c), lam)
        return xh, float(np.sqrt(cert_vec @ cert_vec)), float(np.sqrt(r_hat @ r_hat))

    def worst(out):
        """The larger certificate norm of ``certify``'s ``out``; inf if not finite."""
        _, cert, r_norm = out
        return max(cert, r_norm) if math.isfinite(cert + r_norm) else math.inf

    failed = set()
    last_key = None
    piece_solves = 0

    def newton_point(xh):
        """``P z`` on the piece ``(J, s, starts, w)`` through ``xh``, or None.

        Each pattern is solved at most once. A pattern with more clusters than
        rows is solved only when it is the pattern last asked for (duplicate
        and negated columns make such supports optimal).
        """
        nonlocal last_key, piece_solves
        J, s, starts, w = reg_r.piece(xh)
        key = (J.tobytes(), s.tobytes(), starts.tobytes())
        stable, last_key = key == last_key, key
        if J.size == 0 or key in failed or (starts.size > data.A.m and not stable):
            return None
        failed.add(key)  # a pattern that certifies ends the solve
        G_JJ = G[np.ix_(J, J)] if G is not None else _dense_gram(A_I[:, J])
        rhs = np.add.reduceat(s * c[J], starts) - lam * w
        piece_solves += 1
        x_J = piece_solve(G_JJ, s, starts, rhs, data.A.m)
        if not np.all(np.isfinite(x_J)):
            return None
        zn = np.zeros(k)
        zn[J] = x_J
        return zn

    def check(zc, Gzc):
        """``certify(zc, Gzc)``, or the first Newton point of the chain from
        its polished point that passes. Each link solves the piece through
        the last polished point; the chain stops at a refused pattern or a
        link that does not shrink the larger certificate norm."""
        out = certify(zc, Gzc)
        xh, best = out[0], worst(out)
        while tol < best < math.inf:
            zn = newton_point(xh)
            if zn is None:
                break
            link = certify(zn, gram_mv(zn))
            if worst(link) <= tol:
                return link
            if not worst(link) < best:
                break
            xh, best = link[0], worst(link)
        return out

    z = np.zeros(k) if x0 is None else x0[idx]
    Gz = gram_mv(z)
    iters = 0
    out = check(z, Gz)
    converged = worst(out) <= tol
    if not (converged or worst(out) == math.inf):
        y = z.copy()
        t = 1.0
        F_z = smooth(z, Gz) + lam * reg_r.value(z)
        inv_L = 1.0 / lipschitz()
        step_t = lam * inv_L
        for iters in range(1, MAX_ITERS + 1):
            g_y = gram_mv(y) - c
            z_new = reg_r.prox(y - g_y * inv_L, step_t)
            Gz_new = gram_mv(z_new)
            F_new = smooth(z_new, Gz_new) + lam * reg_r.value(z_new)
            if F_new > F_z:
                # momentum restart: plain proximal-gradient step from the last
                # accepted iterate, which cannot increase the objective
                g_z = Gz - c
                z_new = reg_r.prox(z - g_z * inv_L, step_t)
                Gz_new = gram_mv(z_new)
                F_new = smooth(z_new, Gz_new) + lam * reg_r.value(z_new)
                t = 1.0
            if not math.isfinite(F_new):
                # overflow: stop uncertified at the last finite iterate
                break

            # the check costs two extra Gram products, so run it on a fixed
            # cadence
            if iters % 3 == 1:
                out = check(z_new, Gz_new)
                if worst(out) <= tol:
                    converged = True
                    break
                if worst(out) == math.inf:
                    # the certificate overflowed: stop uncertified
                    break

            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = z_new + ((t - 1.0) / t_next) * (z_new - z)
            z, Gz, F_z, t = z_new, Gz_new, F_new, t_next

    if converged:
        xh, _, r_norm = out
    else:
        xh, _, r_norm = certify(z, Gz)
    x_full = np.zeros(data.A.n)
    x_full[idx] = xh
    y_full = b - A_I @ xh
    phi = float(np.sqrt(y_full @ y_full))
    return InnerSolveResult(
        x=x_full,
        y=y_full,
        phi=phi,
        # KKT residual of the reduced problem at the polished point
        eta_l=r_norm / (1.0 + float(np.linalg.norm(xh)) + phi),
        iters=iters,
        objective=0.5 * phi * phi + lam * reg_r.value(xh),
        converged=converged,
        piece_solves=piece_solves,
    )
