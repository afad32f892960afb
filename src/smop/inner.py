"""Regularized least-squares solves and the value function phi.

``solve_reduced`` runs an accelerated proximal-gradient method (fixed step
1/L, function-value restart) on ``min 0.5*||A_I z - b||^2 + lam * p_I(z)``
over a coordinate subset I, and returns the prox-polished point. Convergence
is certified by two unit-step quantities at the candidate: the inexactness
certificate ``||z - xh + grad(xh) - grad(z)||`` (xh the polished point) and
the proximal residual at xh itself; both must fall below the tolerance.

On a fixed pattern of a polyhedral gauge the solution is ``x_J = P z`` with
``(P^T G_JJ P) z = P^T c_J - lam*w``: ``Regularizer.piece`` gives the
pattern and ``piece_solve`` the solve. Each certificate check that fails
also tries this Newton step on the piece through xh, and the same
certificate, at the same tolerance, is run on its point. APG stops when it
passes and otherwise continues unchanged; a failed pattern is not solved
again. ``phi_derivative`` uses the same solve for phi's derivative.

A solve's result carries its iteration count and the certificate at its
point; the per-round log of an evaluation is the sieve's ``SieveRound`` list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .problem import ProblemData
from .regularizers import Regularizer

# above this column count the Gram matrix is not formed explicitly
_GRAM_LIMIT = 4096
# reduced matrices up to this entry count are gathered densely (BLAS products
# beat scipy sparse dispatch overhead at desk scale)
_DENSE_LIMIT = 4_194_304


@dataclass(frozen=True)
class InnerConfig:
    kkt_tol: float = 1e-8
    max_iters: int = 20000

    def __post_init__(self):
        if not 0.0 < self.kkt_tol < np.inf:
            raise ValueError("kkt_tol must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class InnerSolveResult:
    x: np.ndarray            # full length n, zeros off the active set
    y: np.ndarray            # b - A x
    phi: float               # ||y||
    eta_l: float             # relative KKT residual of the solved problem
    iters: int
    objective: float         # 0.5*||A x - b||^2 + lam * p(x)
    converged: bool


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


def _gather(A, idx: np.ndarray):
    """Columns ``idx`` of ``A``: dense up to ``_DENSE_LIMIT`` entries, else sparse."""
    return A.take_columns_dense(idx) if A.m * idx.size <= _DENSE_LIMIT else A.take_columns(idx)


def _reduced_operator(data: ProblemData, idx: np.ndarray):
    """``(A_I, c, G, gram_mv, L)`` for the index set ``idx``: the column
    submatrix, ``c = A_I^T b``, the dense Gram matrix (None above
    ``_GRAM_LIMIT``), the Gram product and the step bound L.

    The operator of the last index set is kept on ``data``: every direct phi
    evaluation reuses the set [n], and for a handful of columns building the
    operator costs more than the solve. It is keyed on the index set alone
    (the module limits are constants). A different set drops the kept one
    before the new one is built, so no two are held at once.
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

    A_I = _gather(data.A, idx)
    c = A_I.T @ data.b
    if k <= _GRAM_LIMIT:
        G = _dense_gram(A_I)
        gram_mv = lambda z: G @ z
        diag = np.diag(G)
    else:
        G = None
        gram_mv = lambda z: A_I.T @ (A_I @ z)
        diag = np.asarray((A_I * A_I).sum(axis=0)).ravel()

    L = _power_iteration_bound(gram_mv, k)
    # the power start can lie in the null space of G (columns [u, -u]); the
    # largest diagonal entry bounds lambda_max below and the trace above it
    if L < diag.max():
        L = float(diag.sum())
    op = (A_I, c, G, gram_mv, max(L, 1e-12))
    data.__dict__["_reduced_operator"] = (key, op)
    return op


def piece_solve(G_JJ, s, starts, rhs, m: int) -> np.ndarray:
    """``x_J = P z`` where ``(P^T G_JJ P) z = rhs`` and column i of ``P`` holds
    the signs ``s`` on the rows of cluster i, ``starts[i]`` to the next start.

    One Cholesky factorization when there are at most ``m`` clusters; the
    minimum-norm least-squares solution when the matrix is singular or there
    are more clusters.
    """
    M = s[:, None] * G_JJ * s
    if starts.size < s.size:  # a one-entry cluster sum is the entry itself
        M = np.add.reduceat(M, starts, axis=0)
        M = np.add.reduceat(M, starts, axis=1)
    try:
        z = cho_solve(cho_factor(M), rhs) if starts.size <= m else None
    except np.linalg.LinAlgError:
        z = None
    if z is None:
        z = np.linalg.lstsq(M, rhs, rcond=None)[0]
    return s * np.repeat(z, np.diff(starts, append=s.size))


def phi_derivative(A, reg: Regularizer, x, lam: float, phi: float) -> float:
    """Generalized derivative ``lam * ||h||^2 / phi`` of phi at ``lam``.

    ``h = A_J P (P^T G_JJ P)^{-1} w`` on the piece ``(J, s, starts, w)`` through
    ``x``, as ``P^T A_J^T (b - A x) = lam w`` there; positive below lambda_inf.
    """
    if phi <= 0:
        raise ValueError("phi must be positive")
    J, s, starts, w = reg.piece(x)
    if J.size == 0:
        raise ValueError("derivative undefined at zero support")
    A_J = _gather(A, J)
    h = A_J @ piece_solve(_dense_gram(A_J), s, starts, w, A.m)
    return float(lam * (h @ h) / phi)


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
    cfg: InnerConfig | None = None,
) -> InnerSolveResult:
    """Solve the regularized problem restricted to ``index_set``.

    The sorted-l1 penalty restricted to k coordinates uses its k leading
    (largest) weights; the sieving loop's full-dimension residual check is the
    authoritative certificate for the assembled point. Returns a result whose
    ``x`` is a full-length vector supported on the index set.
    """
    if not 0.0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    cfg = cfg or InnerConfig()
    idx = np.asarray(index_set, dtype=np.int64)
    if idx.size == 0:
        return _zero_result(data)
    A_I, c, G, gram_mv, L = _reduced_operator(data, idx)
    reg_r = reg.restrict(idx.size)
    b = data.b
    k = idx.size
    bb = float(b @ b)

    def smooth(z, Gz):
        return 0.5 * float(z @ Gz) - float(c @ z) + 0.5 * bb

    z = np.zeros(k) if x0 is None else np.asarray(x0, dtype=np.float64)[idx].copy()
    y = z.copy()
    t = 1.0
    Gz = gram_mv(z)
    F_z = smooth(z, Gz) + lam * reg_r.value(z)

    def certify(zc, Gzc):
        """Polished point of ``zc`` and both certificate norms."""
        xh = reg_r.prox(zc - (Gzc - c), lam)
        Gxh = gram_mv(xh)
        cert_vec = zc - xh + (Gxh - Gzc)
        r_hat = xh - reg_r.prox(xh - (Gxh - c), lam)
        return xh, float(np.sqrt(cert_vec @ cert_vec)), float(np.sqrt(r_hat @ r_hat))

    failed = set()
    last_key = None

    def newton_point(xh):
        """``P z`` on the piece ``(J, s, starts, w)`` through ``xh``, or None.

        Each pattern is solved at most once. A pattern with more clusters than
        rows is solved only once it has held since the previous check
        (duplicate and negated columns make such supports optimal).
        """
        nonlocal last_key
        J, s, starts, w = reg_r.piece(xh)
        key = (J.tobytes(), s.tobytes(), starts.tobytes())
        stable, last_key = key == last_key, key
        if J.size == 0 or key in failed or (starts.size > data.A.m and not stable):
            return None
        failed.add(key)  # a pattern that certifies ends the solve
        G_JJ = G[np.ix_(J, J)] if G is not None else _dense_gram(A_I[:, J])
        rhs = np.add.reduceat(s * c[J], starts) - lam * w
        x_J = piece_solve(G_JJ, s, starts, rhs, data.A.m)
        if not np.all(np.isfinite(x_J)):
            return None
        zn = np.zeros(k)
        zn[J] = x_J
        return zn

    tol = cfg.kkt_tol
    inv_L = 1.0 / L
    step_t = lam * inv_L
    converged = False
    iters = 0

    for iters in range(1, cfg.max_iters + 1):
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

        # the certificate evaluation costs two extra Gram products, so run it
        # on a fixed cadence
        if iters % 3 == 1:
            xh, cert, r_norm = certify(z_new, Gz_new)
            zn = newton_point(xh) if max(cert, r_norm) > tol else None
            if zn is not None:
                n_cert = certify(zn, gram_mv(zn))
                if max(n_cert[1:]) <= tol:
                    xh, cert, r_norm = n_cert
            if max(cert, r_norm) <= tol:
                converged = True
                break

        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = z_new + ((t - 1.0) / t_next) * (z_new - z)
        z, Gz, F_z, t = z_new, Gz_new, F_new, t_next

    if not converged:
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
    )

