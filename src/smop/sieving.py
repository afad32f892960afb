"""Adaptive sieving: solve the regularized problem over a growing index set.

Each round solves the problem restricted to the current index set I, measures
the full-dimension proximal residual R at the assembled point, and, while
``||R||`` exceeds the tolerance ``tol``, grows the set with the largest
off-set residual entries.
A round adds at most ``min(MAX_GROWTH, max(|I|, MIN_GROWTH))`` entries, so
the set starts at up to ``MIN_GROWTH`` coordinates and then at most doubles
per round: the reduced problems stay near the size of the support the solve
needs, and reaching a support of size s takes ``O(log s)`` rounds. Rounds
where no off-set entry exceeds the zero threshold re-solve the current set at
a tighter tolerance, which drives the full residual down since an exact
reduced solve with an empty candidate set already solves the full problem;
if that round's reduced solve did not certify, a tighter one would not
either, and the solve stops uncertified. A solve that has not certified
after ``MAX_ROUNDS`` rounds stops uncertified, and so does one whose reduced
solve returns a phi that is not finite: that round forms no ``A^T y``. A
non-finite full residual alone does not stop it, since at ``x = 0`` it can
overflow while ``phi = ||b||`` is finite.

The residual ``y = b - A_I x_I`` that the reduced solve returns is reused:
the round's gradient is ``-A^T y`` and the final ``y``/``phi`` are the last
round's, so a sieve round forms no full product ``A x``. The ``A^T`` product
over all n columns stays; it is the certificate. A round over the empty set
has ``y = b`` and reads ``ProblemData.Atb``, the product ``lambda_inf`` has
already formed for the same instance.

``phi_eval`` evaluates phi(lam) = ||A x(lam) - b||: through this loop, or by
one direct solve over all coordinates with ``sieve=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .inner import KKT_TOL, InnerSolveResult, residual_R, solve_reduced
from .problem import ProblemData, index_array
from .regularizers import Regularizer

# a round may add this many coordinates even when I is smaller, and never
# more than MAX_GROWTH; a solve runs at most MAX_ROUNDS rounds
MIN_GROWTH = 20
MAX_GROWTH = 500
MAX_ROUNDS = 100


@dataclass
class SieveRound:
    """One round: the reduced solve on ``size_I`` coordinates, the full residual
    norm at its point, ``size_J`` off-set candidates (0 once converged or when
    re-tightening), how many were ``added``, and the solve's APG iterations
    and piece solves."""
    size_I: int
    r_norm: float
    size_J: int
    added: int
    inner_iters: int
    piece_solves: int


@dataclass
class SieveTrace:
    rounds: list[SieveRound] = field(default_factory=list)


def select_top_k(residual, candidates, k: int) -> np.ndarray:
    """The k candidate indices with largest ``|residual|``, ascending; ties go to
    the smaller index and NaN ranks last, as in a stable argsort of
    ``-|residual|``, but ``np.partition`` finds the k-th value in linear time.
    The candidates go through ``index_array``, so a bool mask, a float index
    or an unsigned index past the int64 range raises its ``IndexError``."""
    candidates = np.sort(index_array(candidates))
    if not 0 <= k <= candidates.size:
        raise ValueError("k must lie between 0 and the candidate count")
    neg = -np.abs(np.asarray(residual)[candidates])
    if k in (0, candidates.size):
        return candidates[:k]
    kth = np.partition(neg, k - 1)[k - 1]
    # a NaN k-th value means fewer than k numbers: all of them, then NaN by index
    keep, tie = (neg < kth, neg == kth) if kth == kth else (neg == neg, neg != neg)
    keep[np.flatnonzero(tie)[: k - np.count_nonzero(keep)]] = True
    return candidates[keep]


def sieve_solve(
    data: ProblemData,
    reg: Regularizer,
    lam: float,
    initial_set,
    x0=None,
    tol: float = KKT_TOL,
):
    """Solve the lam-regularized problem through reduced subproblems.

    Parameters
    ----------
    initial_set : array-like of int
        Starting index set; may be empty, in which case the first round
        evaluates the residual at zero and seeds the set from its largest
        entries. An array of another dtype (a bool mask, floats) raises
        ``IndexError``.

    Returns
    -------
    (InnerSolveResult, SieveTrace)
        Full-dimension result with ``||R(x)|| <= tol`` (an unnormalized
        tolerance here) on success, and the per-round log: one
        :class:`SieveRound` per reduced solve, so the rounds' ``inner_iters``
        and ``piece_solves`` sum to the result's ``iters`` and
        ``piece_solves``. The result's ``eta_l`` is the last
        round's full-dimension residual, normalized as in ``inner.eta_l``.
    """
    if not 0.0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    n = data.A.n
    I = np.unique(index_array(initial_set))
    if I.size and (I.min() < 0 or I.max() >= n):
        raise ValueError("initial index set out of range")

    # treat roundoff-sized residual entries as zero when building J
    zero_thresh = max(1e-12, 1e-3 * tol)
    round_tol = max(tol, 1e-15)
    trace = SieveTrace()
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    total_iters = total_pieces = 0
    converged = False

    def log(size_J, added):
        trace.rounds.append(SieveRound(I.size, r_norm, size_J, added, result.iters,
                                       result.piece_solves))

    for _ in range(MAX_ROUNDS):
        result = solve_reduced(data, reg, lam, I, x0=x, tol=round_tol)
        total_iters += result.iters
        total_pieces += result.piece_solves
        x = result.x
        if not np.isfinite(result.phi):
            # the reduced solve overflowed, and later rounds would stop at the same overflow
            r_norm = np.nan
            log(0, 0)
            break
        # over the empty set y = b, whose A^T b the instance keeps
        grad = -(data.Atb if I.size == 0 else data.A.rmatvec(result.y))
        R = residual_R(x, grad, reg, lam)
        r_norm = float(np.linalg.norm(R))
        if r_norm <= tol:
            log(0, 0)
            converged = True
            break
        off = np.ones(n, dtype=bool)
        off[I] = False
        J = np.flatnonzero(off & (np.abs(R) > zero_thresh))
        if J.size == 0:
            # residual mass sits inside I: repeat the round more accurately,
            # unless this round's reduced solve did not certify
            log(0, 0)
            if not result.converged:
                break
            round_tol *= 0.1
            continue
        add = select_top_k(R, J, min(J.size, MAX_GROWTH, max(I.size, MIN_GROWTH)))
        log(J.size, add.size)
        I = np.union1d(I, add)

    den = 1.0 + float(np.linalg.norm(x)) + result.phi
    final = replace(result, eta_l=r_norm / den, iters=total_iters,
                    piece_solves=total_pieces, converged=converged)
    return final, trace


def phi_eval(
    data: ProblemData,
    reg: Regularizer,
    lam: float,
    x0=None,
    tol: float = KKT_TOL,
    sieve: bool = True,
) -> tuple[InnerSolveResult, SieveTrace]:
    """Evaluate phi(lam) by a full-dimension solve.

    With ``sieve``, the solve goes through :func:`sieve_solve` seeded with
    the support of the warm start, and its round log is returned with the
    result; without, one direct solve runs over all coordinates and the log
    has no rounds. The result's ``eta_l`` is measured at full dimension.
    Both solves reject a ``lam`` or ``tol`` that is not positive and finite.
    """
    if not sieve:
        # the reduced certificate over all of [n] is already the full-dimension one
        return solve_reduced(data, reg, lam, np.arange(data.A.n), x0=x0, tol=tol), SieveTrace()
    seed = np.flatnonzero(x0) if x0 is not None else np.empty(0, dtype=np.int64)
    return sieve_solve(data, reg, lam, seed, x0=x0, tol=tol)
