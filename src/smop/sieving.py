"""Adaptive sieving: solve the regularized problem over a growing index set.

Each round solves the problem restricted to the current index set I, measures
the full-dimension proximal residual R at the assembled point, and, while
``||R||`` exceeds the inner solver's ``kkt_tol``, grows the set with the
largest off-set residual entries.
A round adds at most ``min(k_max, max(|I|, MIN_GROWTH))`` entries, so the set
starts at up to ``MIN_GROWTH`` coordinates and then at most doubles per round:
the reduced problems stay near the size of the support the solve needs, and
reaching a support of size s takes ``O(log s)`` rounds. Rounds where no
off-set entry exceeds the zero threshold re-solve the current set at a
tighter tolerance, which drives the full residual down since an exact reduced
solve with an empty candidate set already solves the full problem.

The residual ``y = b - A_I x_I`` that the reduced solve returns is reused:
the round's gradient is ``-A^T y`` and the final ``y``/``phi`` are the last
round's, so a sieve round forms no full product ``A x``. The ``A^T`` product
over all n columns stays; it is the certificate.

``phi_eval`` evaluates phi(lam) = ||A x(lam) - b||: through this loop, or by
one direct solve over all coordinates when no sieve configuration is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .inner import InnerConfig, InnerSolveResult, residual_R, solve_reduced, _zero_result
from .problem import ProblemData
from .regularizers import Regularizer

# a round may add this many coordinates even when I is smaller
MIN_GROWTH = 20


@dataclass(frozen=True)
class SieveConfig:
    k_max: int = 500         # cap on coordinates added per round
    max_rounds: int = 100

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")


@dataclass
class SieveRound:
    size_I: int
    r_norm: float
    size_J: int
    added: int
    inner_iters: int


@dataclass
class SieveTrace:
    rounds: list[SieveRound] = field(default_factory=list)


def select_top_k(residual, candidates, k: int) -> np.ndarray:
    """The k candidate indices with largest ``|residual|``, ties to the smaller index."""
    candidates = np.sort(np.asarray(candidates, dtype=np.int64))
    if not 0 <= k <= candidates.size:
        raise ValueError("k must lie between 0 and the candidate count")
    mags = np.abs(np.asarray(residual)[candidates])
    order = np.argsort(-mags, kind="stable")  # stable: ties keep ascending index
    return np.sort(candidates[order[:k]])


def sieve_solve(
    data: ProblemData,
    reg: Regularizer,
    lam: float,
    initial_set,
    cfg: SieveConfig | None = None,
    x0=None,
    inner_cfg: InnerConfig | None = None,
):
    """Solve the lam-regularized problem through reduced subproblems.

    Parameters
    ----------
    initial_set : array-like of int
        Starting index set; may be empty, in which case the first round
        evaluates the residual at zero and seeds the set from its largest
        entries.

    Returns
    -------
    (InnerSolveResult, SieveTrace)
        Full-dimension result with ``||R(x)|| <= inner_cfg.kkt_tol`` (an
        unnormalized tolerance here) on success, and the per-round log. The
        result's ``iters`` and ``trace`` cover every round; trace iterations
        are counted from the start of the first round.
    """
    if not 0.0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    cfg = cfg or SieveConfig()
    inner_cfg = inner_cfg or InnerConfig()
    n = data.A.n
    I = np.unique(np.asarray(initial_set, dtype=np.int64))
    if I.size and (I.min() < 0 or I.max() >= n):
        raise ValueError("initial index set out of range")

    # treat roundoff-sized residual entries as zero when building J
    eps = inner_cfg.kkt_tol
    zero_thresh = max(1e-12, 1e-3 * eps)
    round_tol = max(eps, 1e-15)
    trace = SieveTrace()
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    total_iters = 0
    rows = []  # certificate-check rows of every round, iterations counted across rounds
    converged = False

    for _ in range(cfg.max_rounds):
        if I.size:
            result = solve_reduced(
                data, reg, lam, I, x0=x, cfg=replace(inner_cfg, kkt_tol=round_tol)
            )
        else:
            result = _zero_result(data)
        rows.extend((total_iters + it, obj, eta) for it, obj, eta in result.trace)
        total_iters += result.iters
        x = result.x
        grad = -data.A.rmatvec(result.y)
        R = residual_R(x, grad, reg, lam)
        r_norm = float(np.linalg.norm(R))
        if r_norm <= eps:
            trace.rounds.append(SieveRound(I.size, r_norm, 0, 0, result.iters))
            converged = True
            break
        off = np.ones(n, dtype=bool)
        off[I] = False
        J = np.flatnonzero(off & (np.abs(R) > zero_thresh))
        if J.size == 0:
            # residual mass sits inside I: repeat the round more accurately
            trace.rounds.append(SieveRound(I.size, r_norm, 0, 0, result.iters))
            round_tol *= 0.1
            continue
        add = select_top_k(R, J, min(J.size, cfg.k_max, max(I.size, MIN_GROWTH)))
        trace.rounds.append(SieveRound(I.size, r_norm, J.size, add.size, result.iters))
        I = np.union1d(I, add)

    den = 1.0 + float(np.linalg.norm(x)) + result.phi
    final = replace(
        result, eta_l=r_norm / den, iters=total_iters,
        converged=converged, trace=rows,
    )
    return final, trace


def phi_eval(
    data: ProblemData,
    reg: Regularizer,
    lam: float,
    x0=None,
    cfg: InnerConfig | None = None,
    sieve_cfg: SieveConfig | None = None,
) -> InnerSolveResult:
    """Evaluate phi(lam) by a full-dimension solve.

    With ``sieve_cfg`` set, the solve goes through :func:`sieve_solve` seeded
    with the support of the warm start; with None, one direct solve runs over
    all coordinates. The returned ``eta_l`` is measured at full dimension.
    Both solves reject a ``lam`` that is not positive and finite.
    """
    if sieve_cfg is None:
        # the reduced certificate over all of [n] is already the full-dimension one
        return solve_reduced(data, reg, lam, np.arange(data.A.n), x0=x0, cfg=cfg)
    seed = np.flatnonzero(x0) if x0 is not None else np.empty(0, dtype=np.int64)
    return sieve_solve(data, reg, lam, seed, sieve_cfg, x0=x0, inner_cfg=cfg)[0]
