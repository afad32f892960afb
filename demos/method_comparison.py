"""Secant vs bisection on the same instances.

The paper's method finds the root of the value function phi by a secant
iteration; the level-set method it builds on bisects. Every evaluation of phi
is one regularized solve, so the number of evaluations is the honest cost
measure. Three columns per instance:

* ``smop``: the library's secant hybrid. It first proposes the root of the
  piece of phi (on a fixed pattern phi^2 is affine in lam^2, so one
  generalized derivative gives that root exactly) and takes the secant step
  as the fallback;
* ``secant``: the pure safeguarded secant method, with no derivative, inside
  a bracket searched without one, on a phi built from ``phi_eval``;
* ``bmop``: plain bisection.

Both secant variants take a handful of evaluations where bisection needs
~30; the piece root saves a few more.
"""

import time

import numpy as np

from smop import (
    L1,
    SmopConfig,
    SortedL1,
    SynthSpec,
    bracket_init,
    hybrid_secant_solve,
    lambda_inf,
    linear_weights,
    phi_eval,
    smop_solve,
    synth_instance,
)
from smop.inner import KKT_TOL

STOPTOL = 1e-8
SEEDS = range(5)
COLUMNS = ("smop", "secant", "bmop")

PENALTIES = {"l1": lambda n: L1(), "sorted-l1": lambda n: SortedL1(linear_weights(n))}


def pure_secant(data, reg):
    """Evaluations and wall ms of the secant method without a derivative.

    Each evaluation is warm-started from the last one and solved to the
    tolerance ``smop_solve`` derives from ``STOPTOL``.
    """
    tol = min(KKT_TOL, 0.01 * STOPTOL * max(1.0, data.rho))
    evals = {}  # lam -> InnerSolveResult, in evaluation order

    def phi(lam):
        if lam not in evals:
            x0 = next(reversed(evals.values())).x if evals else None
            evals[lam] = phi_eval(data, reg, lam, x0=x0, tol=tol)[0]
        return evals[lam].phi

    t0 = time.perf_counter()
    lam_top = lambda_inf(reg, data.A, data.b)
    lo, hi = bracket_init(phi, data.rho, lam_top, data.bnorm, None)
    _, state = hybrid_secant_solve(phi, data.rho, lo, hi, STOPTOL)
    assert state.converged
    return len(evals), 1000.0 * (time.perf_counter() - t0)


for name, make_reg in PENALTIES.items():
    rows = []
    for seed in SEEDS:
        data, _ = synth_instance(SynthSpec(m=200, n=2000, s=20, sigma=0.01, seed=seed))
        data = data.with_rho(0.1 * data.bnorm)
        row = {"seed": seed, "secant": pure_secant(data, make_reg(2000))}
        for method in ("smop", "bmop"):
            res = smop_solve(data, make_reg(2000), SmopConfig(stoptol=STOPTOL, method=method))
            assert res.converged, (name, seed, method)
            row[method] = (res.n_subproblems, res.wall_ms)
        rows.append(row)

    print(f"== {name}, stoptol = {STOPTOL:g}; one row per random instance")
    print(f"{'seed':>4s} | " + " ".join(f"{c + ' evals':>12s}" for c in COLUMNS)
          + " | " + " ".join(f"{c + ' ms':>9s}" for c in COLUMNS))
    for row in rows:
        print(f"{row['seed']:>4d} | " + " ".join(f"{row[c][0]:>12d}" for c in COLUMNS)
              + " | " + " ".join(f"{row[c][1]:>9.1f}" for c in COLUMNS))

    med = {c: np.median([r[c][0] for r in rows]) for c in COLUMNS}
    print("median evaluations: " + ", ".join(f"{c} {med[c]:.0f}" for c in COLUMNS))
    print(f"bisection needs {med['bmop'] / med['secant']:.1f}x the evaluations of the "
          f"pure secant method, {med['bmop'] / med['smop']:.1f}x those of smop\n")
