"""Secant vs bisection vs generalized Newton on the same instances.

All three root finders share the phi oracle (one regularized solve per
evaluation), so the number of evaluations is the honest cost measure. The
secant hybrid needs a handful of evaluations where bisection needs ~30, and
matches the Newton hybrid without ever forming a derivative. The Newton
hybrid runs on both penalties: its derivative comes from the solution's
piece (the l1 support, or the sorted-l1 clusters of equal magnitude).
"""

import numpy as np

from smop import L1, SmopConfig, SortedL1, SynthSpec, linear_weights, smop_solve, synth_instance

STOPTOL = 1e-8
SEEDS = range(5)
METHODS = ("smop", "bmop", "nmop")

PENALTIES = {"l1": lambda n: L1(), "sorted-l1": lambda n: SortedL1(linear_weights(n))}

for name, make_reg in PENALTIES.items():
    rows = []
    for seed in SEEDS:
        data, _ = synth_instance(SynthSpec(m=200, n=2000, s=20, sigma=0.01, seed=seed))
        data = data.with_rho(0.1 * data.bnorm)
        row = {"seed": seed}
        for method in METHODS:
            res = smop_solve(data, make_reg(2000), SmopConfig(stoptol=STOPTOL, method=method))
            assert res.converged, (name, seed, method)
            row[method] = (res.n_subproblems, res.inner_iters_total, res.wall_ms)
        rows.append(row)

    print(f"== {name}, stoptol = {STOPTOL:g}; one row per random instance")
    print(f"{'seed':>4s} | {'smop evals':>10s} {'bmop evals':>10s} {'nmop evals':>10s} "
          f"| {'smop ms':>8s} {'bmop ms':>8s} {'nmop ms':>8s}")
    for row in rows:
        print(f"{row['seed']:>4d} | {row['smop'][0]:>10d} {row['bmop'][0]:>10d} "
              f"{row['nmop'][0]:>10d} | {row['smop'][2]:>8.1f} {row['bmop'][2]:>8.1f} "
              f"{row['nmop'][2]:>8.1f}")

    med = {m: np.median([r[m][0] for r in rows]) for m in METHODS}
    print(f"median evaluations: smop {med['smop']:.0f}, bmop {med['bmop']:.0f}, "
          f"nmop {med['nmop']:.0f}")
    print(f"bisection needs {med['bmop'] / med['smop']:.1f}x the evaluations of the secant "
          "hybrid\n")
