"""Sorted-l1 (SLOPE) regularization and a look inside the sieving loop.

The sorted-l1 penalty weights the k-th largest magnitude by gamma_k, with
nonincreasing weights; it is not separable, so its prox works on the sorted
magnitudes (isotonic projection). The adaptive sieving loop solves reduced
problems on a growing index set until the full-dimension proximal residual
vanishes, which is what makes level-set solves cheap in high dimension.
"""

import numpy as np

from smop import (
    SmopConfig,
    SortedL1,
    SynthSpec,
    lambda_inf,
    linear_weights,
    sieve_solve,
    smop_solve,
    synth_instance,
)

###############################################################################
# The prox of the sorted-l1 penalty: large entries are shrunk by the large
# weights, and ties/reorderings are handled by the isotonic step.
reg2 = SortedL1(np.array([1.0, 0.5]))
print("prox of (3, 1) with weights (1, .5), t=1 :", reg2.prox(np.array([3.0, 1.0]), 1.0))
print("polar of (3, -1)                         :", reg2.polar(np.array([3.0, -1.0])))

###############################################################################
# One regularized solve through the sieving loop, starting from the empty
# index set: watch the working set grow until the full residual is below the
# tolerance tol.
data, _ = synth_instance(SynthSpec(m=120, n=1000, s=12, sigma=0.02, seed=11))
reg = SortedL1(linear_weights(1000))
lam = 0.3 * lambda_inf(reg, data.A, data.b)
res, trace = sieve_solve(data, reg, lam, [], tol=1e-8)
print(f"\nsieve rounds at lam = {lam:.5f} (tol = 1e-8):")
print(f"{'round':>5s} {'|I|':>5s} {'||R||':>10s} {'|J|':>5s} {'added':>5s} {'apg':>5s} "
      f"{'pieces':>6s}")
for s, r in enumerate(trace.rounds):
    print(f"{s:>5d} {r.size_I:>5d} {r.r_norm:>10.2e} {r.size_J:>5d} "
          f"{r.added:>5d} {r.inner_iters:>5d} {r.piece_solves:>6d}")
print(f"converged: {res.converged}, support {np.count_nonzero(res.x)} of {data.A.n}")

###############################################################################
# Full constrained solve with the sorted-l1 penalty.
data = data.with_rho(0.12 * data.bnorm)
result = smop_solve(data, reg, SmopConfig(stoptol=1e-6))
print(f"\nconstrained solve: lambda* = {result.lambda_star:.6f}, eta = {result.eta:.1e}, "
      f"nnz = {result.nnz}, subproblems = {result.n_subproblems}")
