"""Quickstart: recover a sparse signal under a residual-norm budget.

We draw a random instance with 20 active coefficients out of 2000, pick the
constraint level rho as a fraction of ||b||, and solve

    min ||x||_1   s.t.   ||A x - b|| <= rho

with the level-set solver. The solver finds the penalty strength lam* whose
regularized solution sits exactly on the constraint boundary, stepping to the
root of the piece of the value function phi and falling back to secant steps.
We check feasibility, activity and support recovery at the end.
"""

import numpy as np

from smop import L1, SmopConfig, SynthSpec, smop_solve, synth_instance

###############################################################################
# Build the instance: unit-norm Gaussian columns, b = A x_true + noise.
spec = SynthSpec(m=200, n=2000, s=20, sigma=0.01, seed=7)
data, x_true = synth_instance(spec)
data = data.with_rho(0.1 * data.bnorm)
print(f"instance: m={spec.m}, n={spec.n}, ||b||={data.bnorm:.4f}, rho={data.rho:.4f}")

###############################################################################
# Solve. The default configuration uses the safeguarded root finder "smop"
# (piece root, then secant) with adaptive sieving around every regularized
# subproblem.
result = smop_solve(data, L1(), SmopConfig(stoptol=1e-6))
print(f"lambda* = {result.lambda_star:.8f}")
print(f"eta     = {result.eta:.2e}  (relative residual |phi - rho| / max(1, rho))")
print(f"nnz     = {result.nnz}, subproblems solved = {result.n_subproblems}, "
      f"wall = {result.wall_ms:.1f} ms")

###############################################################################
# The solution must be feasible and active: the residual norm sits on the
# constraint boundary up to the stopping tolerance.
residual = np.linalg.norm(data.A.matvec(result.x) - data.b)
print(f"||Ax - b|| = {residual:.8f} vs rho = {data.rho:.8f}")
assert residual <= data.rho * (1 + 1e-6)

###############################################################################
# Support recovery: compare the largest entries against the planted signal.
support_true = set(np.flatnonzero(x_true))
support_got = set(np.flatnonzero(result.x))
print(f"true support {len(support_true)} entries, "
      f"recovered {len(support_got)}, overlap {len(support_true & support_got)}")
