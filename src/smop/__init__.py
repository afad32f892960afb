"""Sparse optimization with least-squares constraints.

Solves ``min p(x)  s.t.  ||A x - b|| <= rho`` for sparsity-promoting gauges
``p`` (l1 and weighted sorted-l1) by root finding on the value function of
the companion regularized problem, with adaptive sieving around each
regularized solve. Two root finders are provided: a safeguarded secant
method ("smop"), which first steps to the root of the piece of the value
function and takes the secant step as the fallback, and plain bisection
("bmop").
"""

from .driver import (
    METHODS,
    EvalRecord,
    PathResult,
    PathSpec,
    PathStep,
    SmopConfig,
    SmopResult,
    nnz,
    smop_solve,
    solve_path,
)
from .inner import InnerSolveResult, eta_l, phi_derivative, residual_R, solve_reduced
from .problem import (
    LibsvmFormatError,
    ProblemData,
    SparseMatrix,
    SynthSpec,
    libsvm_read,
    libsvm_write,
    synth_instance,
)
from .regularizers import (
    L1,
    Regularizer,
    SortedL1,
    constant_weights,
    lambda_inf,
    linear_weights,
    make_regularizer,
)
from .rootfind import (
    BracketError,
    DegenerateSecantError,
    RootState,
    bisection_solve,
    eta,
    eval_beta_fn,
    eval_constructed_fn,
    hybrid_secant_solve,
    q_order_estimate,
    secant_solve,
    secant_step,
)
from .sieving import SieveRound, SieveTrace, phi_eval, select_top_k, sieve_solve

__version__ = "0.1.0"

__all__ = [
    "METHODS",
    "EvalRecord",
    "PathResult",
    "PathSpec",
    "PathStep",
    "SmopConfig",
    "SmopResult",
    "eta",
    "nnz",
    "smop_solve",
    "solve_path",
    "InnerSolveResult",
    "eta_l",
    "phi_derivative",
    "residual_R",
    "solve_reduced",
    "LibsvmFormatError",
    "ProblemData",
    "SparseMatrix",
    "SynthSpec",
    "libsvm_read",
    "libsvm_write",
    "synth_instance",
    "L1",
    "Regularizer",
    "SortedL1",
    "constant_weights",
    "lambda_inf",
    "linear_weights",
    "make_regularizer",
    "BracketError",
    "DegenerateSecantError",
    "RootState",
    "bisection_solve",
    "eval_beta_fn",
    "eval_constructed_fn",
    "hybrid_secant_solve",
    "q_order_estimate",
    "secant_solve",
    "secant_step",
    "SieveRound",
    "SieveTrace",
    "phi_eval",
    "select_top_k",
    "sieve_solve",
]
