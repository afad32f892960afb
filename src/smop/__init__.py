"""Sparse optimization with least-squares constraints.

Solves ``min p(x)  s.t.  ||A x - b|| <= rho`` for sparsity-promoting gauges
``p`` (l1 and weighted sorted-l1) by root finding on the value function of
the companion regularized problem, with adaptive sieving around each
regularized solve. Three root finders are provided: a safeguarded secant
method ("smop"), plain bisection ("bmop") and a generalized-derivative
Newton hybrid ("nmop").
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
    write_iterates_csv,
)
from .inner import (InnerConfig, InnerSolveResult, eta_l, phi_derivative, phi_eval, residual_R,
                    solve_reduced)
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
    RootConfig,
    RootState,
    bisection_solve,
    bracket_init,
    eta,
    eval_beta_fn,
    eval_constructed_fn,
    hybrid_secant_solve,
    newton_hybrid_solve,
    q_order_estimate,
    secant_solve,
    secant_step,
)
from .sieving import SieveConfig, SieveTrace, select_top_k, sieve_solve

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
    "write_iterates_csv",
    "InnerConfig",
    "InnerSolveResult",
    "eta_l",
    "phi_derivative",
    "phi_eval",
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
    "RootConfig",
    "RootState",
    "bisection_solve",
    "bracket_init",
    "eval_beta_fn",
    "eval_constructed_fn",
    "hybrid_secant_solve",
    "newton_hybrid_solve",
    "q_order_estimate",
    "secant_solve",
    "secant_step",
    "SieveConfig",
    "SieveTrace",
    "select_top_k",
    "sieve_solve",
]
