"""Property tests over small adversarial l1 designs.

Designs repeat, negate and zero-pad a few random columns, so Gram matrices on
a support are singular and l1 solutions are not unique; ``rho`` sits near 0
(possibly below the least-squares residual) or near ``||b||``. Every case must
end certified, with ``converged=False``, or with a ``ValueError`` (which
``BracketError`` is) that says what went wrong, within the deadline. Run with
``--hypothesis-show-statistics`` to see how the outcomes are spread.
"""

from datetime import timedelta

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from smop import L1, ProblemData, SmopConfig, SparseMatrix, eta_l, smop_solve


@st.composite
def adversarial_l1_cases(draw):
    m = draw(st.integers(2, 10))
    p = draw(st.integers(1, 4))  # independent base columns
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((m, p))
    cols = list(base.T)
    extras = draw(st.lists(
        st.tuples(st.sampled_from(["duplicate", "negate", "zero"]), st.integers(0, p - 1)),
        max_size=5,
    ))
    for kind, j in extras:
        cols.append({"duplicate": base[:, j], "negate": -base[:, j], "zero": np.zeros(m)}[kind])
    dense = np.column_stack([cols[i] for i in rng.permutation(len(cols))])
    # b in the range of A (rho -> 0 is then feasible) or with a part outside it
    b = base @ rng.standard_normal(p) + draw(st.sampled_from([0.0, 1.0])) * rng.standard_normal(m)
    frac = draw(st.sampled_from([1e-8, 1e-4, 0.5, 1.0 - 1e-4, 1.0 - 1e-8]))
    method = draw(st.sampled_from(["smop", "bmop", "nmop"]))
    return dense, b, frac, method, draw(st.booleans())


@settings(max_examples=60, deadline=timedelta(seconds=5), derandomize=True, database=None)
@given(adversarial_l1_cases())
def test_adversarial_l1_designs_end_cleanly(case):
    dense, b, frac, method, sieving = case
    cfg = SmopConfig(stoptol=1e-8, method=method, sieving=sieving)
    try:
        data = ProblemData(SparseMatrix.from_dense(dense), b)
        data = data.with_rho(frac * data.bnorm)
        res = smop_solve(data, L1(), cfg)
    except ValueError as exc:
        # a rho below the least-squares residual has no root: the lower bracket
        # end runs down to the lam floor
        event(f"{type(exc).__name__}: {str(exc)[:40]}")
        assert "below the least-squares residual" in str(exc) or "did not certify" in str(exc)
        return
    event(f"converged={res.converged}")
    assert np.all(np.isfinite(res.x))
    if res.converged:
        assert abs(res.phi - data.rho) <= cfg.stoptol * max(1.0, data.rho)
        eps_in = min(cfg.inner.kkt_tol, 0.01 * cfg.stoptol * max(1.0, data.rho))
        assert eta_l(res.x, data.A, data.b, L1(), res.lambda_star) <= 10 * eps_in
