"""An exact l1 reference: the lasso path by a LARS walk.

On a segment of the path with active set J and signs s, the solution of
``min 0.5*||A x - b||^2 + lam*||x||_1`` is ``x_J = u - lam*v`` with
``u = G^{-1} A_J^T b`` and ``v = G^{-1} s`` (``G = A_J^T A_J``), and the
residual is ``r0 + lam*w`` with ``r0 = b - A_J u`` orthogonal to
``w = A_J v``. So ``phi^2 = ||r0||^2 + lam^2 ||w||^2`` there, and on the
segment that crosses ``rho`` the root is closed form. The walk starts at
``lambda_inf`` and moves down through joins and drops; it takes no
tolerance from the solver it checks.
"""

from functools import cache

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cholesky, toeplitz

from smop import (
    L1,
    PathSpec,
    ProblemData,
    SmopConfig,
    SparseMatrix,
    SynthSpec,
    smop_solve,
    solve_path,
    synth_instance,
)


def lasso_at_rho(A: np.ndarray, b: np.ndarray, rho: float):
    """``(lam, x)`` on the exact lasso path with ``||A x - b|| = rho``."""
    c = A.T @ b
    lam = float(np.abs(c).max())
    J = [int(np.argmax(np.abs(c)))]
    s = [float(np.sign(c[J[0]]))]
    while True:
        A_J = A[:, J]
        G = A_J.T @ A_J
        u = np.linalg.solve(G, A_J.T @ b)
        v = np.linalg.solve(G, np.array(s))
        r0 = b - A_J @ u
        w = A_J @ v
        # joins: A_j^T (r0 + lam w) = +-lam off J; drops: u_j - lam v_j = 0 on J
        a, d = A.T @ r0, A.T @ w
        with np.errstate(divide="ignore", invalid="ignore"):
            events = np.stack([a / (1.0 - d), -a / (1.0 + d)])
            events[:, J] = np.nan
            drops = u / v
        events[~(events < lam * (1 - 1e-10))] = 0.0
        drops[~(drops < lam * (1 - 1e-10))] = 0.0
        join = np.unravel_index(np.argmax(events), events.shape)
        nxt = max(float(events[join]), float(drops.max()))
        rr, ww = float(r0 @ r0), float(w @ w)
        if rr + nxt * nxt * ww <= rho * rho:
            lam = float(np.sqrt((rho * rho - rr) / ww))
            x = np.zeros(A.shape[1])
            x[J] = u - lam * v
            return lam, x
        if nxt == events[join]:
            J.append(int(join[1]))
            s.append(1.0 if join[0] == 0 else -1.0)
        else:
            k = int(np.argmax(drops))
            del J[k], s[k]
        lam = nxt


def _planted(rng, A, s):
    """``b = A x + 0.01 noise`` for ``s`` random unit-size entries of ``x``."""
    x = np.zeros(A.shape[1])
    x[rng.choice(A.shape[1], s, replace=False)] = rng.choice([-1.0, 1.0], s)
    return A @ x + 0.01 * rng.standard_normal(A.shape[0])


@cache
def _design(name):
    """``(ProblemData, dense A)`` for one reference design."""
    if name.startswith("synth"):
        m, n = map(int, name[5:].split("x"))
        data, _ = synth_instance(SynthSpec(m=m, n=n, s=min(m // 5, 20), sigma=0.01, seed=3))
        return data, data.A.toarray()
    rng = np.random.default_rng(5)
    if name == "toeplitz":
        # columns correlated 0.9^|i - j|
        arr = rng.standard_normal((100, 1000)) @ cholesky(toeplitz(0.9 ** np.arange(1000)))
        arr /= np.linalg.norm(arr, axis=0)
        return ProblemData(SparseMatrix.from_dense(arr), _planted(rng, arr, 10)), arr
    mat = sp.random(300, 3000, density=0.02, random_state=rng, format="csc")  # "sparse"
    A = SparseMatrix.from_scipy(mat)
    assert isinstance(A._T, sp.csr_array)
    arr = A.toarray()
    return ProblemData(A, _planted(rng, arr, 10)), arr


@pytest.mark.parametrize("sieve", [True, False], ids=["sieved", "direct"])
@pytest.mark.parametrize("c", [0.1, 0.3])
@pytest.mark.parametrize("name,dense_limit", [
    ("synth40x120", None), ("synth200x2000", None), ("toeplitz", None), ("sparse", None),
    ("sparse", 0),  # every column block gathered as CSC
])
def test_smop_matches_lars(monkeypatch, name, dense_limit, c, sieve):
    if dense_limit is not None:
        monkeypatch.setattr("smop.problem._DENSE_LIMIT", dense_limit)
    data, arr = _design(name)
    data = ProblemData(data.A, data.b, rho=c * data.bnorm)  # keeps no operator
    assert isinstance(data.A.take_columns([0, 1]), sp.csc_array) == (dense_limit == 0)
    lam, x = lasso_at_rho(arr, data.b, data.rho)
    res = smop_solve(data, L1(), SmopConfig(stoptol=1e-10, sieve=sieve))
    assert res.converged
    assert abs(res.lambda_star - lam) <= 1e-10 * lam
    assert np.linalg.norm(res.x - x) <= 1e-10 * np.linalg.norm(x)


@pytest.mark.parametrize("sieve", [True, False], ids=["sieved", "direct"])
@pytest.mark.parametrize("c", [0.1, 0.3])
@pytest.mark.parametrize("name", ["synth40x120", "synth200x2000", "toeplitz", "sparse"])
def test_path_levels_match_lars(name, c, sieve):
    # every warm-started step against the walk at that step's rho
    data, arr = _design(name)
    data = ProblemData(data.A, data.b)  # keeps no operator
    spec = PathSpec(base_c=c, count=6)
    path = solve_path(data, L1(), spec, SmopConfig(stoptol=1e-10, sieve=sieve))
    assert path.failures == 0
    assert [step.rho for step in path.steps] == spec.rhos(data.bnorm).tolist()
    for step in path.steps:
        lam, x = lasso_at_rho(arr, data.b, step.rho)
        res = step.result
        assert res.converged
        assert abs(res.lambda_star - lam) <= 1e-10 * lam
        assert np.linalg.norm(res.x - x) <= 1e-10 * np.linalg.norm(x)
