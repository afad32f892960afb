import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import smop.driver as driver
import smop.inner as inner
from smop import (
    L1,
    ProblemData,
    SmopConfig,
    SortedL1,
    SparseMatrix,
    SynthSpec,
    eta_l,
    lambda_inf,
    linear_weights,
    phi_derivative,
    phi_eval,
    residual_R,
    smop_solve,
    solve_reduced,
    synth_instance,
)
from smop.inner import _reduced_operator, piece_solve


class TestResidual:
    def test_zero_solution_above_threshold(self):
        A = SparseMatrix.from_dense(np.eye(2))
        b = np.array([3.0, -1.0])
        x = np.zeros(2)
        grad = A.rmatvec(A.matvec(x) - b)
        R = residual_R(x, grad, L1(), 3.0)  # lam = lambda_inf
        np.testing.assert_allclose(R, 0.0, atol=1e-15)

    def test_scalar_fixed_point(self, scalar_data):
        x = np.array([0.7])
        grad = scalar_data.A.rmatvec(scalar_data.A.matvec(x) - scalar_data.b)
        np.testing.assert_allclose(residual_R(x, grad, L1(), 0.3), 0.0, atol=1e-15)

    def test_nonoptimal_point(self, scalar_data):
        x = np.array([0.2])
        grad = scalar_data.A.rmatvec(scalar_data.A.matvec(x) - scalar_data.b)
        assert np.linalg.norm(residual_R(x, grad, L1(), 0.3)) > 0


class TestEtaL:
    def test_zero_at_optimum(self, scalar_data):
        assert eta_l([0.7], scalar_data.A, scalar_data.b, L1(), 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_positive_below_threshold(self, scalar_data):
        assert eta_l([0.0], scalar_data.A, scalar_data.b, L1(), 0.3) > 0


# the reduced operator's forms: a dense or CSC block, with or without G
_FORMS = ["dense-gram", "dense-implicit", "csc-gram", "csc-implicit"]


class TestReducedOperator:
    @pytest.mark.parametrize("dense_limit", [4_194_304, 0])
    def test_gram_formed_when_no_larger_than_block(self, monkeypatch, dense_limit):
        # G has k*k entries and a full block of 40 rows 40*k: at k = m they
        # are equal and G is formed, one column more and it is not
        monkeypatch.setattr("smop.problem._DENSE_LIMIT", dense_limit)
        data, _ = synth_instance(SynthSpec(m=40, n=120, s=5, sigma=0.01, seed=0))
        z = np.random.default_rng(1).standard_normal(41)
        for k, formed in ((40, True), (41, False)):
            A_I, _, G, gram_mv, _ = _reduced_operator(data, np.arange(k))
            assert isinstance(A_I, np.ndarray) == (dense_limit > 0)
            assert A_I.size == 40 * k
            assert (G is not None) is formed
            np.testing.assert_allclose(gram_mv(z[:k]), A_I.T @ (A_I @ z[:k]), rtol=1e-12)

    def test_sparse_block_counts_nonzeros(self, monkeypatch):
        # a CSC block's size is its nonzero count: at 1/4 fill, 40 columns of
        # 40 rows hold about 400 nonzeros, too few for a 40x40 G
        monkeypatch.setattr("smop.problem._DENSE_LIMIT", 0)
        rng = np.random.default_rng(2)
        arr = rng.standard_normal((40, 120)) * (rng.random((40, 120)) < 0.25)
        data = ProblemData(SparseMatrix.from_dense(arr), rng.standard_normal(40))
        formed = []
        for k in (5, 10, 15, 20, 40):
            A_I, _, G, _, _ = _reduced_operator(data, np.arange(k))
            assert A_I.size == np.count_nonzero(arr[:, :k])
            assert (G is not None) == (k * k <= A_I.size)
            formed.append(G is not None)
        assert formed[0] and not formed[-1]  # both sides of the rule are reached

    def test_dense_design_gathers_dense_above_limit(self, monkeypatch):
        # a design stored dense is never gathered into CSC: above the limit
        # its block is the same array, and the solve the same bits
        monkeypatch.setattr("smop.problem._MIN_DENSE_ENTRIES", 0)
        spec = SynthSpec(m=30, n=90, s=4, sigma=0.01, seed=5)
        data, _ = synth_instance(spec)
        assert isinstance(data.A._T, np.ndarray)
        lam = 0.2 * lambda_inf(L1(), data.A, data.b)
        idx = np.arange(90)
        below = solve_reduced(data, L1(), lam, idx)
        monkeypatch.setattr("smop.problem._DENSE_LIMIT", 0)
        data, _ = synth_instance(spec)  # a new instance keeps no operator
        A_I = _reduced_operator(data, idx)[0]
        assert isinstance(A_I, np.ndarray)
        np.testing.assert_array_equal(A_I, data.A.toarray())
        above = solve_reduced(data, L1(), lam, idx)
        assert above.iters == below.iters
        np.testing.assert_array_equal(above.x, below.x)


class TestPieceSolve:
    @staticmethod
    def _system(seed, k=12, m=30):
        """A positive definite ``G_JJ``, signs, three clusters and a right-hand side."""
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, k))
        s = rng.choice([-1.0, 1.0], k)
        starts = np.array([0, 4, 9])
        return A.T @ A, s, starts, rng.standard_normal(starts.size)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_cho_factor_bit_for_bit(self, seed):
        G_JJ, s, starts, rhs = self._system(seed)
        M = s[:, None] * G_JJ * s
        M = np.add.reduceat(np.add.reduceat(M, starts, axis=0), starts, axis=1)
        z = cho_solve(cho_factor(M), rhs)
        want = s * np.repeat(z, np.diff(starts, append=s.size))
        assert piece_solve(G_JJ, s, starts, rhs, 30).tobytes() == want.tobytes()

    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    def test_not_finite_raises_before_lapack(self, monkeypatch, where):
        G_JJ, s, starts, rhs = self._system(0)
        if where == "matrix":
            G_JJ[1, 2] = G_JJ[2, 1] = np.nan
        else:
            rhs[0] = np.inf
        for name in ("dpotrf", "dpotrs"):
            monkeypatch.setattr(f"smop.inner.{name}", None)  # never reached
        monkeypatch.setattr(np.linalg, "lstsq", None)
        for m in (30, 2):  # Cholesky, and more clusters than rows
            with pytest.raises(ValueError, match="piece system must be finite"):
                piece_solve(G_JJ, s, starts, rhs, m)

    def test_singular_gives_minimum_norm_solution(self):
        # duplicate columns: the second leading minor is exactly zero
        A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        ones = np.ones(3)
        x = piece_solve(A.T @ A, ones, np.arange(3), ones, 3)
        np.testing.assert_array_equal(x, np.linalg.lstsq(A.T @ A, ones, rcond=None)[0])
        np.testing.assert_allclose(x, [0.5, 0.5, 1.0], rtol=1e-14)

    def test_more_clusters_than_rows_skips_cholesky(self, monkeypatch):
        monkeypatch.setattr("smop.inner.dpotrf", None)  # never reached
        A = np.array([[1.0, 2.0]])
        rhs = np.array([1.0, 2.0])
        x = piece_solve(A.T @ A, np.ones(2), np.arange(2), rhs, 1)
        np.testing.assert_array_equal(x, np.linalg.lstsq(A.T @ A, rhs, rcond=None)[0])
        np.testing.assert_allclose(x, [0.2, 0.4], rtol=1e-14)


def _gather_counter(monkeypatch):
    """Count calls of ``SparseMatrix.take_columns_dense``."""
    calls = []
    take = SparseMatrix.take_columns_dense
    monkeypatch.setattr(SparseMatrix, "take_columns_dense",
                        lambda self, idx: calls.append(len(idx)) or take(self, idx))
    return calls


class TestDerivativeColumns:
    """``phi_derivative`` gathers the support's columns with
    ``SparseMatrix.take_columns``, whatever operator its evaluation kept on
    ``data``."""

    # 300x2000 is stored dense (columns gathered in F order), 200x1500 as CSR
    # (C order)
    SIZES = [(300, 2000, True), (200, 1500, False)]

    @pytest.mark.parametrize("kind", ["l1", "slope"])
    @pytest.mark.parametrize("m,n,dense", SIZES)
    def test_equals_fresh_gather(self, monkeypatch, kind, m, n, dense):
        data, _ = synth_instance(SynthSpec(m=m, n=n, s=20, sigma=0.01, seed=4))
        assert isinstance(data.A._T, np.ndarray) == dense
        reg = L1() if kind == "l1" else SortedL1(linear_weights(n))
        lam = 0.1 * lambda_inf(reg, data.A, data.b)
        res, _ = phi_eval(data, reg, lam, tol=1e-10)
        J = reg.piece(res.x)[0]
        calls = _gather_counter(monkeypatch)
        kept = phi_derivative(data, reg, res.x, lam, res.phi)
        fresh = phi_derivative(ProblemData(data.A, data.b), reg, res.x, lam, res.phi)
        assert calls == [J.size, J.size]
        assert kept == fresh
        # a dense design's columns are rows of A^T (F order), a CSR design's
        # are scattered into a C-ordered block; the products' last bits
        # depend on the layout
        A_J = data.A.take_columns(J)
        assert isinstance(A_J, np.ndarray) and J.size > 1
        assert A_J.flags.f_contiguous == dense and A_J.flags.c_contiguous == (not dense)
        np.testing.assert_array_equal(A_J, data.A.toarray()[:, J])

    def test_support_outside_kept_set_gathers(self, monkeypatch):
        data, _ = synth_instance(SynthSpec(m=60, n=400, s=8, sigma=0.01, seed=2))
        lam = 0.2 * lambda_inf(L1(), data.A, data.b)
        res, _ = phi_eval(data, L1(), lam, tol=1e-10)
        I = np.frombuffer(data.__dict__["_reduced_operator"][0], dtype=np.int64)
        x = res.x.copy()
        x[np.setdiff1d(np.arange(400), I)[0]] = 1e-3
        calls = _gather_counter(monkeypatch)
        kept = phi_derivative(data, L1(), x, lam, res.phi)
        assert calls == [np.count_nonzero(x)]
        assert kept == phi_derivative(ProblemData(data.A, data.b), L1(), x, lam, res.phi)

    @pytest.mark.parametrize("kind", ["l1", "slope"])
    @pytest.mark.parametrize("m,n,dense", SIZES)
    def test_one_gather_per_derivative(self, monkeypatch, kind, m, n, dense):
        data, _ = synth_instance(SynthSpec(m=m, n=n, s=20, sigma=0.01, seed=1))
        data = data.with_rho(0.1 * data.bnorm)
        reg = L1() if kind == "l1" else SortedL1(linear_weights(n))
        calls = _gather_counter(monkeypatch)
        asked = []

        def counted(*args):
            before = len(calls)
            out = phi_derivative(*args)
            asked.append(len(calls) - before)
            return out

        monkeypatch.setattr(driver, "phi_derivative", counted)
        res = smop_solve(data, reg, SmopConfig(stoptol=1e-8))
        assert res.converged and asked and asked == [1] * len(asked)


class TestSolveReduced:
    def test_scalar_closed_form(self, scalar_data):
        res = solve_reduced(scalar_data, L1(), 0.3, [0])
        assert res.converged
        np.testing.assert_allclose(res.x, [0.7], atol=1e-9)
        assert res.phi == pytest.approx(0.3, abs=1e-9)

    def test_diagonal_closed_form(self, diagonal_data):
        # coordinatewise calculus: x1 = 1 - lam, x2 = (2 - lam)/4 for lam <= 1
        res = solve_reduced(diagonal_data, L1(), 0.4, [0, 1])
        np.testing.assert_allclose(res.x, [0.6, 0.4], atol=1e-9)
        assert res.phi == pytest.approx(0.4 * np.sqrt(5) / 2, abs=1e-9)

    def test_warm_start_at_solution_is_immediate(self, diagonal_data):
        res = solve_reduced(diagonal_data, L1(), 0.4, [0, 1], x0=np.array([0.6, 0.4]))
        assert res.converged
        assert res.iters <= 2

    def test_empty_index_set(self, scalar_data):
        res = solve_reduced(scalar_data, L1(), 0.3, [])
        assert res.iters == 0
        np.testing.assert_array_equal(res.x, [0.0])
        assert res.phi == 1.0

    def test_restricted_support(self, diagonal_data):
        res = solve_reduced(diagonal_data, L1(), 0.4, [1])
        assert res.x[0] == 0.0
        assert res.x[1] == pytest.approx(0.4, abs=1e-9)

    def test_index_validation(self, diagonal_data):
        with pytest.raises(ValueError):
            solve_reduced(diagonal_data, L1(), 0.4, [0, 0])
        with pytest.raises(ValueError):
            solve_reduced(diagonal_data, L1(), 0.4, [5])

    def test_max_iters_flags_nonconverged(self, monkeypatch, apg_only, diagonal_data):
        # the cap ends a solve by APG alone uncertified; the Newton-first solve
        # chains from the start point's one-cluster pattern to the solution's
        # two clusters (0.6, 0.5) and certifies before any APG iteration
        monkeypatch.setattr("smop.inner.MAX_ITERS", 1)
        reg = SortedL1(linear_weights(2))
        res = solve_reduced(diagonal_data, apg_only(reg), 0.4, [0, 1], tol=1e-14)
        assert not res.converged and res.iters == 1
        newton = solve_reduced(diagonal_data, reg, 0.4, [0, 1], tol=1e-14)
        assert newton.converged and newton.iters == 0

    def test_max_iters_flags_nonconverged_l1_wrong_first_support(self, monkeypatch):
        # the polished points of the start point and of the first iterate have
        # more nonzeros than the 30 rows and differ, so no piece is solved
        # before the cap; the solution has 9
        monkeypatch.setattr("smop.inner.MAX_ITERS", 1)
        data, _ = synth_instance(SynthSpec(m=30, n=80, s=5, sigma=0.05, seed=2))
        lam = 0.1 * lambda_inf(L1(), data.A, data.b)
        res = solve_reduced(data, L1(), lam, np.arange(80), tol=1e-14)
        assert not res.converged

    def test_one_iteration_certifies_l1_on_identified_support(self, monkeypatch,
                                                              diagonal_data):
        # the start point's polished point has the solution's support and
        # signs, so the Newton step lands on the solution before any APG
        # iteration
        monkeypatch.setattr("smop.inner.MAX_ITERS", 1)
        res = solve_reduced(diagonal_data, L1(), 0.4, [0, 1], tol=1e-14)
        assert res.converged
        assert res.iters == 0
        assert eta_l(res.x, diagonal_data.A, diagonal_data.b, L1(), 0.4) <= 1e-14
        np.testing.assert_allclose(res.x, [0.6, 0.4], atol=1e-15)

    @pytest.mark.parametrize("kind", ["l1", "slope"])
    def test_start_at_solution_forms_no_bound(self, monkeypatch, kind):
        # a start point at the solution certifies at the first check, before
        # any APG step or piece solve, so the step bound L is never formed
        data, _ = synth_instance(SynthSpec(40, 120, 8, 0.01, 3))
        reg = L1() if kind == "l1" else SortedL1(linear_weights(120))
        lam = 0.2 * lambda_inf(reg, data.A, data.b)
        idx = np.arange(120)
        sol = solve_reduced(data, reg, lam, idx, tol=1e-12)
        assert sol.converged
        calls = []
        monkeypatch.setattr(inner, "_power_iteration_bound", lambda *a: calls.append(a))
        fresh = ProblemData(data.A, data.b)  # keeps no operator
        res = solve_reduced(fresh, reg, lam, idx, x0=sol.x, tol=1e-10)
        assert res.converged
        assert (res.iters, res.piece_solves, calls) == (0, 0, [])

    def test_apg_fallback_forms_the_bound_once(self, monkeypatch):
        # from the zero start the Newton chain cannot certify here, so APG
        # runs: it forms L once, and a second solve on the same index set
        # reads the bound kept with the operator
        data, _ = synth_instance(SynthSpec(m=30, n=80, s=5, sigma=0.05, seed=2))
        lam = 0.1 * lambda_inf(L1(), data.A, data.b)
        calls = []
        bound = inner._power_iteration_bound
        monkeypatch.setattr(inner, "_power_iteration_bound",
                            lambda *a: calls.append(a) or bound(*a))
        idx = np.arange(80)
        first = solve_reduced(data, L1(), lam, idx, tol=1e-14)
        assert first.converged and first.iters > 0 and first.piece_solves > 0
        assert len(calls) == 1
        again = solve_reduced(data, L1(), lam, idx, tol=1e-14)
        assert again.iters == first.iters and len(calls) == 1
        np.testing.assert_array_equal(again.x, first.x)

    @pytest.mark.parametrize("max_iters", [1, 2, 7, 20000])
    @pytest.mark.parametrize("kind", ["l1", "slope"])
    def test_returned_certificate_is_full_eta_l(self, monkeypatch, apg_only, kind, max_iters):
        # over all columns the reduced certificate is the full-dimension one,
        # whether the solve ended at a passed check or ran out of iterations:
        # the cap ends a solve by APG alone, and the Newton-first solve
        # certifies
        data, _ = synth_instance(SynthSpec(40, 120, 8, 0.01, 3))
        reg = L1() if kind == "l1" else SortedL1(linear_weights(120))
        lam = 0.2 * lambda_inf(reg, data.A, data.b)
        newton = solve_reduced(data, reg, lam, np.arange(120))
        assert newton.converged
        monkeypatch.setattr("smop.inner.MAX_ITERS", max_iters)
        res = solve_reduced(data, apg_only(reg), lam, np.arange(120))
        assert res.converged == (max_iters == 20000)
        for r in (newton, res):
            assert r.eta_l == pytest.approx(
                eta_l(r.x, data.A, data.b, reg, lam), rel=1e-6, abs=1e-13
            )

    @pytest.mark.parametrize("form", _FORMS)
    def test_newton_step_needs_a_tenth_of_apg_iterations(self, monkeypatch, apg_only_l1, form):
        # the l1 solve must reach the point of APG alone in a tenth of the
        # iterations on every operator form: G is formed on the 60 columns of
        # the 60-row design and not on all 400
        block, gram = form.split("-")
        if block == "csc":
            monkeypatch.setattr("smop.problem._DENSE_LIMIT", 0)
        data, _ = synth_instance(SynthSpec(m=60, n=400, s=6, sigma=0.02, seed=1))
        lam = 0.25 * lambda_inf(L1(), data.A, data.b)
        tol = 1e-10
        idx = np.arange(60 if gram == "gram" else 400)
        A_I, _, G, _, _ = _reduced_operator(data, idx)
        assert isinstance(A_I, np.ndarray) == (block == "dense")
        assert (G is not None) == (gram == "gram")
        newton = solve_reduced(data, L1(), lam, idx, tol=tol)
        apg = solve_reduced(data, apg_only_l1, lam, idx, tol=tol)
        assert newton.converged and apg.converged
        assert newton.iters <= apg.iters / 10
        assert abs(newton.phi - apg.phi) <= tol
        assert np.linalg.norm(newton.y - apg.y) <= tol
        assert np.linalg.norm(newton.x - apg.x) <= 10 * tol

    def test_singular_support_gram_certifies(self, apg_only_l1):
        # columns [u, u, -u, ...]: the solution spreads over the three copies,
        # so G_JJ on its support is singular; its minimum-norm Newton point
        # splits the weight evenly and certifies (APG alone: 49 iterations)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(30)
        dense = np.column_stack([u, u, -u, rng.standard_normal((30, 7))])
        data = ProblemData(SparseMatrix.from_dense(dense), rng.standard_normal(30) + 2 * u)
        lam = 0.1 * lambda_inf(L1(), data.A, data.b)
        res = solve_reduced(data, L1(), lam, np.arange(10), tol=1e-10)
        assert res.converged
        assert np.count_nonzero(res.x[:3]) == 3
        assert eta_l(res.x, data.A, data.b, L1(), lam) <= 1e-10
        apg = solve_reduced(data, apg_only_l1, lam, np.arange(10), tol=1e-10)
        assert 5 * res.iters <= apg.iters

    @pytest.mark.parametrize("form", _FORMS)
    def test_power_start_in_null_space(self, monkeypatch, form):
        # columns [u, -u], once or 16 times: the all-ones power start is a
        # null vector of the Gram product, so the eigenvalue estimate must
        # fall back to its trace (G is formed on 2 columns of 30 rows, not
        # on 32; dense_limit=0 keeps the reduced matrix sparse). The solve
        # certifies on its Newton chain; the bound is formed here
        block, gram = form.split("-")
        if block == "csc":
            monkeypatch.setattr("smop.problem._DENSE_LIMIT", 0)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(30)
        copies = 1 if gram == "gram" else 16
        data = ProblemData(SparseMatrix.from_dense(np.tile(np.column_stack([u, -u]), copies)),
                           rng.standard_normal(30))
        idx = np.arange(2 * copies)
        A_I, _, G, _, lipschitz = _reduced_operator(data, idx)
        assert isinstance(A_I, np.ndarray) == (block == "dense")
        assert (G is not None) == (gram == "gram")
        # the trace, here lambda_max itself; a power estimate would read 1.1x
        assert lipschitz() == pytest.approx(copies * 2 * float(u @ u), rel=1e-12)
        res = solve_reduced(data, L1(), 0.1, idx)
        assert np.all(np.isfinite(res.x))
        assert res.converged
        assert eta_l(res.x, data.A, data.b, L1(), 0.1) <= 1e-8

    def test_monotone_objective_trace(self, apg_only_l1):
        # APG values each iterate it compares through the penalty; an objective
        # above the last accepted one must be followed at once by the restart's
        # value, and that value must be no higher. The penalty has no Newton
        # point, so APG runs long enough to restart
        class RecordingL1(type(apg_only_l1)):
            def __init__(self):
                self.points = []

            def value(self, x):
                self.points.append(np.array(x, dtype=np.float64))
                return super().value(x)

        data, _ = synth_instance(SynthSpec(m=30, n=80, s=5, sigma=0.05, seed=2))
        lam = 0.3 * lambda_inf(L1(), data.A, data.b)
        reg = RecordingL1()
        res = solve_reduced(data, reg, lam, np.arange(80), tol=1e-10)
        assert res.converged
        # the last call values the returned point for res.objective
        np.testing.assert_array_equal(reg.points[-1], res.x)
        objs = [0.5 * float(np.sum((data.A.matvec(z) - data.b) ** 2)) + lam * L1().value(z)
                for z in reg.points[:-1]]
        tol = 1e-12 * max(objs)
        accepted, i, restarts = objs[0], 1, 0
        while i < len(objs):
            if objs[i] > accepted + tol:
                assert i + 1 < len(objs) and objs[i + 1] <= accepted + tol
                accepted, i, restarts = objs[i + 1], i + 2, restarts + 1
            else:
                accepted, i = objs[i], i + 1
        assert restarts >= 1


class TestPhiEval:
    def test_zero_above_threshold(self, diagonal_data):
        lam_top = lambda_inf(L1(), diagonal_data.A, diagonal_data.b)  # = 2
        res, _ = phi_eval(diagonal_data, L1(), 1.01 * lam_top, sieve=False)
        np.testing.assert_array_equal(res.x, np.zeros(2))
        assert res.phi == diagonal_data.bnorm
        assert np.linalg.norm(res.x) <= 1e-12

    def test_scalar(self, scalar_data):
        res, _ = phi_eval(scalar_data, L1(), 0.3, sieve=False)
        assert res.phi == pytest.approx(0.3, abs=1e-9)

    def test_diagonal(self, diagonal_data):
        res, _ = phi_eval(diagonal_data, L1(), 0.4, sieve=False)
        assert res.phi == pytest.approx(0.4472135954999579, abs=1e-9)

    def test_rejects_nonpositive_lam(self, scalar_data):
        with pytest.raises(ValueError):
            phi_eval(scalar_data, L1(), 0.0, sieve=False)

    def test_sieved_equals_direct(self):
        data, _ = synth_instance(SynthSpec(m=40, n=120, s=6, sigma=0.02, seed=3))
        lam = 0.25 * lambda_inf(L1(), data.A, data.b)
        direct, _ = phi_eval(data, L1(), lam, tol=1e-10, sieve=False)
        sieved, _ = phi_eval(data, L1(), lam, tol=1e-10)
        assert sieved.phi == pytest.approx(direct.phi, abs=1e-8)
        assert sieved.eta_l <= 1e-9


def _random_instances(seeds, m=40, n=100, s=5):
    for seed in seeds:
        data, _ = synth_instance(SynthSpec(m=m, n=n, s=s, sigma=0.05, seed=seed))
        yield data


class TestSolverInvariants:
    def test_phi_monotone_on_grid(self):
        eps_in = 1e-9
        for data in _random_instances([0, 1]):
            for reg in (L1(), SortedL1(linear_weights(data.A.n))):
                lam_top = lambda_inf(reg, data.A, data.b)
                grid = np.linspace(0.1, 1.0, 10) * lam_top
                phis = [phi_eval(data, reg, lam, tol=eps_in, sieve=False)[0].phi
                        for lam in grid]
                diffs = np.diff(phis)
                assert np.all(diffs >= -10 * eps_in)
                # strictly increasing within solver tolerance on (0, lam_inf]
                assert np.all(diffs > 0)

    def test_gauge_kkt_at_convergence(self):
        for data in _random_instances([4]):
            for reg in (L1(), SortedL1(linear_weights(data.A.n))):
                lam = 0.3 * lambda_inf(reg, data.A, data.b)
                res, _ = phi_eval(data, reg, lam, tol=1e-10, sieve=False)
                u = data.A.rmatvec(res.y)
                assert reg.polar(u) <= lam * (1 + 1e-6)
                gap = abs(res.x @ u - lam * reg.value(res.x))
                assert gap <= 1e-6 * (1 + lam * reg.value(res.x))

    def test_dual_residual_unique_across_warm_starts(self):
        eps_in = 1e-9
        rng = np.random.default_rng(11)
        for data in _random_instances([5]):
            lam = 0.3 * lambda_inf(L1(), data.A, data.b)
            r1, _ = phi_eval(data, L1(), lam, tol=eps_in, sieve=False)
            r2, _ = phi_eval(data, L1(), lam, x0=rng.standard_normal(data.A.n), tol=eps_in,
                             sieve=False)
            assert np.linalg.norm(r1.y - r2.y) <= 100 * eps_in

    def test_full_dim_eta_after_sieve(self):
        eps_in = 1e-9
        for data in _random_instances([6]):
            lam = 0.3 * lambda_inf(L1(), data.A, data.b)
            res, _ = phi_eval(data, L1(), lam, tol=eps_in)
            recomputed = eta_l(res.x, data.A, data.b, L1(), lam)
            assert recomputed <= 10 * eps_in

    def test_phi_recomputed_from_x(self, diagonal_data):
        res, _ = phi_eval(diagonal_data, L1(), 0.4, sieve=False)
        phi_direct = np.linalg.norm(diagonal_data.b - diagonal_data.A.matvec(res.x))
        assert abs(res.phi - phi_direct) <= 1e-12
