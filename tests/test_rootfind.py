import math

import numpy as np
import pytest

import smop
from smop import (
    BracketError,
    DegenerateSecantError,
    L1,
    ProblemData,
    SmopConfig,
    SortedL1,
    SparseMatrix,
    bisection_solve,
    bracket_init,
    eval_beta_fn,
    eval_constructed_fn,
    hybrid_secant_solve,
    phi_derivative,
    q_order_estimate,
    secant_solve,
    secant_step,
)
from smop.cli import sci
from smop.driver import _PhiOracle
from smop.inner import KKT_TOL

# iterate tables of the plain secant method on the two scalar test functions,
# printed at 2 significant digits
TABLE_BETA = {
    1.1: ["-5.1e-5", "-4.3e-6", "2.2e-10", "-2.2e-11", "-1.8e-12",
          "4.1e-23", "-4.1e-24", "-3.4e-25"],
    1.5: ["-5.1e-5", "-1.7e-5", "8.4e-10", "-4.2e-10", "-1.1e-10",
          "4.5e-20", "-2.2e-20", "-5.6e-21"],
    2.1: ["-5.1e-5", "-2.6e-5", "1.3e-9", "-1.5e-9", "-5.1e-10",
          "7.4e-19", "-8.2e-19", "-2.8e-19"],
}
TABLE_CONSTRUCTED_X = ["1.7e-1", "3.6e-2", "4.0e-3", "1.0e-4", "2.7e-7",
                       "2.0e-11", "4.0e-18", "6.1e-29"]
TABLE_CONSTRUCTED_F = ["1.9e-1", "3.7e-2", "4.0e-3", "1.0e-4", "2.7e-7",
                       "2.0e-11", "4.0e-18", "6.1e-29"]


def scalar_x(lam):
    """Solution of the 1x1 identity instance with b = 1."""
    return np.array([max(1.0 - float(lam), 0.0)])


def scalar_phi(lam):
    """phi of the 1x1 identity instance with b = 1."""
    return min(float(lam), 1.0)


def diagonal_x(lam):
    """Solution of the diag(1, 2) instance with b = (1, 1)."""
    lam = float(lam)
    return np.array([max(1.0 - lam, 0.0), max(2.0 - lam, 0.0) / 4.0])


def diagonal_phi(lam):
    """phi of the diag(1, 2) instance with b = (1, 1); affine slope sqrt(5)/2
    on (0, 1], then sqrt(1 + lam^2/4) up to lam_inf = 2."""
    x = diagonal_x(lam)
    y = np.array([1.0, 1.0]) - np.array([x[0], 2.0 * x[1]])
    return float(np.linalg.norm(y))


def l1_dphi(data, x_of, phi):
    """Generalized derivative of ``phi`` for the l1 penalty on the instance
    ``data``, at the solution ``x_of(lam)``."""
    return lambda lam: phi_derivative(data, L1(), x_of(lam), lam, phi(lam))


class TestSecantStep:
    def test_affine_exact(self):
        assert secant_step(1.0, 0.0, 1.0, -1.0) == 0.5

    def test_root_is_fixed_point(self):
        assert secant_step(0.7, 0.3, 0.0, -1.0) == 0.7

    def test_degenerate(self):
        with pytest.raises(DegenerateSecantError):
            secant_step(1.0, 0.0, 2.0, 2.0)

    def test_first_table_iterate(self):
        f = lambda x: eval_beta_fn(x, 1.1)
        got = secant_step(0.005, 0.01, f(0.005), f(0.01))
        assert sci(got) == "-5.1e-5"


class TestSecantSolve:
    def test_affine_one_step(self):
        iters = secant_solve(lambda x: x - 2.0, 0.0, 1.0)
        np.testing.assert_allclose(iters, [2.0])

    @pytest.mark.parametrize("beta", [1.1, 1.5, 2.1])
    def test_beta_tables(self, beta):
        iters = secant_solve(lambda x: eval_beta_fn(x, beta), 0.01, 0.005, 0.0, 8)
        assert [sci(v) for v in iters] == TABLE_BETA[beta]

    def test_constructed_table(self):
        iters = secant_solve(eval_constructed_fn, 0.545, 0.5, 0.0, 8)
        assert [sci(v) for v in iters] == TABLE_CONSTRUCTED_X
        assert [sci(eval_constructed_fn(v)) for v in iters] == TABLE_CONSTRUCTED_F

    def test_degenerate_aborts(self):
        with pytest.raises(DegenerateSecantError):
            secant_solve(lambda x: 1.0, 0.0, 1.0, 0.0, 5)

    @pytest.mark.parametrize("beta", [1.1, 1.5, 2.1])
    def test_linear_factor_matches_slope_mismatch(self, beta):
        # the one-sided slopes at the root are 1 and beta, so consecutive
        # error ratios are bounded by alpha = beta - 1 (a contraction only
        # when alpha < 1)
        alpha = beta - 1.0
        it = np.abs(secant_solve(lambda x: eval_beta_fn(x, beta), 0.01, 0.005, 0.0, 8))
        ratios = it[1:] / it[:-1]
        assert np.max(ratios) <= alpha * (1 + 1e-9)
        if alpha < 1:
            assert np.all(ratios < 1)

    @pytest.mark.parametrize("beta", [1.1, 1.5, 2.1])
    def test_three_step_quadratic_contraction(self, beta):
        # |x_{k+3}| = O(|x_k|^2) with a constant observed at alpha = beta - 1
        it = np.abs(secant_solve(lambda x: eval_beta_fn(x, beta), 0.01, 0.005, 0.0, 8))
        for k in range(len(it) - 3):
            assert it[k + 3] <= (beta - 1.0 + 0.01) * it[k] ** 2


class TestScalarFunctions:
    def test_beta_values(self):
        assert eval_beta_fn(0.0, 1.5) == 0.0
        assert eval_beta_fn(-0.5, 1.5) == -0.25
        assert eval_beta_fn(0.5, 1.5) == 0.375
        with pytest.raises(ValueError):
            eval_beta_fn(0.1, 0.0)

    def test_constructed_values(self):
        assert eval_constructed_fn(0.5) == pytest.approx(2.0 / 3.0)
        assert eval_constructed_fn(0.25) == pytest.approx(-1.0 / 12.0 + 1.5 * 0.25)
        assert eval_constructed_fn(-1.0, kappa=1.0) == -1.0
        assert eval_constructed_fn(0.0) == 0.0
        assert eval_constructed_fn(2.0) == pytest.approx(4.0 - 1.0 / 3.0)

    def test_constructed_continuity_at_dyadic_points(self):
        for k in range(1, 30):
            x = 2.0 ** -k
            left = eval_constructed_fn(np.nextafter(x, 0.0))
            right = eval_constructed_fn(np.nextafter(x, 1.0))
            assert abs(left - eval_constructed_fn(x)) < 1e-12
            assert abs(right - eval_constructed_fn(x)) < 1e-12


class TestQOrder:
    def test_golden_ratio_sequence(self):
        q = 1.618
        e = [0.5 ** (q ** k) for k in range(1, 9)]
        assert q_order_estimate(e) == pytest.approx(q, abs=0.02)

    def test_linear_sequence(self):
        e = [2.0 ** -k for k in range(1, 9)]
        assert q_order_estimate(e) == pytest.approx(1.0, abs=1e-9)

    def test_constructed_iterates_superlinear(self):
        iters = secant_solve(eval_constructed_fn, 0.545, 0.5, 0.0, 8)
        order = q_order_estimate(np.abs(iters))
        assert 1.45 <= order <= 1.8

    def test_errors(self):
        with pytest.raises(ValueError):
            q_order_estimate([1.0, 0.5, 0.25])
        with pytest.raises(ValueError):
            q_order_estimate([1.0, 0.5, 0.25, -0.1, 0.05])
        with pytest.raises(ValueError):
            q_order_estimate([1.0, 0.5, 0.6, 0.4, 0.3])


class TestHybridSecant:
    def test_scalar_instance(self, scalar_data):
        oracle = _PhiOracle(scalar_data, L1(), KKT_TOL, False)
        lam, state = hybrid_secant_solve(oracle, 0.3, 0.095, 0.95, 1e-12)
        assert state.converged
        assert lam == pytest.approx(0.3, abs=1e-10)
        np.testing.assert_allclose(oracle.xs[lam], [0.7], atol=1e-10)

    def test_diagonal_instance(self):
        lam, state = hybrid_secant_solve(diagonal_phi, 0.5, 0.19, 1.9, 1e-12)
        assert lam == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-10)

    def test_boundary_rho_equals_phi_at_upper_point(self):
        lam, state = hybrid_secant_solve(scalar_phi, 0.95, 0.095, 0.95, 1e-10)
        assert lam == 0.95
        assert state.converged

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            hybrid_secant_solve(scalar_phi, 0.05, 0.095, 0.95, 1e-10)
        with pytest.raises(BracketError):
            hybrid_secant_solve(scalar_phi, 0.3, 0.95, 0.095, 1e-10)

    def test_bracket_preserved_and_never_widens(self):
        rho = eval_constructed_fn(0.37)
        lam, state = hybrid_secant_solve(eval_constructed_fn, rho, 1e-3, 1.0, 1e-13)
        assert state.converged
        lo, hi = 1e-3, 1.0
        for rec in state.history[2:]:
            assert rec.lo >= lo - 1e-15 and rec.hi <= hi + 1e-15
            assert rec.lo < rec.hi
            assert eval_constructed_fn(rec.lo) < rho < eval_constructed_fn(rec.hi)
            lo, hi = rec.lo, rec.hi

    def test_progress_guarantee(self):
        # over any 3 accepted iterates: bracket halves or residual shrinks by mu
        rho = eval_constructed_fn(0.11)
        mu = 0.5
        _, state = hybrid_secant_solve(eval_constructed_fn, rho, 1e-4, 1.0, 1e-13, mu)
        recs = state.history[1:]  # from lam_0 on
        widths = [r.hi - r.lo for r in recs]
        resid = [abs(r.phi - rho) for r in recs]
        for k in range(len(recs) - 3):
            ok_width = widths[k + 3] <= 0.5 * widths[k] + 1e-15
            ok_resid = resid[k + 3] <= mu * resid[k] + 1e-15
            assert ok_width or ok_resid

    def test_max_outer_flags_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(smop.rootfind, "MAX_OUTER", 2)
        lam, state = hybrid_secant_solve(diagonal_phi, 0.5, 0.19, 1.9, 1e-14)
        assert not state.converged

    def test_rejected_proposal_falls_back_to_bisection(self):
        # strong curvature stalls the secant against the mu-decrease test:
        # the rejected trial still tightens the bracket, then a midpoint step
        # resets the safeguard counter
        phi = lambda lam: float(lam) ** 9
        mu = 0.5
        lam, state = hybrid_secant_solve(phi, 0.5 ** 9, 0.05, 1.0, 1e-12, mu)
        assert state.converged
        assert lam == pytest.approx(0.5, abs=1e-9)
        rejections = state.n_evals - (len(state.history) - 2)
        assert rejections >= 1
        for rec in state.history[2:]:
            assert rec.lo < rec.hi

    @pytest.mark.parametrize("mu", [0.0, 1.0, -1.0, float("nan")])
    @pytest.mark.parametrize("dphi", [None, lambda lam: 1.0], ids=["secant", "piece"])
    def test_mu_must_lie_in_open_unit_interval(self, dphi, mu):
        lams = []
        phi = lambda lam: lams.append(lam) or scalar_phi(lam)
        with pytest.raises(ValueError, match=r"mu must lie in \(0, 1\)"):
            hybrid_secant_solve(phi, 0.3, 0.01, 0.99, 1e-6, mu, dphi)
        assert lams == []  # rejected before any evaluation


class TestHybridFuzz:
    """Randomized monotone piecewise-affine value functions.

    The value function of these solvers is exactly of this class, so this
    fuzzes the safeguard state machine (acceptance, rejection, bisection
    resets, bracket updates) against independently computed roots.
    """

    @staticmethod
    def _random_pw_affine(rng):
        breaks = np.sort(rng.uniform(0.05, 2.0, int(rng.integers(1, 6))))
        slopes = rng.uniform(0.02, 8.0, breaks.size + 1)
        v0 = float(rng.uniform(0.0, 0.3))

        def value(lam):
            lam = float(lam)
            total = v0
            prev = 0.0
            for bp, sl in zip(breaks, slopes[:-1]):
                if lam <= bp:
                    return total + sl * (lam - prev)
                total += sl * (bp - prev)
                prev = bp
            return total + slopes[-1] * (lam - prev)

        def invert(target):
            # segment-wise exact inversion: the independent root oracle
            total = v0
            prev = 0.0
            for bp, sl in zip(breaks, slopes[:-1]):
                seg_end = total + sl * (bp - prev)
                if target <= seg_end:
                    return prev + (target - total) / sl
                total, prev = seg_end, bp
            return prev + (target - total) / slopes[-1]

        return value, invert

    def test_converges_to_independent_root(self):
        rng = np.random.default_rng(99)
        cfg = SmopConfig(stoptol=1e-11)
        for trial in range(30):
            value, invert = self._random_pw_affine(rng)
            lo, hi = 0.01, float(rng.uniform(1.5, 3.0))
            p_lo, p_hi = value(lo), value(hi)
            rho = float(rng.uniform(p_lo + 1e-3, p_hi - 1e-3))
            lam_true = invert(rho)
            lam, state = hybrid_secant_solve(value, rho, lo, hi, cfg.stoptol, cfg.mu)
            assert state.converged, trial
            # eta <= stoptol translates to a lambda error through the local slope
            assert abs(value(lam) - rho) <= cfg.stoptol * max(1.0, rho)
            assert abs(lam - lam_true) <= cfg.stoptol * max(1.0, rho) / 0.02
            for rec in state.history[2:]:
                assert rec.lo < rec.hi
                assert value(rec.lo) < rho < value(rec.hi)

    def test_bracket_from_warm_guesses_on_both_sides(self):
        # the step-down reads the slope of the piece through its point; the
        # top end lam_inf is known as (lam_inf, value(lam_inf)), never evaluated
        rng = np.random.default_rng(7)
        for trial in range(60):
            value, invert = self._random_pw_affine(rng)
            lam_inf = float(rng.uniform(1.5, 3.0))
            rho = float(rng.uniform(value(0.01) + 1e-3, value(lam_inf) - 1e-3))
            lam_true = invert(rho)
            h = 1e-7
            slope = lambda lam: (value(lam) - value(lam - h)) / h
            lo0, hi0 = lam_true * rng.uniform(0.2, 1.6, 2)
            phi = recording(value)
            lo, hi = bracket_init(phi, rho, lam_inf, value(lam_inf), slope,
                                  float(lo0), float(hi0))
            assert 0 < lo < hi <= lam_inf, trial
            # an exact slope can land a piece root on rho itself; that end is
            # then the root, and the root finder stops there
            assert value(lo) <= rho <= value(hi) and value(lo) < value(hi), trial
            assert not [lam for lam in phi.lams if lo < lam < hi], trial
            assert lam_inf not in phi.lams, trial


class TestBisection:
    def test_scalar_instance(self):
        lam, state = bisection_solve(scalar_phi, 0.3, 0.01, 0.99, 1e-6)
        assert state.converged
        assert lam == pytest.approx(0.3, abs=1e-6)

    def test_width_halves_each_iteration(self):
        _, state = bisection_solve(scalar_phi, 0.3, 0.01, 0.99, 1e-9)
        # the terminal record is written at the root, before any bracket update
        steps = [r for r in state.history if r.step == "bisection"][:-1]
        width0 = 0.99 - 0.01
        for i, rec in enumerate(steps, start=1):
            assert rec.hi - rec.lo <= width0 * 0.5 ** i + 1e-15

    def test_iteration_count_matches_contract(self, monkeypatch):
        monkeypatch.setattr(smop.rootfind, "MAX_OUTER", 500)
        _, state = bisection_solve(scalar_phi, 0.3, 0.01, 0.99, 1e-6)
        # eta tolerance on an identity phi: about log2(width / stoptol) rounds
        expected = np.log2((0.99 - 0.01) / 1e-6)
        assert state.n_evals <= expected + 2

    def test_unconverged_returns_closest_evaluated_point(self, monkeypatch, scalar_data):
        # the one bisection step lands at 0.64; the lower end 0.29 is closer
        monkeypatch.setattr(smop.rootfind, "MAX_OUTER", 1)
        oracle = _PhiOracle(scalar_data, L1(), KKT_TOL, False)
        lam, state = bisection_solve(oracle, 0.3, 0.29, 0.99, 1e-14)
        assert not state.converged
        assert lam == 0.29
        np.testing.assert_array_equal(oracle.xs[lam], [0.71])

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            bisection_solve(scalar_phi, 0.3, 0.4, 0.99, 1e-6)


class TestHsDerivative:
    """The generalized (HS) derivative of phi from ``phi_derivative``."""

    def test_scalar(self, scalar_data):
        v = phi_derivative(scalar_data, L1(), np.array([0.7]), 0.3, 0.3)
        assert v == pytest.approx(1.0)

    def test_diagonal(self, diagonal_data):
        # phi(lam) = lam*sqrt(5)/2 on (0,1]: derivative sqrt(5)/2
        phi = 0.4 * np.sqrt(5) / 2
        v = phi_derivative(diagonal_data, L1(), np.array([0.6, 0.4]), 0.4, phi)
        assert v == pytest.approx(np.sqrt(5) / 2)

    def test_zero_support(self, scalar_data):
        with pytest.raises(ValueError, match="zero support"):
            phi_derivative(scalar_data, L1(), np.zeros(1), 0.3, 0.3)

    def test_rank_deficient_uses_ridge(self):
        # duplicate columns: the support Gram is singular, least squares solves it
        data = ProblemData(SparseMatrix.from_dense([[1.0, 1.0], [2.0, 2.0]]), np.ones(2))
        v = phi_derivative(data, L1(), np.array([0.5, 0.5]), 0.3, 0.7)
        assert np.isfinite(v) and v > 0

    @staticmethod
    def _finite_difference(data, reg, lam0):
        """Derivative and central difference of phi across a point where the
        pattern is stable: the independent slope oracle."""
        from smop import phi_eval

        res, _ = phi_eval(data, reg, lam0, tol=1e-12, sieve=False)
        v = phi_derivative(data, reg, res.x, lam0, res.phi)
        h = 1e-6 * lam0
        fd = (
            phi_eval(data, reg, lam0 + h, x0=res.x, tol=1e-12, sieve=False)[0].phi
            - phi_eval(data, reg, lam0 - h, x0=res.x, tol=1e-12, sieve=False)[0].phi
        ) / (2 * h)
        return v, fd, res.x

    def test_matches_finite_differences(self):
        from smop import SynthSpec, lambda_inf, synth_instance

        data, _ = synth_instance(SynthSpec(m=100, n=600, s=10, sigma=0.01, seed=55))
        lam0 = 0.25 * lambda_inf(L1(), data.A, data.b)
        v, fd, _ = self._finite_difference(data, L1(), lam0)
        assert v == pytest.approx(fd, rel=1e-5)

    def test_sorted_l1_matches_finite_differences(self):
        from smop import SynthSpec, lambda_inf, linear_weights, synth_instance

        data, _ = synth_instance(SynthSpec(m=100, n=600, s=10, sigma=0.01, seed=3))
        reg = SortedL1(linear_weights(600))
        lam0 = 0.25 * lambda_inf(reg, data.A, data.b)
        v, fd, x = self._finite_difference(data, reg, lam0)
        # a tied cluster: the merged piece, not the l1 support, gives the slope
        J, _, starts, _ = reg.piece(x)
        assert (J.size, starts.size) == (11, 10)
        assert v == pytest.approx(fd, rel=1e-5)

    def test_sorted_l1_tied_cluster_closed_form(self):
        # A = I, b = (1, 1), weights (1, 0.5): x = (1 - 0.75 lam)(1, 1) for
        # small lam, so phi = 0.75 lam sqrt(2), slope 1.5 / sqrt(2); one cluster
        # of weight 1.5 gives h = 0.75 (1, 1)
        data = ProblemData(SparseMatrix.from_dense(np.eye(2)), np.ones(2))
        reg = SortedL1([1.0, 0.5])
        lam = 0.4
        x = np.full(2, 1.0 - 0.75 * lam)
        phi = 0.75 * lam * np.sqrt(2.0)
        assert reg.piece(x)[2].size == 1
        v = phi_derivative(data, reg, x, lam, phi)
        assert v == pytest.approx(1.5 / np.sqrt(2.0))


def recording(phi):
    """Wrap ``phi`` so that every evaluated lambda is kept in ``.lams``."""

    def wrapped(lam):
        wrapped.lams.append(float(lam))
        return phi(lam)

    wrapped.lams = []
    return wrapped


def synthetic_phi():
    """The phi oracle of a small synthetic l1 instance, with its lambda_inf
    and ||b||; ``.derivative`` is its certified derivative."""
    from smop import SynthSpec, lambda_inf, synth_instance

    data, _ = synth_instance(SynthSpec(m=40, n=120, s=5, sigma=0.01, seed=3))
    return _PhiOracle(data, L1(), 1e-10, False), lambda_inf(L1(), data.A, data.b), data.bnorm


class TestNonFinitePhi:
    @staticmethod
    def _phi(lam):
        """``lam``, except nan on (0.3, 0.7): nan compares as neither above nor
        below rho, so unguarded solvers spent all ``MAX_OUTER`` trials on it."""
        return float("nan") if 0.3 < lam < 0.7 else float(lam)

    @pytest.mark.parametrize("solver", ["secant", "bisection", "bracket"])
    def test_raises_after_one_trial(self, solver):
        # from (0.1, 0.9) to rho = 0.5 the first trial of every solver is 0.5;
        # the warm bracket search evaluates its upper guess and then 0.5
        phi = recording(self._phi)
        with pytest.raises(BracketError, match=r"phi\(0\.5\)=nan is not finite"):
            if solver == "secant":
                hybrid_secant_solve(phi, 0.5, 0.1, 0.9, 1e-10)
            elif solver == "bisection":
                bisection_solve(phi, 0.5, 0.1, 0.9, 1e-10)
            else:
                bracket_init(phi, 0.5, 1.0, 1.0, None, lo=0.5, hi=0.9)
        trials = phi.lams[1:] if solver == "bracket" else phi.lams[2:]
        assert trials == [0.5]


class TestBracketInit:
    def test_scalar_example(self, scalar_data):
        # the cold search starts from phi(lam_inf) = ||b|| = 1 > 0.3 without
        # evaluating it, so one step of 1 * 0.5 * 0.3 / 1
        phi = recording(scalar_phi)
        lo, hi = bracket_init(phi, 0.3, 1.0, 1.0, l1_dphi(scalar_data, scalar_x, scalar_phi))
        assert hi == 1.0
        assert lo == pytest.approx(0.15)
        assert phi.lams == [pytest.approx(0.15)]

    @staticmethod
    def _assert_tightest(phi, rho, lo, hi, lams):
        assert 0 < lo < hi
        assert phi(lo) < rho < phi(hi)
        # every evaluated point is an end or lies outside the bracket
        assert not [lam for lam in lams if lo < lam < hi]

    @pytest.mark.parametrize("rho", [1e-6, 0.01, 0.2, 0.5, 1.0, 1.2, 1.4])
    def test_diagonal_tightest_bracket(self, rho, diagonal_data):
        # ||b|| = sqrt(2), lam_inf = 2
        phi = recording(diagonal_phi)
        dphi = l1_dphi(diagonal_data, diagonal_x, diagonal_phi)
        lo, hi = bracket_init(phi, rho, 2.0, math.sqrt(2.0), dphi)
        self._assert_tightest(diagonal_phi, rho, lo, hi, phi.lams)

    @pytest.mark.parametrize("c", [0.05, 0.1, 0.3, 0.9])
    def test_synthetic_tightest_bracket(self, c):
        base, lam_inf, bnorm = synthetic_phi()
        phi = recording(base)
        rho = c * bnorm
        lo, hi = bracket_init(phi, rho, lam_inf, bnorm, base.derivative)
        self._assert_tightest(base, rho, lo, hi, phi.lams)

    @pytest.mark.parametrize("c", [0.05, 0.3])
    def test_synthetic_warm_guesses(self, c):
        base, lam_inf, bnorm = synthetic_phi()
        rho = c * bnorm
        lam_star = 0.5 * sum(bracket_init(base, rho, lam_inf, bnorm, base.derivative))
        for lo0, hi0 in [(0.5 * lam_star, 1.5 * lam_star), (1.1 * lam_star, 1.3 * lam_star),
                         (0.2 * lam_star, 0.6 * lam_star), (0.9 * lam_star, 0.95 * lam_star)]:
            phi = recording(base)
            lo, hi = bracket_init(phi, rho, lam_inf, bnorm, base.derivative, lo0, hi0)
            self._assert_tightest(base, rho, lo, hi, phi.lams)

    def test_warm_hi_below_root(self):
        # root of scalar_phi at rho = 0.3 is 0.3: hi = 0.2 lies below it, so it
        # is the lower end and lam_inf the upper one, after one evaluation
        phi = recording(scalar_phi)
        lo, hi = bracket_init(phi, 0.3, 1.0, 1.0, None, lo=0.1, hi=0.2)
        assert (lo, hi) == (0.2, 1.0)
        assert phi.lams == [0.2]

    def test_warm_lo_above_root_steps_down(self):
        # phi(0.5) = 0.5 > 0.3 makes 0.5 the upper end; 0.5 * 0.3 = 0.15 below
        phi = recording(scalar_phi)
        lo, hi = bracket_init(phi, 0.3, 1.0, 1.0, None, lo=0.5, hi=0.8)
        assert hi == 0.5
        assert lo == pytest.approx(0.15)
        assert phi.lams == [0.8, 0.5, pytest.approx(0.15)]

    def test_warm_bracket_kept_when_valid(self):
        phi = recording(scalar_phi)
        assert bracket_init(phi, 0.3, 1.0, 1.0, None, lo=0.25, hi=0.35) == (0.25, 0.35)
        assert phi.lams == [0.35, 0.25]

    def test_warm_lo_not_below_hi_is_ignored(self):
        phi = recording(scalar_phi)
        lo, hi = bracket_init(phi, 0.3, 1.0, 1.0, None, lo=0.9, hi=0.6)
        assert hi == 0.6
        assert lo == pytest.approx(0.15)
        assert 0.9 not in phi.lams

    def test_warm_hi_capped_at_lam_inf(self):
        lo, hi = bracket_init(scalar_phi, 0.97, 1.0, 1.0, None, lo=0.5, hi=4.0)
        assert hi == 1.0
        assert scalar_phi(lo) < 0.97

    def test_rho_too_large(self):
        with pytest.raises(BracketError, match="0 < rho"):
            bracket_init(scalar_phi, 1.2, 1.0, 1.0, None)

    def test_rho_barely_below_bnorm(self):
        # the upper end stays at lam_inf, where phi = ||b|| = 1 > rho
        lo, hi = bracket_init(scalar_phi, 0.97, 1.0, 1.0, None)
        assert hi == 1.0
        assert scalar_phi(lo) < 0.97

    def test_rho_too_small(self):
        with pytest.raises(BracketError, match="too small"):
            bracket_init(scalar_phi, 1e-14, 1.0, 1.0, None)


def explicit_piece_root(data, reg, x, rho):
    """Positive root of ``||y0 + lam h|| = rho`` on the piece through ``x``:
    ``x_J(lam) = P (x0 - lam u)`` with ``M x0 = P^T A_J^T b``, ``M u = w`` and
    ``M = P^T A_J^T A_J P``, each solved on its own."""
    J, s, starts, w = reg.piece(x)
    P = np.zeros((J.size, starts.size))
    for i, (a, e) in enumerate(zip(starts, np.append(starts[1:], J.size))):
        P[a:e, i] = s[a:e]
    AJP = data.A.take_columns_dense(J) @ P
    M = AJP.T @ AJP
    y0 = data.b - AJP @ np.linalg.solve(M, AJP.T @ data.b)
    h = AJP @ np.linalg.solve(M, w)
    qa, qb, qc = h @ h, 2.0 * (y0 @ h), y0 @ y0 - rho * rho
    return (-qb + np.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa), starts.size < J.size


def _raise(exc):
    def dphi(lam):
        raise exc("no derivative")
    return dphi


class TestPieceRootStep:
    """The step-down of ``bracket_init`` to the root of the piece."""

    @pytest.mark.parametrize("kind", ["l1", "slope"])
    def test_step_is_the_explicit_piece_root(self, kind):
        from smop import SynthSpec, lambda_inf, linear_weights, synth_instance

        if kind == "l1":
            data, _ = synth_instance(SynthSpec(m=60, n=400, s=8, sigma=0.01, seed=1))
            reg, frac = L1(), 0.3
        else:  # a tied cluster at 0.25 lambda_inf (TestHsDerivative)
            data, _ = synth_instance(SynthSpec(m=100, n=600, s=10, sigma=0.01, seed=3))
            reg, frac = SortedL1(linear_weights(600)), 0.25
        base = _PhiOracle(data, reg, 1e-12, False)
        lam_inf = lambda_inf(reg, data.A, data.b)
        lam0 = frac * lam_inf
        p0 = base(lam0)
        rho = 0.7 * p0
        want, clustered = explicit_piece_root(data, reg, base.xs[lam0], rho)
        assert clustered == (kind == "slope")
        phi = recording(base)
        bracket_init(phi, rho, lam_inf, data.bnorm, base.derivative, hi=lam0)
        assert phi.lams[0] == lam0
        assert phi.lams[1] == pytest.approx(want, rel=1e-12)

    def test_exact_derivative_steps_onto_the_root(self):
        # phi = lam below 1: v = 1 and the step lands on rho = 0.3 at once
        phi = recording(scalar_phi)
        bracket_init(phi, 0.3, 1.0, 1.0, lambda lam: 1.0, hi=0.8)
        assert phi.lams[1] == pytest.approx(0.3, rel=1e-15)

    @pytest.mark.parametrize("dphi", [
        None, _raise(ValueError), _raise(np.linalg.LinAlgError),
        lambda lam: 0.0, lambda lam: -1.0,
        lambda lam: float("nan"), lambda lam: float("inf"),
        lambda lam: 1e-3,  # a root below zero
        lambda lam: 0.86,  # a root near 0.02, more than a decade down
    ], ids=["none", "value-error", "linalg-error", "zero", "negative", "nan", "inf",
            "below-zero", "below-decade"])
    def test_falls_back_without_a_usable_derivative(self, dphi):
        # the plain step 0.8 * max(0.1, 0.5 * 0.3 / 0.8) = 0.15
        phi = recording(scalar_phi)
        lo, hi = bracket_init(phi, 0.3, 1.0, 1.0, dphi, hi=0.8)
        assert phi.lams == [0.8, pytest.approx(0.15)]
        assert (lo, hi) == (pytest.approx(0.15), 0.8)

    def test_empty_pattern_falls_back(self):
        # x = 0 at lambda_inf has no piece, so no derivative is asked for
        # there: the first step is the plain one from (lambda_inf, ||b||)
        base, lam_inf, bnorm = synthetic_phi()
        top = _PhiOracle(base.data, L1(), 1e-10, False)
        p_top = top(lam_inf)
        assert not top.xs[lam_inf].any()
        with pytest.raises(ValueError, match="zero support"):
            top.derivative(lam_inf)
        phi = recording(base)
        dphi = recording(base.derivative)
        rho = 0.1 * bnorm
        bracket_init(phi, rho, lam_inf, p_top, dphi)
        assert phi.lams[0] == lam_inf * max(0.1, 0.5 * rho / p_top)
        assert lam_inf not in phi.lams + dphi.lams

    def test_roundoff_piece_root_falls_back(self):
        # phi = lam one ulp above rho = 0.3: the exact piece root 0.3 moves lam
        # by roundoff, so the step is the plain one, 0.5 * 0.3 = 0.15
        hi = math.nextafter(0.3, 1.0)
        phi = recording(scalar_phi)
        bracket_init(phi, 0.3, 1.0, 1.0, lambda lam: 1.0, hi=hi)
        assert phi.lams == [hi, pytest.approx(0.15)]
        # a gap of 1e-12 is no roundoff: the piece root is taken
        hi = 0.3 * (1.0 + 1e-12)
        phi = recording(scalar_phi)
        bracket_init(phi, 0.3, 1.0, 1.0, lambda lam: 1.0, hi=hi)
        assert phi.lams[1] == pytest.approx(0.3, rel=1e-15)

    @pytest.mark.parametrize("c", [0.05, 0.1, 0.3, 0.9])
    def test_cold_search_never_evaluates_lambda_inf(self, c):
        # (lambda_inf, ||b||) is known: neither it nor 0.95 lambda_inf is
        # evaluated, and the bracket stays the tightest
        base, lam_inf, bnorm = synthetic_phi()
        phi = recording(base)
        rho = c * bnorm
        lo, hi = bracket_init(phi, rho, lam_inf, bnorm, base.derivative)
        assert phi.lams[0] == lam_inf * max(0.1, 0.5 * c)
        assert max(phi.lams) < 0.95 * lam_inf
        TestBracketInit._assert_tightest(base, rho, lo, hi, phi.lams)


# histories of the secant hybrid on phi = lam^3 + 0.1 lam, rho = 0.5, from
# (0.05, 1.5) at stoptol 1e-12, before the piece root was its first proposal
CUBIC_SECANT = [
    (0.05, "init"), (1.5, "init"), (0.25386199794026765, "secant"),
    (0.4178027008014541, "secant"), (0.8506437443107879, "bisection"),
    (0.702451961992689, "secant"), (0.7458756986928043, "secant"),
    (0.7521246780703535, "secant"), (0.751741602631852, "secant"),
    (0.7517444170898033, "secant"), (0.7517444184343964, "secant"),
]


def cubic_phi(lam):
    return float(lam) ** 3 + 0.1 * float(lam)


class TestPieceRootProposal:
    """The piece root as the skeleton's first proposal, given a ``dphi``."""

    @pytest.mark.parametrize("kind", ["l1", "slope"])
    def test_first_trial_is_the_explicit_piece_root(self, kind):
        # from the bracket end nearer rho; on sorted-l1 its piece has a tied
        # cluster
        from smop import SynthSpec, linear_weights, phi_eval, smop_solve, synth_instance

        if kind == "l1":
            data, _ = synth_instance(SynthSpec(m=60, n=400, s=8, sigma=0.01, seed=1))
            reg, c = L1(), 0.1
        else:
            data, _ = synth_instance(SynthSpec(m=100, n=600, s=10, sigma=0.01, seed=3))
            reg, c = SortedL1(linear_weights(600)), 0.05
        data = data.with_rho(c * data.bnorm)
        res = smop_solve(data, reg, SmopConfig(stoptol=1e-8))
        lo, hi, first = res.root_state.history[:3]
        assert (lo.step, hi.step, first.step) == ("init", "init", "piece")
        near = min((lo, hi), key=lambda rec: abs(rec.phi - data.rho))
        x = phi_eval(data, reg, near.lam, tol=1e-13, sieve=False)[0].x
        want, clustered = explicit_piece_root(data, reg, x, data.rho)
        assert clustered == (kind == "slope")
        assert first.lam == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("dphi", [
        _raise(ValueError), _raise(np.linalg.LinAlgError), lambda lam: 0.0, lambda lam: -1.0,
    ], ids=["value-error", "linalg-error", "zero", "negative"])
    def test_no_usable_slope_keeps_the_method_steps(self, dphi):
        # the secant history is the one without a dphi
        _, state = hybrid_secant_solve(cubic_phi, 0.5, 0.05, 1.5, 1e-12, 0.5, dphi)
        assert [(r.lam, r.step) for r in state.history] == CUBIC_SECANT
        _, plain = hybrid_secant_solve(cubic_phi, 0.5, 0.05, 1.5, 1e-12)
        assert [(r.lam, r.step) for r in plain.history] == CUBIC_SECANT

    def test_roundoff_piece_root_falls_back_to_the_method(self):
        # phi = lam: the lower end 1e-15 below rho = 0.3 is the nearer one,
        # and its exact piece root moves it by roundoff only
        lo = 0.3 * (1.0 - 1e-15)
        _, state = hybrid_secant_solve(scalar_phi, 0.3, lo, 0.9, 0.0, 0.5, lambda lam: 1.0)
        assert state.history[2].step == "secant"
        # a gap of 1e-12 is no roundoff: the piece root is taken
        lo = 0.3 * (1.0 - 1e-12)
        _, state = hybrid_secant_solve(scalar_phi, 0.3, lo, 0.9, 0.0, 0.5, lambda lam: 1.0)
        assert state.history[2].step == "piece"
        assert state.history[2].lam == pytest.approx(0.3, rel=1e-15)

    def test_piece_root_outside_the_bracket_falls_back(self):
        # a slope ten times too small sends the piece root through the lower
        # end far above the bracket; the secant step is taken instead
        _, state = hybrid_secant_solve(scalar_phi, 0.3, 0.15, 0.5, 1e-12, 0.5, lambda lam: 0.1)
        assert state.history[2].step == "secant"
        assert state.history[2].lam == pytest.approx(0.3, rel=1e-12)
