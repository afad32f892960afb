import re

import numpy as np
import pytest

import smop.inner as inner
from smop import (
    L1,
    ProblemData,
    SortedL1,
    SparseMatrix,
    SynthSpec,
    lambda_inf,
    linear_weights,
    phi_eval,
    select_top_k,
    sieve_solve,
    solve_reduced,
    synth_instance,
)
from smop.sieving import MIN_GROWTH

# the sieve's full-residual tolerance, and so its reduced solves', of most cases
TIGHT = 1e-9


class TestSelectTopK:
    def test_example(self):
        R = np.array([0.0, 3.0, -5.0, 1.0])
        got = select_top_k(R, [1, 2, 3], 2)
        assert set(got.tolist()) == {2, 1}

    def test_k_equals_all(self):
        R = np.array([0.0, 3.0, -5.0, 1.0])
        got = select_top_k(R, [1, 2, 3], 3)
        assert set(got.tolist()) == {1, 2, 3}

    def test_tie_break_smaller_index(self):
        R = np.array([0.0, 2.0, 0.0, -2.0])
        got = select_top_k(R, [1, 3], 1)
        assert got.tolist() == [1]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            select_top_k(np.ones(3), [0, 1], 3)

    def test_k_negative(self):
        # a negative k would slice all but |k| candidates
        with pytest.raises(ValueError, match="between 0 and the candidate count"):
            select_top_k(np.ones(3), [0, 1], -1)


class TestSieveSolve:
    def test_superset_start_single_round(self, diagonal_data):
        res, trace = sieve_solve(diagonal_data, L1(), 0.4, [0, 1], tol=TIGHT)
        assert res.converged
        np.testing.assert_allclose(res.x, [0.6, 0.4], atol=1e-8)
        assert len(trace.rounds) == 1

    def test_zero_accepted_above_threshold(self, diagonal_data):
        lam_top = lambda_inf(L1(), diagonal_data.A, diagonal_data.b)
        res, trace = sieve_solve(diagonal_data, L1(), lam_top * 1.01, [], tol=TIGHT)
        assert res.converged
        np.testing.assert_array_equal(res.x, np.zeros(2))
        assert trace.rounds[0].size_I == 0
        assert res.iters == 0

    def test_growth_is_monotone_and_terminates(self, monkeypatch):
        monkeypatch.setattr("smop.sieving.MAX_GROWTH", 5)
        data, _ = synth_instance(SynthSpec(m=50, n=200, s=8, sigma=0.02, seed=12))
        lam = 0.2 * lambda_inf(L1(), data.A, data.b)
        res, trace = sieve_solve(data, L1(), lam, [], tol=TIGHT)
        assert res.converged
        sizes = [r.size_I for r in trace.rounds]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        # authoritative full-dimension residual certificate
        grad = data.A.rmatvec(data.A.matvec(res.x) - data.b)
        R = res.x - L1().prox(res.x - grad, lam)
        assert np.linalg.norm(R) <= TIGHT

    @pytest.mark.parametrize("kind", ["l1", "slope"])
    def test_matches_full_dimension_solve(self, kind):
        data, _ = synth_instance(SynthSpec(m=60, n=250, s=10, sigma=0.05, seed=13))
        reg = L1() if kind == "l1" else SortedL1(linear_weights(250))
        lam = 0.3 * lambda_inf(reg, data.A, data.b)
        eps = 1e-9
        res, _ = sieve_solve(data, reg, lam, [], tol=eps)
        full = solve_reduced(data, reg, lam, np.arange(250), tol=eps)
        assert res.objective == pytest.approx(full.objective, rel=1e-6, abs=1e-9)

    def test_kmax_limits_growth_per_round(self, monkeypatch):
        monkeypatch.setattr("smop.sieving.MAX_GROWTH", 3)
        data, _ = synth_instance(SynthSpec(m=40, n=150, s=10, sigma=0.0, seed=14))
        lam = 0.1 * lambda_inf(L1(), data.A, data.b)
        _, trace = sieve_solve(data, L1(), lam, [])
        assert all(r.added <= 3 for r in trace.rounds)

    @pytest.mark.parametrize("k_max", [30, 500])
    def test_growth_at_most_doubles(self, monkeypatch, k_max):
        monkeypatch.setattr("smop.sieving.MAX_GROWTH", k_max)
        data, _ = synth_instance(SynthSpec(m=80, n=600, s=40, sigma=0.01, seed=15))
        lam = 0.02 * lambda_inf(L1(), data.A, data.b)
        res, trace = sieve_solve(data, L1(), lam, [], tol=TIGHT)
        assert res.converged
        assert all(r.added <= min(k_max, max(r.size_I, MIN_GROWTH)) for r in trace.rounds)
        # the support outgrows MIN_GROWTH and the bound above it is met
        assert any(r.added == min(k_max, r.size_I) > MIN_GROWTH for r in trace.rounds)

    @pytest.mark.parametrize("dense_limit", [4_194_304, 0])
    @pytest.mark.parametrize("start", ["empty", "support"])
    def test_no_full_matvec(self, monkeypatch, start, dense_limit):
        # the round residual comes from the reduced solve, so only A^T
        # products touch all n columns (dense_limit=0 keeps A_I sparse)
        data, x_true = synth_instance(SynthSpec(m=50, n=300, s=8, sigma=0.01, seed=16))
        lam = 0.1 * lambda_inf(L1(), data.A, data.b)
        calls = []
        matvec = SparseMatrix.matvec

        def counting(self, x):
            calls.append(1)
            return matvec(self, x)

        monkeypatch.setattr(SparseMatrix, "matvec", counting)
        monkeypatch.setattr("smop.problem._DENSE_LIMIT", dense_limit)
        initial = [] if start == "empty" else np.flatnonzero(x_true)
        res, trace = sieve_solve(data, L1(), lam, initial, tol=TIGHT)
        assert res.converged
        assert len(trace.rounds) > 1
        assert calls == []

    @pytest.mark.parametrize("kind", ["l1", "slope"])
    @pytest.mark.parametrize("max_rounds", [100, 2])
    def test_returned_residual_matches_fresh_product(self, monkeypatch, kind, max_rounds):
        monkeypatch.setattr("smop.sieving.MAX_ROUNDS", max_rounds)
        data, _ = synth_instance(SynthSpec(m=60, n=250, s=10, sigma=0.05, seed=13))
        reg = L1() if kind == "l1" else SortedL1(linear_weights(250))
        lam = 0.1 * lambda_inf(reg, data.A, data.b)
        res, _ = sieve_solve(data, reg, lam, [], tol=TIGHT)
        assert res.converged == (max_rounds == 100)
        y = data.b - data.A.matvec(res.x)
        assert np.linalg.norm(res.y - y) <= 1e-12 * np.linalg.norm(y)
        assert res.phi == pytest.approx(np.linalg.norm(y), rel=1e-12)

    @pytest.mark.parametrize("kind", ["l1", "slope"])
    def test_trace_covers_every_round(self, kind):
        # one logged round per reduced solve: the set grows by each round's
        # additions, the rounds' iterations sum to the result's, and the
        # converged round has no candidates left. A round works by APG
        # iterations or piece solves
        data, _ = synth_instance(SynthSpec(m=40, n=120, s=8, sigma=0.01, seed=2))
        reg = L1() if kind == "l1" else SortedL1(linear_weights(120))
        lam = 0.1 * lambda_inf(reg, data.A, data.b)
        res, trace = sieve_solve(data, reg, lam, [], tol=1e-9)
        assert res.converged
        rounds = trace.rounds
        assert sum(r.inner_iters + r.piece_solves > 0 for r in rounds) >= 2
        assert sum(r.inner_iters for r in rounds) == res.iters
        assert rounds[0].size_I == 0
        for prev, nxt in zip(rounds, rounds[1:]):
            assert nxt.size_I == prev.size_I + prev.added
        assert rounds[-1].size_J == rounds[-1].added == 0
        assert rounds[-1].r_norm <= 1e-9

    @pytest.mark.parametrize("kind", ["l1", "slope"])
    def test_piece_solves_sum_over_rounds(self, monkeypatch, kind):
        # each round logs the piece systems its reduced solve solved, and the
        # result carries their sum, as it does the APG iterations
        calls = []
        solve = inner.piece_solve
        monkeypatch.setattr(inner, "piece_solve", lambda *a: calls.append(1) or solve(*a))
        data, _ = synth_instance(SynthSpec(m=60, n=250, s=10, sigma=0.05, seed=13))
        reg = L1() if kind == "l1" else SortedL1(linear_weights(250))
        lam = 0.1 * lambda_inf(reg, data.A, data.b)
        res, trace = sieve_solve(data, reg, lam, [], tol=TIGHT)
        assert res.converged and len(trace.rounds) >= 2
        assert res.piece_solves == sum(r.piece_solves for r in trace.rounds) == len(calls) > 0
        assert res.iters == sum(r.inner_iters for r in trace.rounds)

    def test_uncertified_round_without_candidates_stops(self, monkeypatch):
        # near-duplicate columns: each reduced solve hits the iteration cap
        # with all residual mass inside I, and a tighter tolerance cannot
        # certify what the cap stopped, so the sieve stops uncertified
        # instead of re-solving the same set until MAX_ROUNDS
        monkeypatch.setattr(inner, "MAX_ITERS", 300)
        rng = np.random.default_rng(0)
        base = rng.standard_normal((40, 100))
        arr = np.hstack([base, base + 1e-6 * rng.standard_normal((40, 100))])
        arr /= np.linalg.norm(arr, axis=0)
        x = np.zeros(200)
        x[rng.choice(200, 8, replace=False)] = 1.0
        data = ProblemData(SparseMatrix.from_dense(arr), arr @ x + 0.01 * rng.standard_normal(40))
        lam = 0.05 * lambda_inf(L1(), data.A, data.b)
        res, trace = sieve_solve(data, L1(), lam, [], tol=1e-10)
        assert not res.converged
        assert len(trace.rounds) <= 3
        assert trace.rounds[-1].size_J == 0 and trace.rounds[-1].inner_iters == 300

    def test_threshold_matches_exact_nonzeros_on_exact_case(self, diagonal_data):
        # at x = 0 the residual is prox(A^T b) with exactly representable
        # entries, so the documented zero threshold must pick out the same
        # candidate set as an exact nonzero test
        lam = 0.4
        grad = diagonal_data.A.rmatvec(-diagonal_data.b)
        R = -L1().prox(-grad, lam)  # residual at x = 0
        thresh = max(1e-12, 1e-3 * 1e-9)
        np.testing.assert_array_equal(
            np.flatnonzero(np.abs(R) > thresh), np.flatnonzero(R != 0.0)
        )

    def test_invalid_initial_set(self, diagonal_data):
        with pytest.raises(ValueError):
            sieve_solve(diagonal_data, L1(), 0.4, [7])

    def test_config_validation(self, diagonal_data):
        # the tolerance is the one setting of a solve; each entry point checks it
        calls = {
            "solve_reduced": lambda tol: solve_reduced(diagonal_data, L1(), 0.4, [0, 1], tol=tol),
            "sieve_solve": lambda tol: sieve_solve(diagonal_data, L1(), 0.4, [], tol=tol),
            "phi_eval": lambda tol: phi_eval(diagonal_data, L1(), 0.4, tol=tol),
            "phi_eval-direct": lambda tol: phi_eval(diagonal_data, L1(), 0.4, tol=tol,
                                                    sieve=False),
        }
        for call in calls.values():
            for tol in (0.0, -1.0, np.nan, np.inf):
                with pytest.raises(ValueError, match="tol must be positive and finite"):
                    call(tol)


@pytest.mark.parametrize("shape", [(45,), (55,), (50, 1)])
@pytest.mark.parametrize("solve", ["solve_reduced", "sieve_solve", "phi_eval", "phi_eval-direct"])
def test_x0_of_another_shape_is_refused(solve, shape):
    # (45,) and (55,) ran to a converged result, and phi_eval read a (55,) x0's
    # support as an index set out of range; (50, 1) broadcast to a nan sqrt
    data, _ = synth_instance(SynthSpec(m=20, n=50, s=3, sigma=0.01, seed=0))
    lam = 0.3 * lambda_inf(L1(), data.A, data.b)
    x0 = np.ones(shape)
    calls = {
        "solve_reduced": lambda: solve_reduced(data, L1(), lam, np.arange(10), x0=x0),
        "sieve_solve": lambda: sieve_solve(data, L1(), lam, [], x0=x0),
        "phi_eval": lambda: phi_eval(data, L1(), lam, x0=x0),
        "phi_eval-direct": lambda: phi_eval(data, L1(), lam, x0=x0, sieve=False),
    }
    with pytest.raises(ValueError, match=re.escape(f"x0 must have shape (50,), got {shape}")):
        calls[solve]()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("solve", ["solve_reduced", "sieve_solve", "phi_eval", "phi_eval-direct"])
def test_nonfinite_x0_is_refused(solve, value):
    # a nan x0 made solve_reduced return phi = nan, unconverged, after 0
    # iterations, naming no cause
    data, _ = synth_instance(SynthSpec(m=20, n=50, s=3, sigma=0.01, seed=0))
    lam = 0.3 * lambda_inf(L1(), data.A, data.b)
    x0 = np.ones(50)
    x0[3] = value
    calls = {
        "solve_reduced": lambda: solve_reduced(data, L1(), lam, np.arange(10), x0=x0),
        "sieve_solve": lambda: sieve_solve(data, L1(), lam, [], x0=x0),
        "phi_eval": lambda: phi_eval(data, L1(), lam, x0=x0),
        "phi_eval-direct": lambda: phi_eval(data, L1(), lam, x0=x0, sieve=False),
    }
    with pytest.raises(ValueError, match=re.escape("x0 must be finite")):
        calls[solve]()


@pytest.mark.parametrize("lam", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("solve", ["solve_reduced", "sieve_solve", "phi_eval", "phi_eval-direct"])
def test_lam_must_be_positive_and_finite(solve, lam):
    # nan ran 20,000 iterations in solve_reduced; inf returned x = 0 as certified
    data, _ = synth_instance(SynthSpec(m=40, n=120, s=5, seed=0))
    calls = {
        "solve_reduced": lambda: solve_reduced(data, L1(), lam, np.arange(120)),
        "sieve_solve": lambda: sieve_solve(data, L1(), lam, []),
        "phi_eval": lambda: phi_eval(data, L1(), lam),
        "phi_eval-direct": lambda: phi_eval(data, L1(), lam, sieve=False),
    }
    with pytest.raises(ValueError, match="lam must be positive and finite"):
        calls[solve]()
