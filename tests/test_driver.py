import contextlib
import re
import time

import numpy as np
import pytest

import smop
import smop.driver as driver
from smop import (
    BracketError,
    L1,
    PathSpec,
    ProblemData,
    SmopConfig,
    SortedL1,
    SparseMatrix,
    SynthSpec,
    bracket_init,
    eta,
    eta_l,
    lambda_inf,
    linear_weights,
    nnz,
    phi_derivative,
    smop_solve,
    solve_path,
    synth_instance,
)
from smop.inner import KKT_TOL
from smop.sieving import MAX_ROUNDS


@contextlib.contextmanager
def evaluation_solutions():
    """Within the block, the ``x`` of each phi evaluation, keyed by its ``lam``."""
    xs = {}
    orig = driver.phi_eval

    def keeping(*args, **kwargs):
        out = orig(*args, **kwargs)
        xs[args[2]] = out[0].x
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "phi_eval", keeping)
        yield xs


class TestMetrics:
    def test_nnz_examples(self):
        assert nnz([1.0, 0.0005, 0.0]) == 1
        assert nnz([1.0, 1.0, 1.0, 1.0]) == 4
        assert nnz(np.zeros(3)) == 0

    def test_eta_examples(self):
        assert eta(0.30001, 0.3) == pytest.approx(1e-5)
        assert eta(0.3, 0.3) == 0.0
        assert eta(2.2, 2.0) == pytest.approx(0.1)


class TestSmopSolve:
    @pytest.mark.parametrize("method", ["smop", "bmop"])
    def test_scalar_instance(self, scalar_data, method):
        cfg = SmopConfig(stoptol=1e-9, method=method)
        res = smop_solve(scalar_data, L1(), cfg)
        assert res.converged
        assert res.lambda_star == pytest.approx(0.3, abs=1e-8)
        np.testing.assert_allclose(res.x, [0.7], atol=1e-8)
        assert res.eta <= 1e-9

    @pytest.mark.parametrize("method", ["smop", "bmop"])
    def test_diagonal_instance(self, diagonal_data, method):
        cfg = SmopConfig(stoptol=1e-9, method=method)
        res = smop_solve(diagonal_data, L1(), cfg)
        assert res.lambda_star == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-8)
        lam = res.lambda_star
        np.testing.assert_allclose(res.x, [1.0 - lam, (2.0 - lam) / 4.0], atol=1e-7)

    def test_requires_rho(self, scalar_data):
        data, _ = synth_instance(SynthSpec(m=4, n=8, s=2, seed=0))
        with pytest.raises(ValueError, match="rho"):
            smop_solve(data, L1(), SmopConfig())

    def test_solve_count_matches_eval_records(self, diagonal_data):
        res = smop_solve(diagonal_data, L1(), SmopConfig(stoptol=1e-8))
        assert res.n_subproblems == len(res.evals)
        assert res.inner_iters_total == sum(e.inner_iters for e in res.evals)

    def test_feasibility_and_activity(self):
        data, _ = synth_instance(SynthSpec(m=60, n=300, s=8, sigma=0.02, seed=21))
        data = data.with_rho(0.2 * data.bnorm)
        cfg = SmopConfig(stoptol=1e-7)
        res = smop_solve(data, L1(), cfg)
        resid = np.linalg.norm(data.A.matvec(res.x) - data.b)
        assert resid <= data.rho * (1 + cfg.stoptol)
        assert abs(resid - data.rho) <= cfg.stoptol * max(1.0, data.rho)

    def test_levelset_optimality_crosscheck(self):
        data, _ = synth_instance(SynthSpec(m=60, n=300, s=8, sigma=0.02, seed=22))
        data = data.with_rho(0.2 * data.bnorm)
        cfg = SmopConfig(stoptol=1e-7)
        res = smop_solve(data, L1(), cfg)
        eps_in = min(KKT_TOL, 0.01 * cfg.stoptol * max(1.0, data.rho))
        assert eta_l(res.x, data.A, data.b, L1(), res.lambda_star) <= 10 * eps_in

    def test_sorted_l1_end_to_end(self):
        data, _ = synth_instance(SynthSpec(m=60, n=300, s=8, sigma=0.02, seed=40))
        data = data.with_rho(0.15 * data.bnorm)
        reg = SortedL1(linear_weights(300))
        res_s = smop_solve(data, reg, SmopConfig(stoptol=1e-7, method="smop"))
        res_b = smop_solve(data, reg, SmopConfig(stoptol=1e-7, method="bmop"))
        assert res_s.converged and res_b.converged
        assert res_s.lambda_star == pytest.approx(res_b.lambda_star, rel=1e-5)
        u = data.A.rmatvec(data.b - data.A.matvec(res_s.x))
        assert reg.polar(u) <= res_s.lambda_star * (1 + 1e-6)

    def test_sieving_off_matches_on(self, diagonal_data):
        on = smop_solve(diagonal_data, L1(), SmopConfig(stoptol=1e-9))
        off = smop_solve(diagonal_data, L1(), SmopConfig(stoptol=1e-9, sieve=False))
        assert on.lambda_star == pytest.approx(off.lambda_star, abs=1e-9)

    @pytest.mark.parametrize("sieving", [True, False])
    def test_uncertified_final_evaluation_not_converged(self, monkeypatch, apg_only_l1,
                                                        sieving):
        # capped inner iterations (and sieve rounds) still bracket and let the
        # root finder stop, but the solve at lambda* misses its KKT tolerance;
        # APG alone (the l1 solve with the Newton step certifies under these
        # caps, see the next test)
        data, _ = synth_instance(SynthSpec(m=40, n=120, s=8, sigma=0.01, seed=0))
        data = data.with_rho(0.1 * data.bnorm)
        reg = apg_only_l1
        with monkeypatch.context() as mp:
            mp.setattr("smop.sieving.MAX_ROUNDS", 2)
            mp.setattr("smop.inner.MAX_ITERS", 20)
            res = smop_solve(data, reg, SmopConfig(stoptol=1e-8, sieve=sieving))
        assert res.root_state.converged
        final = next(e for e in res.evals if e.lam == res.lambda_star)
        assert not final.converged
        assert not res.converged
        assert all(e.converged for e in smop_solve(data, reg, SmopConfig(stoptol=1e-8)).evals)

    @pytest.mark.parametrize("sieving", [True, False])
    def test_l1_certifies_under_small_caps(self, monkeypatch, sieving):
        # 20 APG iterations per solve and two sieve rounds: the Newton step on
        # the identified support certifies the evaluation at lambda*
        monkeypatch.setattr("smop.sieving.MAX_ROUNDS", 2)
        monkeypatch.setattr("smop.inner.MAX_ITERS", 20)
        data, _ = synth_instance(SynthSpec(m=40, n=120, s=8, sigma=0.01, seed=0))
        data = data.with_rho(0.1 * data.bnorm)
        cfg = SmopConfig(stoptol=1e-8, sieve=sieving)
        res = smop_solve(data, L1(), cfg)
        final = next(e for e in res.evals if e.lam == res.lambda_star)
        assert final.converged
        assert res.converged
        eps_in = min(KKT_TOL, 0.01 * cfg.stoptol * max(1.0, data.rho))
        assert eta_l(res.x, data.A, data.b, L1(), res.lambda_star) <= 10 * eps_in

    @pytest.mark.parametrize("sieving", [True, False])
    def test_iterate_support_above_row_count_certifies(self, sieving):
        # a small rho pushes APG iterates past m = 20 nonzeros, where G_JJ is
        # singular; APG alone took 19,166 (sieving) and 32,941 inner
        # iterations here
        data, _ = synth_instance(SynthSpec(m=20, n=200, s=5, sigma=0.01, seed=3))
        data = data.with_rho(0.01 * data.bnorm)
        cfg = SmopConfig(stoptol=1e-8, sieve=sieving)
        res = smop_solve(data, L1(), cfg)
        assert res.converged
        eps_in = min(KKT_TOL, 0.01 * cfg.stoptol * max(1.0, data.rho))
        assert eta_l(res.x, data.A, data.b, L1(), res.lambda_star) <= 10 * eps_in
        assert res.inner_iters_total <= 2000

    @pytest.mark.parametrize("sieving", [True, False])
    @pytest.mark.parametrize("kind", ["l1", "slope"])
    def test_duplicate_columns_support_above_row_count_certifies(self, kind, sieving):
        # 3 rows, columns [a, 0, c, a, e, c, -c, -c] and rho -> 0: the optimal
        # support spreads over the copies, 7 columns > m; the minimum-norm
        # Newton point certifies (APG alone: about 18,600 inner iterations
        # for l1 and 19,250 for sorted-l1)
        rng = np.random.default_rng(1)
        a, c, e = rng.standard_normal((3, 3))
        dense = np.column_stack([a, np.zeros(3), c, a, e, c, -c, -c])
        data = ProblemData(SparseMatrix.from_dense(dense), np.column_stack([a, c, e]) @ rng.standard_normal(3))
        data = data.with_rho(1e-4 * data.bnorm)
        reg = L1() if kind == "l1" else SortedL1(linear_weights(8))
        cfg = SmopConfig(stoptol=1e-8, sieve=sieving)
        res = smop_solve(data, reg, cfg)
        assert res.converged
        eps_in = min(KKT_TOL, 0.01 * cfg.stoptol * max(1.0, data.rho))
        assert eta_l(res.x, data.A, data.b, reg, res.lambda_star) <= 10 * eps_in
        assert np.count_nonzero(res.x) > data.A.m
        assert res.inner_iters_total <= 200

    def test_l1_counter_pin(self):
        # the Newton step changes no root-finder step (APG alone: 6
        # evaluations, 507 inner iterations); the piece-root step-down of the
        # bracket search takes the count from 6 to 4, and the piece root as the
        # root finder's first proposal from 4 to 3
        data, _ = synth_instance(SynthSpec(m=60, n=400, s=8, sigma=0.01, seed=1))
        data = data.with_rho(0.1 * data.bnorm)
        res = smop_solve(data, L1(), SmopConfig(stoptol=1e-8))
        assert res.converged
        assert res.n_subproblems == 3
        assert res.inner_iters_total <= 100

    @pytest.mark.parametrize("kind", ["l1", "sorted-l1"])
    def test_empty_round_reads_the_lambda_inf_product(self, monkeypatch, kind):
        # A^T b is formed once per instance: lambda_inf and the sieve's round
        # from the empty set share it
        data, _ = synth_instance(SynthSpec(m=60, n=400, s=8, sigma=0.01, seed=11))
        reg = L1() if kind == "l1" else SortedL1(linear_weights(400))
        calls = []
        rmatvec = SparseMatrix.rmatvec

        def counting(self, y):
            calls.append(1)
            return rmatvec(self, y)

        monkeypatch.setattr(SparseMatrix, "rmatvec", counting)
        # with_rho forms the instance's A^T b, which the level shares
        data = data.with_rho(0.1 * data.bnorm)
        shared = smop_solve(data, reg, SmopConfig(stoptol=1e-8))
        rounds = [r for rec in shared.evals for r in rec.rounds]
        assert sum(r.size_I == 0 for r in rounds) == 1
        # A^T b, then one A^T y per round over a nonempty set
        assert len(calls) == 1 + sum(r.size_I > 0 for r in rounds)
        # each read forms the product again: one call more, the same iterates
        monkeypatch.setattr(ProblemData, "Atb", property(lambda d: d.A.rmatvec(d.b)))
        n_shared = len(calls)
        calls.clear()
        fresh = smop_solve(ProblemData(data.A, data.b, data.rho), reg, SmopConfig(stoptol=1e-8))
        assert len(calls) == n_shared + 1
        assert fresh.lambda_star == shared.lambda_star
        assert fresh.x.tobytes() == shared.x.tobytes()

    def test_kept_product_is_read_only(self):
        data, _ = synth_instance(SynthSpec(m=20, n=50, s=3, seed=2))
        assert data.Atb is data.Atb
        assert data.with_rho(0.5 * data.bnorm).Atb is data.Atb
        np.testing.assert_array_equal(data.Atb, data.A.rmatvec(data.b))
        with pytest.raises(ValueError):
            data.Atb[0] = 1.0

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("kind", ["l1", "slope"])
    def test_warm_result_seeds_nearby_level(self, kind, seed):
        # the result at a 5% higher level warm-starts the solve to the same
        # root. It no longer saves evaluations: warm <= cold fails on three of
        # the four. The cold search steps from (lambda_inf, ||b||) to the
        # piece root, while the warm one first evaluates both of its guesses
        # (ROADMAP item 1). Both counts are pinned, so that a change shows.
        data, _ = synth_instance(SynthSpec(m=60, n=400, s=8, sigma=0.01, seed=seed))
        reg = L1() if kind == "l1" else SortedL1(linear_weights(400))
        cfg = SmopConfig(stoptol=1e-8)
        prev = smop_solve(data.with_rho(1.05 * 0.1 * data.bnorm), reg, cfg)
        data = data.with_rho(0.1 * data.bnorm)
        cold = smop_solve(data, reg, cfg)
        warm = smop_solve(data, reg, cfg, warm=prev)
        assert cold.converged and warm.converged
        assert warm.lambda_star == pytest.approx(cold.lambda_star, rel=1e-6)
        want = {("l1", 1): (3, 4), ("l1", 2): (2, 4), ("slope", 1): (2, 4), ("slope", 2): (4, 4)}
        assert (cold.n_subproblems, warm.n_subproblems) == want[kind, seed]

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("kind", ["l1", "slope"])
    def test_warm_result_from_lower_level_seeds_only_x(self, kind, seed):
        # a result at a lower level has its lambda* below the root, so its
        # guesses are not used: its x seeds the cold search. With the guesses,
        # every one of these solves took 5 or 7 evaluations
        data, _ = synth_instance(SynthSpec(m=60, n=400, s=8, sigma=0.01, seed=seed))
        reg = L1() if kind == "l1" else SortedL1(linear_weights(400))
        cfg = SmopConfig(stoptol=1e-8)
        rho = 0.1 * data.bnorm
        cold = smop_solve(data.with_rho(rho), reg, cfg)
        counts = []
        for c in (0.3, 0.5, 0.95):
            prev = smop_solve(data.with_rho(c * rho), reg, cfg)
            warm = smop_solve(data.with_rho(rho), reg, cfg, warm=prev)
            assert warm.converged
            assert warm.lambda_star == pytest.approx(cold.lambda_star, rel=1e-6)
            assert warm.n_subproblems <= cold.n_subproblems + 1
            counts.append(warm.n_subproblems)
        want = {("l1", 1): (3, [3, 3, 3]), ("l1", 2): (2, [2, 3, 2]),
                ("slope", 1): (2, [3, 2, 3]), ("slope", 2): (4, [4, 4, 4])}
        assert (cold.n_subproblems, counts) == want[kind, seed]

    def test_trace_spans_every_sieve_round(self):
        # the first evaluation grows its set from empty over several sieve
        # rounds; its record keeps every one of them, and their iterations
        # sum to the evaluation's
        data, _ = synth_instance(SynthSpec(m=40, n=120, s=8, sigma=0.01, seed=2))
        data = data.with_rho(0.1 * data.bnorm)
        res = smop_solve(data, L1(), SmopConfig(stoptol=1e-8))
        rec = res.evals[0]
        assert len(rec.rounds) >= 2
        assert sum(r.inner_iters for r in rec.rounds) == rec.inner_iters
        assert rec.rounds[-1].size_J == 0

    @pytest.mark.parametrize("sieving", [True, False])
    def test_uncertified_bracket_evaluations_named(self, monkeypatch, sieving):
        # one sieve round (x = 0) or one APG iteration leaves phi near ||b||,
        # so the lower bracket end runs off the numeric range; the error must
        # name the uncertified evaluations, not only the range
        data, _ = synth_instance(SynthSpec(m=40, n=120, s=8, sigma=0.01, seed=0))
        data = data.with_rho(0.1 * data.bnorm)
        if sieving:
            monkeypatch.setattr("smop.sieving.MAX_ROUNDS", 1)
        else:
            monkeypatch.setattr("smop.inner.MAX_ITERS", 1)
        cfg = SmopConfig(stoptol=1e-8, sieve=sieving)
        with pytest.raises(BracketError, match="did not certify their KKT residual") as exc:
            smop_solve(data, L1(), cfg)
        assert re.match(r"\d+ of \d+ phi evaluations in the bracket search", str(exc.value))
        assert str(exc.value.__cause__) in str(exc.value)
        assert isinstance(exc.value.__cause__, BracketError)

    def test_uncertified_root_evaluations_named(self, monkeypatch):
        # after the bracket search every evaluation stops uncertified at
        # phi = nan: the root finder ends at the first one, and the error
        # counts it as the bracket search's error counts its own. On the
        # second step of a path the root lies inside the warm bracket
        data, _ = synth_instance(SynthSpec(m=40, n=120, s=8, sigma=0.01, seed=0))
        cfg = SmopConfig(stoptol=1e-8)
        first, second = PathSpec(base_c=0.1, count=4).rhos(data.bnorm)[:2]
        prev = smop_solve(data.with_rho(first), L1(), cfg)
        brackets, evaluate, search = [], driver.phi_eval, driver.bracket_init

        def bracket(*args):
            brackets.append(search(*args))
            return brackets[-1]

        def failing(*args, **kwargs):
            res, trace = evaluate(*args, **kwargs)
            if brackets:
                res.phi, res.converged = float("nan"), False
            return res, trace

        monkeypatch.setattr(driver, "bracket_init", bracket)
        monkeypatch.setattr(driver, "phi_eval", failing)
        with pytest.raises(BracketError, match="did not certify their KKT residual") as exc:
            smop_solve(data.with_rho(second), L1(), cfg, warm=prev)
        assert len(brackets) == 1
        assert re.match(r"1 of \d+ phi evaluations in the bracket and root search",
                        str(exc.value))
        assert "is not finite" in str(exc.value)
        assert isinstance(exc.value.__cause__, BracketError)

    def test_configs_are_frozen(self):
        # a field set after construction would skip its check: mu = 1.5
        # loosens the sufficient-decrease safeguard
        cfg = SmopConfig()
        for name, value in [("stoptol", 1e-3), ("mu", 1.5), ("sieve", None)]:
            with pytest.raises(AttributeError):
                setattr(cfg, name, value)
        assert cfg == SmopConfig()

    @pytest.mark.parametrize("mu", [0.0, 1.0, -1.0, float("nan")])
    def test_mu_must_lie_in_open_unit_interval(self, mu):
        with pytest.raises(ValueError, match=r"mu must lie in \(0, 1\)"):
            SmopConfig(mu=mu)

    @pytest.mark.parametrize("sieve", [None, 0, 1, "False"])
    def test_sieve_must_be_a_bool(self, sieve):
        # sieve=None once asked for direct solves; it must not pass as a flag
        with pytest.raises(ValueError, match="sieve must be True or False"):
            SmopConfig(sieve=sieve)

    def test_two_root_finders(self):
        # the Newton hybrid is gone; its names are split so that a search for
        # them finds no live use
        assert smop.METHODS == ("smop", "bmop")
        assert not hasattr(smop, "newton_" "hybrid_solve")
        with pytest.raises(ValueError, match=re.escape("('smop', 'bmop')")):
            SmopConfig(method="n" "mop")

    def test_to_doc_roundtrip(self, diagonal_data):
        res = smop_solve(diagonal_data, L1(), SmopConfig(stoptol=1e-9))
        doc = res.to_doc()
        x = np.zeros(doc["n"])
        x[doc["solution_indices"]] = doc["solution_values"]
        np.testing.assert_array_equal(x, res.x)


def _events_solve(kind, sieve):
    data, _ = synth_instance(SynthSpec(m=40, n=120, s=8, sigma=0.01, seed=2))
    reg = L1() if kind == "l1" else SortedL1(linear_weights(120))
    cfg = SmopConfig(stoptol=1e-8, sieve=sieve)
    res = smop_solve(data.with_rho(0.1 * data.bnorm), reg, cfg)
    return data, reg, res, list(res.events())


@pytest.mark.parametrize("kind", ["l1", "slope"])
@pytest.mark.parametrize("sieve", [True, False])
class TestEvents:
    def test_eval_events_cover_every_evaluation_in_order(self, kind, sieve):
        _, _, res, events = _events_solve(kind, sieve)
        evals = [e for e in events if e["event"] == "eval"]
        assert [e["eval"] for e in evals] == list(range(1, res.n_subproblems + 1))
        # bracket-search points that are not bracket ends get events too
        assert {e["lam"] for e in evals} - {it.lam for it in res.root_state.history}
        for e, rec in zip(evals, res.evals):
            assert (e["lam"], e["phi"], e["eta_l"], e["inner_iters"], e["support"],
                    e["converged"]) == (rec.lam, rec.phi, rec.eta_l, rec.inner_iters,
                                        rec.support, rec.converged)
            assert e["eta"] == eta(rec.phi, res.rho)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "eval"
        assert set(kinds[kinds.index("iterate"):]) == {"iterate"}

    def test_rounds_follow_their_evaluation(self, kind, sieve):
        _, _, res, events = _events_solve(kind, sieve)
        rounds = {}
        current = None
        for e in events:
            if e["event"] == "eval":
                current = e
                rounds[e["eval"]] = []
            elif e["event"] == "round":
                assert e["eval"] == current["eval"]
                assert e["round"] == len(rounds[e["eval"]]) + 1
                rounds[e["eval"]].append(e)
        if not sieve:
            assert not any(rounds.values())
            return
        for rec in res.evals:
            own = rounds[rec.index]
            assert own and sum(r["inner_iters"] for r in own) == rec.inner_iters
            if rec.converged:
                assert own[-1]["size_J"] == 0

    def test_iterates_name_the_evaluation_of_their_lam(self, kind, sieve):
        _, _, res, events = _events_solve(kind, sieve)
        by_index = {rec.index: rec for rec in res.evals}
        iterates = [e for e in events if e["event"] == "iterate"]
        assert len(iterates) == len(res.root_state.history)
        for e, it in zip(iterates, res.root_state.history):
            assert (e["k"], e["step"], e["lo"], e["hi"]) == (it.k, it.step, it.lo, it.hi)
            assert by_index[e["eval"]].lam == it.lam

    def test_eta_l_is_the_full_kkt_residual(self, kind, sieve):
        with evaluation_solutions() as xs:
            data, reg, res, _ = _events_solve(kind, sieve)
        for rec in res.evals:
            want = eta_l(xs[rec.lam], data.A, data.b, reg, rec.lam)
            assert rec.eta_l == pytest.approx(want, rel=1e-6, abs=1e-14)


@pytest.mark.parametrize("kind", ["l1", "slope"])
@pytest.mark.parametrize("sieve", [True, False])
def test_result_kkt_is_the_full_kkt_residual(kind, sieve):
    data, reg, res, _ = _events_solve(kind, sieve)
    assert res.kkt == next(rec.eta_l for rec in res.evals if rec.lam == res.lambda_star)
    want = eta_l(res.x, data.A, data.b, reg, res.lambda_star)
    assert res.kkt == pytest.approx(want, rel=1e-6, abs=1e-14)
    assert res.to_doc()["kkt"] == res.kkt


class TestPieceRootBracket:
    """The cold bracket search starts at ``(lambda_inf, ||b||)`` and steps down
    to the piece root through the derivative of a certified evaluation."""

    @pytest.mark.parametrize("c, top", [(0.1, False), (0.3, True), (0.999, True)])
    def test_cold_search_starts_from_lambda_inf_unevaluated(self, c, top, monkeypatch):
        # every phi_eval call is an evaluation of the result, and 0.95 lambda_inf
        # is not one of them; where the first step lands below the root, the
        # upper end stays at lambda_inf and the root finder evaluates it
        import smop.driver as driver

        calls = []
        orig = driver.phi_eval
        monkeypatch.setattr(driver, "phi_eval",
                            lambda *a, **k: calls.append(a[2]) or orig(*a, **k))
        data, _ = synth_instance(SynthSpec(m=60, n=400, s=8, sigma=0.01, seed=1))
        data = data.with_rho(c * data.bnorm)
        lam_top = lambda_inf(L1(), data.A, data.b)
        res = smop_solve(data, L1(), SmopConfig(stoptol=1e-8))
        assert res.converged
        assert calls == [rec.lam for rec in res.evals]
        assert calls[0] == lam_top * max(0.1, 0.5 * data.rho / data.bnorm)
        assert 0.95 * lam_top not in calls
        assert (res.bracket[1] == lam_top) == (lam_top in calls) == top

    @pytest.mark.parametrize("kind", ["l1", "slope"])
    def test_derivative_formed_once_per_evaluation(self, kind, monkeypatch):
        # near ||b|| the upper end stays at lambda_inf, the nearer end, and has
        # no piece, so the first trial is the secant step. The record keeps
        # the answer of the one ask at each lam, and the iterates are those of
        # a derivative formed afresh on every ask
        data, _ = synth_instance(SynthSpec(m=60, n=400, s=8, sigma=0.01, seed=1))
        data = data.with_rho(0.99 * data.bnorm)
        reg = L1() if kind == "l1" else SortedL1(linear_weights(400))
        cfg = SmopConfig(stoptol=1e-10)
        calls = []
        monkeypatch.setattr(driver, "phi_derivative",
                            lambda data, reg, x, lam, phi: calls.append(lam)
                            or phi_derivative(data, reg, x, lam, phi))
        kept = smop_solve(data, reg, cfg)
        assert calls and len(calls) == len(set(calls))
        assert sorted(calls) == sorted(rec.lam for rec in kept.evals if rec.slope is not None)
        slopes = {e["eval"]: e["slope"] for e in kept.events() if e["event"] == "eval"}
        assert slopes == {rec.index: rec.slope for rec in kept.evals}
        calls.clear()
        monkeypatch.setattr(driver._PhiOracle, "derivative",
                            lambda self, lam: driver.phi_derivative(
                                ProblemData(data.A, data.b), reg, self.xs[lam], lam,
                                self.cache[lam].phi))
        fresh = smop_solve(data, reg, cfg)
        assert calls and len(calls) == len(set(calls))
        assert [(it.lam, it.step) for it in kept.root_state.history] == \
            [(it.lam, it.step) for it in fresh.root_state.history]
        np.testing.assert_array_equal(kept.x, fresh.x)

    def test_refused_derivative_kept_as_its_reason(self):
        # x = 0 at lambda_inf has no piece: the reason is kept and raised again
        from smop.driver import _PhiOracle

        data, _ = synth_instance(SynthSpec(m=40, n=120, s=5, sigma=0.01, seed=3))
        lam_top = lambda_inf(L1(), data.A, data.b)
        oracle = _PhiOracle(data, L1(), 1e-10, False)
        oracle(lam_top)
        assert not oracle.xs[lam_top].any()
        for _ in range(2):
            with pytest.raises(ValueError, match="zero support"):
                oracle.derivative(lam_top)
        assert oracle.cache[lam_top].slope == "derivative undefined at zero support"

    def test_non_finite_piece_system_kept_as_its_reason(self, monkeypatch):
        # a NaN in the support's Gram matrix stops the piece solve before
        # LAPACK and least squares: the slope is the reason, not a NaN
        from smop.driver import _PhiOracle

        data, _ = synth_instance(SynthSpec(m=40, n=120, s=5, sigma=0.01, seed=3))
        lam = 0.3 * lambda_inf(L1(), data.A, data.b)
        oracle = _PhiOracle(data, L1(), 1e-10, True)
        oracle(lam)
        monkeypatch.setattr("smop.inner._dense_gram", lambda A_J: np.full((A_J.shape[1],) * 2,
                                                                           np.nan))
        monkeypatch.setattr(np.linalg, "lstsq", None)
        with pytest.raises(ValueError, match="piece system must be finite"):
            oracle.derivative(lam)
        assert oracle.cache[lam].slope == "piece system must be finite"

    def test_uncertified_evaluation_gives_no_derivative(self, monkeypatch):
        # one APG iteration certifies nothing: the derivative is refused, and
        # the bracket search takes the plain step lam * max(0.1, 0.5 rho / phi)
        from smop.driver import _PhiOracle

        data, _ = synth_instance(SynthSpec(m=40, n=120, s=8, sigma=0.01, seed=0))
        lam_top = lambda_inf(L1(), data.A, data.b)
        lam = 0.3 * lam_top
        monkeypatch.setattr("smop.inner.MAX_ITERS", 1)
        oracle = _PhiOracle(data, L1(), KKT_TOL, False)
        p = oracle(lam)
        assert not oracle.cache[lam].converged
        with pytest.raises(ValueError, match="no certified evaluation"):
            oracle.derivative(lam)
        rho = 0.5 * p
        try:
            bracket_init(oracle, rho, lam_top, data.bnorm, oracle.derivative, hi=lam)
        except BracketError:
            pass  # uncertified evaluations may never cross rho
        assert list(oracle.cache)[1] == lam * 0.25
        # certified, the same point gives phi_derivative's value
        monkeypatch.undo()
        certified = _PhiOracle(data, L1(), KKT_TOL, False)
        p = certified(lam)
        assert certified.derivative(lam) == \
            phi_derivative(ProblemData(data.A, data.b), L1(), certified.xs[lam], lam, p)

    def test_derivative_refuses_an_unevaluated_lam(self):
        from smop.driver import _PhiOracle

        data, _ = synth_instance(SynthSpec(m=40, n=120, s=8, sigma=0.01, seed=0))
        lam = 0.3 * lambda_inf(L1(), data.A, data.b)
        oracle = _PhiOracle(data, L1(), KKT_TOL, False)
        oracle(lam)
        assert oracle.cache[lam].converged
        oracle.derivative(lam)
        with pytest.raises(ValueError, match="no certified evaluation"):
            oracle.derivative(0.5 * lam)
        assert list(oracle.cache) == [lam]  # asking evaluates nothing


class TestSolvePath:
    def test_single_step_reduces_to_solve(self, scalar_data):
        # a single step runs at the top of the schedule, 1.5 * 0.2 ||b||
        spec = PathSpec(base_c=0.2, count=1)
        path = solve_path(scalar_data, L1(), spec, SmopConfig(stoptol=1e-9))
        assert len(path.steps) == 1
        single = smop_solve(scalar_data.with_rho(0.3), L1(), SmopConfig(stoptol=1e-9))
        assert path.steps[0].result.lambda_star == pytest.approx(single.lambda_star, abs=1e-9)

    def test_scalar_path_tracks_rho(self, scalar_data):
        spec = PathSpec(base_c=0.3, count=8)
        path = solve_path(scalar_data, L1(), spec, SmopConfig(stoptol=1e-9))
        assert path.failures == 0
        for step in path.steps:
            assert step.result.lambda_star == pytest.approx(step.rho, abs=1e-8)

    def test_default_multiplier_schedule(self):
        rhos = PathSpec(base_c=0.1, count=100).rhos(1.0)
        assert rhos.shape == (100,)
        assert rhos[0] == pytest.approx(0.15)
        assert rhos[-1] == pytest.approx(0.1)
        assert rhos[49] == pytest.approx(0.1 * (1.5 - 0.5 * 49 / 99))

    def test_lambda_monotone_as_rho_decreases(self):
        data, _ = synth_instance(SynthSpec(m=50, n=200, s=6, sigma=0.02, seed=23))
        path = solve_path(data, L1(), PathSpec(base_c=0.2, count=6), SmopConfig(stoptol=1e-8))
        lams = [s.result.lambda_star for s in path.steps]
        assert all(b <= a + 1e-8 for a, b in zip(lams, lams[1:]))

    def test_invalid_rho_schedule(self, scalar_data):
        with pytest.raises(ValueError, match="rho_i"):
            solve_path(scalar_data, L1(), PathSpec(base_c=0.9, count=3), SmopConfig())

    def test_failed_step_recorded_and_path_continues(self, monkeypatch):
        # with no trial the root finder stops at the bracket end nearer rho,
        # unconverged at stoptol=1e-12 (on seed 24 the bracket search's piece
        # root reaches it in one of the three steps)
        monkeypatch.setattr(smop.rootfind, "MAX_OUTER", 0)
        data, _ = synth_instance(SynthSpec(m=40, n=150, s=5, sigma=0.02, seed=25))
        cfg = SmopConfig(stoptol=1e-12)
        path = solve_path(data, L1(), PathSpec(base_c=0.2, count=3), cfg)
        assert path.failures == len(path.steps) == 3

    def test_secant_path_beats_bisection(self):
        data, _ = synth_instance(SynthSpec(m=60, n=400, s=8, sigma=0.02, seed=25))
        spec = PathSpec(base_c=0.15, count=8)
        smop_path = solve_path(data, L1(), spec, SmopConfig(stoptol=1e-6, method="smop"))
        bmop_path = solve_path(data, L1(), spec, SmopConfig(stoptol=1e-6, method="bmop"))
        assert smop_path.failures == bmop_path.failures == 0
        mean_s = smop_path.summary()["mean_subproblems"]
        mean_b = bmop_path.summary()["mean_subproblems"]
        assert mean_s <= 0.5 * mean_b

    def test_summary_fields(self, scalar_data):
        path = solve_path(scalar_data, L1(), PathSpec(base_c=0.3, count=2), SmopConfig())
        s = path.summary()
        assert s["steps"] == 2 and s["failures"] == 0
        assert s["total_subproblems"] >= s["mean_subproblems"]

    def test_full_hundred_step_protocol(self):
        # the default schedule runs 100 constraint levels from 1.5c||b|| down
        # to 1.0c||b||; warm starts must keep every step cheap and convergent
        data, _ = synth_instance(SynthSpec(m=80, n=400, s=10, sigma=0.02, seed=29))
        path = solve_path(data, L1(), PathSpec(base_c=0.15), SmopConfig(stoptol=1e-6))
        assert len(path.steps) == 100
        assert path.failures == 0
        lams = [s.result.lambda_star for s in path.steps]
        assert all(b <= a + 1e-8 for a, b in zip(lams, lams[1:]))
        # the cold first step took 5 evaluations before the piece-root
        # step-down; the warm steps must stay below that
        warm = [s.result.n_subproblems for s in path.steps[1:]]
        assert np.mean(warm) < 5
        assert path.steps[0].result.n_subproblems == 2


class TestEdgeInstances:
    def test_unreachable_rho_on_tall_instance(self):
        # overdetermined system: the least-squares residual is bounded away
        # from zero, so a tiny rho admits no root
        rng = np.random.default_rng(30)
        A = SparseMatrix.from_dense(rng.standard_normal((20, 5)))
        b = rng.standard_normal(20)
        data = ProblemData(A, b, rho=1e-9 * np.linalg.norm(b))
        with pytest.raises(BracketError, match="too small"):
            smop_solve(data, L1(), SmopConfig(stoptol=1e-8))

    @pytest.mark.parametrize("reg", [L1(), SortedL1(linear_weights(3))], ids=["l1", "slope"])
    def test_infeasible_level_names_least_squares_residual(self, reg):
        # rho at half the least-squares residual (0.81 ||b||): no lam reaches it
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((10, 3))
        b = rng.standard_normal(10)
        r_ls = np.linalg.norm(b - dense @ np.linalg.lstsq(dense, b, rcond=None)[0])
        data = ProblemData(SparseMatrix.from_dense(dense), b, rho=0.5 * r_ls)
        with pytest.raises(BracketError, match="below the least-squares residual") as exc:
            smop_solve(data, reg, SmopConfig(stoptol=1e-8))
        # the message gives phi at the lam floor, which is that residual
        phi_floor = float(re.search(r"\)=(\S+) near the lam floor", str(exc.value)).group(1))
        assert phi_floor == pytest.approx(r_ls, rel=1e-5)

    @pytest.mark.parametrize("method", ["smop", "bmop"])
    def test_opposite_columns_end_in_time(self, method):
        # columns [u, -u] once drove the Lipschitz estimate to ~0 and the
        # inner iterates to NaN; the solve must now end certified or flagged
        rng = np.random.default_rng(0)
        u = rng.standard_normal(30)
        b = u + 0.1 * rng.standard_normal(30)
        r_min = np.linalg.norm(b - u * (u @ b) / (u @ u))
        data = ProblemData(SparseMatrix.from_dense(np.column_stack([u, -u])), b,
                           rho=0.5 * (r_min + np.linalg.norm(b)))
        t0 = time.perf_counter()
        res = smop_solve(data, L1(), SmopConfig(stoptol=1e-8, method=method))
        assert time.perf_counter() - t0 < 10.0
        assert np.all(np.isfinite(res.x))
        if res.converged:
            assert res.eta <= 1e-8
            assert eta_l(res.x, data.A, data.b, L1(), res.lambda_star) <= 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_scale_ends_uncertified(self, monkeypatch):
        # a design on the scale 1e150 overflows the APG certificate; the first
        # evaluation stops there, uncertified, with phi = nan, and the bracket
        # search ends at it, sieved or direct (without the guards: 13
        # evaluations of 20,000 iterations, then 12 walking to the lam floor).
        # The sieve stops at the first round whose reduced phi is not finite
        # (without that stop: all 100 rounds, 99 of them one iteration each)
        iters, rounds = [], []
        orig = driver.phi_eval

        def counted(*args, **kwargs):
            out = orig(*args, **kwargs)
            iters.append(out[0].iters)
            rounds.append(len(out[1].rounds))
            return out

        monkeypatch.setattr(driver, "phi_eval", counted)
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((20, 60)) * 1e150
        b = rng.standard_normal(20) * 1e150
        data = ProblemData(SparseMatrix.from_dense(dense), b)
        data = data.with_rho(0.1 * data.bnorm)
        for sieve in (False, True):
            iters.clear()
            rounds.clear()
            t0 = time.perf_counter()
            with pytest.raises(BracketError, match="did not certify") as exc:
                smop_solve(data, L1(), SmopConfig(stoptol=1e-8, sieve=sieve))
            assert "is not finite" in str(exc.value)
            assert time.perf_counter() - t0 < 10.0
            assert len(iters) == 1
            assert iters[0] <= MAX_ROUNDS
            if sieve:
                assert rounds[0] <= 2 and iters[0] <= 1

    def test_rho_barely_below_bnorm(self):
        data, _ = synth_instance(SynthSpec(m=30, n=90, s=4, sigma=0.01, seed=31))
        data = data.with_rho(0.999 * data.bnorm)
        res = smop_solve(data, L1(), SmopConfig(stoptol=1e-8))
        assert res.converged
        assert res.eta <= 1e-8
