"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from smop import (
    L1,
    ProblemData,
    SmopConfig,
    SortedL1,
    SparseMatrix,
    SynthSpec,
    lambda_inf,
    linear_weights,
    phi_derivative,
    phi_eval,
    q_order_estimate,
    secant_solve,
    sieve_solve,
    smop_solve,
    solve_reduced,
    synth_instance,
    eval_beta_fn,
    eval_constructed_fn,
)
from smop.cli import sci

from test_driver import evaluation_solutions
from test_regularizers import oracle_prox_sorted

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


def report(num, detail):
    print(f"[criterion {num}] PASS  {detail}")


@pytest.fixture(scope="module")
def suite():
    """Ten synthetic l1 instances (m=200, n=2000, s=20, rho = 0.1 ||b||)."""
    out = []
    for seed in range(10):
        data, _ = synth_instance(SynthSpec(m=200, n=2000, s=20, sigma=0.01, seed=seed))
        out.append(data.with_rho(0.1 * data.bnorm))
    return out


@pytest.fixture(scope="module")
def suite_runs_1e8(suite):
    """SMOP and BMOP runs at stoptol 1e-8 over the suite, and per SMOP run
    the ``x`` of each evaluation, keyed by its ``lam``."""
    runs, smop_xs = {}, []
    for method in ("smop", "bmop"):
        cfg = SmopConfig(stoptol=1e-8, method=method)
        runs[method] = []
        for data in suite:
            with evaluation_solutions() as xs:
                runs[method].append(smop_solve(data, L1(), cfg))
            if method == "smop":
                smop_xs.append(xs)
    return runs, smop_xs


def test_criterion_1_table_one():
    for beta in (1.1, 1.5, 2.1):  # warm up before timing
        secant_solve(lambda x: eval_beta_fn(x, beta), 0.01, 0.005, 0.0, 8)
    t0 = time.perf_counter()
    tables = {
        beta: secant_solve(lambda x: eval_beta_fn(x, beta), 0.01, 0.005, 0.0, 8)
        for beta in (1.1, 1.5, 2.1)
    }
    elapsed = time.perf_counter() - t0
    for beta, iters in tables.items():
        assert [sci(v) for v in iters] == TABLE_BETA[beta]
    assert elapsed < 1e-3
    report(1, f"3 cases x 8 iterates match at 2 significant digits ({elapsed * 1e6:.0f} us)")


def test_criterion_2_table_two():
    secant_solve(eval_constructed_fn, 0.545, 0.5, 0.0, 8)  # warm up
    t0 = time.perf_counter()
    iters = secant_solve(eval_constructed_fn, 0.545, 0.5, 0.0, 8)
    fvals = [eval_constructed_fn(v) for v in iters]
    elapsed = time.perf_counter() - t0
    assert [sci(v) for v in iters] == TABLE_CONSTRUCTED_X
    assert [sci(v) for v in fvals] == TABLE_CONSTRUCTED_F
    order = q_order_estimate(np.abs(iters))
    assert 1.45 <= order <= 1.8
    assert elapsed < 1e-3
    report(2, f"8 iterates + f-values match; q-order {order:.3f} in [1.45, 1.8] "
              f"({elapsed * 1e6:.0f} us)")


def test_criterion_3_closed_forms(scalar_data, diagonal_data):
    targets = [
        (scalar_data, 0.3, "scalar"),
        (diagonal_data, 1.0 / np.sqrt(5.0), "diagonal"),
    ]
    # sieving is pure overhead at n in {1, 2}; phi' >= 1 on both instances,
    # so eta <= 1e-8 pins lambda to 1e-8
    cfg = lambda method: SmopConfig(stoptol=1e-8, method=method, sieve=False)
    smop_solve(scalar_data, L1(), cfg("bmop"))  # warm up
    worst_ms = 0.0
    for data, lam_expect, name in targets:
        for method in ("smop", "bmop"):
            t0 = time.perf_counter()
            res = smop_solve(data, L1(), cfg(method))
            ms = 1000.0 * (time.perf_counter() - t0)
            worst_ms = max(worst_ms, ms)
            assert abs(res.lambda_star - lam_expect) <= 1e-8, (name, method)
            assert ms < 10.0, (name, method, ms)
    report(3, f"scalar and diagonal solved by smop/bmop to 1e-8 "
              f"(slowest {worst_ms:.2f} ms)")


def test_criterion_4_cross_method_oracle(suite):
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_eta = 0.0
    worst_polar = 0.0
    worst_gap = 0.0
    reg = L1()
    for data in suite:
        with evaluation_solutions() as xs:
            res_s = smop_solve(data, reg, SmopConfig(stoptol=1e-6))
        res_b = smop_solve(data, reg, SmopConfig(stoptol=1e-10, method="bmop"))
        rel = abs(res_s.lambda_star - res_b.lambda_star) / res_b.lambda_star
        worst_rel = max(worst_rel, rel)
        worst_eta = max(worst_eta, res_s.eta)
        assert rel <= 1e-5
        assert res_s.eta <= 1e-6
        for ev in res_s.evals:  # gauge KKT at every accepted solve
            x = xs[ev.lam]
            y = data.b - data.A.matvec(x)
            u = data.A.rmatvec(y)
            polar_excess = reg.polar(u) / ev.lam - 1.0
            gap = abs(x @ u - ev.lam * reg.value(x))
            gap_rel = gap / (1.0 + ev.lam * reg.value(x))
            worst_polar = max(worst_polar, polar_excess)
            worst_gap = max(worst_gap, gap_rel)
            assert polar_excess <= 1e-6
            assert gap_rel <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(4, f"10 instances: |lam_smop - lam_bmop| rel <= {worst_rel:.1e}, "
              f"eta <= {worst_eta:.1e}, polar excess <= {worst_polar:.1e}, "
              f"compl gap <= {worst_gap:.1e} ({elapsed:.1f} s)")


def test_criterion_5_sieving_equivalence():
    t0 = time.perf_counter()
    eps = 1e-9
    worst_rel = 0.0
    for seed in range(10):
        data, _ = synth_instance(SynthSpec(m=80, n=400, s=10, sigma=0.02, seed=seed))
        reg = L1() if seed % 2 == 0 else SortedL1(linear_weights(400))
        lam = 0.3 * lambda_inf(reg, data.A, data.b)
        res, trace = sieve_solve(data, reg, lam, [], tol=eps)
        assert res.converged
        grad = data.A.rmatvec(data.A.matvec(res.x) - data.b)
        R = res.x - reg.prox(res.x - grad, lam)
        assert np.linalg.norm(R) <= eps
        sizes = [r.size_I for r in trace.rounds]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        full = solve_reduced(data, reg, lam, np.arange(400), tol=eps)
        rel = abs(res.objective - full.objective) / (1.0 + abs(full.objective))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    report(5, f"10 instances (l1 + sorted-l1): objective gap <= {worst_rel:.1e}, "
              f"full-dim residual <= eps, monotone growth ({elapsed:.1f} s)")


def test_criterion_6_efficiency(suite_runs_1e8):
    evals = {m: [r.n_subproblems for r in runs] for m, runs in suite_runs_1e8[0].items()}
    med_s = float(np.median(evals["smop"]))
    med_b = float(np.median(evals["bmop"]))
    assert med_s <= 0.5 * med_b
    report(6, f"median phi-evaluations: smop {med_s:.1f} <= 0.5 * bmop {med_b:.1f}")


def test_criterion_7_property_suites(suite, suite_runs_1e8):
    t0 = time.perf_counter()

    # phi nondecreasing on lambda grids, strictly increasing below lambda_inf
    for seed in (30, 31):
        data, _ = synth_instance(SynthSpec(m=60, n=300, s=8, sigma=0.02, seed=seed))
        for reg in (L1(), SortedL1(linear_weights(300))):
            lam_top = lambda_inf(reg, data.A, data.b)
            phis = [phi_eval(data, reg, f * lam_top, tol=1e-9, sieve=False)[0].phi
                    for f in np.linspace(0.1, 1.0, 10)]
            assert np.all(np.diff(phis) >= -10 * 1e-9)
            assert np.all(np.diff(phis) > 0)
            # at and above lambda_inf the zero vector solves the problem
            res, _ = phi_eval(data, reg, 1.01 * lam_top, tol=1e-9, sieve=False)
            assert np.linalg.norm(res.x) == 0.0
            assert res.phi == data.bnorm

    # sorted-l1 prox against the enumeration oracle, 200 random trials
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        w = np.sort(rng.uniform(0.0, 2.0, n))[::-1]
        w[0] = max(w[0], 0.1)
        v = rng.standard_normal(n) * 2.0
        t = float(rng.uniform(0.05, 2.0))
        got = SortedL1(w).prox(v, t)
        want = oracle_prox_sorted(v, w, t)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-8

    # generalized derivative strictly positive at every accepted solve
    n_checked = 0
    runs, smop_xs = suite_runs_1e8
    for res, xs, data_rho in zip(runs["smop"], smop_xs, suite):
        for ev in res.evals:
            if np.any(xs[ev.lam] != 0):
                v = phi_derivative(data_rho, L1(), xs[ev.lam], ev.lam, ev.phi)
                assert v > 0
                n_checked += 1

    # adjoint identity and LIBSVM round-trip at random
    rng = np.random.default_rng(78)
    for _ in range(20):
        m, n = rng.integers(1, 9, size=2)
        dense = rng.standard_normal((m, n))
        A = SparseMatrix.from_dense(dense)
        x, y = rng.standard_normal(n), rng.standard_normal(m)
        assert abs(A.matvec(x) @ y - x @ A.rmatvec(y)) <= 1e-12

    import tempfile

    from smop import libsvm_read, libsvm_write

    with tempfile.TemporaryDirectory() as tmp:
        dense = rng.standard_normal((5, 7))
        data = ProblemData(SparseMatrix.from_dense(dense), rng.standard_normal(5))
        path = f"{tmp}/rt.svm"
        libsvm_write(path, data)
        back = libsvm_read(path)
        np.testing.assert_array_equal(back.A.toarray(), dense)
        np.testing.assert_array_equal(back.b, data.b)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(7, f"monotonicity, zero-threshold, prox oracle (max dev {worst:.1e}), "
              f"derivative positivity ({n_checked} solves), adjoint + round-trip "
              f"({elapsed:.1f} s)")
