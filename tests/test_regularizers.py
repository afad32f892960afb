import itertools

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from smop import (
    L1,
    ProblemData,
    SortedL1,
    SparseMatrix,
    constant_weights,
    lambda_inf,
    linear_weights,
    make_regularizer,
)


def oracle_prox_sorted(v, w, t):
    """Brute-force sorted-l1 prox by enumerating block structures.

    After sorting |v| descending, the solution of the monotone-cone QP is
    block-constant with a zero tail, each live block holding the average of
    ``|v|_(i) - t w_i`` over the block. Enumerate every composition of [n]
    into consecutive blocks and every zero-suffix length, keep the feasible
    candidate with the smallest objective, then unsort and restore signs.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    order = np.argsort(-np.abs(v), kind="stable")
    y = np.abs(v)[order]
    z = y - t * np.asarray(w, dtype=float)

    def objective(u):
        return 0.5 * np.sum((u - z) ** 2)

    best_u, best_obj = None, np.inf
    for cuts in itertools.product([False, True], repeat=n - 1):
        blocks = []
        start = 0
        for i, cut in enumerate(cuts, start=1):
            if cut:
                blocks.append((start, i))
                start = i
        blocks.append((start, n))
        for n_zero in range(len(blocks) + 1):
            u = np.empty(n)
            live = blocks[: len(blocks) - n_zero] if n_zero else blocks
            for lo, hi in live:
                u[lo:hi] = np.mean(z[lo:hi])
            for lo, hi in blocks[len(blocks) - n_zero:]:
                u[lo:hi] = 0.0
            if np.any(np.diff(u) > 1e-12) or u[-1] < -1e-12:
                continue
            obj = objective(np.maximum(u, 0.0))
            if obj < best_obj - 1e-15:
                best_obj, best_u = obj, np.maximum(u, 0.0)
    out = np.zeros(n)
    out[order] = best_u
    return np.sign(v) * out


class TestValue:
    def test_l1_example(self):
        assert L1().value([3.0, -1.0, 0.5]) == 4.5

    def test_sorted_example(self):
        reg = SortedL1([1.0, 0.5])
        assert reg.value([1.0, 3.0]) == pytest.approx(3.5)

    def test_zero(self):
        assert L1().value(np.zeros(4)) == 0.0
        assert SortedL1([1.0, 0.5]).value(np.zeros(2)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SortedL1([1.0, 0.5]).value(np.zeros(3))


class TestProx:
    def test_l1_soft_threshold(self):
        np.testing.assert_allclose(L1().prox([3.0, -1.0, 0.5], 1.0), [2.0, 0.0, 0.0])

    def test_constant_weights_reduce_to_l1(self):
        reg = SortedL1([1.0, 1.0])
        np.testing.assert_allclose(reg.prox([3.0, -1.0], 1.0), [2.0, 0.0])

    def test_sorted_example(self):
        # brute-force verified optimum of the weighted problem at (3, 1)
        reg = SortedL1([1.0, 0.5])
        np.testing.assert_allclose(reg.prox([3.0, 1.0], 1.0), [2.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(
            oracle_prox_sorted([3.0, 1.0], [1.0, 0.5], 1.0), [2.0, 0.5], atol=1e-12
        )

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(60):
            n = int(rng.integers(1, 7))
            w = np.sort(rng.uniform(0.0, 2.0, n))[::-1]
            w[0] = max(w[0], 0.1)
            v = rng.standard_normal(n) * 2.0
            t = float(rng.uniform(0.05, 2.0))
            got = SortedL1(w).prox(v, t)
            want = oracle_prox_sorted(v, w, t)
            worst = max(worst, np.max(np.abs(got - want)))
        assert worst <= 1e-8

    def test_prox_optimality_against_perturbations(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            w = np.sort(rng.uniform(0.1, 1.5, n))[::-1]
            reg = SortedL1(w)
            v = rng.standard_normal(n) * 2.0
            t = float(rng.uniform(0.1, 1.5))
            z = reg.prox(v, t)
            base = t * reg.value(z) + 0.5 * np.sum((z - v) ** 2)
            deltas = rng.standard_normal((1000, n))
            deltas *= (0.1 * rng.random((1000, 1))) / np.linalg.norm(deltas, axis=1, keepdims=True)
            for d in deltas:
                cand = z + d
                obj = t * reg.value(cand) + 0.5 * np.sum((cand - v) ** 2)
                assert obj >= base - 1e-10

    def test_moreau_scaling(self):
        rng = np.random.default_rng(5)
        for reg in (L1(), SortedL1(linear_weights(5))):
            for _ in range(20):
                v = rng.standard_normal(5)
                t = float(rng.uniform(0.1, 2.0))
                alpha = float(rng.uniform(0.1, 3.0))
                np.testing.assert_allclose(
                    reg.prox(alpha * v, alpha * t), alpha * reg.prox(v, t), atol=1e-12
                )

    def test_order_and_sign_preservation(self):
        rng = np.random.default_rng(6)
        reg = SortedL1(linear_weights(6))
        for _ in range(50):
            v = rng.standard_normal(6) * 3.0
            z = reg.prox(v, float(rng.uniform(0.1, 1.0)))
            av, az = np.abs(v), np.abs(z)
            order = np.argsort(-av, kind="stable")
            assert np.all(np.diff(az[order]) <= 1e-12)
            for zi, vi in zip(z, v):
                assert zi == 0.0 or np.sign(zi) == np.sign(vi)

    def test_rejects_nonpositive_t(self):
        # t must be finite too: nan makes every entry NaN, and inf times the
        # zero last weight of linear weights is NaN
        for reg in (L1(), SortedL1(linear_weights(3))):
            for t in (np.nan, np.inf, 0.0, -1.0):
                with pytest.raises(ValueError, match="positive and finite"):
                    reg.prox([1.0, -2.0, 0.5], t)


def prox_sorted_stable(w, v, t):
    """Sorted-l1 prox with magnitude ties in index order: the reference for
    ``SortedL1.prox``, which sorts in the default (unstable) order."""
    av = np.abs(v)
    order = np.argsort(-av, kind="stable")
    u = np.maximum(isotonic_regression(av[order] - t * w, increasing=False).x, 0.0)
    out = np.zeros_like(v)
    out[order] = u
    return np.sign(v) * out


@st.composite
def tied_prox_cases(draw):
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.uniform(0.0, 3.0, draw(st.integers(1, 4)))
    v = rng.choice(levels, n) * rng.choice([-1.0, 1.0], n)
    w = linear_weights(n) if draw(st.booleans()) else constant_weights(n)
    t = 10.0 ** draw(st.floats(-6.0, 3.0))
    return w, v, t


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=tied_prox_cases())
def test_sorted_prox_independent_of_tie_order(case):
    w, v, t = case
    order_differs = not np.array_equal(np.argsort(-np.abs(v)),
                                       np.argsort(-np.abs(v), kind="stable"))
    event(f"tie order differs from index order: {order_differs}")
    assert SortedL1(w).prox(v, t).tobytes() == prox_sorted_stable(w, v, t).tobytes()


class TestPolar:
    def test_l1_max_abs(self):
        assert L1().polar([3.0, -1.0]) == 3.0

    def test_sorted_example(self):
        # max(3/1, 4/1.5) = 3, confirmed by grid search over the unit ball
        assert SortedL1([1.0, 0.5]).polar([3.0, -1.0]) == pytest.approx(3.0)

    def test_zero(self):
        assert L1().polar(np.zeros(3)) == 0.0
        assert SortedL1([1.0, 0.5]).polar(np.zeros(2)) == 0.0

    def test_grid_oracle_2d(self):
        # polar(z) = sup { <z, x> : p(x) <= 1 }, approximated on a fine grid
        reg = SortedL1([1.0, 0.5])
        rng = np.random.default_rng(7)
        xs = np.linspace(-2.0, 2.0, 801)
        X1, X2 = np.meshgrid(xs, xs, indexing="ij")
        big = np.maximum(np.abs(X1), np.abs(X2))
        small = np.minimum(np.abs(X1), np.abs(X2))
        feasible = (1.0 * big + 0.5 * small) <= 1.0
        for _ in range(5):
            z = rng.standard_normal(2) * 2.0
            sup = np.max((z[0] * X1 + z[1] * X2)[feasible])
            assert abs(reg.polar(z) - sup) <= 2e-2 * (1.0 + np.abs(z).sum())

    def test_prox_zero_threshold_oracle(self):
        # polar(z) is the smallest t with prox(z, t) = 0; bisect on t using
        # the independently validated prox
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            reg = SortedL1(np.sort(rng.uniform(0.1, 1.5, n))[::-1])
            z = rng.standard_normal(n) * 3.0
            pol = reg.polar(z)
            lo, hi = 0.0, 2.0 * pol + 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if np.count_nonzero(reg.prox(z, mid)) == 0:
                    hi = mid
                else:
                    lo = mid
            assert abs(hi - pol) <= 1e-9 * (1.0 + pol)

    def test_homogeneity_and_definiteness(self):
        rng = np.random.default_rng(9)
        for reg in (L1(), SortedL1(linear_weights(4))):
            for _ in range(20):
                z = rng.standard_normal(4)
                a = float(rng.uniform(0.1, 5.0))
                assert reg.polar(a * z) == pytest.approx(a * reg.polar(z), rel=1e-12)
                if np.any(z != 0):
                    assert reg.polar(z) > 0

    def test_duality_pairing(self):
        rng = np.random.default_rng(10)
        for reg in (L1(), SortedL1(linear_weights(5))):
            for _ in range(100):
                z = rng.standard_normal(5) * 2.0
                x = rng.standard_normal(5) * 2.0
                assert z @ x <= reg.polar(z) * reg.value(x) + 1e-12


class TestLambdaInf:
    def test_l1_identity(self):
        A = SparseMatrix.from_dense(np.eye(2))
        assert lambda_inf(L1(), A, np.array([3.0, -1.0])) == 3.0

    def test_sorted_identity(self):
        A = SparseMatrix.from_dense(np.eye(2))
        assert lambda_inf(SortedL1([1.0, 0.5]), A, np.array([3.0, -1.0])) == pytest.approx(3.0)

    def test_degenerate(self):
        A = SparseMatrix.from_dense([[1.0], [-1.0]])
        with pytest.raises(ValueError, match="degenerate"):
            lambda_inf(L1(), A, np.array([1.0, 1.0]))


class TestConstruction:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            SortedL1([0.0, 0.0])
        with pytest.raises(ValueError):
            SortedL1([1.0, -0.1])
        with pytest.raises(ValueError):
            SortedL1([0.5, 1.0])

    def test_linear_weights(self):
        np.testing.assert_allclose(linear_weights(3), [1.0, 0.5, 0.0])
        np.testing.assert_allclose(linear_weights(1), [1.0])

    def test_constant_weights(self):
        np.testing.assert_allclose(constant_weights(3, 2.0), [2.0, 2.0, 2.0])

    def test_restrict(self):
        reg = SortedL1([1.0, 0.6, 0.2])
        np.testing.assert_allclose(reg.restrict(2).weights, [1.0, 0.6])
        assert isinstance(L1().restrict(5), L1)

    def test_make_regularizer(self):
        assert isinstance(make_regularizer("l1", 4), L1)
        slope = make_regularizer("slope", 4, "linear")
        np.testing.assert_allclose(slope.weights, linear_weights(4))
        with pytest.raises(ValueError):
            make_regularizer("ridge", 4)
