"""The sieve-round kernels and the design construction against their
earlier, plainer forms, bit for bit.

Each reference below is the form a kernel had before its per-call overhead
was taken out, or before it skipped work its result does not need. The
rewrites change no floating-point operation, so every output must match its
reference in bytes, dtype and layout, and every error must be the same error.
"""

import multiprocessing
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import isotonic_regression

from smop import SortedL1, SparseMatrix, SynthSpec, linear_weights, select_top_k, synth_instance
from smop import problem
from smop.inner import piece_solve


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------------- references

def _select_top_k_argsort(residual, candidates, k):
    candidates = np.sort(np.asarray(candidates, dtype=np.int64))
    if not 0 <= k <= candidates.size:
        raise ValueError("k must lie between 0 and the candidate count")
    mags = np.abs(np.asarray(residual)[candidates])
    order = np.argsort(-mags, kind="stable")
    return np.sort(candidates[order[:k]])


def _prox_zeros_like(reg, v, t):
    """``SortedL1.prox`` as it was when every call ran PAVA into a zeroed
    output."""
    v = np.asarray(v, dtype=np.float64)
    av = np.abs(v)
    order = np.argsort(-av)
    a = av[order]
    if np.count_nonzero(a[1:] == a[:-1]):
        order = np.argsort(-av, kind="stable")
    z = a - t * reg.weights
    u = np.maximum(isotonic_regression(z, increasing=False).x, 0.0)
    out = np.zeros_like(v)
    out[order] = u
    return np.sign(v) * out


def _piece_diff(reg, x):
    """``SortedL1.piece`` as it was when it argsorted all of ``|x|``."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    J = np.argsort(-ax, kind="stable")[: np.count_nonzero(x)]
    starts = np.flatnonzero(np.diff(ax[J], prepend=-1.0))
    return J, np.sign(x[J]), starts, np.add.reduceat(reg.weights[: J.size], starts)


def _piece_solve_repeat(G_JJ, s, starts, rhs, m):
    M = s[:, None] * G_JJ * s
    if starts.size < s.size:
        M = np.add.reduceat(M, starts, axis=0)
        M = np.add.reduceat(M, starts, axis=1)
    z = None
    if starts.size <= m:
        c, info = dpotrf(M, lower=0, clean=0)
        if info == 0:
            z, info = dpotrs(c, rhs, lower=0)
    if z is None:
        z = np.linalg.lstsq(M, rhs, rcond=None)[0]
    return s * np.repeat(z, np.diff(starts, append=s.size))


def _take_columns_scipy(A, idx):
    sub = A._T[np.asarray(idx, dtype=np.int64)]
    return np.ascontiguousarray(sub.toarray().T)


def _take_columns_scatter(A, idx):
    """The CSR branch of ``take_columns_dense`` as it was when every CSR
    design scattered its gathered rows, full or not."""
    idx = np.asarray(idx, dtype=np.int64)
    T, n, k = A._T, A.n, idx.size
    if k:
        hi, lo = int(idx.max()), int(idx.min())
        if hi >= n or lo < -n:
            raise IndexError(f"index ({hi if hi >= n else lo}) out of range")
        idx = idx % n
    start = T.indptr[idx]
    count = T.indptr[idx + 1] - start
    col = np.repeat(np.arange(k), count)
    pos = np.arange(col.size) + np.repeat(start - np.cumsum(count) + count, count)
    out = np.zeros((A.m, k))
    out.ravel()[np.multiply(T.indices[pos], k, dtype=np.int64) + col] = T.data[pos]
    return out


def _from_dense_csc(arr):
    """``SparseMatrix.from_dense`` as it was when every design stored CSR
    went through scipy's COO and CSC forms and the CSC constructor."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"a matrix must be 2-D, got {arr.ndim}-D input")
    m, n = arr.shape
    if m * n < problem._MIN_DENSE_ENTRIES or not problem._dense_layout(
        m, n, int(np.count_nonzero(arr))
    ):
        return SparseMatrix.from_scipy(sp.csc_array(arr))
    if not np.all(np.isfinite(arr)):
        raise ValueError("stored values must be finite and nonzero")
    A = SparseMatrix.__new__(SparseMatrix)
    A._set_T(np.array(arr.T, order="C"))
    return A


def _from_dense_three_pass(arr):
    """``SparseMatrix.from_dense`` as it was when it copied ``arr.T`` whole,
    then checked the copy for finite values and counted its nonzeros, each a
    pass of its own on one core."""
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        raise ValueError(f"a matrix must be real, got {arr.dtype}")
    if arr.ndim != 2:
        raise ValueError(f"a matrix must be 2-D, got {arr.ndim}-D input")
    m, n = arr.shape
    T = np.array(arr.T, dtype=np.float64, order="C")
    if not np.isfinite(T).all():
        raise ValueError("stored values must be finite and nonzero")
    nnz = int(np.count_nonzero(T))
    A = SparseMatrix.__new__(SparseMatrix)
    if problem._dense_layout(m, n, nnz):
        A._set_T(T)
        return A
    idx = problem._index_dtype(m, n, nnz)
    if nnz == T.size:
        data = T.reshape(-1)
        indices = np.tile(np.arange(m, dtype=idx), n)
        indptr = m * np.arange(n + 1, dtype=idx)
    else:
        mask = T != 0.0
        data = T[mask]
        indices = np.broadcast_to(np.arange(m, dtype=idx), T.shape)[mask]
        indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(np.count_nonzero(mask, axis=1), out=indptr[1:])
    A._set_T(sp.csr_array((data, indices, indptr), shape=(n, m)))
    return A


# ------------------------------------------------------------------ tests

class TestSelectTopK:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_stable_argsort(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        # few distinct magnitudes of both signs: many ties, zeros of both signs
        residual = rng.integers(-4, 5, size=n) * rng.choice([0.5, 1.0, 1e-13])
        residual[rng.random(n) < 0.05] = -0.0
        if seed % 4 == 0:
            residual[rng.random(n) < 0.2] = np.nan
        if seed % 5 == 0:
            residual[rng.random(n) < 0.05] = -np.inf
        cand = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        for k in sorted({0, 1, cand.size // 3, cand.size - 1, cand.size} - {-1}):
            _same(select_top_k(residual, cand, k), _select_top_k_argsort(residual, cand, k))

    def test_nan_ranks_last_by_index(self):
        residual = np.array([np.nan, 2.0, np.nan, -1.0, np.nan, 0.0])
        for k in range(7):
            _same(select_top_k(residual, np.arange(6), k),
                  _select_top_k_argsort(residual, np.arange(6), k))
        np.testing.assert_array_equal(select_top_k(residual, np.arange(6), 4), [0, 1, 3, 5])

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.complex128])
    def test_other_dtypes(self, dtype):
        residual = np.array([3, -5, 1, 2, -3, 0]).astype(dtype)
        for k in range(7):
            _same(select_top_k(residual, np.arange(6), k),
                  _select_top_k_argsort(residual, np.arange(6), k))

    def test_duplicate_candidates(self):
        residual = np.array([3.0, 1.0, 3.0, 2.0])
        cand = [2, 0, 2, 3, 1, 0]
        for k in range(7):
            _same(select_top_k(residual, cand, k), _select_top_k_argsort(residual, cand, k))

    def test_same_errors(self):
        for k in (-1, 3):
            with pytest.raises(ValueError, match="k must lie"):
                select_top_k(np.ones(3), [0, 1], k)
        # an index past the residual fails, also when every candidate is taken
        for k in (0, 1, 2):
            with pytest.raises(IndexError):
                _select_top_k_argsort(np.ones(3), [0, 5], k)
            with pytest.raises(IndexError):
                select_top_k(np.ones(3), [0, 5], k)


def _prox_cases():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 60, 2000):
        v = rng.standard_normal(n)
        yield n, v
        tied = np.round(v, 1)  # ties, zeros of both signs
        tied[rng.random(n) < 0.2] = 0.0
        tied[rng.random(n) < 0.1] = -0.0
        yield n, tied
        yield n, np.zeros(n)
    for v in (
        [0.7], [-0.0], [-0.0, 0.0, -0.0], [0.0, -3.0, 0.0, 0.0],  # k = 1, no or one nonzero
        [2.0, -2.0, 2.0, 1.0, -1.0], [0.0, -0.0, 3.0, 0.0, -1.0],  # ties, zeros of both signs
        [-0.0, 1.0, 0.0, -1.0, -0.0, 1.0], [1e-320, -0.0, -1e-320, 3.0],
        [1.0, 1.0 + 2**-52, 1.0 - 2**-53, 0.5],  # an ulp apart
    ):
        yield len(v), np.array(v)


class TestSortedL1:
    @pytest.mark.parametrize("schedule", ["linear", "constant"])
    def test_prox_matches_zeros_like_form(self, schedule):
        for n, v in _prox_cases():
            w = linear_weights(n) if schedule == "linear" else np.ones(n)
            reg = SortedL1(w)
            for t in (1e-300, 1e-3, 0.05, 0.3, 10.0, 1e300):
                _same(reg.prox(v, t), _prox_zeros_like(reg, v, t))

    def test_prox_does_not_write_its_input(self):
        v = np.round(np.random.default_rng(1).standard_normal(50), 1)
        v.flags.writeable = False
        before = v.copy()
        SortedL1(linear_weights(50)).prox(v, 0.1)
        _same(v, before)

    def test_piece_matches_diff_form(self):
        for n, v in _prox_cases():
            reg = SortedL1(linear_weights(n))
            for x in (v, reg.prox(v, 0.05), reg.prox(v, 0.3)):
                for got, want in zip(reg.piece(x), _piece_diff(reg, x)):
                    _same(got, want)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(min_value=5e-324, max_value=1e300), min_size=1,
                    max_size=40, unique=True),
           st.floats(min_value=1e-300, max_value=1e300), st.randoms(use_true_random=False))
    def test_prox_on_strictly_decreasing_input(self, mags, t, rnd):
        # distinct magnitudes, subnormal to huge, in random order and signs;
        # with constant weights PAVA gets a - t*w, strictly decreasing unless
        # t*w absorbs the gaps between magnitudes
        a = np.sort(np.array(mags))[::-1]
        u = a - t
        if (u[1:] < u[:-1]).all():
            # the skip rests on this: PAVA returns such input bit for bit
            _same(isotonic_regression(u, increasing=False).x, u)
        v = a * np.array([rnd.choice((-1.0, 1.0)) for _ in mags])
        v = v[np.array(rnd.sample(range(a.size), a.size))]
        for reg in (SortedL1(np.ones(a.size)), SortedL1(linear_weights(a.size))):
            _same(reg.prox(v, t), _prox_zeros_like(reg, v, t))

    def test_restrict_is_the_validated_prefix(self):
        reg = SortedL1(linear_weights(40))
        v = np.round(np.random.default_rng(2).standard_normal(40), 1)
        for size in (1, 12, 40):
            r = reg.restrict(size)
            assert type(r) is SortedL1 and r.n == size
            _same(r.weights, SortedL1(linear_weights(40)[:size]).weights)
            _same(r.prox(v[:size], 0.1), SortedL1(reg.weights[:size]).prox(v[:size], 0.1))
        for size in (0, 41):
            with pytest.raises(ValueError, match="restriction size out of range"):
                reg.restrict(size)


class TestPieceSolve:
    @pytest.mark.parametrize("pattern", ["singletons", "clusters", "one-cluster",
                                         "more-clusters-than-rows"])
    def test_matches_repeat_form(self, pattern):
        rng = np.random.default_rng(5)
        size, m = 12, 30
        if pattern == "singletons":
            starts = np.arange(size)
        elif pattern == "clusters":
            starts = np.array([0, 1, 4, 5, 9])
        elif pattern == "one-cluster":
            starts = np.array([0])
        else:
            starts, m = np.arange(size), 6  # least squares, not Cholesky
        A = rng.standard_normal((m, size))
        s = rng.choice([-1.0, 1.0], size)
        rhs = rng.standard_normal(starts.size)
        G = A.T @ A
        _same(piece_solve(G, s, starts, rhs, m), _piece_solve_repeat(G, s, starts, rhs, m))


def _csr_design(full=False):
    """A 25 x 40 design stored CSR: with every entry stored (the view gather),
    or with empty, full and partly filled columns (the scatter)."""
    rng = np.random.default_rng(11)
    arr = rng.standard_normal((25, 40))
    if not full:
        arr[rng.random(arr.shape) < 0.7] = 0.0
        arr[:, [3, 17]] = 0.0  # empty columns
        arr[:, 8] = rng.standard_normal(25)  # a full one
    A = SparseMatrix.from_dense(arr)
    assert isinstance(A._T, sp.csr_array) and (A._T.nnz == arr.size) is full
    return A, arr


class TestCsrGather:
    @pytest.mark.parametrize("idx", [
        [5], [3], [8, 3, 17, 0], [7, 7, 2, 7], [-1, 0, -40, 39], list(range(40)),
        [], np.array([], dtype=np.int32), np.array([9, 1], dtype=np.int32),
    ], ids=["one", "empty-column", "mixed", "duplicates", "negative", "all", "none",
            "none-int32", "int32"])
    def test_matches_scipy_gather(self, idx):
        A, arr = _csr_design()
        got = A.take_columns_dense(idx)
        assert got.flags.c_contiguous
        _same(got, _take_columns_scipy(A, idx))
        np.testing.assert_array_equal(got, arr[:, np.asarray(idx, dtype=np.int64)])

    def test_random_gathers(self):
        A, _ = _csr_design()
        rng = np.random.default_rng(4)
        for _ in range(50):
            idx = rng.integers(-40, 40, size=int(rng.integers(0, 60)))
            _same(A.take_columns_dense(idx), _take_columns_scipy(A, idx))

    @pytest.mark.parametrize("idx", [[40], [0, 41], [-41], [-41, 40], [-50, 2]])
    def test_out_of_range_raises_scipys_error(self, idx):
        A, _ = _csr_design()
        with pytest.raises(IndexError) as want:
            _take_columns_scipy(A, idx)
        with pytest.raises(IndexError) as got:
            A.take_columns_dense(idx)
        assert str(got.value) == str(want.value)

    def test_no_rows(self):
        A = SparseMatrix.from_scipy(sp.csc_array((0, 4)))
        _same(A.take_columns_dense([1, 3]), np.zeros((0, 2)))


def _full_csr(m, n, how):
    """A full ``m x n`` design stored CSR, built the way ``how`` names."""
    arr = np.random.default_rng(m + n).standard_normal((m, n))
    if how == "from_dense":
        A = SparseMatrix.from_dense(arr)
    elif how == "from_scipy":
        A = SparseMatrix.from_scipy(sp.csr_array(arr))
    else:
        csc = sp.csc_array(arr)
        A = SparseMatrix(m, n, csc.indptr, csc.indices, csc.data)
    assert isinstance(A._T, sp.csr_array) and A._T.nnz == m * n
    return A, arr


class TestViewGather:
    """A CSR design with every entry stored gathers from the dense view of its
    value array; any other CSR design scatters."""

    @pytest.mark.parametrize("how", ["from_dense", "from_scipy", "constructor"])
    @pytest.mark.parametrize("m, n", [(300, 10000), (200, 2000), (200, 1500)])
    def test_matches_scatter_on_benchmark_shapes(self, monkeypatch, m, n, how):
        # the 300 x 10000 design is stored dense by default
        monkeypatch.setattr(problem, "_MIN_DENSE_ENTRIES", m * n + 1)
        A, arr = _full_csr(m, n, how)
        rng = np.random.default_rng(1)
        for k in (0, 1, 7, 25, 300):
            idx = rng.integers(-n, n, size=k)
            got = A.take_columns_dense(idx)
            _same(got, _take_columns_scatter(A, idx))
            assert got.flags.c_contiguous and got.flags.writeable and got.flags.owndata
            np.testing.assert_array_equal(got, arr[:, idx])
            got[...] = 7.0  # a fresh block: the design does not change
        _same(A.toarray(), arr)

    def test_index_forms(self):
        A, arr = _csr_design(full=True)
        rng = np.random.default_rng(4)
        for idx in ([], np.array([], dtype=np.int32), [5], [7, 7, 2, 7], [-1, 0, -40, 39],
                    list(range(39, -1, -3)), np.array([9, 1], dtype=np.int32),
                    *(rng.integers(-40, 40, size=int(rng.integers(0, 60))) for _ in range(20))):
            got = A.take_columns_dense(idx)
            _same(got, _take_columns_scatter(A, idx))
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got, arr[:, np.asarray(idx, dtype=np.int64)])
        for idx in ([40], [0, 41], [-41], [-41, 40], [-50, 2]):
            with pytest.raises(IndexError) as want:
                _take_columns_scatter(A, idx)
            with pytest.raises(IndexError) as got:
                A.take_columns_dense(idx)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("holes", ["one-zero", "empty-last-column", "scattered-zeros"])
    def test_design_with_a_missing_entry_scatters(self, holes):
        rng = np.random.default_rng(2)
        arr = rng.standard_normal((200, 2000))
        if holes == "one-zero":
            arr[17, 1234] = 0.0
        elif holes == "empty-last-column":
            arr[:, 1999] = 0.0
        else:
            arr[rng.integers(0, 200, 13), rng.integers(0, 2000, 13)] = 0.0
        A = SparseMatrix.from_dense(arr)
        assert isinstance(A._T, sp.csr_array) and A._T.nnz < arr.size
        for idx in ([1234, 1999, 0, 1234], rng.integers(-2000, 2000, size=50)):
            got = A.take_columns_dense(idx)
            _same(got, _take_columns_scatter(A, idx))
            np.testing.assert_array_equal(got, arr[:, np.asarray(idx)])

    def test_no_columns(self):
        # nnz == n * m == 0, as for TestCsrGather.test_no_rows
        A = SparseMatrix.from_dense(np.zeros((3, 0)))
        _same(A.take_columns_dense([]), np.zeros((3, 0)))


def _same_matrix(got, want):
    """Same shape, form and stored bytes: a dense ``T`` also in its order and
    read-only flag, a CSR ``T`` in each of its three arrays."""
    assert got.shape == want.shape and type(got._T) is type(want._T)
    if isinstance(want._T, np.ndarray):
        _same(got._T, want._T)
        assert got._T.flags.c_contiguous and not got._T.flags.writeable
        assert not want._T.flags.writeable
    else:
        assert got._T.shape == want._T.shape
        for name in ("data", "indices", "indptr"):
            _same(getattr(got._T, name), getattr(want._T, name))


def _construction_cases():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((30, 20))
    sparse = a.copy()
    sparse[rng.random(a.shape) < 0.6] = 0.0
    negzero = a.copy()
    negzero[rng.random(a.shape) < 0.3] = -0.0
    negzero[:, 4] = -0.0
    holes = a.copy()
    holes[[0, 7, 29]] = 0.0
    holes[:, [2, 19]] = 0.0
    return {
        "full": a, "sparse": sparse, "negative-zero": negzero, "zero-rows-columns": holes,
        "all-zero": np.zeros((4, 6)), "0xn": np.zeros((0, 5)), "mx0": np.zeros((5, 0)),
        "0x0": np.zeros((0, 0)), "1x1": np.array([[2.5]]), "1x1-zero": np.array([[0.0]]),
        "row": a[:1], "column": a[:, :1].copy(), "int": rng.integers(-2, 3, size=(9, 14)),
        "bool": rng.random((9, 14)) < 0.5, "fortran": np.asfortranarray(sparse),
        "transposed-view": a.T, "list": [[2.0, 0.0, -1.0], [0.0, 4.0, 0.0]],
    }


_FILL_ROWS, _STRIP_BYTES = problem._fill_rows, problem._STRIP_BYTES


def _record_blocks(monkeypatch, cpus):
    """``from_dense`` called afterwards sees ``cpus`` usable CPUs. Returns
    the list that records each block ``(r0, r1)`` it fills, on any thread."""
    monkeypatch.setattr(problem, "_usable_cpus", lambda: cpus)
    cuts = []

    def record(T, arr, r0, r1):
        cuts.append((r0, r1))
        return _FILL_ROWS(T, arr, r0, r1)

    monkeypatch.setattr(problem, "_fill_rows", record)
    return cuts


def _split_fill(monkeypatch, cpus, m=0, strip_rows=None):
    """As ``_record_blocks``, with row blocks of any entry count, written in
    strips of ``strip_rows`` rows on a design of ``m`` rows (default: the
    strip size of the module)."""
    monkeypatch.setattr(problem, "_MIN_BLOCK_NNZ", 1)
    monkeypatch.setattr(problem, "_STRIP_BYTES", _STRIP_BYTES if strip_rows is None
                        else 8 * max(m, 1) * strip_rows + 7)
    return _record_blocks(monkeypatch, cpus)


def _blocks_of(m, n):
    """The row blocks ``from_dense`` cuts for an ``m x n`` design, at least one."""
    return list(problem._row_cuts(n, m))


def _split_cases():
    rng = np.random.default_rng(8)
    odd = rng.standard_normal((7, 45))
    odd[rng.random(odd.shape) < 0.5] = -0.0
    return {**_construction_cases(), "odd-blocks": odd, "wide": rng.standard_normal((3, 61))}


def _child_from_dense(arr, want):
    # exits nonzero on other bytes; hangs if the inherited pool is used
    sys.exit(0 if SparseMatrix.from_dense(arr)._T.tobytes() == want else 3)


class TestFromDense:
    @pytest.mark.parametrize("name", sorted(_construction_cases()))
    @pytest.mark.parametrize("minimum", [None, 0], ids=["default", "dense-from-0"])
    def test_matches_csc_construction(self, monkeypatch, name, minimum):
        if minimum is not None:
            monkeypatch.setattr(problem, "_MIN_DENSE_ENTRIES", minimum)
        arr = _construction_cases()[name]
        _same_matrix(SparseMatrix.from_dense(arr), _from_dense_csc(arr))

    @pytest.mark.parametrize("m, n, s", [(300, 10000, 30), (200, 2000, 20), (200, 1500, 15)])
    def test_benchmark_shapes(self, m, n, s):
        data, _ = synth_instance(SynthSpec(m=m, n=n, s=s, sigma=0.01, seed=1))
        _same_matrix(data.A, _from_dense_csc(data.A.toarray()))
        assert isinstance(data.A._T, np.ndarray) is (m * n >= problem._MIN_DENSE_ENTRIES)

    @pytest.mark.parametrize("nnz, dense", [(333_334, True), (333_333, False)])
    def test_two_thirds_fill_at_the_size_minimum(self, nnz, dense):
        assert problem._MIN_DENSE_ENTRIES == 500_000
        arr = 1.5 * (np.random.default_rng(0).permutation(500_000) < nnz).reshape(500, 1000)
        A = SparseMatrix.from_dense(arr)
        assert isinstance(A._T, np.ndarray) is dense
        _same_matrix(A, _from_dense_csc(arr))

    @pytest.mark.parametrize("fill", [1.0, 0.5])
    def test_later_writes_to_the_input_change_nothing(self, fill):
        # a full CSR design's value array is the private copy of T itself
        rng = np.random.default_rng(5)
        arr = rng.standard_normal((20, 30))
        arr[rng.random(arr.shape) >= fill] = 0.0
        A = SparseMatrix.from_dense(arr)
        assert isinstance(A._T, sp.csr_array)
        if fill == 1.0:
            assert A._T.data.base is not None and A._T.data.base.shape == (30, 20)
        before = arr.copy()
        assert not np.shares_memory(A._T.data, arr)
        arr[:] = 7.0
        np.testing.assert_array_equal(A.toarray(), before)
        _same_matrix(A, _from_dense_csc(before))

    @pytest.mark.parametrize("bad", [
        np.ones(3), np.ones((2, 2, 2)), 5.0,
        np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([[1.0, 0.0], [np.inf, 1.0]]),
        np.array([[-np.inf, 1.0]]), np.array([[0.0, np.nan]]),
    ], ids=["1-D", "3-D", "scalar", "nan", "inf", "-inf", "nan-beside-zero"])
    @pytest.mark.parametrize("minimum", [None, 0], ids=["default", "dense-from-0"])
    def test_same_errors(self, monkeypatch, bad, minimum):
        if minimum is not None:
            monkeypatch.setattr(problem, "_MIN_DENSE_ENTRIES", minimum)
        with pytest.raises(ValueError) as want:
            _from_dense_csc(bad)
        with pytest.raises(ValueError) as got:
            SparseMatrix.from_dense(bad)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("name", sorted(_split_cases()))
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_split_matches_three_pass_construction(self, monkeypatch, name, cpus):
        arr = _split_cases()[name]
        m, n = np.shape(arr)
        default = problem._MIN_DENSE_ENTRIES
        for strip_rows in (None, 3):
            for minimum in (default, 0):
                monkeypatch.setattr(problem, "_MIN_DENSE_ENTRIES", minimum)
                cuts = _split_fill(monkeypatch, cpus, m, strip_rows)
                want = _from_dense_three_pass(arr)
                _same_matrix(SparseMatrix.from_dense(arr), want)
                assert sorted(cuts) == _blocks_of(m, n)
                # every block holds at least 4 rows of T
                assert len(cuts) == (min(cpus, n // 4) if n >= 8 else 1)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("m, n", [(300, 10000), (200, 2000), (200, 1500)])
    def test_split_on_benchmark_shapes(self, monkeypatch, m, n, cpus):
        # the block minimum of the module: only the 300x10000 design splits
        arr = np.random.default_rng(m + n).standard_normal((m, n))
        cuts = _record_blocks(monkeypatch, cpus)
        _same_matrix(SparseMatrix.from_dense(arr), _from_dense_three_pass(arr))
        assert len(cuts) == (cpus if m * n == 3_000_000 else 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_nonfinite_in_a_workers_last_strip(self, monkeypatch, bad, cpus):
        arr = np.random.default_rng(9).standard_normal((6, 45))
        _split_fill(monkeypatch, cpus, m=6, strip_rows=5)
        blocks = _blocks_of(6, 45)
        assert len(blocks) == cpus
        for _, r1 in blocks[1:]:
            for i in (0, 5):
                broken = arr.copy()
                broken[i, r1 - 1] = bad  # the last row of the block's last strip
                with pytest.raises(ValueError) as want:
                    _from_dense_three_pass(broken)
                with pytest.raises(ValueError) as got:
                    SparseMatrix.from_dense(broken)
                assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("bad", [
        np.ones(3), np.ones((2, 2, 2)), 5.0, np.ones((4, 12), dtype=np.complex128),
        np.full((4, 12), "1.5"), np.array([["1"] * 11 + ["x"]] * 4),
        np.array([[1.0] * 11 + [None]] * 4, dtype=object),
        np.array([[1.0] * 11 + [1j]] * 4, dtype=object),
    ], ids=["1-D", "3-D", "scalar", "complex", "str", "bad-str", "None", "complex-object"])
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_split_same_result_or_error(self, monkeypatch, bad, cpus):
        _split_fill(monkeypatch, cpus, m=4, strip_rows=2)
        try:
            want = _from_dense_three_pass(bad)
        except (ValueError, TypeError) as err:
            with pytest.raises(type(err)) as got:
                SparseMatrix.from_dense(bad)
            assert str(got.value) == str(err)
        else:
            _same_matrix(SparseMatrix.from_dense(bad), want)

    def test_concurrent_builds_share_the_pool(self, monkeypatch):
        # more callers and blocks than cores, each thread switching often:
        # a block written into another build's T would change its bytes
        monkeypatch.setattr(problem, "_MIN_DENSE_ENTRIES", 0)
        _split_fill(monkeypatch, cpus=4, m=9, strip_rows=2)
        rng = np.random.default_rng(11)
        arrs = [rng.standard_normal((9, 40)) for _ in range(6)]
        wants = [_from_dense_three_pass(a)._T.tobytes() for a in arrs]
        got = [[] for _ in arrs]

        def build(i):
            for _ in range(20):
                got[i].append(SparseMatrix.from_dense(arrs[i])._T.tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(i,)) for i in range(len(arrs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "a build hung"
        assert got == [[w] * 20 for w in wants]

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_builds_the_same_bytes(self, monkeypatch):
        # two blocks on a fresh pool: its one worker is idle after the build,
        # so an inherited pool would queue the child's block and start no thread
        monkeypatch.setattr(problem, "_MIN_DENSE_ENTRIES", 0)
        _split_fill(monkeypatch, cpus=2)
        monkeypatch.setattr(problem, "_pool", None)
        arr = np.random.default_rng(10).standard_normal((30, 40))
        want = _from_dense_three_pass(arr)._T.tobytes()
        assert SparseMatrix.from_dense(arr)._T.tobytes() == want  # starts the parent's pool
        assert problem._pool is not None
        child = multiprocessing.get_context("fork").Process(
            target=_child_from_dense, args=(arr, want)
        )
        child.start()
        child.join(timeout=30)
        try:
            assert child.exitcode == 0, "child hung or built other bytes"
        finally:
            if child.exitcode is None:
                child.kill()
                child.join()
