import math
import multiprocessing
import subprocess
import sys
import textwrap
import threading
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from smop import (
    L1,
    LibsvmFormatError,
    ProblemData,
    SmopConfig,
    SortedL1,
    SparseMatrix,
    SynthSpec,
    libsvm_read,
    libsvm_write,
    linear_weights,
    sieve_solve,
    smop_solve,
    solve_reduced,
    synth_instance,
)
from smop import problem


class TestSparseMatrix:
    def test_matvec_example(self):
        A = SparseMatrix.from_dense([[2.0, 0.0, -1.0], [0.0, 4.0, 0.0]])
        np.testing.assert_allclose(A.matvec([1.0, 1.0, 1.0]), [1.0, 4.0])

    def test_rmatvec_example(self):
        A = SparseMatrix.from_dense([[2.0, 0.0, -1.0], [0.0, 4.0, 0.0]])
        np.testing.assert_allclose(A.rmatvec([1.0, 0.0]), [2.0, 0.0, -1.0])

    def test_zero_vector(self):
        A = SparseMatrix.from_dense([[2.0, 0.0, -1.0], [0.0, 4.0, 0.0]])
        np.testing.assert_array_equal(A.matvec(np.zeros(3)), np.zeros(2))

    def test_dimension_mismatch(self):
        A = SparseMatrix.from_dense([[2.0, 0.0, -1.0], [0.0, 4.0, 0.0]])
        with pytest.raises(ValueError):
            A.matvec(np.ones(2))
        with pytest.raises(ValueError):
            A.rmatvec(np.ones(3))

    def test_agrees_with_dense_product(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m, n = rng.integers(1, 9, size=2)
            dense = np.round(rng.standard_normal((m, n)), 3)
            dense[rng.random((m, n)) < 0.4] = 0.0
            if not dense.any():
                dense[0, 0] = 1.0
            A = SparseMatrix.from_dense(dense)
            x = rng.standard_normal(n)
            y = rng.standard_normal(m)
            assert np.max(np.abs(A.matvec(x) - dense @ x)) <= 1e-14
            assert np.max(np.abs(A.rmatvec(y) - dense.T @ y)) <= 1e-14

    def test_adjoint_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            m, n = rng.integers(1, 9, size=2)
            dense = rng.standard_normal((m, n))
            A = SparseMatrix.from_dense(dense)
            x = rng.standard_normal(n)
            y = rng.standard_normal(m)
            assert abs(A.matvec(x) @ y - x @ A.rmatvec(y)) <= 1e-12

    def test_rejects_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseMatrix(2, 1, [0, 1], [2], [1.0])

    def test_int32_indices_and_no_wraparound(self, monkeypatch):
        # indices are stored as int32; values past the int32 range must be
        # rejected before the cast, not wrapped into range by it (a zero
        # dense limit makes the gather CSC)
        monkeypatch.setattr(problem, "_DENSE_LIMIT", 0)
        A = SparseMatrix(3, 2, [0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0])
        assert A.take_columns([0, 1]).indices.dtype == np.int32
        np.testing.assert_array_equal(A.toarray(), [[1.0, 0.0], [0.0, 3.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="out of range"):
            SparseMatrix(2, 1, [0, 1], [2**32], [1.0])
        with pytest.raises(ValueError, match="nondecreasing"):
            SparseMatrix(3, 2, [0, 2**32 + 1, 1], [0], [1.0])

    def test_rejects_nonincreasing_column_indices(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseMatrix(3, 1, [0, 2], [1, 1], [1.0, 2.0])

    def test_rejects_zero_and_nonfinite_values(self):
        with pytest.raises(ValueError, match="finite and nonzero"):
            SparseMatrix(2, 1, [0, 1], [0], [0.0])
        with pytest.raises(ValueError, match="finite and nonzero"):
            SparseMatrix(2, 1, [0, 1], [0], [np.inf])

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_rejects_complex_values(self, dtype):
        # before any cast: a cast to float64 would drop the imaginary part
        # with only a ComplexWarning
        arr = np.array([[1 + 2j, 0], [0, 3]], dtype=dtype)
        with pytest.raises(ValueError, match=f"a matrix must be real, got {np.dtype(dtype)}"):
            SparseMatrix.from_dense(arr)
        with pytest.raises(ValueError, match=f"stored values must be real, got {np.dtype(dtype)}"):
            SparseMatrix.from_scipy(sp.csc_array(arr))
        with pytest.raises(ValueError, match=f"stored values must be real, got {np.dtype(dtype)}"):
            SparseMatrix(2, 2, [0, 1, 2], [0, 1], np.array([1 + 2j, 3], dtype=dtype))
        # a zero imaginary part is complex input all the same
        with pytest.raises(ValueError, match="must be real, got complex128"):
            SparseMatrix.from_dense([[1 + 0j, 0.0]])

    def test_take_columns(self, monkeypatch):
        monkeypatch.setattr(problem, "_DENSE_LIMIT", 0)  # a CSC gather
        dense = np.array([[2.0, 0.0, -1.0], [0.0, 4.0, 3.0]])
        A = SparseMatrix.from_dense(dense)
        sub = A.take_columns([0, 2]).toarray()
        np.testing.assert_array_equal(sub, dense[:, [0, 2]])

    def test_csr_form_is_scipys_csc_bitwise(self, monkeypatch):
        # the CSR form of T = A^T reads the CSC arrays of A: its products are
        # scipy's CSC products, its gathers above the dense limit scipy's
        # column slices
        monkeypatch.setattr(problem, "_DENSE_LIMIT", 0)
        rng = np.random.default_rng(12)
        arr = rng.standard_normal((30, 80))
        arr[rng.random(arr.shape) < 0.6] = 0.0
        arr[:, 5] = 0.0
        A, csc = SparseMatrix.from_dense(arr), sp.csc_array(arr)
        assert isinstance(A._T, sp.csr_array)
        for _ in range(3):
            x, y = rng.standard_normal(80), rng.standard_normal(30)
            assert np.array_equal(A.matvec(x), csc @ x)
            assert np.array_equal(A.rmatvec(y), csc.T @ y)
        idx = [7, 5, 0, 79, 7, 31]
        sub = A.take_columns_dense(idx)
        assert sub.flags.c_contiguous
        np.testing.assert_array_equal(sub, arr[:, idx])
        got, want = A.take_columns(idx), csc[:, idx]
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert got.indices.dtype == want.indices.dtype == np.int32
        np.testing.assert_array_equal(A.toarray(), arr)


def _split_small(monkeypatch, cpus=4):
    """Dense-stored matrices built afterwards split ``A^T y`` into ``cpus``
    blocks, whatever the host."""
    monkeypatch.setattr(problem, "_MIN_BLOCK_NNZ", 0)
    monkeypatch.setattr(problem, "_usable_cpus", lambda: cpus)


class TestIndexArrays:
    """An index array that is not of integer dtype is refused by name, never
    cast: a cast turns a bool mask into the indices 0 and 1 and truncates a
    float index."""

    BAD = [
        np.array([False, False, False, False, False, True, True, False]),
        np.array([1.7, 2.2]),
        [True, False, True, False, False, False, False, False],
        [1.0, 2.0],
        np.array(["1", "2"]),
    ]
    IDS = ["bool-mask", "float", "bool-list", "whole-floats", "str"]

    @staticmethod
    def _data():
        rng = np.random.default_rng(4)
        return ProblemData(SparseMatrix.from_dense(rng.standard_normal((4, 8))),
                           rng.standard_normal(4))

    @pytest.mark.parametrize("idx", BAD, ids=IDS)
    @pytest.mark.parametrize("dense", [False, True], ids=["csr", "dense"])
    def test_gathers_raise(self, monkeypatch, idx, dense):
        _dense_from(monkeypatch, 0 if dense else math.inf)
        A = self._data().A
        assert isinstance(A._T, np.ndarray) is dense
        want = f"index arrays must have an integer dtype, got {np.asarray(idx).dtype}"
        for gather in (A.take_columns, A.take_columns_dense):
            with pytest.raises(IndexError, match=f"^{want}$"):
                gather(idx)

    @pytest.mark.parametrize("idx", BAD, ids=IDS)
    def test_solves_raise(self, idx):
        data = self._data()
        want = f"index arrays must have an integer dtype, got {np.asarray(idx).dtype}"
        with pytest.raises(IndexError, match=f"^{want}$"):
            solve_reduced(data, L1(), 0.1, idx)
        with pytest.raises(IndexError, match=f"^{want}$"):
            sieve_solve(data, L1(), 0.1, idx)

    @pytest.mark.parametrize("idx", [[], np.array([]), np.zeros(0, dtype=bool)],
                             ids=["list", "float64", "bool"])
    def test_empty_stays_valid(self, idx):
        data = self._data()
        assert data.A.take_columns(idx).shape == (4, 0)
        assert data.A.take_columns_dense(idx).shape == (4, 0)
        assert not solve_reduced(data, L1(), 0.1, idx).x.any()
        assert sieve_solve(data, L1(), 0.1, idx)[0].converged

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
    def test_integer_dtypes_stay_valid(self, dtype):
        data = self._data()
        idx = np.array([5, 2], dtype=dtype)
        want = data.A.take_columns_dense([5, 2]).tobytes()
        assert data.A.take_columns_dense(idx).tobytes() == want
        assert solve_reduced(data, L1(), 0.1, idx).x.tobytes() == \
            solve_reduced(data, L1(), 0.1, [5, 2]).x.tobytes()


def _dense_from(monkeypatch, minimum=0):
    """Matrices built afterwards store ``T`` dense from ``minimum`` entries
    on (``math.inf``: never), when dense enough."""
    monkeypatch.setattr(problem, "_MIN_DENSE_ENTRIES", minimum)


def _child_rmatvec(A, y, expected):
    # exits nonzero on a wrong product; hangs if the inherited pool is used
    sys.exit(0 if np.array_equal(A.rmatvec(y), expected) else 3)


def _solve_identical_to_serial(monkeypatch, penalty, dense):
    """_usable_cpus 1 and 4 give the same form and bit-identical solves; a
    dense ``T`` splits into 4 blocks, a CSR one never splits."""
    _dense_from(monkeypatch, 0 if dense else math.inf)
    data, _ = synth_instance(SynthSpec(m=60, n=400, s=8, sigma=0.01, seed=11))
    data = data.with_rho(0.1 * data.bnorm)
    mat = sp.csc_array(data.A.toarray())
    serial = SparseMatrix.from_scipy(mat)
    _split_small(monkeypatch)
    blocked = SparseMatrix.from_scipy(mat)
    assert isinstance(serial._T, np.ndarray) is isinstance(blocked._T, np.ndarray) is dense
    assert not serial._blocks and len(blocked._blocks) == (4 if dense else 0)
    reg = L1() if penalty == "l1" else SortedL1(linear_weights(400))
    cfg = SmopConfig(stoptol=1e-8)
    res_s = smop_solve(ProblemData(serial, data.b, data.rho), reg, cfg)
    res_b = smop_solve(ProblemData(blocked, data.b, data.rho), reg, cfg)
    assert res_s.converged and res_b.converged
    assert res_b.lambda_star == res_s.lambda_star
    assert res_b.n_subproblems == res_s.n_subproblems
    assert res_b.inner_iters_total == res_s.inner_iters_total
    assert np.array_equal(res_b.x, res_s.x)


class TestBlockedRmatvec:
    def test_splits_only_above_the_block_minimum(self, monkeypatch):
        _dense_from(monkeypatch)
        dense = np.random.default_rng(5).standard_normal((10, 40))  # T: 40 rows of 10
        monkeypatch.setattr(problem, "_usable_cpus", lambda: 4)
        # 4 blocks are cut at rows 8, 20, 28 (80 or 120 entries each), 3 at
        # 12 and 24 (120 or 160), 2 at 20 (200)
        for minimum, blocks in [(80, 4), (81, 3), (120, 3), (121, 2), (200, 2), (201, 0)]:
            monkeypatch.setattr(problem, "_MIN_BLOCK_NNZ", minimum)
            A = SparseMatrix.from_dense(dense)
            assert len(A._blocks) == blocks, minimum
            assert all(blk.size >= minimum for _, _, blk in A._blocks)

    def test_one_usable_cpu_stays_serial(self, monkeypatch):
        _dense_from(monkeypatch)
        _split_small(monkeypatch, cpus=1)
        assert not SparseMatrix.from_dense(np.ones((5, 8)))._blocks

    @pytest.mark.parametrize("penalty", ["l1", "sorted-l1"])
    def test_solve_identical_to_serial(self, monkeypatch, penalty):
        _solve_identical_to_serial(monkeypatch, penalty, dense=False)

    def test_process_exits_with_idle_pool(self):
        code = textwrap.dedent("""
            import numpy as np
            from smop import SparseMatrix, problem
            problem._MIN_DENSE_ENTRIES = 0
            problem._MIN_BLOCK_NNZ = 0
            problem._usable_cpus = lambda: 4
            A = SparseMatrix.from_dense(np.ones((4, 16)))
            assert isinstance(A._T, np.ndarray) and len(A._blocks) == 4
            print(A.rmatvec(np.ones(4)).sum())
        """)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "64.0"


def _with_nonzeros(m, n, nnz, seed=0):
    """An ``m x n`` array with exactly ``nnz`` nonzero entries."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(m * n)
    flat[rng.permutation(m * n)[:nnz]] = rng.uniform(0.5, 1.5, size=nnz)
    return flat.reshape(m, n)


class TestDenseLayout:
    @pytest.mark.parametrize("m, n, nnz, dense", [
        (500, 1000, 333_334, True),    # the size minimum, at 2/3 fill
        (500, 1000, 333_333, False),   # one nonzero short of 2/3
        (499, 1000, 499_000, False),   # full, below the size minimum
        (500, 1000, 500_000, True),
    ])
    def test_rule_at_its_boundaries(self, m, n, nnz, dense):
        assert problem._MIN_DENSE_ENTRIES == 500_000
        arr = _with_nonzeros(m, n, nnz)
        built = [
            SparseMatrix.from_dense(arr),
            SparseMatrix.from_scipy(sp.csc_array(arr)),
            SparseMatrix.from_scipy(sp.coo_array(arr)),
        ]
        for A in built:
            assert isinstance(A._T, np.ndarray) is dense
            np.testing.assert_array_equal(A.toarray(), arr)

    def test_block_minimum_does_not_move_the_layout(self, monkeypatch):
        arr = _with_nonzeros(499, 1000, 499_000)
        for minimum in (0, 1, 10**9):
            monkeypatch.setattr(problem, "_MIN_BLOCK_NNZ", minimum)
            assert not isinstance(SparseMatrix.from_dense(arr)._T, np.ndarray)

    def test_matches_csc_layout(self, monkeypatch):
        rng = np.random.default_rng(8)
        arr = rng.standard_normal((40, 230))
        arr[rng.random(arr.shape) < 0.2] = 0.0
        csr = SparseMatrix.from_dense(arr)
        _dense_from(monkeypatch)
        dense = SparseMatrix.from_dense(arr)
        assert isinstance(csr._T, sp.csr_array) and isinstance(dense._T, np.ndarray)
        idx = [7, 0, 229, 31, 100]
        np.testing.assert_array_equal(dense.take_columns_dense(idx), csr.take_columns_dense(idx))
        # above the dense limit each form gathers in its own: a dense array,
        # or CSC from CSR
        monkeypatch.setattr(problem, "_DENSE_LIMIT", 0)
        got, want = dense.take_columns(idx), csr.take_columns(idx)
        assert isinstance(got, np.ndarray) and isinstance(want, sp.csc_array)
        assert got.shape == want.shape == (40, 5)
        np.testing.assert_array_equal(got, want.toarray())
        np.testing.assert_array_equal(dense.toarray(), csr.toarray())
        for _ in range(5):
            x, y = rng.standard_normal(230), rng.standard_normal(40)
            np.testing.assert_allclose(dense.matvec(x), csr.matvec(x), rtol=0, atol=1e-12)
            np.testing.assert_allclose(dense.rmatvec(y), csr.rmatvec(y), rtol=0, atol=1e-12)

    # each product stays below the sizes a threaded BLAS splits itself
    @pytest.mark.parametrize("m, n", [(31, 297), (40, 230), (7, 1001), (300, 97), (12, 9)])
    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_blocked_matches_serial_bitwise(self, monkeypatch, m, n, cpus):
        rng = np.random.default_rng(m * n + cpus)
        arr = rng.standard_normal((m, n))
        _dense_from(monkeypatch)
        serial = SparseMatrix.from_dense(arr)
        _split_small(monkeypatch, cpus)
        blocked = SparseMatrix.from_dense(arr)
        assert not serial._blocks and len(blocked._blocks) > 1
        rows = [(r0, r1) for r0, r1, _ in blocked._blocks]
        assert rows[0][0] == 0 and rows[-1][1] == n
        assert all(r1 - r0 >= 4 and r0 % 4 == 0 for r0, r1 in rows)
        assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))
        for r0, r1, block in blocked._blocks:
            assert np.shares_memory(block, blocked._T) and block.shape == (r1 - r0, m)
        for _ in range(3):
            y = rng.standard_normal(m)
            assert np.array_equal(blocked.rmatvec(y), serial.rmatvec(y))
            assert np.array_equal(serial.rmatvec(y), serial._T @ y)

    @pytest.mark.parametrize("penalty", ["l1", "sorted-l1"])
    def test_solve_identical_to_serial(self, monkeypatch, penalty):
        _solve_identical_to_serial(monkeypatch, penalty, dense=True)

    def test_concurrent_callers_share_one_pool(self, monkeypatch):
        _dense_from(monkeypatch)
        _split_small(monkeypatch)
        created = []

        class CountingPool(problem.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(problem, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(problem, "_pool", None)
        rng = np.random.default_rng(7)
        A = SparseMatrix.from_dense(rng.standard_normal((30, 200)))
        ys = rng.standard_normal((8, 30))
        assert isinstance(A._T, np.ndarray)
        expected = [A._T @ y for y in ys]
        wrong = []

        def caller(i):
            for _ in range(25):
                if not np.array_equal(A.rmatvec(ys[i]), expected[i]):
                    wrong.append(i)

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong and len(created) == 1
        created[0].shutdown()

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_builds_its_own_pool(self, monkeypatch):
        # two blocks on a fresh pool: its one worker is idle after the product,
        # so an inherited pool would queue the child's block and start no thread
        _dense_from(monkeypatch)
        _split_small(monkeypatch, cpus=2)
        monkeypatch.setattr(problem, "_pool", None)
        rng = np.random.default_rng(6)
        A = SparseMatrix.from_dense(rng.standard_normal((20, 60)))
        y = rng.standard_normal(20)
        expected = A.rmatvec(y)  # starts the parent's pool
        assert len(A._blocks) == 2 and isinstance(A._T, np.ndarray)
        child = multiprocessing.get_context("fork").Process(
            target=_child_rmatvec, args=(A, y, expected)
        )
        child.start()
        child.join(timeout=30)
        try:
            assert child.exitcode == 0, "child hung or computed a wrong product"
        finally:
            if child.exitcode is None:
                child.kill()
                child.join()

    def test_too_few_rows_to_split(self, monkeypatch):
        _dense_from(monkeypatch)
        _split_small(monkeypatch)
        assert not SparseMatrix.from_dense(np.ones((50, 7)))._blocks
        assert len(SparseMatrix.from_dense(np.ones((50, 8)))._blocks) == 2

    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((2, 2, 2)), 5.0])
    @pytest.mark.parametrize("minimum", [0, math.inf])
    def test_rejects_input_that_is_not_2d(self, monkeypatch, bad, minimum):
        _dense_from(monkeypatch, minimum)
        with pytest.raises(ValueError, match="must be 2-D"):
            SparseMatrix.from_dense(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("minimum", [0, math.inf])
    def test_rejects_nonfinite_values(self, monkeypatch, bad, minimum):
        # the message of the CSC constructor, in both layouts
        _dense_from(monkeypatch, minimum)
        arr = np.ones((6, 5))
        arr[4, 2] = bad
        with pytest.raises(ValueError, match="stored values must be finite and nonzero"):
            SparseMatrix.from_dense(arr)

    def test_private_read_only_copy(self, monkeypatch):
        _dense_from(monkeypatch)
        rng = np.random.default_rng(9)
        arr = rng.standard_normal((10, 30))
        A = SparseMatrix.from_dense(arr)
        y, x = rng.standard_normal(10), rng.standard_normal(30)
        before = (A.rmatvec(y), A.matvec(x), A.toarray(), A.take_columns_dense([3, 4]))
        assert not np.shares_memory(A._T, arr) and not A._T.flags.writeable
        arr *= -2.0
        before[2][:] = 0.0
        before[3][:] = 0.0
        np.testing.assert_array_equal(A.rmatvec(y), before[0])
        np.testing.assert_array_equal(A.matvec(x), before[1])
        np.testing.assert_array_equal(A.toarray(), -0.5 * arr)
        with pytest.raises(ValueError):
            A._T[0, 0] = 1.0
        # one row or one column: the transpose of T is contiguous already
        for shape in [(1, 40), (40, 1)]:
            thin = SparseMatrix.from_dense(np.ones(shape))
            assert isinstance(thin._T, np.ndarray) and thin.toarray().flags.writeable

    @pytest.mark.parametrize("penalty", ["l1", "sorted-l1"])
    def test_solve_matches_csc_layout(self, monkeypatch, penalty):
        # just above the size minimum: 300 x 2000 is stored dense
        data, _ = synth_instance(SynthSpec(m=300, n=2000, s=20, sigma=0.01, seed=3))
        data = data.with_rho(0.1 * data.bnorm)
        assert isinstance(data.A._T, np.ndarray)
        _dense_from(monkeypatch, math.inf)
        csc = ProblemData(SparseMatrix.from_dense(data.A.toarray()), data.b, data.rho)
        assert isinstance(csc.A._T, sp.csr_array)
        reg = L1() if penalty == "l1" else SortedL1(linear_weights(2000))
        cfg = SmopConfig(stoptol=1e-8)
        res_d, res_c = smop_solve(data, reg, cfg), smop_solve(csc, reg, cfg)
        assert res_d.converged and res_c.converged
        assert res_d.kkt <= 1e-8 and res_c.kkt <= 1e-8
        assert abs(res_d.lambda_star - res_c.lambda_star) <= 1e-9 * res_c.lambda_star
        assert res_d.n_subproblems == res_c.n_subproblems


class TestProblemData:
    def test_rho_bounds(self):
        A = SparseMatrix.from_dense([[1.0]])
        with pytest.raises(ValueError, match="0 < rho"):
            ProblemData(A, np.array([1.0]), rho=1.5)
        with pytest.raises(ValueError, match="0 < rho"):
            ProblemData(A, np.array([1.0]), rho=0.0)
        data = ProblemData(A, np.array([1.0]))
        assert data.rho is None
        assert data.with_rho(0.5).rho == 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_b(self, bad):
        A = SparseMatrix.from_dense([[1.0], [2.0]])
        with pytest.raises(ValueError, match="NaN or inf"):
            ProblemData(A, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="NaN or inf"):
            ProblemData(A, np.array([1.0, bad]), rho=0.5)

    def test_rejects_b_whose_norm_overflows(self):
        rng = np.random.default_rng(3)
        A = SparseMatrix.from_dense(rng.standard_normal((20, 5)))
        b = rng.standard_normal(20)
        assert np.isfinite(1e200 * b).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning comes first
            with pytest.raises(ValueError, match=r"\|\|b\|\| overflows.*\(max \|b_i\| = [0-9.]+e\+200"):
                ProblemData(A, 1e200 * b)
            with pytest.raises(ValueError, match="overflows"):
                ProblemData(A, 1e200 * b, rho=1e199)
            # a large scale whose norm stays finite is accepted
            assert ProblemData(A, 1e150 * b).bnorm < np.inf

    def test_rejects_complex_b(self):
        A = SparseMatrix.from_dense([[1.0], [2.0]])
        with pytest.raises(ValueError, match="b must be real, got complex128"):
            ProblemData(A, np.array([1.0 + 2j, 1.0]))
        with pytest.raises(ValueError, match="b must be real, got complex64"):
            ProblemData(A, np.array([1.0, 2.0], dtype=np.complex64), rho=0.5)

    def test_rejects_zero_b(self):
        A = SparseMatrix.from_dense([[1.0]])
        with pytest.raises(ValueError, match="nonzero"):
            ProblemData(A, np.array([0.0]))


class TestLibsvm:
    def test_read_example(self, tmp_path):
        f = tmp_path / "t.svm"
        f.write_text("1 1:2 3:-1\n-1 2:4\n")
        data = libsvm_read(f)
        assert data.A.shape == (2, 3)
        np.testing.assert_array_equal(data.b, [1.0, -1.0])
        np.testing.assert_array_equal(
            data.A.toarray(), [[2.0, 0.0, -1.0], [0.0, 4.0, 0.0]]
        )

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.svm"
        f.write_text("")
        with pytest.raises(LibsvmFormatError, match="no rows"):
            libsvm_read(f)

    def test_zero_index(self, tmp_path):
        f = tmp_path / "z.svm"
        f.write_text("1 0:2\n")
        with pytest.raises(LibsvmFormatError, match="1-based"):
            libsvm_read(f)

    def test_nonincreasing_indices(self, tmp_path):
        f = tmp_path / "ni.svm"
        f.write_text("1 2:1 2:3\n")
        with pytest.raises(LibsvmFormatError, match="line 1"):
            libsvm_read(f)

    def test_malformed_feature_reports_line(self, tmp_path):
        f = tmp_path / "bad.svm"
        f.write_text("1 1:2\n-1 2:x\n")
        with pytest.raises(LibsvmFormatError, match="line 2"):
            libsvm_read(f)

    @pytest.mark.parametrize("text, line, token", [
        ("1.0 1:2.0 3:nan\n", 1, "nan"),
        ("1 1:2\n-1 2:1e999\n", 2, "1e999"),
        ("1 1:2\n2 1:1\n-1 1:-inf 2:1\n", 3, "-inf"),
    ])
    def test_nonfinite_feature_names_its_line(self, tmp_path, text, line, token):
        f = tmp_path / "nf.svm"
        f.write_text(text)
        with pytest.raises(LibsvmFormatError,
                           match=f"^line {line}: feature value must be finite, got '{token}'$"):
            libsvm_read(f)

    @pytest.mark.parametrize("label", ["nan", "inf", "-1e999"])
    def test_nonfinite_label_names_its_line(self, tmp_path, label):
        f = tmp_path / "nl.svm"
        f.write_text(f"1 1:2\n{label} 2:1\n")
        with pytest.raises(LibsvmFormatError,
                           match=f"^line 2: label must be finite, got '{label}'$"):
            libsvm_read(f)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((6, 9)) / 3.0
        dense[rng.random((6, 9)) < 0.5] = 0.0
        dense[0, 0] = 1.0  # keep b recoverable rows nonempty is not required
        _roundtrip(tmp_path, dense, rng.standard_normal(6))

    @pytest.mark.parametrize("dense, first_line", [
        ([[1.0, 2.0, 0.0], [0.0, 3.0, 0.0]], "1.0 1:1.0 2:2.0 3:0.0"),
        ([[0.0, 2.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
         "1.0 2:2.5 4:0.0"),
        ([[0.0, 0.0], [0.0, 4.0]], "1.0"),
    ], ids=["empty-last-column", "empty-last-columns-and-row", "last-column-stored"])
    def test_roundtrip_keeps_empty_last_columns(self, tmp_path, dense, first_line):
        dense = np.array(dense)
        text = _roundtrip(tmp_path, dense, np.arange(1.0, dense.shape[0] + 1))
        assert text.splitlines()[0] == first_line
        assert text.count(":0.0") == (first_line != "1.0")

    def test_roundtrip_dense_stored(self, tmp_path, monkeypatch):
        _dense_from(monkeypatch)
        rng = np.random.default_rng(8)
        dense = rng.standard_normal((6, 9)) / 3.0
        dense[2, 4] = 0.0
        assert isinstance(SparseMatrix.from_dense(dense)._T, np.ndarray)
        _roundtrip(tmp_path, dense, rng.standard_normal(6))


def _roundtrip(tmp_path, dense, b):
    """``libsvm_write`` then ``libsvm_read`` gives back ``(dense, b)`` bit-exactly,
    in its shape; returns the file's text."""
    data = ProblemData(SparseMatrix.from_dense(dense), b)
    path = tmp_path / "rt.svm"
    libsvm_write(path, data)
    back = libsvm_read(path)
    assert back.A.shape == dense.shape
    assert back.A.toarray().tobytes() == data.A.toarray().tobytes()
    assert back.b.tobytes() == data.b.tobytes()
    return path.read_text()


class TestSynth:
    def test_deterministic(self):
        spec = SynthSpec(m=4, n=8, s=2, sigma=0.0, seed=7)
        d1, x1 = synth_instance(spec)
        d2, x2 = synth_instance(spec)
        np.testing.assert_array_equal(d1.A.toarray(), d2.A.toarray())
        np.testing.assert_array_equal(d1.b, d2.b)
        np.testing.assert_array_equal(x1, x2)

    def test_noiseless_consistency(self):
        data, x = synth_instance(SynthSpec(m=4, n=8, s=2, sigma=0.0, seed=7))
        assert np.linalg.norm(data.A.matvec(x) - data.b) == 0.0

    def test_desk_scale_construction(self):
        data, x = synth_instance(SynthSpec(m=200, n=2000, s=20, sigma=0.01, seed=1))
        assert data.bnorm > 0
        assert np.count_nonzero(x) == 20
        assert np.all(np.abs(x[x != 0]) >= 0.5) and np.all(np.abs(x[x != 0]) <= 1.5)
        # unit-norm columns
        norms = np.linalg.norm(data.A.toarray(), axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SynthSpec(m=4, n=8, s=9, seed=0)
        for sigma in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
                SynthSpec(m=4, n=8, s=2, sigma=sigma)
