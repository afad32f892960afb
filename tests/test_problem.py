import numpy as np
import pytest

from smop import (
    LibsvmFormatError,
    ProblemData,
    SparseMatrix,
    SynthSpec,
    libsvm_read,
    libsvm_write,
    synth_instance,
)


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

    def test_int32_indices_and_no_wraparound(self):
        # indices are stored as int32; values past the int32 range must be
        # rejected before the cast, not wrapped into range by it
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

    def test_take_columns(self):
        dense = np.array([[2.0, 0.0, -1.0], [0.0, 4.0, 3.0]])
        A = SparseMatrix.from_dense(dense)
        sub = A.take_columns([0, 2]).toarray()
        np.testing.assert_array_equal(sub, dense[:, [0, 2]])


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

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((6, 9)) / 3.0
        dense[rng.random((6, 9)) < 0.5] = 0.0
        dense[0, 0] = 1.0  # keep b recoverable rows nonempty is not required
        data = ProblemData(SparseMatrix.from_dense(dense), rng.standard_normal(6))
        path = tmp_path / "rt.svm"
        libsvm_write(path, data)
        back = libsvm_read(path)
        # column count can shrink if trailing columns are empty; pad to compare
        assert back.A.m == 6
        got = np.zeros((6, 9))
        got[:, : back.A.n] = back.A.toarray()
        np.testing.assert_array_equal(got, dense)
        np.testing.assert_array_equal(back.b, data.b)


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
        with pytest.raises(ValueError):
            SynthSpec(m=4, n=8, s=2, sigma=-1.0)
