"""Problem data: validated design matrices, LIBSVM text I/O, synthetic instances.

A problem instance is ``min p(x)  s.t.  ||A x - b|| <= rho`` with a design
matrix ``A``, a dense response ``b`` and a noise-level parameter ``rho`` in
``(0, ||b||)``.

``SparseMatrix`` stores ``A`` in one of two layouts, chosen from the matrix
alone (never from the machine), with no option:

* **dense**: ``T = A^T`` as one C-ordered ``(n, m)`` array, a private
  read-only copy. Every product is a BLAS product on ``T`` and a column
  gather is a row gather of ``T``. A design takes it when it has at least
  ``_MIN_DENSE_ENTRIES`` entries and ``T`` takes no more bytes than the CSC
  data and index arrays would (with int32 indices: at least 2/3 fill).
* **CSC** otherwise: the solvers slice columns by index set, and a sparse
  design (LIBSVM files) stays compact.

``SparseMatrix.rmatvec`` splits a large ``A^T y`` over the usable cores: the
output is cut into contiguous blocks of about equal stored-entry count (CSC:
column blocks of ``A``; dense: row blocks of ``T``, cut at multiples of 4
rows), one per CPU the process may run on, and each block's product runs on
a shared worker thread (the caller computes the first). It splits only when
every block holds at least ``_MIN_BLOCK_NNZ`` stored entries, and never with
one usable CPU.

Scope of bit-identity: each output entry is the same dot product in the same
order whether split or not (CSC: scipy's row loop; dense: BLAS ``gemv``,
whose kernel takes rows four at a time, hence the cuts), so for a fixed BLAS
thread count a split product is bit-identical to the single one, and a solve
does not depend on the usable CPU count. A multithreaded BLAS splits a large
dense product itself at rows of its own choosing, so there the last bits can
depend on the BLAS thread count. The two layouts agree to roundoff, not
bitwise. ``matvec`` stays serial: no solve calls it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

# fewest nonzeros per block of a split A^T y: below it, handing a block to a
# thread costs more than it saves (break-even measured on 2 cores)
_MIN_BLOCK_NNZ = 250_000
# fewest entries m*n of a design stored dense; smaller dense designs keep CSC
# (see ROADMAP item 2 for why). Its own constant: patching the block minimum
# must not change a layout.
_MIN_DENSE_ENTRIES = 2 * _MIN_BLOCK_NNZ

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_pool() -> ThreadPoolExecutor:
    """The shared pool of block-product workers, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=max(_usable_cpus() - 1, 1), thread_name_prefix="smop-rmatvec"
            )
        return _pool


def _drop_pool() -> None:
    # a forked child inherits the pool but not its threads: it builds its own
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _index_dtype(m: int, n: int, nnz: int):
    """int32 when every CSC index and pointer fits (sparse products run faster
    on it), else int64."""
    return np.int32 if max(m, n, nnz) <= np.iinfo(np.int32).max else np.int64


def _dense_layout(m: int, n: int, nnz: int) -> bool:
    """Whether an ``m x n`` design with ``nnz`` nonzeros is stored dense: it is
    large enough, and its 8 bytes per entry take no more than the CSC data and
    index arrays' bytes per nonzero."""
    entries = m * n
    per_nonzero = 8 + np.dtype(_index_dtype(m, n, nnz)).itemsize
    return entries >= _MIN_DENSE_ENTRIES and 8 * entries <= per_nonzero * nnz


def _column_blocks(csc: sp.csc_array) -> tuple:
    """``(start, stop, block)`` per column block of a split ``A^T``, or ``()``.

    Cut points balance the nonzeros; ``block`` is the CSR form of columns
    ``start:stop`` of ``A^T`` and shares the CSC data and indices.
    """
    indptr = csc.indptr
    nnz = int(indptr[-1])
    k = min(_usable_cpus(), nnz // max(_MIN_BLOCK_NNZ, 1))
    while k > 1:
        cuts = np.searchsorted(indptr, np.arange(1, k) * (nnz / k))
        cols = np.concatenate(([0], cuts, [csc.shape[1]]))
        if np.all(np.diff(indptr[cols]) >= _MIN_BLOCK_NNZ):
            break
        k -= 1
    if k <= 1:
        return ()
    blocks = []
    for c0, c1 in zip(cols[:-1].tolist(), cols[1:].tolist()):
        p0, p1 = indptr[c0], indptr[c1]
        # the arrays are set after construction: the (data, indices, indptr)
        # constructor copies a view much smaller than the array it views
        block = sp.csr_array((c1 - c0, csc.shape[0]))
        block.indptr = indptr[c0:c1 + 1] - p0
        block.indices = csc.indices[p0:p1]
        block.data = csc.data[p0:p1]
        blocks.append((c0, c1, block))
    return tuple(blocks)


def _row_blocks(T: np.ndarray) -> tuple:
    """``(start, stop, block)`` per row block of a split ``T @ y``, or ``()``.

    ``block`` is the view ``T[start:stop]``. Cuts are multiples of 4 rows and
    every block has at least 4: BLAS's gemv takes rows four at a time and the
    last ``n % 4`` by a tail kernel that sums in another order, and numpy
    hands a one-row product to ``dot``.
    """
    n, m = T.shape
    k = min(_usable_cpus(), n * m // max(_MIN_BLOCK_NNZ, 1))
    while k > 1:
        rows = 4 * (np.arange(k + 1) * n // (4 * k))
        rows[-1] = n
        sizes = np.diff(rows)
        if np.all(sizes >= 4) and np.all(sizes * m >= _MIN_BLOCK_NNZ):
            break
        k -= 1
    if k <= 1:
        return ()
    return tuple((r0, r1, T[r0:r1]) for r0, r1 in zip(rows[:-1].tolist(), rows[1:].tolist()))


def _block_product(out, block, y) -> None:
    out[...] = block @ y


class LibsvmFormatError(ValueError):
    """A LIBSVM text file violates the format contract."""


class SparseMatrix:
    """Immutable design matrix with validated structure, in one of two layouts.

    Large designs with at least 2/3 nonzeros (see the module docstring for
    the exact rule) are stored dense, as ``T = A^T`` in a private read-only
    C-ordered array; all others column-compressed. ``from_dense`` and
    ``from_scipy`` choose the same layout for the same matrix. Every method
    returns the same values in both layouts: gathers and ``toarray``
    exactly, products to roundoff.

    Invariants of the CSC layout, enforced at construction: row indices lie
    in ``[0, m)`` and are strictly increasing within each column; stored
    values are finite and nonzero. Index arrays are int32 when every index
    fits, else int64. A dense layout holds finite values.
    """

    def __init__(self, m, n, indptr, indices, data):
        indptr = np.asarray(indptr)
        indices = np.asarray(indices)
        data = np.asarray(data, dtype=np.float64)
        if m < 0 or n < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("malformed column pointer array")
        if np.any(indptr[1:] < indptr[:-1]):
            raise ValueError("column pointers must be nondecreasing")
        if indices.size != data.size:
            raise ValueError("index and value arrays must have equal length")
        if indices.size and (indices.min() < 0 or indices.max() >= m):
            raise ValueError("row index out of range [0, m)")
        # every pointer now lies in [0, nnz] and every index in [0, m), so the
        # cast cannot wrap
        idx_dtype = _index_dtype(m, n, indices.size)
        indptr = indptr.astype(idx_dtype, copy=False)
        indices = indices.astype(idx_dtype, copy=False)
        if indices.size:
            if not np.all(np.isfinite(data)) or np.any(data == 0.0):
                raise ValueError("stored values must be finite and nonzero")
            # strictly increasing inside each column: diffs crossing a column
            # boundary are exempt
            d = np.diff(indices)
            boundary = np.zeros(indices.size, dtype=bool)
            starts = indptr[1:-1]
            boundary[starts[starts < indices.size]] = True
            if np.any(d[~boundary[1:]] <= 0):
                raise ValueError("row indices must be strictly increasing per column")
        self._m = int(m)
        self._n = int(n)
        csc = sp.csc_array((data, indices, indptr), shape=(m, n))
        if _dense_layout(self._m, self._n, indices.size):
            self._set_dense(csc.T.toarray())
        else:
            self._csc = csc
            self._T = None
            self._blocks = _column_blocks(csc)

    def _set_dense(self, T: np.ndarray) -> None:
        """Store the dense layout ``T = A^T``, a C-ordered ``(n, m)`` array
        no caller holds."""
        T.flags.writeable = False
        self._csc = None
        self._T = T
        self._blocks = _row_blocks(T)

    @property
    def m(self):
        return self._m

    @property
    def n(self):
        return self._n

    @property
    def shape(self):
        return (self._m, self._n)

    @classmethod
    def from_scipy(cls, mat) -> "SparseMatrix":
        csc = sp.csc_array(mat)
        csc.sort_indices()
        csc.sum_duplicates()
        csc.eliminate_zeros()
        return cls(csc.shape[0], csc.shape[1], csc.indptr, csc.indices, csc.data)

    @classmethod
    def from_dense(cls, arr) -> "SparseMatrix":
        """The matrix of a 2-D array of finite values. A design stored dense
        is copied, never converted through CSC; later writes to ``arr``
        change nothing here."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"a matrix must be 2-D, got {arr.ndim}-D input")
        m, n = arr.shape
        # below the size minimum no fill is counted; the CSC constructor
        # rejects NaN and inf
        if m * n < _MIN_DENSE_ENTRIES or not _dense_layout(m, n, int(np.count_nonzero(arr))):
            return cls.from_scipy(sp.csc_array(arr))
        if not np.all(np.isfinite(arr)):
            raise ValueError("stored values must be finite and nonzero")
        A = cls.__new__(cls)
        A._m, A._n = m, n
        A._set_dense(np.array(arr.T, order="C"))
        return A

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._n,):
            raise ValueError(f"matvec expects a vector of length {self._n}")
        if self._T is not None:
            return self._T.T @ x
        return self._csc @ x

    def rmatvec(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self._m,):
            raise ValueError(f"rmatvec expects a vector of length {self._m}")
        if not self._blocks:
            return self._T @ y if self._T is not None else self._csc.T @ y
        out = np.empty(self._n)
        pool = _thread_pool()
        pending = [
            pool.submit(_block_product, out[c0:c1], block, y)
            for c0, c1, block in self._blocks[1:]
        ]
        c0, c1, block = self._blocks[0]
        _block_product(out[c0:c1], block, y)
        for f in pending:
            f.result()
        return out

    def take_columns(self, idx) -> sp.csc_array:
        """Column submatrix as a scipy CSC array (m x len(idx))."""
        idx = np.asarray(idx, dtype=np.int64)
        if self._T is not None:
            return sp.csc_array(self._T[idx].T)
        return self._csc[:, idx]

    def take_columns_dense(self, idx) -> np.ndarray:
        """Column submatrix gathered into a dense array; cheaper than sparse
        slicing for the reduced solves this library runs at desk scale."""
        idx = np.asarray(idx, dtype=np.int64)
        if self._T is not None:
            return self._T[idx].T
        indptr, indices, data = self._csc.indptr, self._csc.indices, self._csc.data
        out = np.zeros((self._m, idx.size))
        for j, col in enumerate(idx):
            lo, hi = indptr[col], indptr[col + 1]
            out[indices[lo:hi], j] = data[lo:hi]
        return out

    def toarray(self) -> np.ndarray:
        if self._T is not None:
            return self._T.T.copy()
        return self._csc.toarray()


@dataclass(frozen=True)
class ProblemData:
    """Instance (A, b, rho); ``rho`` may be attached later via :meth:`with_rho`."""

    A: SparseMatrix
    b: np.ndarray
    rho: float | None = None

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64)
        if b.shape != (self.A.m,):
            raise ValueError("b must have length equal to the row count of A")
        if not np.all(np.isfinite(b)):
            raise ValueError("b must be finite: it contains NaN or inf")
        if not np.any(b != 0.0):
            raise ValueError("b must have at least one nonzero entry")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "bnorm", float(np.linalg.norm(b)))
        if self.rho is not None:
            rho = float(self.rho)
            if not 0.0 < rho < self.bnorm:
                raise ValueError("require 0 < rho < ||b||")
            object.__setattr__(self, "rho", rho)

    def with_rho(self, rho: float) -> "ProblemData":
        return replace(self, rho=float(rho))

    @cached_property
    def Atb(self) -> np.ndarray:
        """``A^T b``, read-only and formed once per instance: ``lambda_inf``
        and the sieve's round from the empty set both read it."""
        atb = self.A.rmatvec(self.b)
        atb.flags.writeable = False
        return atb


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic instance parameters; deterministic for a fixed seed."""

    m: int
    n: int
    s: int
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if not 0 <= self.s <= self.n:
            raise ValueError("support size s must satisfy 0 <= s <= n")
        if self.sigma < 0:
            raise ValueError("noise level sigma must be nonnegative")


def synth_instance(spec: SynthSpec):
    """Generate a random sparse-recovery instance.

    Columns of ``A`` are standard normal, normalized to unit Euclidean norm.
    The ground truth has ``spec.s`` nonzeros on a uniformly chosen support,
    with random signs and magnitudes uniform in [0.5, 1.5]; the response is
    ``b = A x_true + sigma * noise``.

    Returns
    -------
    (ProblemData, ndarray)
        The instance (with ``rho`` unset) and the ground-truth vector.
    """
    rng = np.random.default_rng(spec.seed)
    dense = rng.standard_normal((spec.m, spec.n))
    dense /= np.linalg.norm(dense, axis=0)
    support = np.sort(rng.choice(spec.n, size=spec.s, replace=False))
    signs = rng.choice([-1.0, 1.0], size=spec.s)
    mags = rng.uniform(0.5, 1.5, size=spec.s)
    x_true = np.zeros(spec.n)
    x_true[support] = signs * mags
    b = dense @ x_true
    if spec.sigma > 0:
        b = b + spec.sigma * rng.standard_normal(spec.m)
    return ProblemData(SparseMatrix.from_dense(dense), b), x_true


def libsvm_read(path) -> ProblemData:
    """Read a LIBSVM-format regression file.

    Each line is ``label idx:val idx:val ...`` with 1-based, strictly
    increasing feature indices. Labels become ``b`` unchanged; ``m`` is the
    line count and ``n`` the largest feature index seen.
    """
    labels = []
    rows, cols, vals = [], [], []
    n = 0
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise LibsvmFormatError("no rows")
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            raise LibsvmFormatError(f"line {lineno}: empty line")
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise LibsvmFormatError(f"line {lineno}: bad label {tokens[0]!r}") from None
        prev_idx = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise LibsvmFormatError(f"line {lineno}: bad feature {tok!r}") from None
            if idx < 1:
                raise LibsvmFormatError(f"line {lineno}: indices are 1-based, got {idx}")
            if idx <= prev_idx:
                raise LibsvmFormatError(
                    f"line {lineno}: indices must be strictly increasing"
                )
            prev_idx = idx
            if val != 0.0:
                rows.append(lineno - 1)
                cols.append(idx - 1)
                vals.append(val)
            n = max(n, idx)
    m = len(lines)
    coo = sp.coo_array((vals, (rows, cols)), shape=(m, n))
    return ProblemData(SparseMatrix.from_scipy(coo), np.asarray(labels))


def libsvm_write(path, data: ProblemData) -> None:
    """Write ``(A, b)`` in LIBSVM text format.

    Values are printed with ``repr`` (shortest round-trip decimal), so a
    read-back reproduces them bit-exactly.
    """
    csr = sp.csr_array(data.A.take_columns(np.arange(data.A.n)))
    with open(path, "w") as fh:
        for i in range(data.A.m):
            parts = [repr(float(data.b[i]))]
            lo, hi = csr.indptr[i], csr.indptr[i + 1]
            for j, v in zip(csr.indices[lo:hi], csr.data[lo:hi]):
                parts.append(f"{j + 1}:{repr(float(v))}")
            fh.write(" ".join(parts) + "\n")
