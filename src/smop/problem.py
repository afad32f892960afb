"""Problem data: validated design matrices, LIBSVM text I/O, synthetic instances.

A problem instance is ``min p(x)  s.t.  ||A x - b|| <= rho`` with a design
matrix ``A``, a dense response ``b`` and a noise-level parameter ``rho`` in
``(0, ||b||)``.

``SparseMatrix`` stores one thing, ``T = A^T``, in a form chosen from the
matrix alone (never from the machine), with no option:

* **dense**: one C-ordered ``(n, m)`` array, a private read-only copy, when
  the design has at least ``_MIN_DENSE_ENTRIES`` entries and ``T`` takes no
  more bytes than the CSC data and index arrays would (with int32 indices:
  at least 2/3 fill).
* **CSR** otherwise: the validated CSC arrays of ``A``, which are the CSR
  arrays of ``A^T``, so a sparse design (LIBSVM files) stays compact.

``from_dense`` makes one private C-ordered copy of ``A^T`` and builds either
form from it, with no scipy conversion: the dense form is the copy, and the
CSR arrays are read off it (for a full design the value array is the copy
itself), equal byte for byte to the CSC constructor's. Complex input is
rejected at every entry point, never cast.

Every method reads ``T`` the same way in both forms: a product is ``T @ y``
or ``T.T @ x`` and a column gather is a row gather of ``T``. ``take_columns``
is the one gather of the solves, and it alone picks the block's form: dense
when the design is stored dense or the block has at most ``_DENSE_LIMIT``
entries, CSC otherwise. A dense gather from a CSR ``T`` with every entry
stored takes rows of the ``(n, m)`` view of its value array; from any other
CSR ``T`` it scatters the stored entries. Index arrays must have an integer
dtype (``index_array``): a bool mask or a float index is refused, not cast.

``_row_cuts`` splits ``T`` into row blocks: at most one per usable CPU,
each of at least ``_MIN_BLOCK_NNZ`` entries, and the one block ``(0, n)``
for a small design or one usable CPU. One runner, ``_by_row_blocks``, does
a job on the first block on the caller and on the others on shared worker
threads. ``from_dense`` fills its copy of ``A^T`` through it in one pass,
each block in strips of about ``_STRIP_BYTES``, and checks every strip for
finite values and counts its nonzeros while it is still in cache; a copy is
exact, so the stored bytes never depend on the cuts. A dense design keeps
its cuts, and ``rmatvec`` on two or more forms ``T[start:stop] @ y`` per
block.

Scope of bit-identity: each output entry is the same BLAS ``gemv`` dot
product whether split or not, so for a fixed BLAS thread count a split
product is bit-identical to the single one, and a solve does not depend on
the usable CPU count. A multithreaded BLAS splits a large product itself at
rows of its own choosing, so there the last bits can depend on the BLAS
thread count. The two forms agree to roundoff, not bitwise. ``matvec``
stays serial: no solve calls it.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

# fewest entries per block of a split A^T y: below it, handing a block to a
# thread costs more than it saves (break-even measured on 2 cores)
_MIN_BLOCK_NNZ = 250_000
# fewest entries m*n of a design stored dense; smaller dense designs keep CSR
# (see the ROADMAP item "One layout rule for dense designs"). Its own constant:
# patching the block minimum must not change a layout.
_MIN_DENSE_ENTRIES = 2 * _MIN_BLOCK_NNZ
# a CSR-stored design's column blocks up to this entry count are gathered
# densely (BLAS products beat scipy sparse dispatch overhead at desk scale)
_DENSE_LIMIT = 4_194_304
# bytes of T that from_dense writes and then checks while they are in cache:
# on 2 cores, 256 KB to 1 MB strips set up a 300x10000 design equally fast
# (7.0 ms, against 16.0 ms for a whole copy, isfinite and count_nonzero);
# 64 KB and 2 MB strips were slower
_STRIP_BYTES = 1 << 19

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_pool() -> ThreadPoolExecutor:
    """The shared pool of ``_by_row_blocks``'s workers, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=max(_usable_cpus() - 1, 1), thread_name_prefix="smop-rows"
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


def _row_cuts(n: int, m: int) -> tuple:
    """``(start, stop)`` per row block of an ``(n, m)`` ``T``: the most blocks,
    at most one per usable CPU, that each hold at least ``_MIN_BLOCK_NNZ``
    entries, and ``((0, n),)`` when there is no split.

    Cuts are multiples of 4 rows and every block of a split has at least 4:
    BLAS's gemv takes rows four at a time and the last ``n % 4`` by a tail
    kernel that sums in another order, and numpy hands a one-row product to
    ``dot``.
    """
    k = min(_usable_cpus(), n * m // max(_MIN_BLOCK_NNZ, 1))
    while k > 1:
        rows = 4 * (np.arange(k + 1) * n // (4 * k))
        rows[-1] = n
        sizes = np.diff(rows)
        if np.all(sizes >= 4) and np.all(sizes * m >= _MIN_BLOCK_NNZ):
            return tuple(zip(rows[:-1].tolist(), rows[1:].tolist()))
        k -= 1
    return ((0, n),)


def _by_row_blocks(cuts, fn) -> list:
    """``[fn(start, stop) for start, stop in cuts]``: the first cut on the
    caller, the others on the shared worker threads. An error leaves only
    after every worker has finished, so none writes on after it."""
    pending = [_thread_pool().submit(fn, *cut) for cut in cuts[1:]]
    try:
        return [fn(*cuts[0])] + [f.result() for f in pending]
    except BaseException:
        wait(pending)
        raise


def _fill_rows(T, arr, r0: int, r1: int) -> tuple[bool, int]:
    """Write ``T[r0:r1] = arr[:, r0:r1].T`` strip by strip; return whether
    every value written is finite and how many are nonzero, both read off
    each strip while it is still in cache."""
    h = max(_STRIP_BYTES // (8 * max(T.shape[1], 1)), 1)
    finite, nnz = True, 0
    for j in range(r0, r1, h):
        k = min(j + h, r1)
        strip = T[j:k]
        strip[...] = arr[:, j:k].T
        finite = finite and bool(np.isfinite(strip).all())
        nnz += int(np.count_nonzero(strip))
    return finite, nnz


def _require_real(arr: np.ndarray, name: str) -> None:
    """Reject complex input before a cast to float64 would drop its imaginary
    part with only a warning."""
    if np.iscomplexobj(arr):
        raise ValueError(f"{name} must be real, got {arr.dtype}")


def index_array(idx) -> np.ndarray:
    """``idx`` as an int64 index array. An array of any other dtype kind
    raises ``IndexError`` naming it: a cast would turn a bool mask into the
    indices 0 and 1 and truncate a float index. An empty list, which numpy
    reads as float64, stays the empty index array. An unsigned index past
    the int64 range raises ``IndexError`` naming it, as the cast would wrap
    it to a negative index that counts from the end."""
    arr = np.asarray(idx)
    if arr.dtype.kind not in "iu" and arr.size:
        raise IndexError(f"index arrays must have an integer dtype, got {arr.dtype}")
    if arr.dtype.kind == "u" and arr.size and arr.max() > np.iinfo(np.int64).max:
        raise IndexError(f"index ({int(arr.max())}) out of range")
    return arr.astype(np.int64, copy=False)


class LibsvmFormatError(ValueError):
    """A LIBSVM text file violates the format contract."""


class SparseMatrix:
    """Immutable design matrix with validated structure, stored as ``T = A^T``.

    Large designs with at least 2/3 nonzeros (see the module docstring for
    the exact rule) hold ``T`` as a private read-only C-ordered array; all
    others as a CSR array over the CSC arrays of ``A``. ``from_dense`` and
    ``from_scipy`` choose the same form for the same matrix. Every method
    returns the same values in both forms: gathers and ``toarray`` exactly,
    products to roundoff.

    Invariants of the CSC input, enforced at construction: row indices lie
    in ``[0, m)`` and are strictly increasing within each column; stored
    values are finite and nonzero. Index arrays are int32 when every index
    fits, else int64. A dense ``T`` holds finite values.
    """

    def __init__(self, m, n, indptr, indices, data):
        indptr = np.asarray(indptr)
        indices = np.asarray(indices)
        data = np.asarray(data)
        _require_real(data, "stored values")
        data = data.astype(np.float64, copy=False)
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
        # the CSC arrays of A are the CSR arrays of A^T: nothing is copied
        T = sp.csc_array((data, indices, indptr), shape=(m, n)).T
        self._set_T(T.toarray() if _dense_layout(m, n, indices.size) else T)

    def _set_T(self, T) -> None:
        """Store ``T = A^T``, a C-ordered ``(n, m)`` array no caller holds or
        a CSR array, and the row cuts of its ``T @ y``: one block for CSR."""
        self._T = T
        self._cuts = ((0, T.shape[0]),)
        if isinstance(T, np.ndarray):
            T.flags.writeable = False
            self._cuts = _row_cuts(*T.shape)

    @property
    def m(self):
        return self._T.shape[1]

    @property
    def n(self):
        return self._T.shape[0]

    @property
    def shape(self):
        return self._T.shape[::-1]

    @classmethod
    def from_scipy(cls, mat) -> "SparseMatrix":
        csc = sp.csc_array(mat)
        csc.sort_indices()
        csc.sum_duplicates()
        csc.eliminate_zeros()
        return cls(csc.shape[0], csc.shape[1], csc.indptr, csc.indices, csc.data)

    @classmethod
    def from_dense(cls, arr) -> "SparseMatrix":
        """The matrix of a real 2-D array of finite values.

        Either form is read off one private C-ordered copy ``T`` of ``arr.T``:
        a dense ``T`` is that copy, and a CSR ``T`` takes its arrays from it,
        canonical by construction and equal byte for byte to the CSC
        constructor's. Later writes to ``arr`` change nothing here. The copy
        is filled in one pass, block by block of ``_row_cuts`` through
        ``_by_row_blocks``; one block (a small design, one usable CPU) is the
        caller's alone.
        """
        arr = np.asarray(arr)
        _require_real(arr, "a matrix")
        if arr.ndim != 2:
            raise ValueError(f"a matrix must be 2-D, got {arr.ndim}-D input")
        m, n = arr.shape
        T = np.empty((n, m))
        filled = _by_row_blocks(_row_cuts(n, m), partial(_fill_rows, T, arr))
        if not all(finite for finite, _ in filled):
            raise ValueError("stored values must be finite and nonzero")
        nnz = sum(count for _, count in filled)
        A = cls.__new__(cls)
        if _dense_layout(m, n, nnz):
            A._set_T(T)
            return A
        idx = _index_dtype(m, n, nnz)
        if nnz == T.size:
            data = T.reshape(-1)
            indices = np.tile(np.arange(m, dtype=idx), n)
            indptr = m * np.arange(n + 1, dtype=idx)
        else:
            # -0.0 is not stored, as in the CSC constructor
            mask = T != 0.0
            data = T[mask]
            indices = np.broadcast_to(np.arange(m, dtype=idx), T.shape)[mask]
            indptr = np.zeros(n + 1, dtype=idx)
            np.cumsum(np.count_nonzero(mask, axis=1), out=indptr[1:])
        A._set_T(sp.csr_array((data, indices, indptr), shape=(n, m)))
        return A

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"matvec expects a vector of length {self.n}")
        return self._T.T @ x

    def rmatvec(self, y) -> np.ndarray:
        """``A^T y``: ``T @ y``, or ``T[start:stop] @ y`` per cut through
        ``_by_row_blocks`` when there is more than one."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.m,):
            raise ValueError(f"rmatvec expects a vector of length {self.m}")
        T = self._T
        if len(self._cuts) == 1:
            return T @ y
        out = np.empty(self.n)

        def product(r0, r1):
            out[r0:r1] = T[r0:r1] @ y

        _by_row_blocks(self._cuts, product)
        return out

    def take_columns(self, idx):
        """Column submatrix (m x len(idx)): the dense array of
        ``take_columns_dense`` when the design is stored dense or the block
        has at most ``_DENSE_LIMIT`` entries, else scipy CSC. A dense block is
        F-ordered from a dense design (rows of ``T``) and C-ordered from CSR."""
        idx = index_array(idx)
        if isinstance(self._T, np.ndarray) or self.m * idx.size <= _DENSE_LIMIT:
            return self.take_columns_dense(idx)
        return sp.csc_array(self._T[idx].T)

    def take_columns_dense(self, idx) -> np.ndarray:
        """Column submatrix as a dense array, whatever the stored form.

        From CSR the result is a fresh C-ordered array, as the reduced solves'
        last bits depend on the layout. A CSR ``T`` with every row full
        (``T.nnz == n * m``) has the C-ordered ``(n, m)`` array as its value
        array, so the gathered rows of that view are copied, transposed, into
        the result; any other CSR ``T`` has each gathered row scattered
        straight into its column. Neither builds a scipy submatrix. Negative
        indices count from the end; an index out of range raises scipy's
        ``IndexError``, and an index array that is not of integer dtype an
        ``IndexError`` naming its dtype.
        """
        idx = index_array(idx)
        T, (n, m), k = self._T, self._T.shape, idx.size
        if isinstance(T, np.ndarray):
            return T[idx].T
        if k:
            hi, lo = int(idx.max()), int(idx.min())
            if hi >= n or lo < -n:
                raise IndexError(f"index ({hi if hi >= n else lo}) out of range")
        if T.nnz == n * m:
            # full rows: T.indices repeat arange(m), so T.data is T row by row
            return T.data.reshape(n, m)[idx].T.copy()
        idx = idx % n
        start = T.indptr[idx]
        count = T.indptr[idx + 1] - start
        # stored entry p of gathered row j goes to out[T.indices[p], j]
        col = np.repeat(np.arange(k), count)
        pos = np.arange(col.size) + np.repeat(start - np.cumsum(count) + count, count)
        out = np.zeros((m, k))
        out.ravel()[np.multiply(T.indices[pos], k, dtype=np.int64) + col] = T.data[pos]
        return out

    def toarray(self) -> np.ndarray:
        T = self._T
        return T.T.copy() if isinstance(T, np.ndarray) else T.T.toarray()


@dataclass(frozen=True)
class ProblemData:
    """Instance (A, b, rho); ``rho`` may be attached later via :meth:`with_rho`."""

    A: SparseMatrix
    b: np.ndarray
    rho: float | None = None

    def __post_init__(self):
        b = np.asarray(self.b)
        _require_real(b, "b")
        b = b.astype(np.float64, copy=False)
        if b.shape != (self.A.m,):
            raise ValueError("b must have length equal to the row count of A")
        if not np.all(np.isfinite(b)):
            raise ValueError("b must be finite: it contains NaN or inf")
        if not np.any(b != 0.0):
            raise ValueError("b must have at least one nonzero entry")
        with np.errstate(over="ignore"):  # an overflow is reported below, by its cause
            bnorm = float(np.linalg.norm(b))
        if bnorm == np.inf:
            raise ValueError(f"||b|| overflows float64: b is too large in scale "
                             f"(max |b_i| = {np.abs(b).max():.3g}); rescale b and rho")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "bnorm", bnorm)
        if self.rho is not None:
            rho = float(self.rho)
            if not 0.0 < rho < self.bnorm:
                raise ValueError("require 0 < rho < ||b||")
            object.__setattr__(self, "rho", rho)

    def with_rho(self, rho: float) -> "ProblemData":
        out = replace(self, rho=float(rho))
        out.__dict__["Atb"] = self.Atb
        return out

    @cached_property
    def Atb(self) -> np.ndarray:
        """``A^T b``, read-only, formed once per instance and shared by its
        :meth:`with_rho` levels: ``lambda_inf`` and the empty sieve round read it."""
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
        for name in ("m", "n", "s", "seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if not 0 <= self.s <= self.n:
            raise ValueError("support size s must satisfy 0 <= s <= n")
        if not 0 <= self.sigma < np.inf:
            raise ValueError("noise level sigma must be finite and nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")


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
            label = float(tokens[0])
        except ValueError:
            raise LibsvmFormatError(f"line {lineno}: bad label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise LibsvmFormatError(f"line {lineno}: label must be finite, got {tokens[0]!r}")
        labels.append(label)
        prev_idx = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise LibsvmFormatError(f"line {lineno}: bad feature {tok!r}") from None
            if not math.isfinite(val):
                raise LibsvmFormatError(
                    f"line {lineno}: feature value must be finite, got {val_s!r}"
                )
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
    read-back reproduces them bit-exactly. When the last column stores
    nothing, the first line ends with an explicit ``n:0.0``, so the read-back
    keeps all ``n`` columns.
    """
    csr = sp.csr_array(data.A._T.T)
    n = data.A.n
    with open(path, "w") as fh:
        for i in range(data.A.m):
            parts = [repr(float(data.b[i]))]
            lo, hi = csr.indptr[i], csr.indptr[i + 1]
            for j, v in zip(csr.indices[lo:hi], csr.data[lo:hi]):
                parts.append(f"{j + 1}:{repr(float(v))}")
            if i == 0 and n and not np.any(csr.indices == n - 1):
                parts.append(f"{n}:0.0")
            fh.write(" ".join(parts) + "\n")
