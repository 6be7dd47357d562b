"""Sparse integer matrices and composed black-box linear operators.

A SparseMatrix is coordinate-form with entries sorted by (row, col); this
row-major order is what lets the Gram operator evaluate (A^T A) v in one
pass with only the output-sized accumulator live.  Operators wrap a base
matrix with a composition descriptor:

    BASE         A
    DIAG_SCALE   diag(d) . A                     (Wiedemann preconditioner)
    SHIFT        A + diag(d)  (scalar or vector) (shifted/perturbed solves,
                                                  the SVD ridge)
    GRAM         A^T A
    GRAM_T       A A^T

``apply_int`` is exact integer arithmetic and the one implementation of
each composition; callers keep query entries within the documented
n^6 U^2 bound.  ``apply_mod`` is that product reduced mod p.  The fused
Krylov/Horner kernels run on BASE, GRAM and DIAG_SCALE over a matrix,
and on DIAG_SCALE over such a GRAM (the determinant's preconditioner),
when the prime is word-size for the shape of the matrix they read
(``kernels.word_size``); ``prime_top`` is the exclusive top of those
primes, so callers can draw them.  Each fused call builds the matrix's
entries reduced mod p (``Field.coo``) from its int64 words
(``SparseMatrix.words``), charges that copy to the meter and drops it
when the call returns; nothing outlives the call.  A DIAG_SCALE over a
matrix folds the diagonal into the copy's entries (d_r a_rc mod p), so
the kernels see one matrix; over a GRAM the copy is the GRAM's matrix and
the kernels apply the diagonal per step.  A GRAM copy is charged one
n-word vector more, the kernels' w = A y.  Every other case, a wider
prime included, runs one generic Krylov/Horner loop over ``apply_mod``
and builds no copy.  On that generic path GRAM/GRAM_T never materialize
A x: their working space stays proportional to the output dimension.

Text formats (1-indexed, decimal):

    matrix: "n m nnz" then nnz lines "i j v"
    vector: "n" then n lines of (arbitrarily large) integers
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import meter
from .kernels import Field, _numpy, word_size, word_top

BASE = "BASE"
DIAG_SCALE = "DIAG_SCALE"
SHIFT = "SHIFT"
GRAM = "GRAM"
GRAM_T = "GRAM_T"


class DimensionMismatch(ValueError):
    pass


class MatrixFormatError(ValueError):
    def __init__(self, lineno, msg):
        super().__init__(f"line {lineno}: {msg}")
        self.lineno = lineno


@dataclass
class SparseMatrix:
    """Integer matrix in sorted coordinate form."""

    n: int
    m: int
    rows: list
    cols: list
    vals: list
    _words: tuple = field(default=None, init=False, repr=False, compare=False)

    @property
    def nnz(self):
        return len(self.vals)

    @property
    def entry_bound(self):
        """U: max |entry|, at least 1."""
        return max((abs(v) for v in self.vals), default=1) or 1

    @staticmethod
    def from_entries(n, m, entries):
        seen = set()
        for i, j, _ in entries:
            if not (0 <= i < n and 0 <= j < m):
                raise DimensionMismatch(f"entry ({i},{j}) outside {n}x{m}")
            if (i, j) in seen:
                raise ValueError(f"duplicate entry at ({i},{j})")
            seen.add((i, j))
        return SparseMatrix._from_sorted(n, m, sorted(entries))

    @staticmethod
    def _from_sorted(n, m, entries):
        """From distinct in-range (i, j, v) entries in sorted order."""
        return SparseMatrix(n, m,
                            [e[0] for e in entries],
                            [e[1] for e in entries],
                            [e[2] for e in entries])

    @staticmethod
    def from_dense(rows_of_values):
        n = len(rows_of_values)
        m = len(rows_of_values[0]) if n else 0
        entries = [(i, j, v)
                   for i, row in enumerate(rows_of_values)
                   for j, v in enumerate(row) if v]
        return SparseMatrix.from_entries(n, m, entries)

    @staticmethod
    def identity(n):
        return SparseMatrix(n, n, list(range(n)), list(range(n)), [1] * n)

    def words(self):
        """(rows, cols, vals, starts) as int64 arrays, starts the first
        entry of each nonempty row's segment: what the fused kernels read.
        Built on first use and kept with the matrix, which is read-only
        input, so they are neither released nor charged to the meter.
        Every entry fits int64 whenever a fused kernel runs: the
        determinant and the solver hand the kernels only primes above U
        (p >= max(16, n^2 U)) and below 2^50, so |entry| < 2^50."""
        if self._words is None:
            np = _numpy()
            rows = np.array(self.rows, np.int64)
            self._words = (rows, np.array(self.cols, np.int64),
                           np.array(self.vals, np.int64),
                           np.flatnonzero(np.diff(rows, prepend=-1)))
        return self._words

    def to_dense(self):
        out = [[0] * self.m for _ in range(self.n)]
        for i, j, v in zip(self.rows, self.cols, self.vals):
            out[i][j] = v
        return out

    def scaled(self, factor):
        return SparseMatrix(self.n, self.m, list(self.rows), list(self.cols),
                            [v * factor for v in self.vals])

    def is_symmetric(self):
        if self.n != self.m:
            return False
        d = {(i, j): v for i, j, v in zip(self.rows, self.cols, self.vals)}
        return all(d.get((j, i), 0) == v for (i, j), v in d.items())

    def apply_int(self, v):
        if len(v) != self.m:
            raise DimensionMismatch(f"vector length {len(v)} != {self.m}")
        out = [0] * self.n
        for i, j, a in zip(self.rows, self.cols, self.vals):
            out[i] += a * v[j]
        return out

    def apply_transpose_int(self, v):
        if len(v) != self.n:
            raise DimensionMismatch(f"vector length {len(v)} != {self.n}")
        out = [0] * self.m
        for i, j, a in zip(self.rows, self.cols, self.vals):
            out[j] += a * v[i]
        return out


class LinearOperator:
    """Black-box operator; see module docstring for the composition kinds.

    The base of DIAG_SCALE / SHIFT may itself be a LinearOperator
    (e.g. preconditioning a Gram product); those compositions run through
    the generic apply path, except DIAG_SCALE over the GRAM of a matrix,
    which has a fused kernel.
    """

    def __init__(self, kind, base, n, m, diag=None):
        self.kind = kind
        self.base = base
        self.base_is_matrix = isinstance(base, SparseMatrix)
        self.n = n
        self.m = m
        self.diag = diag          # DIAG_SCALE / SHIFT vector (by reference)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_sparse(a: SparseMatrix):
        return LinearOperator(BASE, a, a.n, a.m)

    @staticmethod
    def wrap(a):
        return a if isinstance(a, LinearOperator) else LinearOperator.from_sparse(a)

    @staticmethod
    def diag_scale(d, a):
        if len(d) != a.n:
            raise DimensionMismatch("diagonal length != rows")
        return LinearOperator(DIAG_SCALE, a, a.n, a.m, diag=list(d))

    @staticmethod
    def shift(a, c):
        """A + diag(c); c is a scalar or a per-coordinate vector."""
        if a.n != a.m:
            raise DimensionMismatch("shift needs a square base")
        d = list(c) if isinstance(c, (list, tuple)) else [c] * a.n
        if len(d) != a.n:
            raise DimensionMismatch("diagonal length != rows")
        return LinearOperator(SHIFT, a, a.n, a.m, diag=d)

    @staticmethod
    def gram(a: SparseMatrix):
        return LinearOperator(GRAM, a, a.m, a.m)

    @staticmethod
    def gram_t(a: SparseMatrix):
        return LinearOperator(GRAM_T, a, a.n, a.n)

    # -- entry bound of the represented matrix ---------------------------

    @property
    def entry_bound(self):
        u = self.base.entry_bound
        if self.kind == BASE:
            return u
        if self.kind == DIAG_SCALE:
            return u * max(max(abs(x) for x in self.diag), 1)
        if self.kind == SHIFT:
            return u + max(abs(x) for x in self.diag)
        if self.kind == GRAM:
            return self.base.n * u * u
        if self.kind == GRAM_T:
            return self.base.m * u * u
        raise AssertionError(self.kind)

    # -- mod-p application ------------------------------------------------

    def _kernel_matrix(self):
        """The matrix the fused kernels read, or None when this kind has
        no fused kernel: BASE, GRAM and DIAG_SCALE over a matrix, and
        DIAG_SCALE over such a GRAM."""
        if self.base_is_matrix:
            return self.base if self.kind in (BASE, DIAG_SCALE, GRAM) else None
        if self.kind == DIAG_SCALE and self.base.kind == GRAM:
            return self.base._kernel_matrix()
        return None

    def prime_top(self):
        """Exclusive top of the primes the fused kernels take for this
        operator (``kernels.word_top`` of the matrix they read), or None
        when it has no fused kernel."""
        a = self._kernel_matrix()
        return None if a is None else word_top((a.n, a.m))

    def _fused(self, p):
        """True when the fused kernels run this operator mod p."""
        a = self._kernel_matrix()
        return a is not None and word_size(p, (a.n, a.m))

    def _kernel(self, kernel, f, *args, **kwargs):
        """One fused kernel call on a copy of the matrix reduced mod f.p,
        built for this call and charged to the meter while it runs."""
        a = self._kernel_matrix()
        gram = self.kind == GRAM or not self.base_is_matrix
        coo = f.coo(a, None if gram else self.diag)
        bits = f.coo_bits(coo)
        if gram:
            bits += a.n * (f.p.bit_length() + 1)
            kwargs.update(gram=True, diag=self.diag)
        with meter.track("linop.mod_cache", bits):
            return kernel(coo, *args, **kwargs)

    def apply_mod(self, v, p):
        """Exact product mod p: the integer product, reduced."""
        return [x % p for x in self.apply_int(v)]

    def krylov_scalars(self, x, y, count, f: Field):
        """[x.y, x.My, ..., x.M^(count-1)y] mod f.p using the fused kernel
        if possible."""
        p = f.p
        if self._fused(p):
            return self._kernel(f.krylov, f, x, y, count=count)
        seq = []
        yy = list(y)
        with meter.track("krylov.vec", 2 * f.vec_bits(yy)):
            for i in range(count):
                seq.append(f.dot(x, yy))
                if i + 1 < count:
                    yy = self.apply_mod(yy, p)
        return seq

    def horner_apply(self, coeffs, z, f: Field):
        """sum coeffs[i] M^i z mod f.p with two live vectors; fused kernel
        if possible."""
        p = f.p
        if self._fused(p):
            return self._kernel(f.horner, f, coeffs, z)
        acc = f.scale(coeffs[-1], z)
        with meter.track("horner.vec", 2 * f.vec_bits(z)):
            for i in range(len(coeffs) - 2, -1, -1):
                acc = self.apply_mod(acc, p)
                acc = f.add_scaled(acc, coeffs[i], z)
        return acc

    # -- exact integer application ----------------------------------------

    def apply_int(self, v):
        if len(v) != self.m:
            raise DimensionMismatch(f"vector length {len(v)} != {self.m}")
        a = self.base
        if self.kind == BASE:
            return a.apply_int(v)
        if self.kind == DIAG_SCALE:
            return [d * w for d, w in zip(self.diag, a.apply_int(v))]
        if self.kind == SHIFT:
            w = a.apply_int(v)
            return [wi + d * vi for wi, d, vi in zip(w, self.diag, v)]
        if self.kind == GRAM:
            out = [0] * a.m
            nnz = a.nnz
            k = 0
            while k < nnz:
                row = a.rows[k]
                k2 = k
                inner = 0
                while k2 < nnz and a.rows[k2] == row:
                    inner += a.vals[k2] * v[a.cols[k2]]
                    k2 += 1
                for t in range(k, k2):
                    out[a.cols[t]] += a.vals[t] * inner
                k = k2
            return out
        if self.kind == GRAM_T:
            return a.apply_int(a.apply_transpose_int(v))
        raise AssertionError(self.kind)


# -- text formats ---------------------------------------------------------------

def write_matrix(a: SparseMatrix, fp) -> None:
    fp.write(f"{a.n} {a.m} {a.nnz}\n")
    for i, j, v in zip(a.rows, a.cols, a.vals):
        fp.write(f"{i + 1} {j + 1} {v}\n")


def read_matrix(fp) -> SparseMatrix:
    lines = fp.read().split("\n")
    header = lines[0].split() if lines else []
    if len(header) != 3:
        raise MatrixFormatError(1, "expected header 'n m nnz'")
    try:
        n, m, nnz = (int(x) for x in header)
    except ValueError:
        raise MatrixFormatError(1, f"bad header {lines[0]!r}") from None
    if n < 0 or m < 0 or nnz < 0:
        raise MatrixFormatError(1, "negative dimension")
    entries = []
    seen = set()
    for k in range(nnz):
        lineno = k + 2
        if lineno - 1 >= len(lines) or not lines[lineno - 1].strip():
            raise MatrixFormatError(lineno, "missing entry line")
        parts = lines[lineno - 1].split()
        if len(parts) != 3:
            raise MatrixFormatError(lineno, "expected 'i j v'")
        try:
            i, j, v = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise MatrixFormatError(lineno, f"bad integers {lines[lineno - 1]!r}") from None
        if not (1 <= i <= n and 1 <= j <= m):
            raise MatrixFormatError(lineno, f"index ({i},{j}) outside {n}x{m}")
        if (i, j) in seen:
            raise MatrixFormatError(lineno, f"duplicate entry ({i},{j})")
        seen.add((i, j))
        entries.append((i - 1, j - 1, v))
    entries.sort()
    return SparseMatrix._from_sorted(n, m, entries)


def write_vector(v, fp) -> None:
    fp.write(f"{len(v)}\n")
    for x in v:
        fp.write(f"{x}\n")


def read_vector(fp) -> list:
    lines = fp.read().split("\n")
    if not lines or not lines[0].strip():
        raise MatrixFormatError(1, "expected vector length")
    try:
        n = int(lines[0])
    except ValueError:
        raise MatrixFormatError(1, f"bad length {lines[0]!r}") from None
    if n < 0:
        raise MatrixFormatError(1, "negative length")
    out = []
    for k in range(n):
        lineno = k + 2
        if lineno - 1 >= len(lines) or not lines[lineno - 1].strip():
            raise MatrixFormatError(lineno, "missing vector entry")
        try:
            out.append(int(lines[lineno - 1]))
        except ValueError:
            raise MatrixFormatError(lineno, f"bad integer {lines[lineno - 1]!r}") from None
    return out
