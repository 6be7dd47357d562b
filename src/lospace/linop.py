"""Sparse integer matrices and composed black-box linear operators.

A SparseMatrix is coordinate-form with entries sorted by (row, col), so
each row is one segment of its entries.  A SparseMatrix is itself the
BASE operator; every other operator composes a base operator with a
descriptor:

    BASE         A                               (the SparseMatrix itself)
    DIAG_SCALE   diag(d) . A                     (Wiedemann preconditioner)
    SHIFT        A + diag(d)  (scalar or vector) (shifted/perturbed solves,
                                                  the SVD ridge; a SHIFT
                                                  of a SHIFT folds into one)
    GRAM         A^T A
    GRAM_T       A A^T

``apply_int`` is exact integer arithmetic and the one implementation of
each composition; callers keep query entries within the documented
n^6 U^2 bound.  A matrix has two products, A v and A^T w
(``SparseMatrix.apply_int`` and ``apply_transpose_int``), and GRAM and
GRAM_T compose them as A^T (A v) and A (A^T w), holding the inner
product (n or m entries) for the length of one product.  Each product
runs on the matrix's int64 words (``SparseMatrix.words``) whenever they
can hold its input: entries that are ints within int64, and a matrix of
at least ``WORD_NNZ`` entries whose l1 norms stay below 2^61.  It sums
in int64, splitting its input into limbs narrow enough that a limb's
sums cannot overflow, and joins the limbs' sums as Python ints.  Its
numpy scratch, O(nnz) words, lives for one product and is not charged
to the meter.  The Python loop remains for the inputs the words cannot
hold, such as svd's Fractions or an A v past int64, and for small
matrices, where numpy's per-call cost exceeds the loop's.  ``apply_mod``
is the exact product reduced mod p.

An operator can carry its characteristic polynomial at one prime
(``chi``, set by a caller that certified it) and the prime window it
shares with related operators (``window``, which ``solver._prime_window``
reads and checks).  A scalar shift keeps both: det(X I - (A + c I)) =
g(X - c), and ``charpoly`` derives the shifted coefficients when they
are read.  Every other composition drops both.

The fused Krylov/Horner kernels run on BASE, GRAM and DIAG_SCALE over a
matrix, and on DIAG_SCALE over such a GRAM (the determinant's
preconditioner), for primes below ``prime_top``, so callers can draw
them: ``kernels.word_top`` for the shape of the matrix they read, and
for the Gram kinds also ``kernels.gram_top`` of its l1 norms; the plain
kinds also need every entry below ``kernels.ENTRY_TOP``.  Every fused
call reads one operand, the matrix's own words (``Field.coo``).  Over a
matrix a DIAG_SCALE's diagonal is folded into a copy of its entries
(d_r a_rc mod p); over a Gram product it is applied per step.  The
determinant builds a DIAG_SCALE only for its preconditioned retries,
after a first Wiedemann run on the operator itself failed
(``wiedemann.determinant_zp``), so the fold, and a lift on the folded
copy, happen only then.  Each call
charges a reduced copy's size to the meter while it runs, since its
numpy temporaries are that large, and a Gram call one n-word vector
more, the kernels' w = A y; nothing outlives the call.  Every other
case, a wider prime included, runs one generic Krylov/Horner loop over
``apply_mod`` and builds no copy.

Text formats (1-indexed, decimal):

    matrix: "n m nnz" then nnz lines "i j v"
    vector: "n" then n lines of (arbitrarily large) integers

Only blank lines may follow the declared entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import meter
from .kernels import ENTRY_TOP, Field, _numpy, gram_top, word_top

BASE = "BASE"
DIAG_SCALE = "DIAG_SCALE"
SHIFT = "SHIFT"
GRAM = "GRAM"
GRAM_T = "GRAM_T"

# the fewest entries whose products run on the int64 words: a word
# product costs about 10 us whatever its size, which the Python loop
# beats below some 50-60 entries (measured on 3x3 to 8x8 matrices)
WORD_NNZ = 64


class DimensionMismatch(ValueError):
    pass


class MatrixFormatError(ValueError):
    def __init__(self, lineno, msg):
        super().__init__(f"line {lineno}: {msg}")
        self.lineno = lineno


class LinearOperator:
    """Black-box operator; see module docstring for the composition kinds.

    A SparseMatrix is itself the BASE operator.  The base of DIAG_SCALE /
    SHIFT may be any operator (e.g. preconditioning a Gram product); those
    compositions run through the generic apply path, except DIAG_SCALE
    over the GRAM of a matrix, which has a fused kernel.
    """

    # chi = (p, g, c) when det(X I - A) = g(X - c) mod p is known, g monic
    # and low coefficient first (read through ``charpoly``), and window =
    # (lower, top), a prime window shared with related operators (read
    # through ``solver._prime_window``): both set by their caller
    # (spectral's 2^s B) and carried by scalar shifts
    chi = window = None

    def __init__(self, kind, base, n, m, diag=None):
        self.kind = kind
        self.base = base
        self.n = n
        self.m = m
        self.diag = diag          # DIAG_SCALE / SHIFT vector (by reference)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def diag_scale(d, a):
        if len(d) != a.n:
            raise DimensionMismatch("diagonal length != rows")
        return LinearOperator(DIAG_SCALE, a, a.n, a.m, diag=list(d))

    @staticmethod
    def shift(a, c):
        """A + diag(c); c is a scalar or a per-coordinate vector.  A shift
        of a SHIFT folds into one SHIFT of its base, with the diagonals
        summed, so repeated shifts add no level to a product.  A scalar
        shift keeps A's window and its known characteristic polynomial g
        as g(X - c), derived when read (``charpoly``); a vector shift
        drops both."""
        if a.n != a.m:
            raise DimensionMismatch("shift needs a square base")
        scalar = not isinstance(c, (list, tuple))
        d = [c] * a.n if scalar else list(c)
        if len(d) != a.n:
            raise DimensionMismatch("diagonal length != rows")
        chi = window = None
        if scalar:
            window = a.window
            if a.chi is not None:
                p, g, c0 = a.chi
                chi = (p, g, c0 + c)
        if a.kind == SHIFT:
            d = [x + y for x, y in zip(a.diag, d)]
            a = a.base
        op = LinearOperator(SHIFT, a, a.n, a.m, diag=d)
        op.chi, op.window = chi, window
        return op

    @staticmethod
    def gram(a: SparseMatrix):
        return LinearOperator(GRAM, a, a.m, a.m)

    @staticmethod
    def gram_t(a: SparseMatrix):
        return LinearOperator(GRAM_T, a, a.n, a.n)

    # -- entry bound of the represented matrix ---------------------------

    @property
    def max_abs(self):
        """A bound on max |entry| of the represented matrix, 0 when the
        composition is zero."""
        u = self.base.max_abs
        if self.kind == DIAG_SCALE:
            return u * max(abs(x) for x in self.diag)
        if self.kind == SHIFT:
            return u + max(abs(x) for x in self.diag)
        if self.kind == GRAM:
            return self.base.n * u * u
        if self.kind == GRAM_T:
            return self.base.m * u * u
        raise AssertionError(self.kind)

    @property
    def entry_bound(self):
        """U: max_abs, at least 1; the floor applies once, to the
        composition, so a product over a zero matrix scales no phantom 1."""
        return self.max_abs or 1

    def charpoly(self, p):
        """det(X I - A) mod p, low coefficient first, when it is known at p
        (``chi``), else None: g(X - c) by a Taylor shift of g, n(n + 1)/2
        multiply-adds mod p."""
        if self.chi is None or self.chi[0] != p:
            return None
        _, g, c = self.chi
        out, t = list(g), -c % p
        # synthetic division by Y - t, repeated: out[j] becomes the
        # coefficient of (Y - t)^j in g(Y), which is g(X + t)'s of X^j
        for i in range(len(out) - 1):
            for j in range(len(out) - 2, i - 1, -1):
                out[j] = (out[j] + t * out[j + 1]) % p
        return out

    # -- mod-p application ------------------------------------------------

    def _kernel_matrix(self):
        """(A, gram): the matrix the fused kernels read and whether they
        run its Gram product, or None when this kind has no fused kernel.
        A matrix itself, GRAM and DIAG_SCALE over a matrix, and DIAG_SCALE
        over such a GRAM have one."""
        if self.kind == GRAM and self.base.kind == BASE:
            return self.base, True
        if self.kind == DIAG_SCALE and self.base.kind in (BASE, GRAM):
            return self.base._kernel_matrix()
        return None

    def prime_top(self):
        """Exclusive top of the primes the fused kernels take for this
        operator (``kernels.word_top`` of the matrix they read, and for
        the Gram kinds ``kernels.gram_top`` of its l1 norms), or None when
        it has no fused kernel."""
        k = self._kernel_matrix()
        if k is None:
            return None
        a, gram = k
        return gram_top((a.n, a.m), *a.l1_norms) if gram else word_top((a.n, a.m))

    def _fused(self, p):
        """True when the fused kernels run this operator mod p: p is below
        ``prime_top``, and the plain kinds' entries below ``ENTRY_TOP``."""
        k = self._kernel_matrix()
        if k is None or p >= self.prime_top():
            return False
        a, gram = k
        return gram or a.max_abs < ENTRY_TOP

    def _kernel(self, kernel, f, *args, **kwargs):
        """One fused kernel call on the matrix's words, charged to the
        meter while it runs at a reduced copy's size, plus w = A y for a
        Gram product."""
        a, gram = self._kernel_matrix()
        coo = f.coo(a, None if gram else self.diag)
        bits = f.coo_bits(coo) + (a.n * (f.p.bit_length() + 1) if gram else 0)
        with meter.track("linop.mod_cache", bits):
            return kernel(coo, *args, gram=gram,
                          diag=self.diag if gram else None, **kwargs)

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
        if self.kind == DIAG_SCALE:
            return [d * w for d, w in zip(self.diag, a.apply_int(v))]
        if self.kind == SHIFT:
            w = a.apply_int(v)
            return [wi + d * vi for wi, d, vi in zip(w, self.diag, v)]
        if self.kind == GRAM:
            return a.apply_transpose_int(a.apply_int(v))
        if self.kind == GRAM_T:
            return a.apply_int(a.apply_transpose_int(v))
        raise AssertionError(self.kind)


@dataclass
class SparseMatrix(LinearOperator):
    """Integer matrix in sorted coordinate form: the BASE operator."""

    kind = BASE
    diag = None

    n: int
    m: int
    rows: list
    cols: list
    vals: list
    _words: tuple = field(default=None, init=False, repr=False, compare=False)

    @property
    def nnz(self):
        return len(self.vals)

    # the matrix is read-only input, so its norms are computed once
    @cached_property
    def max_abs(self):
        """max |entry|, 0 for a zero matrix."""
        return max(map(abs, self.vals), default=0)

    @cached_property
    def l1_norms(self):
        """(max row l1 norm, max column l1 norm), 0 for a zero matrix: the
        sum bounds of the Gram kernels and of the word products."""
        row, col = [0] * self.n, [0] * self.m
        for i, j, v in zip(self.rows, self.cols, map(abs, self.vals)):
            row[i] += v
            col[j] += v
        return max(row, default=0), max(col, default=0)

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
        entry of each nonempty row's segment: the one operand of the fused
        kernels and of the word products.  Built on first use and kept
        with the matrix, which is read-only input, so they are neither
        released nor charged to the meter.  Every entry fits int64
        whenever they are read: the word products need l1 norms below
        2^61, the Gram kernels primes below ``gram_top`` and the plain
        kernels entries below ``ENTRY_TOP``."""
        if self._words is None:
            np = _numpy()
            rows = np.array(self.rows, np.int64)
            self._words = (rows, np.array(self.cols, np.int64),
                           np.array(self.vals, np.int64),
                           np.flatnonzero(np.diff(rows, prepend=-1)))
        return self._words

    def _kernel_matrix(self):
        return self, False

    def is_symmetric(self):
        if self.n != self.m:
            return False
        d = {(i, j): v for i, j, v in zip(self.rows, self.cols, self.vals)}
        return all(d.get((j, i), 0) == v for (i, j), v in d.items())

    def apply_int(self, v):
        return self._product(v, transpose=False)

    def apply_transpose_int(self, v):
        return self._product(v, transpose=True)

    def _product(self, v, transpose):
        """A v, or A^T v: on the int64 words when they hold v, its
        entries ints within int64 and the matrix of at least WORD_NNZ
        entries with l1 norms below 2^61, otherwise one entry at a time
        in Python."""
        size, length = (self.m, self.n) if transpose else (self.n, self.m)
        if len(v) != length:
            raise DimensionMismatch(f"vector length {len(v)} != {length}")
        if (self.nnz >= WORD_NNZ and max(self.l1_norms) < 1 << 61
                and {*map(type, v)} <= {int}
                and (not v or -(1 << 63) <= min(v) and max(v) < 1 << 63)):
            rows, cols, vals, _ = self.words()
            if transpose:
                rows, cols = cols, rows
            return _word_sum(rows, cols, vals, self.l1_norms[transpose],
                             v, size)
        rows, cols = (self.cols, self.rows) if transpose else (self.rows, self.cols)
        out = [0] * size
        for i, j, a in zip(rows, cols, self.vals):
            out[i] += a * v[j]
        return out


def _word_sum(dest, src, vals, l1, v, size):
    """The size-vector with sum_k vals[k] v[src[k]] in slot dest[k],
    exact, as Python ints; vals are int64 words, v is a list of ints of
    any size, and l1 < 2^61 bounds the sum of |vals| into any one slot.
    When l1 max |v| >= 2^63, v is split into limbs of b = 62 - bitlen(l1)
    bits, the top one signed, so every limb's sums stay below 2^62."""
    np = _numpy()

    def sums(limb):
        out = np.zeros(size, np.int64)
        np.add.at(out, dest, vals * np.array(limb, np.int64)[src])
        return out.tolist()

    top = max(map(abs, v), default=0)
    if top * max(l1, 1) < 1 << 63:
        return sums(v)
    b = 62 - l1.bit_length()
    mask = (1 << b) - 1
    shift = (top.bit_length() - 1) // b * b
    out = sums([x >> shift for x in v])
    for shift in range(shift - b, -1, -b):
        out = [(o << b) + s
               for o, s in zip(out, sums([(x >> shift) & mask for x in v]))]
    return out


# -- text formats ---------------------------------------------------------------

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
    _refuse_lines_past(lines, nnz)
    entries.sort()
    return SparseMatrix._from_sorted(n, m, entries)


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
    _refuse_lines_past(lines, n)
    return out


def _refuse_lines_past(lines, count):
    """MatrixFormatError at the first non-blank line after the header and
    its count declared entries; trailing blank lines are fine."""
    for lineno, line in enumerate(lines[count + 1:], count + 2):
        if line.strip():
            raise MatrixFormatError(
                lineno, f"line past the {count} declared entries")
