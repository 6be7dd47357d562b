"""Mod-p vector kernels.

Vectors are lists of residues in [0, p).  The fused Krylov and Horner
kernels run only on word-size moduli (``word_size``), as numpy int64
vector operations over one matrix A.  They read A's own signed int64
words (``Field.coo``, from ``SparseMatrix.words``); the one copy made is
the preconditioner's diag(d) A, which a determinant builds only on the
runs after a failed first one (``wiedemann``), its entries d_r a_rc
folded mod p with one mulmod and one ``% p``.  For A every Krylov or
Horner step is one gather, one int64 multiply, one ``np.add.reduceat``
over the row segments and one ``% p``, plus one quotient vector of m or
n entries (plain rows, below); where A's rows are past the l1 bound, or
for a folded copy at a wide prime, the multiply is a mulmod over every
entry instead.  Krylov carries its dot product x.y as one extra row of
the matrix (columns 0..m-1, entries x), so a step yields
A y and x.y together; Horner carries its ``+ c z`` as one extra column
(entries z, multiplied by the coefficient c), so a step maps acc to
A acc + c z.  For the Gram product A^T A (``gram=True``), optionally
scaled by a diagonal d, a step is two passes, each a gather, one int64
multiply, one sum and one ``% p``: the row pass gives w = A y reduced
(``np.add.reduceat``), and the column pass scatters the products
a_rc w_r into the m column slots (``np.add.at``); for d one mulmod
follows.  Krylov takes its dot product and Horner its ``+ c z``
separately, Horner's as the column sums' starting value.  The kernels
compute exact residues and hand back Python ints.  Wider moduli have no
fused kernel: ``LinearOperator`` runs its generic loop over exact
products instead.  numpy is imported on the first kernel call or word
product (``linop``), so commands whose moduli are all wide and whose
matrices are small never load it.

Why the kernels are exact.  Let a be an int64 word with |a| < 2^50 (a
signed entry of A, or a residue), b a residue in [0, p) with p < 2^50,
and x = ab/p, so |x| < |a| < 2^50.  a and b are exact in float64, so the
computed quotient y = fl(fl(a/p)*b) = x(1 + e1)(1 + e2) with
|e1|, |e2| <= 2^-53, hence |y - x| <= |x|(2^-52 + 2^-106) < 1/2.
q = trunc(y) lies within 1 of y on the side of 0, so |x - q| < 3/2 and
r = ab - qp = p(x - q) lies in (-2p, 2p).  ab and qp overflow int64, but
numpy int64 arrays wrap modulo 2^64 and |r| < 2^63, so the wrapped
difference is r exactly (``_mulmod_lazy``).  A sum of k such terms lies
in (-2kp, 2kp), inside int64 when k*p < 2^62.  In an n x m matrix a row
sum has at most m terms, Krylov's extra row m terms and a row extended
by Horner's column at most m + 1.  A Gram step's dot product has m
terms, and a diagonal's mulmod follows a ``% p``, so its sum with
Horner's term has two.  So every kernel needs p < 2^50 and
(max(n, m) + 1) * p < 2^62 for the n x m matrix A (``word_size``, whose
exclusive top over p is ``word_top``), the plain kernels and the
diagonal fold also |a| < 2^50 for every entry of A (``ENTRY_TOP``), and
each reduces its sums once with ``% p`` (numpy's remainder takes the
sign of the divisor).

Plain rows.  A row of A summed against residues in [0, p) lies within
its l1 norm times p - 1, so where (row_l1 + 2) p < 2^63, row_l1 the
largest row l1 norm that ``Field.coo`` hands over (for a folded copy
(p - 1) m, as its entries are residues), A's products need no mulmod.
Only Krylov's x.y row and Horner's c z column multiply residue by
residue, and those products can pass 2^63.  numpy int64 arrays wrap
modulo 2^64, so the ``reduceat`` sums stay congruent to the true sums
mod 2^64, and subtracting q p, for the one quotient vector
q = trunc(fl(x/p) y) or trunc(fl(z/p) c), moves each such term to the
r in (-2p, 2p) of the mulmod above.  The corrected sums are then exact:
x.y's m terms lie within 2 m p < 2^63 (word_size), and a row with
Horner's term within row_l1 (p - 1) + 2p < (row_l1 + 2) p < 2^63.  The
correction runs on an m- or n-vector, not on the nnz + n products.
Everything stays in int64 arrays, since numpy scalar arithmetic warns
on overflow.  Past the bound every product is a mulmod
(``_mulmod_lazy``): that branch serves a folded copy once
((p - 1) m + 2) p reaches 2^63, and rows whose l1 norms are too large
for the prime, such as dense rows of entries near 10^10.

The Gram passes multiply signed entries a, |a| <= U, by residues in
[0, p) with no mulmod, so their sums are bounded by l1 norms instead.
A row pass sums a row of A against y: its absolute value is at most the
row's l1 norm times p - 1.  A column pass sums a column against w, plus
Horner's term in (-2p, 2p) where there is no diagonal: it lies in
(-(c + 2) p, (c + 2) p) for the column's l1 norm c.  So the Gram kernels
are exact when also max(max row l1, max column l1 + 2) * p < 2^63
(``gram_top``, from the l1 norms ``Field.coo`` hands over with the
words).  numpy does not report int64 overflow, so ``Field.coo``,
``krylov`` and ``horner`` raise ValueError on a modulus outside
word_size and the Gram step on one at or above gram_top, and
``LinearOperator`` calls the plain kernels only on entries below
ENTRY_TOP: those checks are the only guard.

Everything here is deterministic; randomness stays in the callers.
"""

from __future__ import annotations

from operator import mul

np = None


def _numpy():
    """numpy, imported on first use."""
    global np
    if np is None:
        import numpy

        np = numpy
    return np


# the exclusive top of |a| for the entries a that meet a mulmod
ENTRY_TOP = 1 << 50


def word_top(shape):
    """The exclusive top of the moduli for which the int64 kernels are
    exact on an n x m matrix: p < 2^50 and (max(n, m) + 1) * p < 2^62
    (see the module docstring)."""
    return min(1 << 50, ((1 << 62) - 1) // (max(shape) + 1) + 1)


def _sum_top(weight):
    """The exclusive top of the moduli p with weight * p < 2^63."""
    return ((1 << 63) - 1) // weight + 1


def gram_top(shape, row_l1, col_l1):
    """The exclusive top of the moduli for which the Gram kernels are
    exact on an n x m matrix whose rows have l1 norm at most row_l1 and
    columns at most col_l1: word_top and
    max(row_l1, col_l1 + 2) * p < 2^63 (see the module docstring)."""
    return min(word_top(shape), _sum_top(max(row_l1, col_l1 + 2)))


def word_size(p, shape):
    """True when the int64 kernels are exact for modulus p on an n x m
    matrix."""
    return p < word_top(shape)


def _require_word_size(p, shape):
    if not word_size(p, shape):
        raise ValueError(f"modulus {p} is too wide for the int64 kernels "
                         f"on a {shape[0]}x{shape[1]} matrix")


def _mulmod_lazy(a, a_p, b, p):
    """a*b mod p up to a multiple of p, in (-2p, 2p); a and b are int64
    arrays (or one int), |a| < 2^50 and b in [0, p) with p < 2^50, and a_p
    is a / p in float64, computed once per kernel call."""
    r = a * b
    r -= (a_p * b).astype(np.int64) * p
    return r


def _bm(seq, p):
    """Berlekamp-Massey: (C, L) with C[0] = 1, C of degree <= L and
    C[L + 1:] zero, the connection polynomial of seq's shortest recurrence.

    B, the polynomial saved at the last length change, is kept trimmed to
    its support, so an update touches only C[m:m + len(B)]; the invariant
    deg(x^m B) <= L bounds that slice, and it keeps the discrepancy a
    product over C[:L + 1].
    """
    n = len(seq)
    rev = seq[::-1]
    C = [0] * (n + 1)
    C[0] = 1
    B = [1]
    L, m, binv = 0, 1, 1
    for i in range(n):
        # C[0] seq[i] + C[1] seq[i-1] + ... + C[L] seq[i-L]
        d = sum(map(mul, C, rev[n - 1 - i:n - i + L])) % p
        if d == 0:
            m += 1
            continue
        coef = d * binv % p
        T = C[:L + 1] if 2 * L <= i else None
        end = m + len(B)
        C[m:end] = [(c - coef * t) % p for c, t in zip(C[m:end], B)]
        if T is None:
            m += 1
        else:
            B, L, binv, m = T, i + 1 - L, pow(d, -1, p), 1
    return C, L


class Field:
    """Vector arithmetic over F_p; vectors are lists of int."""

    def __init__(self, p: int):
        self.p = p

    # vectors -----------------------------------------------------------
    def vec(self, xs):
        p = self.p
        return [x % p for x in xs]

    def rand(self, n, rng):
        return self.vec([rng.randrange(self.p) for _ in range(n)])

    def vec_bits(self, v):
        """Model size of one vector for the workspace meter."""
        return len(v) * (self.p.bit_length() + 1)

    def _words(self, xs):
        np = _numpy()
        return np.array(self.vec(xs), np.int64)

    # scalar / vector ops -------------------------------------------------
    def dot(self, x, y):
        return sum(a * b for a, b in zip(x, y)) % self.p

    def add_scaled(self, u, c, z):
        """u + c*z (new vector)."""
        p = self.p
        c %= p
        return [(a + c * b) % p for a, b in zip(u, z)]

    def scale(self, c, z):
        p = self.p
        c %= p
        return [c * b % p for b in z]

    def inv(self, a):
        return pow(a, -1, self.p)

    # structured kernels ---------------------------------------------------
    def coo(self, a, scale=None):
        """The SparseMatrix a, or diag(scale) a, as the kernels read it
        for a word-size p: its own signed int64 words (rows, cols, vals),
        rows sorted, the shape, the start of each nonempty row's segment
        and (max row l1, max column l1).  Only a scale makes a copy: vals
        becomes d_r a_rc mod p, with one mulmod and one ``% p``, and its
        l1 norms are bounded by (p - 1) times the row or column length."""
        p = self.p
        shape = (a.n, a.m)
        _require_word_size(p, shape)
        rows, cols, vals, starts = a.words()
        l1 = a.l1_norms
        if scale is not None:
            vals = _mulmod_lazy(vals, vals / p, self._words(scale)[rows], p)
            vals %= p
            l1 = ((p - 1) * a.m, (p - 1) * a.n)
        return rows, cols, vals, shape, starts, l1

    def coo_bits(self, coo):
        rows, shape = coo[0], coo[3]
        return len(rows) * (2 * max(shape).bit_length() + self.p.bit_length() + 1)

    def _gram_step(self, coo, diag):
        """The step (y, add) -> M y + add mod p for M = A^T A, or
        diag(d) A^T A, of the matrix A of a ``coo``: the row pass
        gives w = A y reduced, then the products a_rc w_r are scattered
        into the m column slots, both on A's signed words.  add is None or
        a new int64 m-vector in (-p, 2p), which the step may take over."""
        p = self.p
        _, cols, vals, shape, starts, l1 = coo
        if p >= gram_top(shape, *l1):
            raise ValueError(f"modulus {p} is too wide for the Gram kernels "
                             f"on a matrix with l1 norms {l1}")
        m = shape[1]
        # entry k lies in the row segment seg[k]
        seg = np.repeat(np.arange(len(starts)),
                        np.diff(starts, append=len(vals)))
        if diag is not None:
            d = self._words(diag)
            d_p = d / p

        def step(y, add=None):
            if add is not None and diag is None:
                out = add       # add starts the column sums
            else:
                out = np.zeros(m, np.int64)
            if len(starts):
                w = np.add.reduceat(vals * y[cols], starts)
                w %= p
                np.add.at(out, cols, vals * w[seg])
            if diag is not None:
                out %= p
                out = _mulmod_lazy(d, d_p, out, p)
                if add is not None:
                    out += add
            out %= p
            return out

        return step

    def krylov(self, coo, x, y, *, count, gram=False, diag=None):
        """[x.y, x.My, ..., x.M^(count-1) y] for M = A, the matrix of coo
        (``coo``), or with gram for M = A^T A, or diag(diag) A^T A."""
        p = self.p
        _require_word_size(p, coo[3])
        np = _numpy()
        x, y = self._words(x), self._words(y)
        if gram:
            step = self._gram_step(coo, diag)
            x_p = x / p
            seq = []
            for i in range(count):
                seq.append(int(_mulmod_lazy(x, x_p, y, p).sum() % p))
                if i + 1 < count:
                    y = step(y)
            return seq
        rows, cols, vals, (n, m), starts, (row_l1, _) = coo
        # row n of the extended matrix is x: a step gives (A y, x.y)
        dest = None if len(starts) == n else rows[starts]
        nnz = len(vals)
        cols = np.concatenate((cols, np.arange(m)))
        starts = np.append(starts, nnz)
        vals = np.concatenate((vals, x))
        lazy = p >= _sum_top(row_l1 + 2)
        # past the l1 bound every product is a mulmod, below it only x's
        # row, whose quotients bring the wrapped x_c y_c back
        lo = 0 if lazy else nnz
        vals_p = vals[lo:] / p
        seq = []
        for _ in range(count - 1):
            yc = y[cols]
            prod = vals * yc
            prod[lo:] -= (vals_p * yc[lo:]).astype(np.int64) * p
            sums = np.add.reduceat(prod, starts)
            sums %= p
            seq.append(int(sums[-1]))
            if dest is None:
                y = sums[:-1]
            else:
                # empty rows have no segment: scatter the others' sums
                y = np.zeros(n, np.int64)
                y[dest] = sums[:-1]
        seq.append(int(_mulmod_lazy(x, x / p, y, p).sum() % p))
        return seq

    def horner(self, coo, coeffs, z, *, gram=False, diag=None):
        """sum coeffs[i] M^i z with two live vectors, M as in krylov."""
        p = self.p
        _require_word_size(p, coo[3])
        np = _numpy()
        z = self._words(z)
        if gram:
            step = self._gram_step(coo, diag)
            z_p = z / p
            acc = _mulmod_lazy(z, z_p, coeffs[-1] % p, p)
            acc %= p
            for i in range(len(coeffs) - 2, -1, -1):
                acc = step(acc, _mulmod_lazy(z, z_p, coeffs[i] % p, p))
            return acc.tolist()
        rows, cols, vals, (n, m), _, (row_l1, _) = coo
        # row r of the extended matrix is A's row r followed by z_r in
        # column m, so a step maps v = (acc, c) to A acc + c z; every row
        # has a segment
        r = np.arange(n)
        ends = np.searchsorted(rows, r, "right")
        cols = np.insert(cols, ends, m)
        vals = np.insert(vals, ends, z)
        starts = np.searchsorted(rows, r) + r
        lazy = p >= _sum_top(row_l1 + 2)
        z_p = z / p
        if lazy:
            vals_p = vals / p
        v = np.empty(m + 1, np.int64)
        acc = v[:n]
        acc[:] = _mulmod_lazy(z, z_p, coeffs[-1] % p, p)
        acc %= p
        for i in range(len(coeffs) - 2, -1, -1):
            c = v[m] = coeffs[i] % p
            if lazy:
                np.add.reduceat(_mulmod_lazy(vals, vals_p, v[cols], p),
                                starts, out=acc)
            else:
                # A's products are exact and z_r c wraps: one quotient per
                # row brings it back
                np.add.reduceat(vals * v[cols], starts, out=acc)
                acc -= (z_p * c).astype(np.int64) * p
            acc %= p
        return acc.tolist()

    def berlekamp_massey(self, seq):
        """Monic minimal linear recurrence of seq, lowest degree first."""
        C, L = _bm([x % self.p for x in seq], self.p)
        # reverse the connection polynomial into the recurrence polynomial
        return [C[L - k] for k in range(L + 1)]
