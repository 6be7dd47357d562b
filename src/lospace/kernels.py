"""Mod-p vector kernels.

Vectors are lists of residues in [0, p).  The fused Krylov and Horner
kernels run on one of two paths, chosen by the modulus and the matrix
shape alone (``word_size``):

- word-size moduli run as numpy int64 vector operations: one gather, one
  mulmod and one ``np.add.reduceat`` over the row segments per matvec;
- wider moduli, such as the primes sampled for heavily scaled spectral
  solves, run on Python integers, which have no width limit.

Both paths compute exact residues, so their outputs are identical, and
both hand back Python ints.

Why the word path is exact.  Let a, b be residues in [0, p) with
p < 2^50, and x = ab/p < 2^50.  a and b are exact in float64, so the
computed quotient y = fl(fl(a*b)/p) = x(1 + e1)(1 + e2) with
|e1|, |e2| <= 2^-53, hence |y - x| <= x(2^-52 + 2^-106) < 1/2.  y >= 0,
so q = trunc(y) = floor(y) is within 1 of floor(x), and
r = ab - qp = p(x - q) lies in (-p, 2p).  ab and qp overflow int64, but numpy int64 arrays wrap modulo
2^64 and |r| < 2^63, so the wrapped difference is r exactly
(``_mulmod_lazy``).  A sum of k such terms lies in (-kp, 2kp), inside
int64 when k*p < 2^62.  A row sum of an n x m matrix has k <= m terms
and a dot product k = n, so the word path needs p < 2^50 and
max(n, m) * p < 2^62, and it reduces each sum once with ``% p`` (numpy's
remainder takes the sign of the divisor).  numpy does not report int64
overflow, so these bounds are the only guard.

Everything here is deterministic; randomness stays in the callers.
"""

from __future__ import annotations

import numpy as np


def word_size(p, shape):
    """True when the int64 kernels are exact for modulus p on an n x m
    matrix (see the module docstring)."""
    return p < (1 << 50) and max(shape) * p < (1 << 62)


def _mulmod_lazy(a, b, p):
    """a*b mod p up to a multiple of p, in (-p, 2p); a and b are int64
    arrays (or one int) of residues in [0, p), p < 2^50."""
    q = np.multiply(a, b, dtype=np.float64)
    q /= p
    r = a * b
    r -= q.astype(np.int64) * p
    return r


def _np_matvec(coo, x, p):
    rows, cols, vals, shape, starts = coo
    if not len(vals):
        return np.zeros(shape[0], np.int64)
    sums = np.add.reduceat(_mulmod_lazy(vals, x[cols], p), starts)
    sums %= p
    if len(starts) == shape[0]:
        return sums
    # empty rows have no segment: scatter the sums of the others
    out = np.zeros(shape[0], np.int64)
    out[rows[starts]] = sums
    return out


def _matvec(rows, cols, vals, x, p, n_out):
    # accumulate exactly and reduce once per output entry
    out = [0] * n_out
    for r, c, v in zip(rows, cols, vals):
        out[r] += v * x[c]
    return [o % p for o in out]


def _bm(seq, p):
    n = len(seq)
    C = [0] * (n + 1)
    B = [0] * (n + 1)
    C[0] = B[0] = 1
    L, m, b = 0, 1, 1
    for i in range(n):
        d = (seq[i] + sum(C[j] * seq[i - j] for j in range(1, L + 1))) % p
        if d == 0:
            m += 1
            continue
        coef = d * pow(b, -1, p) % p
        if 2 * L <= i:
            T = C[:]
            for j in range(n + 1 - m):
                C[j + m] = (C[j + m] - coef * B[j]) % p
            L = i + 1 - L
            B = T
            b = d
            m = 1
        else:
            for j in range(n + 1 - m):
                C[j + m] = (C[j + m] - coef * B[j]) % p
            m += 1
    return C, L


class Field:
    """Vector arithmetic over F_p; vectors are lists of int."""

    def __init__(self, p: int):
        self.p = p

    # vectors -----------------------------------------------------------
    def vec(self, xs):
        p = self.p
        return [x % p for x in xs]

    def tolist(self, v):
        return list(v)

    def rand(self, n, rng):
        return self.vec([rng.randrange(self.p) for _ in range(n)])

    def vec_bits(self, v):
        """Model size of one vector for the workspace meter."""
        return len(v) * (self.p.bit_length() + 1)

    def _words(self, xs):
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

    def is_zero(self, v):
        return not any(v)

    def inv(self, a):
        return pow(a, -1, self.p)

    # structured kernels ---------------------------------------------------
    def coo(self, rows, cols, vals, shape):
        """COO matrix with entries reduced mod p; rows sorted.

        On the word path: int64 arrays (rows, cols, vals), the shape and
        the start of each nonempty row's segment.  Otherwise lists
        (rows, cols, vals) and the shape.
        """
        vals = [v % self.p for v in vals]
        if not word_size(self.p, shape):
            return (list(rows), list(cols), vals, shape)
        rows = np.array(rows, np.int64)
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        return (rows, np.array(cols, np.int64), np.array(vals, np.int64),
                shape, starts)

    def coo_bits(self, coo):
        rows, shape = coo[0], coo[3]
        return len(rows) * (2 * max(shape).bit_length() + self.p.bit_length() + 1)

    def krylov(self, coo, diag, x, y, count):
        """[x.y, x.A'y, ..., x.A'^(count-1) y] where A' = diag(A .) or A."""
        p = self.p
        if word_size(p, coo[3]):
            x, yy = self._words(x), self._words(y)
            d = None if diag is None else self._words(diag)
            seq = []
            for i in range(count):
                seq.append(int(_mulmod_lazy(x, yy, p).sum() % p))
                if i + 1 == count:
                    break
                yy = _np_matvec(coo, yy, p)
                if d is not None:
                    yy = _mulmod_lazy(d, yy, p)
                    yy %= p
            return seq
        rows, cols, vals, shape = coo
        seq = []
        yy = list(y)
        for i in range(count):
            seq.append(self.dot(x, yy))
            if i + 1 == count:
                break
            yy = _matvec(rows, cols, vals, yy, p, shape[0])
            if diag is not None:
                yy = [a * b % p for a, b in zip(diag, yy)]
        return seq

    def horner(self, coo, coeffs, z):
        """sum coeffs[i] A^i z with two live vectors."""
        p = self.p
        if word_size(p, coo[3]):
            z = self._words(z)
            acc = _mulmod_lazy(coeffs[-1] % p, z, p)
            acc %= p
            for i in range(len(coeffs) - 2, -1, -1):
                acc = _np_matvec(coo, acc, p)
                acc += _mulmod_lazy(coeffs[i] % p, z, p)
                acc %= p
            return acc.tolist()
        rows, cols, vals, shape = coo
        acc = self.scale(coeffs[-1], z)
        for i in range(len(coeffs) - 2, -1, -1):
            acc = _matvec(rows, cols, vals, acc, p, shape[0])
            acc = self.add_scaled(acc, coeffs[i], z)
        return acc

    def berlekamp_massey(self, seq):
        """Monic minimal linear recurrence of seq, lowest degree first."""
        C, L = _bm([x % self.p for x in seq], self.p)
        # reverse the connection polynomial into the recurrence polynomial
        return [C[L - k] for k in range(L + 1)]
