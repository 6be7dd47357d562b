"""Mod-p vector kernels over Python integers.

Vectors are lists of residues in [0, p).  Python integers have no width
limit, so one code path serves every modulus, including the wide primes
sampled for heavily scaled matrices.

Everything here is deterministic; randomness stays in the callers.
"""

from __future__ import annotations


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
        """COO matrix with entries reduced mod p; rows sorted."""
        return (list(rows), list(cols), [v % self.p for v in vals], shape)

    def coo_bits(self, coo):
        rows, cols, vals, shape = coo
        return len(rows) * (2 * max(shape).bit_length() + self.p.bit_length() + 1)

    def krylov(self, coo, diag, x, y, count):
        """[x.y, x.A'y, ..., x.A'^(count-1) y] where A' = diag(A .) or A."""
        rows, cols, vals, shape = coo
        p = self.p
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
        rows, cols, vals, shape = coo
        acc = self.scale(coeffs[-1], z)
        for i in range(len(coeffs) - 2, -1, -1):
            acc = _matvec(rows, cols, vals, acc, self.p, shape[0])
            acc = self.add_scaled(acc, coeffs[i], z)
        return acc

    def berlekamp_massey(self, seq):
        """Monic minimal linear recurrence of seq, lowest degree first."""
        C, L = _bm([x % self.p for x in seq], self.p)
        # reverse the connection polynomial into the recurrence polynomial
        return [C[L - k] for k in range(L + 1)]
