"""Finite-field linear algebra through Krylov scalar sequences.

Everything here reduces to one primitive: take random x, y, build the
scalars x.y, x.My, ..., and run Berlekamp-Massey on them.  The recurrence
is always a monic factor of the minimal polynomial of M, and equals it
with constant probability once p > n, so the callers below either verify
their answer against its defining congruence and retry (solves), or rely
on a certificate the recurrence carries itself (determinants: a
full-degree recurrence *is* the characteristic polynomial, which makes its
constant term exact, and a recurrence divisible by X proves M singular;
no voting needed).  Every solve mod p is an FpSolver solve.

Space discipline: every routine holds O(1) vectors of n field elements
plus the 2n+1 scalar sequence; polynomial-of-operator products go through
Horner with two live vectors.
"""

from __future__ import annotations

import math

from . import meter
from .kernels import Field
from .linop import LinearOperator

__all__ = [
    "RetriesExhausted",
    "minimal_polynomial",
    "determinant_zp",
    "FpSolver",
]


class RetriesExhausted(RuntimeError):
    """A Las Vegas loop ran out of its failure budget."""


def _one_wiedemann_trial(op, f, rng):
    """One (x, y) draw: the recurrence of the Krylov scalars, monic.

    Always a factor of the minimal polynomial of the operator mod p.
    The x, y, tmp vectors die before Berlekamp-Massey runs; only the
    scalar sequence spans both phases.
    """
    n = op.n
    count = 2 * n + 1
    wordbits = f.p.bit_length() + 1
    seq_bits = count * wordbits
    with meter.track("wiedemann.seq", seq_bits):
        with meter.track("wiedemann.vecs", 3 * n * wordbits):
            x = f.rand(n, rng)
            y = f.rand(n, rng)
            seq = op.krylov_scalars(x, y, count, f)
            del x, y
        with meter.track("wiedemann.bm", 3 * (count + 1) * wordbits):
            return f.berlekamp_massey(seq)


def minimal_polynomial(a, p, boost=1, *, rng):
    """Best-of-`boost` Wiedemann trials; keeps the largest-degree recurrence.

    The result is always a monic factor of the minimal polynomial of
    (a mod p); it is the minimal polynomial itself with probability at
    least 1 - 2^-Omega(boost) when p > n.  Degree n ends the trials early
    since no factor can be larger.
    """
    f = Field(p)
    best = [1]
    for _ in range(max(1, boost)):
        g = _one_wiedemann_trial(a, f, rng)
        if len(g) > len(best):
            best = g
        if len(best) == a.n + 1:
            break
    return best


def determinant_zp(a, p, delta=1e-9, *, rng, certificate=False):
    """det(a) mod p via the random-diagonal preconditioner.

    Each run draws d with every d_i nonzero and takes the recurrence g of
    one Krylov sequence of M = diag(d) A.  Two outcomes certify the answer:

    - g has degree n: it is the characteristic polynomial of M, so
      det A = (-1)^n g(0) / prod d;
    - g(0) = 0: Berlekamp-Massey returns the sequence's minimal generator,
      which divides the minimal polynomial of M, so X divides that too, M
      is singular, and so is A since diag(d) is not; the same formula
      then gives 0.

    A run over a singular A fails only when neither appears.  Write the
    minimal polynomial of M as X^c h(X) with h(0) != 0; the run then fails
    only when y has no component in the generalized kernel of M or x is
    orthogonal to h(M) y, at most 2/p together, and every prime window
    starts above 16.  Every answer is certified: when no run yields a
    certificate the routine raises RetriesExhausted.

    With certificate=True the result is (det mod p, d, g).  A nonzero
    residue comes only from the first outcome, so its g is the
    characteristic polynomial of diag(d) A, a recurrence an FpSolver over
    that matrix can start from (``FpSolver(..., diag=d, poly=g)``).
    """
    if a.n != a.m:
        raise ValueError("determinant_zp needs a square operator")
    f = Field(p)
    n = a.n
    runs = max(1, math.ceil(40 * math.log(1 / delta)))
    sign = -1 if n % 2 else 1
    for _ in range(runs):
        d = [rng.randrange(1, p) for _ in range(n)]
        with meter.track("det.diag", n * (p.bit_length() + 1)):
            da = LinearOperator.diag_scale(d, a)
            g = _one_wiedemann_trial(da, f, rng)
            if len(g) == n + 1 or g[0] == 0:
                prod = 1
                for di in d:
                    prod = prod * di % p
                residue = sign * g[0] * f.inv(prod) % p
                return (residue, d, g) if certificate else residue
    raise RetriesExhausted("determinant_zp found no certificate")


class FpSolver:
    """Repeated solves against one invertible matrix A mod p.

    Keeps one recurrence g of M, A itself or diag(diag) A when a diagonal
    with every entry nonzero mod p is passed.  Each solve is then a Horner
    application, x = -g(0)^-1 (g_1 I + g_2 M + ... + g_d M^(d-1)) c with
    c = b, or c = diag(diag) b, exact whenever g is the true minimal
    polynomial of M and verified against A x = b either way.  The
    recurrence is built on first use, unless poly passes one to start
    from (``determinant_zp``'s certificate), and rebuilt with fresh
    randomness after a verification failure.

    A context manager: the recurrence is charged to the meter as
    ``fpsolver.poly``, and the diagonal, when there is one, as
    ``det.diag``, until the ``with`` block ends.
    """

    def __init__(self, a, p, rng, delta=1e-9, diag=None, poly=None):
        self.op = a
        if a.n != a.m:
            raise ValueError("FpSolver needs a square operator")
        self.p = p
        self.rng = rng
        self.f = Field(p)
        self._diag = diag
        self._m = a if diag is None else LinearOperator.diag_scale(diag, a)
        self._word = p.bit_length() + 1
        self._gbar = None
        if poly is not None:
            self._keep(poly)
        self._budget = max(6, math.ceil(math.log2(1 / delta)))
        self._poly = meter.track(
            "fpsolver.poly", 0 if self._gbar is None else len(poly) * self._word)
        self._tracks = [self._poly]
        if diag is not None:
            self._tracks.append(meter.track("det.diag", a.n * self._word))

    def __enter__(self):
        for t in self._tracks:
            t.__enter__()
        return self

    def __exit__(self, *exc):
        for t in self._tracks:
            t.__exit__(*exc)

    def _keep(self, g):
        """Cache g, unless it expresses no inverse: a degree-0 recurrence
        (all-zero Krylov scalars), or one X divides, which every candidate
        factor is only if M is singular mod p; for an invertible matrix
        both are failed trials."""
        if len(g) == 1 or g[0] % self.p == 0:
            self._gbar = None
            return
        self._gbar = g
        self._c0inv = self.f.inv((-g[0]) % self.p)

    def _refresh_poly(self, boost):
        self._keep(minimal_polynomial(self._m, self.p, boost=boost,
                                      rng=self.rng))
        if self._gbar is not None:
            self._poly.resize(len(self._gbar) * self._word)

    def _scaled(self, b):
        """c = b, or diag(diag) b mod p, the vector M^-1 is applied to."""
        if self._diag is None:
            return b
        p = self.p
        return [d * bi % p for d, bi in zip(self._diag, b)]

    def solve(self, b):
        """x with A x = b (mod p), verified; raises RetriesExhausted.

        b holds residues in [0, p) and is read as it is, not copied; an
        entry outside that range raises ValueError.  A solve holds two
        vectors at a time, and they are what is charged: c, when the
        diagonal makes it a copy, with the Horner result while Horner
        runs, then that result and x."""
        f, p, op = self.f, self.p, self.op
        if min(b, default=0) < 0 or max(b, default=0) >= p:
            raise ValueError(f"right-hand side entries must lie in [0, {p})")
        for attempt in range(self._budget):
            if self._gbar is None:
                self._refresh_poly(boost=1 + attempt)
                if self._gbar is None:
                    continue
            g = self._gbar
            with meter.track("fpsolver.vecs", 2 * f.vec_bits(b)):
                acc = self._m.horner_apply(g[1:], self._scaled(b), f)
                x = f.scale(self._c0inv, acc)
                if op.apply_mod(x, p) == b:
                    return x
            self._gbar = None
        raise RetriesExhausted("FpSolver verification kept failing")
