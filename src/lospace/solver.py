"""Exact determinants and the linear-space rational system solver.

The determinant is CRT over primes drawn one at a time from the
operator's prime window (below), until their product exceeds twice a
Hadamard bound on |det|, which certifies exact signed recovery.  For a
plain matrix the bound is the row-norm form prod_i |row_i|_2, and for a
Gram product A^T A, which is positive semidefinite, the product of its
diagonal prod_j |col_j|_2^2; a zero row or column makes the bound 0 and
the determinant is then 0 outright.  Other composed operators (shifts)
use U^n n^(n/2) from their entry bound U.

The solver multiplies the system by det(A) so the solution is integral,
then recovers it digit by digit in base p for one prime p >= n^3 U without
ever holding a big residual vector: the small integer carry r~ and the
current digits are the only n-vectors in play, while two nonnegative
L-bit-float accumulators per tracked coordinate absorb the digits.  The
positive/negative decision falls out of which accumulator stayed small,
and a per-coordinate all-digits-zero flag preserves exact zeros.  When
the accuracy target is fine enough to need more mantissa than a word per
coordinate, coordinates are processed in K blocks, re-running the digit
stream per block; digits are seeded identically per block so K never
changes the output.

Both draw from one prime stream per operator, the window
[max(16, n^3 U), ..^2] (``_prime_window``), capped below the operator's
word bound (``LinearOperator.prime_top``) when it has fused kernels and
the cap leaves the window at least twice its lower end (``primes`` shows
the window still holds enough primes); every step then runs on the int64
kernels.  The lift takes the first prime of the stream that does not
divide det, usually one the determinant already drew, so a fresh pool
holds no prime that no residue or lift used.  The one exception is the
determinant of an operator whose n^3 U window starts above half its word
bound: it falls back to the n^2 U window, which may still be capped, so
that its residues stay on the int64 kernels.  Any prime not dividing det
serves the lift, and any prime the CRT, so only the outputs' rounding,
never det, depends on which window.

Hot loops run against one cached minimal polynomial per (matrix, prime):
each lifting step is a Horner application plus one verification product.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from . import meter
from .meter import int_bits, intvec_bits
from .numeric import (
    GREATER,
    FloatL,
    _round_to_l,
    fl_add_same_sign,
    fl_cmp,
    fl_from_int,
    fl_mul,
    fl_neg,
    fl_zero,
)
from .linop import BASE, GRAM, LinearOperator, SparseMatrix
from .primes import crt_combine, shared_pool, window_floor
from .wiedemann import FpSolver, determinant_zp

# failure exponent: a determinant fails with probability at most n^-C, and
# the solver's finite-field solves size their retry budgets from it
C = 2


class SingularMatrix(ValueError):
    """Raised where SINGULAR is a hard error rather than an outcome."""


@dataclass
class SolveOutcome:
    """Either SINGULAR or an entry-wise e^eps approximation of A^-1 b."""

    singular: bool
    x: list | None = None


def derive_rng(rng_or_seed, *labels) -> random.Random:
    """Independent deterministic stream named by labels."""
    import hashlib

    if isinstance(rng_or_seed, random.Random):
        root = rng_or_seed.getrandbits(64)
    else:
        root = int(rng_or_seed)
    h = hashlib.sha256(("|".join(map(str, (root,) + labels))).encode()).digest()
    return random.Random(int.from_bytes(h[:16], "big"))


def _isqrt_ceil(x):
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def hadamard_bound(n, u):
    """Integer upper bound for |det| of an n x n matrix with entries <= u."""
    if n == 0:
        return 1
    return (u ** n) * (_isqrt_ceil(n ** n))


def row_norm_bound(a: SparseMatrix, b=None):
    """ceil(prod_i |row_i|_2), Hadamard's bound on |det a|, never above
    hadamard_bound(n, U); 0 when a row of the square matrix a is zero.
    With b, row i's squared norm takes b_i^2 as well: that bounds |det| of
    a with any one column replaced by b, so |det(a) (a^-1 b)_i| (Cramer)."""
    prod = 1
    rows = 0
    for i, entries in groupby(zip(a.rows, a.vals), key=itemgetter(0)):
        sq = sum(v * v for _, v in entries)
        prod *= sq if b is None else sq + b[i] * b[i]
        rows += 1
    return _isqrt_ceil(prod) if rows == a.n else 0


def gram_bound(a: SparseMatrix):
    """prod_j |col_j|_2^2, Hadamard's bound on det(a^T a): a positive
    semidefinite matrix's determinant is at most the product of its
    diagonal.  0 when a column of a is zero."""
    sq = [0] * a.m
    with meter.track("det.colnorms", a.m * int_bits(a.n * a.entry_bound ** 2)):
        for j, v in zip(a.cols, a.vals):
            sq[j] += v * v
        return math.prod(sq)


def _prime_window(op, det=False):
    """(lower, top) of the one prime stream an operator draws from, for
    ``shared_pool.get``: lower = max(16, n^3 U), and top =
    op.prime_top(), the word bound of its fused kernels (None without
    them).  The lifting prime and the determinant's CRT primes share
    that stream, so a fresh pool holds only primes some residue or lift
    used.

    One exception, for the determinant (det=True) of an operator with a
    top: where the n^3 U window is uncapped because it starts above top/2
    (its primes would all be too wide for the int64 kernels), the
    determinant draws from the n^2 U window instead, which may still be
    capped below top; the lift keeps the n^3 U window.
    """
    n, u, top = op.n, op.entry_bound, op.prime_top()
    lower = max(16, n ** 3 * u)
    if det and top is not None and 2 * window_floor(lower) > top:
        lower = max(16, n * n * u)
    return lower, top


def determinant(a, rng=None) -> int:
    """Exact det(a) with failure probability <= n^-C.

    Primes are drawn one at a time from the operator's window
    (``_prime_window``: [max(16, n^3 U), ..^2], or the n^2 U window where
    only that one fits the word bound, capped below op.prime_top()), until
    their product exceeds twice the Hadamard bound: the row-norm bound for
    a plain matrix, the column-norm bound for a Gram product (a zero row
    or column returns 0 without drawing a prime) and hadamard_bound(n, U)
    for any other composed operator.  Every prime exceeds n^2 U, so at
    most n primes (two when n = 1) are ever needed, usually far fewer.
    Each residue is a finite-field determinant; reconstruction is
    incremental CRT with signed recovery.
    """
    op = LinearOperator.wrap(a)
    if op.n != op.m:
        raise ValueError("determinant needs a square matrix")
    n = op.n
    if n == 0:
        return 1
    u = op.entry_bound
    if op.kind == BASE:
        bound = 2 * row_norm_bound(op.base)
    elif op.kind == GRAM:
        bound = 2 * gram_bound(op.base)
    else:
        bound = 2 * hadamard_bound(n, u)
    if bound == 0:
        return 0
    rng = rng if isinstance(rng, random.Random) else random.Random(rng or 0)
    lower, top = _prime_window(op, det=True)
    # pooled primes: every residue is certificate-checked, so sharing the
    # prime stream across calls costs nothing in correctness
    primes, prod = [], 1
    while prod <= bound:
        primes = shared_pool.get(lower, len(primes) + 1, top=top)
        prod *= primes[-1]
    delta = min(0.01, float(n) ** -(C + 2))
    residues = [determinant_zp(op, q, delta, random.Random(rng.getrandbits(63)))
                for q in primes]
    P, R = crt_combine(zip(primes, residues))
    return R if 2 * R < P else R - P


def sign_combine(y_plus: FloatL, y_minus: FloatL, all_digits_zero: bool) -> FloatL:
    """Resolve the signed accumulator pair into one value.

    The digit stream encodes v mod p^T with v = det * x_i; the positive
    branch keeps y+ small (= v) while the negative branch keeps y- small
    (= |v| - 1).  Exact zeros are reported via the digits-all-zero flag
    because y- alone cannot distinguish 0 from p^T - 1.
    """
    if all_digits_zero:
        return fl_zero(y_plus.L)
    if fl_cmp(y_plus, y_minus) != GREATER:
        return y_plus
    one = fl_from_int(1, y_minus.L)
    return fl_neg(fl_add_same_sign(y_minus, one))


def _fl_div_int(x: FloatL, d: int) -> FloatL:
    """x / d for a plain integer d, in one rounding."""
    sign = -1 if (x.mantissa < 0) != (d < 0) else 1
    merr = None if x.merr_ulps is None else x.merr_ulps + 1
    if x.mantissa == 0:
        return fl_zero(x.L)
    return _round_to_l(sign * abs(x.mantissa), abs(d), x.exponent, x.L, merr)


class RationalSolver:
    """Repeated entry-wise-approximate solves against one fixed matrix.

    Computes det(A), unless the caller passes it, and samples the lifting
    prime once; every solve() then runs the digit recurrence for its own
    right-hand side.  lin_solve is the one-shot wrapper.
    """

    def __init__(self, a, eps: float, rng_or_seed=0, det: int | None = None):
        if not 0 < float(eps) < 1:
            raise ValueError("eps must lie in (0, 1)")
        self.op = LinearOperator.wrap(a)
        if self.op.n != self.op.m:
            raise ValueError("solver needs a square matrix")
        self.n = self.op.n
        self.u = self.op.entry_bound
        rng = (rng_or_seed if isinstance(rng_or_seed, random.Random)
               else random.Random(rng_or_seed))
        self.rng = rng
        # drawn either way, so the streams derived after it stay put
        det_rng = derive_rng(rng, "det")
        self.det = determinant(self.op, det_rng) if det is None else det
        self._det_tok = meter.current().alloc("solver.det", int_bits(self.det))
        self._det_meter = meter.current()
        self.prime = None
        self._fp = None
        if self.det != 0:
            self.prime = self._pick_prime()
        n, u = self.n, self.u
        # clamp: accuracy beyond 2^(-2 n log2(2nU)) is exact territory
        cap_bits = 2 * n * max(1, math.ceil(math.log2(2 * n * u)))
        self._clamped = math.log2(1 / float(eps)) > cap_bits
        self.eps = max(float(eps), 2.0 ** -cap_bits) if cap_bits < 1000 else float(eps)
        self.L = max(16, math.ceil(2 * math.log2(max(2.0, n * u / self.eps))))

    def _pick_prime(self):
        from .wiedemann import RetriesExhausted

        lower, top = _prime_window(self.op)
        for count in range(1, 9):
            p = shared_pool.get(lower, count, top=top)[-1]
            if self.det % p:
                return p
        raise RetriesExhausted("kept finding primes dividing det(A)")

    def close(self):
        if self._det_tok is not None:
            self._det_meter.free(self._det_tok)
            self._det_tok = None
        if self._fp is not None:
            self._fp.close()
            self._fp = None

    # -- digit stream ----------------------------------------------------

    def digit_vectors(self, b, T):
        """Yields the base-p digit vectors of (det * A^-1 b) mod p^T.

        Exactly the lifting recurrence: rhs_i = (floor(b det / p^i) - r~) mod p,
        digits = A^-1 rhs_i mod p, r~ <- floor((r~ + A digits) / p).
        """
        n, p, det = self.n, self.prime, self.det
        if self._fp is None:
            # one cached minimal polynomial serves every solve on this matrix
            self._fp = FpSolver(self.op, p, derive_rng(self.rng, "mu"),
                                delta=float(n) ** -(C + 2))
        solver = self._fp
        maxbd = max((abs(x) for x in b), default=0) * abs(det)
        # once p^i outruns |b_j det|, the quotient is frozen at 0 or -1
        tails = [(-1 if bj * det < 0 else 0) for bj in b]
        r_tilde = [0] * n
        bound_r = 2 * n * self.u
        m = meter.current()
        rtok = m.alloc("lift.rtilde", n * (bound_r.bit_length() + 2))
        ppow_tok = m.alloc("lift.ppow", 1)
        dig_tok = m.alloc("lift.rhs+digits", 2 * n * (p.bit_length() + 1))
        try:
            ppow = 1
            for i in range(T):
                if ppow is not None:
                    rhs = [((bj * det // ppow) - rj) % p
                           for bj, rj in zip(b, r_tilde)]
                else:
                    rhs = [(tj - rj) % p for tj, rj in zip(tails, r_tilde)]
                digits = solver.solve(rhs)
                yield digits
                ay = self.op.apply_int(digits)
                r_tilde = [(rj + aj) // p for rj, aj in zip(r_tilde, ay)]
                if any(abs(rj) > bound_r for rj in r_tilde):
                    raise RuntimeError("carry bound exceeded")
                if ppow is not None:
                    ppow *= p
                    if ppow > maxbd:
                        ppow = None
                        m.resize(ppow_tok, 1)
                    else:
                        m.resize(ppow_tok, int_bits(ppow))
        finally:
            m.free(rtok)
            m.free(ppow_tok)
            m.free(dig_tok)

    def lift_length(self, b):
        """T with p^T certifiably above 2 max |det * (A^-1 b)_i| (Cramer),
        from (U sqrt(n))^(n-1) |b|_inf sqrt(n) or, for a plain matrix, the
        smaller Hadamard row bound on A with a column replaced by b, which
        counts b_r in every row: far smaller unless |b| dwarfs U."""
        n, u = self.n, self.u
        colnorm = u * _isqrt_ceil(n)
        bnorm = max((abs(x) for x in b), default=0) * _isqrt_ceil(n)
        bound = 2 * colnorm ** max(0, n - 1) * max(1, bnorm)
        if self.op.kind == BASE:
            bound = min(bound, 2 * row_norm_bound(self.op.base, b))
        T = 1
        ppow = self.prime
        while ppow <= bound:
            ppow *= self.prime
            T += 1
        return T

    def block_count(self):
        n, u = self.n, self.u
        k = math.ceil(math.log2(1 / self.eps) / math.log2(2 * n * u)) if self.eps < 1 else 1
        return min(n, max(1, k))

    def solve(self, b, K=None) -> SolveOutcome:
        if len(b) != self.n:
            raise ValueError("right-hand side length mismatch")
        if self.det == 0:
            return SolveOutcome(True)
        n, p = self.n, self.prime
        T = self.lift_length(b)
        # exponents reach T * log2(p); widen L until they are representable.
        # The widening stays local, so a solve never depends on earlier ones
        L = self.L
        while (1 << L) < T * (p.bit_length() + 1) + L + 64:
            L += 8
        if self._clamped:
            # below the clamp the accumulators must be exact: give the
            # mantissa room for every digit of p^T
            L = max(L, T * (p.bit_length() + 1) + 8)
        K = K or self.block_count()
        block = math.ceil(n / K)
        out = [None] * n
        fl_p = fl_from_int(p, L)
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            with meter.track("lift.accumulators",
                             2 * (hi - lo) * (2 * L + 64)):
                y_plus = [fl_zero(L)] * (hi - lo)
                y_minus = [fl_zero(L)] * (hi - lo)
                all_zero = [True] * (hi - lo)
                ppow_fl = fl_from_int(1, L)
                for digits in self.digit_vectors(b, T):
                    for j in range(lo, hi):
                        d = digits[j]
                        k = j - lo
                        if d:
                            all_zero[k] = False
                            y_plus[k] = fl_add_same_sign(
                                y_plus[k], fl_mul(fl_from_int(d, L), ppow_fl))
                        comp = p - 1 - d
                        if comp:
                            y_minus[k] = fl_add_same_sign(
                                y_minus[k], fl_mul(fl_from_int(comp, L), ppow_fl))
                    ppow_fl = fl_mul(ppow_fl, fl_p)
                for k in range(hi - lo):
                    y = sign_combine(y_plus[k], y_minus[k], all_zero[k])
                    out[lo + k] = _fl_div_int(y, self.det)
        return SolveOutcome(False, out)


def lin_solve(a, b, eps: float, rng_or_seed=0, K=None) -> SolveOutcome:
    """One-shot entry-wise e^eps-multiplicative solve; SINGULAR iff det = 0."""
    solver = RationalSolver(a, eps, rng_or_seed)
    try:
        return solver.solve(b, K=K)
    finally:
        solver.close()


def linear_regression(a: SparseMatrix, b, eps: float, rng_or_seed=0):
    """Entry-wise e^eps approximation of argmin |A x - b|_2 via the normal
    equation over the Gram operator; A is never multiplied out."""
    if a.n < a.m:
        raise ValueError("regression wants n >= d")
    if len(b) != a.n:
        raise ValueError("b length mismatch")
    v = a.apply_transpose_int(b)
    with meter.track("regress.atb", intvec_bits(v)):
        gram = LinearOperator.gram(a)
        outcome = lin_solve(gram, v, eps, rng_or_seed)
    if outcome.singular:
        raise SingularMatrix("A^T A is singular: A is rank-deficient")
    return outcome.x
