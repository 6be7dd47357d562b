"""Exact determinants and the linear-space rational system solver.

Determinant.  H bounds |det|: for a plain matrix the row-norm form
prod_i |row_i|_2, for a Gram product A^T A, which is positive
semidefinite, the product of its diagonal prod_j |col_j|_2^2 (a zero row
or column makes H = 0 and the determinant 0 outright), and for other
composed operators (shifts) U^n n^(n/2) from their entry bound U.  The
residue det mod p at the first prime p of the operator's stream (below)
comes first: (-1)^n g(0) when the operator's characteristic polynomial g
mod p is known (``LinearOperator.charpoly``, which ``spectral``'s shifted
operators carry), else ``determinant_zp``'s.  Where the fused kernels
run the operator mod p and that residue is nonzero, det = d c with d
from one p-adic lift (Pan, Inf. Process. Lett. 28, 1988; Abbott,
Bronstein & Mulders, ISSAC 1999):

- Lift x = A^-1 b' for a random +-1 vector b' to T' digits and keep
  v = r.x mod M, M = p^T', for one random r with entries below 2^16.
- By Cramer's rule det x_i is an integer, |det x_i| <= C
  (``_cramer_bound``), so r.x = (r.det x) / det: in lowest terms
  num / d with |num| <= N = |r|_1 C and d dividing det, so d <= H.
- T' is the least length with M > 2 (N + 1) H.  Two fractions within
  those bounds that agree mod M differ by a multiple of M of size at
  most 2 N H, so they are equal: rational reconstruction (Wang, Guy &
  Davenport, SIGSAM Bull. 16(2), 1982) recovers num / d from v alone.
- c = det / d comes by CRT from residues det mod q * d^-1 mod q, the one
  at p included and any q dividing d skipped, until their product
  exceeds 2 H / d, which certifies signed recovery of |c| <= H / d.

A zero residue at p, or an operator without fused kernels (every shift),
takes d = 1: the CRT of det itself, until the product exceeds 2 H, which
also decides whether A is singular or p divides det.  The lift's mod-p
solves start from the residue's own certificate (``determinant_zp``),
so they run no Wiedemann trial, and the solver below keeps that
FpSolver when its lift prime is p.  Whenever the residue's first,
unpreconditioned run certifies, as it does for a nonderogatory A and a
good draw, that certificate is A's own characteristic polynomial, and
the lift, and every solve that keeps its FpSolver, runs on A's words
with no diagonal: no fold of one into a copy and no mulmod per entry
(``kernels``).  A derogatory A needs the preconditioner: its
certificate is the characteristic polynomial of diag(delta) A, the lift
runs on that product, and the later residues skip the first run.
d divides the largest invariant factor of A, and misses
more of det where b' or r cancels a factor; that costs residues of c,
never correctness.

The solver multiplies the system by det(A) so the solution is integral,
then recovers it digit by digit in base p for one prime p not dividing
det (Dixon, Numer. Math. 40, 1982) without ever holding a big residual
vector: the small integer carry r~ and the current digits are the only
n-vectors in play, while one signed L-bit float accumulator per tracked
coordinate absorbs the balanced digits d_i in [-(p - 1)/2, (p - 1)/2] of
z = det x_i as s = sum d_i p^i.  Three rules size the lift:

- Lift margin (``lift_length``).  T is the least length with p^T above
  2 C, C a Cramer bound on |z|.  T balanced digits represent each integer
  of magnitude at most (p^T - 1)/2 exactly once, and the lift's digits
  agree with z mod p^T, so sum d_i p^i = z: the sign and the exact zeros
  come from the sum itself, and every digit past z's top one is zero.
- Accumulator precision (``solve``).  A nonzero digit is taken in one
  rounding, s <- round_L(s + d_i P_i) (``numeric.fl_add_scaled``), and a
  zero digit is skipped.  P_i = round(p P_(i-1)) is carried at
  L + 1 + 2 bitlen(i) bits, so its roundings add up to a relative
  2^-L / 4 whatever i.  Only the top digit d_t can cancel: each partial
  sum below it is at most (p^(k+1) - 1)/2 while |z| >= (p^t + 1)/2, so
  the exact partial sums add up to less than (2 + 1/(p - 1)) |z| and
  sum |d_i| p^i < 3 |z|.  To first order s is so within
  (2.75 + 1/(p - 1)) 2^-L |z| of z, less than 4 2^-L |z| for every odd p
  with the second-order terms, whatever T (the recursive-summation
  analysis of Higham, SIAM J. Sci. Comput. 14(4), 1993).  One rule, this
  repository's (PAPER.md holds only the abstract), sizes both widths:
  L_acc = min(ceil(log2(1 / eps)) + 4, T (bitlen(p) + 1) + 8) keeps s
  within a relative eps/4 of z, so within e^(eps/3), as the second term
  holds every p^i and every partial sum exactly; the quotient s / det is
  the one rounding at the output precision L = ceil(log2(1 / eps)) + 2,
  which adds at most eps/4 more: every entry is within e^(7 eps/12), and
  the rest of eps is slack.  Exponents reach T log2 p, so both widen
  until they are representable (``_exponent_room``).
- Block count (``block_count``).  A coordinate's accumulator is charged
  what it can hold: (L_acc + 1) + int_bits(top_exp) bits, with
  top_exp = T (bitlen(p) + 1) + 64.  It is a canonical FloatL of an
  integer of magnitude below p^T: an odd mantissa below 2^L_acc, at most
  L_acc + 1 bits with its sign, and an exponent in [0, top_exp].
  Coordinates go in K blocks, the fewest whose accumulators fit
  B = 16 n ceil(log2(2nU)) bits: K = ceil(n / max(1, floor(B / A))), A
  the charge of one.  One block's accumulators so never exceed B bits, or
  one accumulator's A when a block holds a single coordinate.  The digit
  stream is re-run per block, seeded identically, so K never changes the
  output.

Both draw from one prime stream per operator, named in one place
(``_prime_window``): the window [max(16, n^3 U), ..^2], or the n^2 U one
where the n^3 U window starts above half the top of the operator's fused
kernels' primes (``LinearOperator.prime_top``), capped below that top
when it has one and the cap leaves the window at least twice its lower
end (``primes`` shows the window still holds enough primes); every step
then runs on the int64 kernels.  The lift takes the first prime of the
stream that does not divide det, usually the one the determinant lifted
with, so a fresh pool holds no prime that no residue or lift used.  Any
prime not dividing det serves the lift, and any prime the CRT, so only
the outputs' rounding, never det, depends on which window.

An operator may carry a window it shares with related operators
(``LinearOperator.window``): ``spectral`` sets the window of its widest
shift on 2^s B, whose scalar shifts keep it, so every determinant and
lift of one call draws from it.  That is sound because the proofs above
need only primes at or above the operator's own lower end; a carried
window starting lower, or with another top, is refused with ValueError.

Every lift, the determinant's and the solver's, runs one digit
recurrence (``_lift_digits``) against one FpSolver per (operator,
prime): each step is a Horner application of its recurrence plus one
verification product and one exact product for the carry.  The
solver's recurrence comes from one of three places: the determinant's
FpSolver, when its lift used the same prime; else the operator's
characteristic polynomial, when it is known at the lift prime; else a
Wiedemann trial that the solver runs before its first lift opens any
buffer (a det= hand-off, an operator without fused kernels, or a lift
prime past a first one that divides det).
"""

from __future__ import annotations

import math
import random
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import groupby, islice
from operator import itemgetter

from . import meter
from .meter import int_bits, intvec_bits
from .numeric import _round_to_l, fl_add_scaled, fl_from_int, fl_zero
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


def gram_bound(a: SparseMatrix, b=None):
    """prod_j |col_j|_2^2, Hadamard's bound on det(a^T a): a positive
    semidefinite matrix's determinant is at most the product of its
    diagonal.  0 when a column of a is zero.  With b, Hadamard's column
    bound on a^T a with any one column replaced by b, so on
    |det(a^T a) ((a^T a)^-1 b)_i| (Cramer): column j of a^T a is a^T a_j,
    of norm at most |a_j|_2 |a|_F, which makes it
    ceil(|b|_2 |a|_F^(m-1) prod |a_j|_2) over the m - 1 largest |a_j|_2."""
    sq = [0] * a.m
    with meter.track("det.colnorms", a.m * int_bits(a.n * a.entry_bound ** 2)):
        for j, v in zip(a.cols, a.vals):
            sq[j] += v * v
        if b is None:
            return math.prod(sq)
        frob = sum(sq)
        sq.remove(min(sq))
        return _isqrt_ceil(sum(x * x for x in b) * frob ** len(sq)
                           * math.prod(sq))


def _prime_window(op):
    """(lower, top) of the one prime stream op's determinant and lift
    draw from, for ``shared_pool.get``.  op's own window has top =
    op.prime_top(), the top of its fused kernels' primes (None without
    them), and lower = max(16, n^3 U), or max(16, n^2 U) where the n^3 U
    window starts above top/2, as its primes would all be too wide for
    the int64 kernels.  The window op carries (``LinearOperator.window``)
    replaces it when it starts at or above op's own lower end and keeps
    its top, as larger primes serve every bound the determinant and the
    lift rest on; any other carried window raises ValueError."""
    n, u, top = op.n, op.entry_bound, op.prime_top()
    lower = max(16, n ** 3 * u)
    if top is not None and 2 * window_floor(lower) > top:
        lower = max(16, n * n * u)
    if op.window is None:
        return lower, top
    if op.window[0] < lower or op.window[1] != top:
        raise ValueError(f"prime window {op.window} does not cover this "
                         f"operator's own window {(lower, top)}")
    return op.window


def _first_prime(window):
    """The first prime of a (lower, top) window's stream."""
    lower, top = window
    return shared_pool.get(lower, 1, top=top)[0]


def _digits_above(p, bound):
    """(T, p^T) for the least T >= 1 with p^T > bound."""
    T, M = 1, p
    while M <= bound:
        M *= p
        T += 1
    return T, M


def determinant(a, rng=None, keep=None) -> int:
    """Exact det(a) with failure probability <= n^-C.

    Primes are drawn one at a time from the operator's one stream
    (``_prime_window``).  H is the Hadamard bound: the row-norm bound for
    a plain matrix, the column-norm bound for a Gram product (a zero row
    or column returns 0 without drawing a prime) and hadamard_bound(n, U)
    for any other composed operator.  Each residue is a finite-field
    determinant (``determinant_zp``), except the first where the
    operator's characteristic polynomial g is known at p
    (``LinearOperator.charpoly``): that residue is (-1)^n g(0).  When the
    first residue needed the preconditioner, the later ones skip the
    unpreconditioned first run, which would fail again on a derogatory
    operator.

    The residue at the stream's first prime p comes first.  Where the
    fused kernels run the operator mod p (``LinearOperator._fused``) and
    that residue is nonzero, det = d c (module docstring, "Determinant"):
    d, which divides det, from one p-adic lift (``_lift_denominator``),
    and c = det / d by CRT over residues det mod q * d^-1 mod q, the one
    at p included and any q dividing d skipped, until their product
    exceeds 2 H / d.  Otherwise d = 1 and the CRT runs until the product
    exceeds 2 H; that also decides whether a is singular or p divides
    det.  No prime count is fixed in advance: the bound stops the draws.

    keep, a list, receives the lift's FpSolver (its recurrence and
    diagonal, if any, uncharged once this returns), so that a
    RationalSolver lifting with the same prime builds none of its own.
    """
    if a.n != a.m:
        raise ValueError("determinant needs a square matrix")
    n = a.n
    if n == 0:
        return 1
    lower, top = _prime_window(a)
    u = a.entry_bound
    if a.kind == BASE:
        h = row_norm_bound(a)
    elif a.kind == GRAM:
        h = gram_bound(a.base)
    else:
        h = hadamard_bound(n, u)
    if h == 0:
        return 0
    rng = rng if isinstance(rng, random.Random) else random.Random(rng or 0)
    # pooled primes: every residue is certificate-checked, so sharing the
    # prime stream across calls costs nothing in correctness
    delta = min(0.01, float(n) ** -(C + 2))
    p = _first_prime((lower, top))
    # drawn either way, so the later residues' streams stay put
    seed = rng.getrandbits(63)
    g, diag = a.charpoly(p), None
    if g is not None:
        residue = (-1) ** n * g[0] % p
    else:
        residue, diag, g = determinant_zp(
            a, p, delta, rng=random.Random(seed), certificate=True)
    d = 1
    if residue and a._fused(p):
        fp = FpSolver(a, p, random.Random(rng.getrandbits(63)), delta,
                      diag=diag, poly=g)
        with fp:
            d = _lift_denominator(a, u, fp, h, rng)
        if keep is not None:
            keep.append(fp)
    pairs, prod, count = [(p, residue * pow(d, -1, p) % p)], p, 1
    while prod * d <= 2 * h:
        count += 1
        q = shared_pool.get(lower, count, top=top)[-1]
        if d % q == 0:
            continue
        residue = determinant_zp(a, q, delta,
                                 rng=random.Random(rng.getrandbits(63)),
                                 plain=diag is None)
        pairs.append((q, residue * pow(d, -1, q) % q))
        prod *= q
    P, R = crt_combine(pairs)
    return d * (R if 2 * R < P else R - P)


def _cramer_bound(op, u, b):
    """C >= max_i |det(op) (op^-1 b)_i|, the determinant of op with one
    column replaced by b (Cramer), for op's entry bound u:
    (u sqrt(n))^(n-1) |b|_inf sqrt(n) or, when smaller, Hadamard's bound
    on that matrix from the operator's own norms: for a plain matrix its
    row bound, which counts b_r in every row, far smaller unless |b|
    dwarfs u; for a Gram product its column bound (``gram_bound``)."""
    n = op.n
    colnorm = u * _isqrt_ceil(n)
    bnorm = max((abs(x) for x in b), default=0) * _isqrt_ceil(n)
    bound = colnorm ** max(0, n - 1) * max(1, bnorm)
    if op.kind == BASE:
        bound = min(bound, row_norm_bound(op, b))
    elif op.kind == GRAM:
        bound = min(bound, gram_bound(op.base, b))
    return bound


def _lift_denominator(a, u, fp, h, rng):
    """d, the denominator of r.x for x = a^-1 b' (module docstring,
    "Determinant"): b' a random +-1 vector, r one with entries below
    2^16, x lifted through fp's prime p to T' digits, the fewest with
    M = p^T' > 2 (N + 1) H, N = |r|_1 C and C = ``_cramer_bound(a, u, b')``.
    b', r and the running r.x mod M are charged as ``lift.accumulators``,
    M and the running power of p as ``lift.ppow``."""
    n, p = a.n, fp.p
    b = [rng.choice((-1, 1)) for _ in range(n)]
    r = [rng.randrange(1 << 16) for _ in range(n)]
    nb = sum(r) * _cramer_bound(a, u, b)
    T, M = _digits_above(p, 2 * (nb + 1) * h)
    # |r.digits| < n 2^16 p, so the running sum stays below n 2^16 M
    with (meter.track("lift.accumulators", intvec_bits(b) + intvec_bits(r)
                      + int_bits(n * M << 16)),
          meter.track("lift.ppow", 2 * int_bits(M))):
        acc, ppow = 0, 1
        for digits in _lift_digits(a, u, fp, b, 1, T):
            acc += ppow * sum(ri * yi for ri, yi in zip(r, digits))
            ppow *= p
        acc %= M
        return _reconstructed_denominator(acc, M, nb, h)


def _reconstructed_denominator(v, M, nb, h):
    """The denominator of the one fraction num/den with |num| <= nb,
    0 < den <= h and num = den v (mod M), for M > 2 (nb + 1) h (Wang, Guy
    & Davenport, SIGSAM Bull. 16(2), 1982).  The extended Euclidean
    remainders r_i = s_i M + t_i v stop at the first r_i <= nb; any such
    fraction is then an integer multiple of (r_i, t_i) (Shoup, "A
    Computational Introduction to Number Theory and Algebra", ch. 4,
    rational reconstruction), so |t_i| / gcd(r_i, t_i) is den in lowest
    terms.  r0, r1, t0, t1 and the quotient stay below M: they are
    charged as ``lift.accumulators``."""
    with meter.track("lift.accumulators", 5 * int_bits(M)):
        r0, r1, t0, t1 = M, v, 0, 1
        while r1 > nb:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            t0, t1 = t1, t0 - q * t1
        if not 0 < abs(t1) <= h:
            raise RuntimeError("rational reconstruction found no "
                               "denominator within the Hadamard bound")
        return abs(t1) // math.gcd(r1, t1)


def _lift_digits(op, u, fp, b, mult, T):
    """Yields the balanced base-p digit vectors of (mult * op^-1 b) mod
    p^T, p = fp.p: each is fp's mod-p solve with its entries moved into
    [-(p - 1)/2, (p - 1)/2]; u is op's entry bound.

    Exactly the lifting recurrence: rhs_i = (floor(b mult / p^i) - r~) mod p,
    digits = op^-1 rhs_i mod p, balanced, r~ <- floor((r~ + op digits) / p).
    Any digit representatives keep sum_i digits_i p^i = mult op^-1 b
    (mod p^T); balanced ones make the sum exact once p^T exceeds twice its
    magnitude.  The solver lifts det * x with mult = det, the determinant
    x itself with mult = 1.

    The unreduced right-hand side floor(b mult / p^i) - r~ is exactly the
    residual (mult b - op sum_(j<i) digits_j p^j) / p^i: op digits_j + r~
    is p times the next carry plus floor(b mult / p^j) mod p, so the sum
    telescopes.  Once it is the zero vector, mult op^-1 b is the integer
    sum of the digits so far and every later digit is 0, so the
    generator stops: the digits' sum, and everything read from it, is
    what the full T digits give.  An integral solution, det * x for the
    solver, stops after its top digit; the determinant's rational x
    never does.

    The carry stays within n u: |op digits| <= n u (p - 1)/2, so if
    |r~| <= n u, the numerator r~ + op digits - c, c in [0, p) the
    remainder the floor drops, is below n u (p + 1)/2 + p <= p (n u + 1)
    in magnitude, and the next carry, an integer below n u + 1, is again
    at most n u.
    """
    n = op.n
    p = fp.p
    maxbd = max((abs(x) for x in b), default=0) * abs(mult)
    # once p^i outruns |b_j mult|, the quotient is frozen at 0 or -1
    tails = [(-1 if bj * mult < 0 else 0) for bj in b]
    r_tilde = [0] * n
    bound_r = n * u
    half = p // 2

    def heads():
        """floor(b_j mult / p^i) for every j, one at a time."""
        if ppow is None:
            return iter(tails)
        return (bj * mult // ppow for bj in b)

    with (meter.track("lift.rtilde", n * (bound_r.bit_length() + 2)),
          meter.track("lift.ppow", 1) as ppow_bits,
          meter.track("lift.rhs+digits", 2 * n * (p.bit_length() + 1))):
        ppow = 1
        for i in range(T):
            rhs = [(h - rj) % p for h, rj in zip(heads(), r_tilde)]
            # a zero residual makes rhs zero, so the exact test runs only
            # then
            if not any(rhs) and all(
                    h == rj for h, rj in zip(heads(), r_tilde)):
                return
            digits = [d - p if d > half else d for d in fp.solve(rhs)]
            yield digits
            ay = op.apply_int(digits)
            r_tilde = [(rj + aj) // p for rj, aj in zip(r_tilde, ay)]
            if any(abs(rj) > bound_r for rj in r_tilde):
                raise RuntimeError("carry bound exceeded")
            if ppow is not None:
                ppow *= p
                if ppow > maxbd:
                    ppow = None
                    ppow_bits.resize(1)
                else:
                    ppow_bits.resize(int_bits(ppow))


def _exponent_room(L, top_exp):
    """L widened in steps of 8 until exponents up to top_exp + L fit."""
    while (1 << L) < top_exp + L:
        L += 8
    return L


def _signed_sums(digit_vectors, lo, hi, p, L):
    """One L-bit float per coordinate lo..hi-1 of the balanced base-p
    digit vectors: s <- round_L(s + d_i P_i) for each nonzero digit, with
    P_i = p^i rounded at L + 1 + 2 bitlen(i) bits (module docstring,
    "Accumulator precision")."""
    acc = [fl_zero(L)] * (hi - lo)
    power = fl_from_int(1, L)
    for i, digits in enumerate(digit_vectors, 1):
        for k, d in enumerate(islice(digits, lo, hi)):
            if d:
                acc[k] = fl_add_scaled(acc[k], d, power)
        power = _round_to_l(p * power.mantissa, 1, power.exponent,
                            L + 1 + 2 * i.bit_length())
    return acc


class RationalSolver:
    """Repeated entry-wise-approximate solves against one fixed matrix.

    Computes det(A), unless the caller passes it, and takes the lifting
    prime once, the first prime of the operator's stream
    (``_prime_window``) that does not divide det: the determinant's own
    lift prime whenever it lifted; every solve() then runs the digit
    recurrence for its own right-hand side.  lin_solve is the one-shot
    wrapper.

    Solves run inside a ``with`` block, which charges det as
    ``solver.det`` and holds the lift prime's FpSolver until the block
    ends, its ``fpsolver.poly`` (and ``det.diag``) charges included: the
    determinant's, when it lifted with the same prime, or else one the
    first solve builds.
    """

    def __init__(self, a, eps: float, rng_or_seed=0, det: int | None = None):
        if not 0 < float(eps) < 1:
            raise ValueError("eps must lie in (0, 1)")
        self.op = a
        if a.n != a.m:
            raise ValueError("solver needs a square matrix")
        if a.n == 0:
            raise ValueError("solver needs a nonempty system, got a 0 x 0 "
                             "matrix")
        self.n = self.op.n
        self.u = self.op.entry_bound
        rng = (rng_or_seed if isinstance(rng_or_seed, random.Random)
               else random.Random(rng_or_seed or 0))
        self.rng = rng
        # drawn either way, so the streams derived after it stay put
        det_rng = derive_rng(rng, "det")
        kept = []
        self.det = (determinant(self.op, det_rng, keep=kept)
                    if det is None else det)
        self.prime = None
        self._fp = None
        if self.det != 0:
            self.prime = self._pick_prime()
            # the determinant's lift prime, when it is this one, comes
            # with its recurrence
            if kept and kept[0].p == self.prime:
                self._fp = kept[0]
        # ceil(log2(2nU)) on the exact integer n U, which has no float range
        self._word_bits = max(1, (2 * self.n * self.u - 1).bit_length())
        # the output precision, which spectral's inverse power computes at too
        self._eps_bits = math.ceil(-math.log2(eps))
        self.L = self._eps_bits + 2

    def _pick_prime(self):
        from .wiedemann import RetriesExhausted

        lower, top = _prime_window(self.op)
        for count in range(1, 9):
            p = shared_pool.get(lower, count, top=top)[-1]
            if self.det % p:
                return p
        raise RetriesExhausted("kept finding primes dividing det(A)")

    def __enter__(self):
        self._held = ExitStack()
        self._held.enter_context(meter.track("solver.det", int_bits(self.det)))
        if self._fp is not None:
            self._held.enter_context(self._fp)
        return self

    def __exit__(self, *exc):
        self._held.close()

    # -- digit stream ----------------------------------------------------

    def _mod_p_solver(self):
        """The FpSolver of the lift prime: the determinant's when it lifted
        with this prime, otherwise one built here, which starts from the
        operator's characteristic polynomial when that is known at the
        prime (``LinearOperator.charpoly``) and else builds its recurrence
        at once, before the caller opens any lift buffer."""
        if self._fp is None:
            chi = self.op.charpoly(self.prime)
            self._fp = self._held.enter_context(
                FpSolver(self.op, self.prime, derive_rng(self.rng, "mu"),
                         delta=float(self.n) ** -(C + 2), poly=chi))
            if chi is None:
                self._fp._refresh_poly(boost=1)
        return self._fp

    def digit_vectors(self, b, T):
        """Yields the balanced base-p digit vectors of det * A^-1 b mod
        p^T: the one lifting recurrence (``_lift_digits``) with multiplier
        det."""
        yield from _lift_digits(self.op, self.u, self._mod_p_solver(), b,
                                self.det, T)

    def lift_length(self, b):
        """T with p^T certifiably above 2 max |det * (A^-1 b)_i|, from
        ``_cramer_bound``: T balanced digits then sum to det * (A^-1 b)_i
        exactly (module docstring, "Lift margin")."""
        bound = 2 * _cramer_bound(self.op, self.u, b)
        return _digits_above(self.prime, bound)[0]

    def block_count(self, acc_bits):
        """K, the fewest coordinate blocks whose accumulators, at
        ``acc_bits`` bits each (a canonical FloatL of
        (L_acc + 1) + int_bits(top_exp) bits), fit the linear budget
        B = 16 n ceil(log2(2nU)) bits; a block holds one coordinate when a
        single accumulator exceeds B."""
        n = self.n
        budget = 16 * n * self._word_bits
        per_block = max(1, budget // acc_bits)
        return -(-n // per_block)

    def solve(self, b, K=None) -> SolveOutcome:
        """Entry-wise e^eps approximation of A^-1 b, exact zeros kept.

        T = lift_length(b) balanced digits go into one signed accumulator
        per coordinate (``_signed_sums``) of
        L_acc = min(ceil(log2(1 / eps)) + 4, T (bitlen(p) + 1) + 8) bits,
        exact at the second term, and s / det is rounded once at
        self.L = ceil(log2(1 / eps)) + 2, the module docstring's one rule;
        both widen until exponents up to top_exp = T (bitlen(p) + 1) + 64
        fit.  One accumulator is charged (L_acc + 1) + int_bits(top_exp)
        bits (``block_count``).  K blocks re-run the digit stream and never
        change the output: K = None takes block_count of that charge, and
        any other K must be an int in 1..n (ValueError otherwise)."""
        if len(b) != self.n:
            raise ValueError("right-hand side length mismatch")
        n = self.n
        if K is not None and (not isinstance(K, int) or isinstance(K, bool)
                              or not 1 <= K <= n):
            raise ValueError(f"block count K must be an int in 1..{n}, "
                             f"got {K!r}")
        if self.det == 0:
            return SolveOutcome(True)
        self._mod_p_solver()
        p = self.prime
        T = self.lift_length(b)
        # exponents reach T * log2(p); widen until they are representable.
        # The widening stays local, so a solve never depends on earlier ones
        exact = T * (p.bit_length() + 1)
        top_exp = exact + 64
        L_out = _exponent_room(self.L, top_exp)
        # a relative 4 * 2^-L of the sum stays within eps/4, and exact + 8
        # bits hold every p^i and partial sum exactly
        L = _exponent_room(min(self._eps_bits + 4, exact + 8), top_exp)
        acc_bits = (L + 1) + int_bits(top_exp)
        if K is None:
            K = self.block_count(acc_bits)
        block = math.ceil(n / K)
        out = [None] * n
        sign = -1 if self.det < 0 else 1
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            with meter.track("lift.accumulators", (hi - lo) * acc_bits):
                sums = _signed_sums(self.digit_vectors(b, T), lo, hi, p, L)
                for k, s in enumerate(sums, lo):
                    # s / det, rounded once at the output precision
                    out[k] = _round_to_l(sign * s.mantissa, abs(self.det),
                                         s.exponent, L_out)
        return SolveOutcome(False, out)


def lin_solve(a, b, eps: float, rng_or_seed=0, K=None) -> SolveOutcome:
    """One-shot entry-wise e^eps-multiplicative solve; SINGULAR iff det = 0."""
    with RationalSolver(a, eps, rng_or_seed) as solver:
        return solver.solve(b, K=K)


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
