"""Randomized primality testing, uniform prime sampling, and CRT.

Sampling draws uniform integers from a window [N, hi] and rejects
non-primes and repeats; conditioned on success the first k primes of a
stream are a uniform k-subset of the primes in the window.  The window is
[N, N^2], or [N, top - 1] for an exclusive top with 2N <= top < N^2:
callers pass the prime top of their fused kernels as top.  PrimePool
keeps one seeded stream per window.

Why a capped window still works.  Write T for the window's exclusive
top, 2N <= T <= N^2, with N >= 16 (pools snap N up to a power of two, at
least 16).  By Rosser and Schoenfeld, x / ln x < pi(x) for x >= 17 and
pi(x) < 1.25506 x / ln x for x > 1; N / ln N grows with N, so
N / ln N <= (T/2) / ln(T/2), and the window [N, T - 1] holds

    pi(T - 1) - pi(N) > T / ln T - 0.62753 T / (ln T - ln 2) - 1

primes.  For T >= 64 that is at least 0.1733 T / ln T (for T < 64, N is
16 and the window holds the five primes 17..31 among at most 47
integers).  T <= N^2 gives ln T <= 2 ln N = 1.3863 log2 N, so the primes
of the window, which is narrower than T, have density above
0.1733 / ln T >= 1 / (8 log2 N): the density bound of the uncapped
window, on which ``_draw_prime``'s budget of 32 log2(N)^2 draws rests.
Each draw then finds a new prime with probability at least
1 / (8 log2 N), less the share of the few primes already drawn, and the
budget runs out with probability below N^-4.  The window also holds at
least 0.1733 T / ln T >= 0.3 N / log2 N primes, while an integer D has
at most log_N |D| prime divisors of size N or more: the primes a caller
must avoid (those dividing a determinant) are a vanishing share of the
window, as in the uncapped case.

How a candidate is settled.  Write psi_t for the least odd composite
that passes a Miller-Rabin round to each of the first t prime bases
2, 3, 5, ..., p_t (OEIS A014233; psi_12 and psi_13 are from Sorenson and
Webster, Math. Comp. 86, 2017):

    t        psi_t
    1        2047
    2        1373653
    3        25326001
    4        3215031751
    5        2152302898747
    6        3474749660383
    7, 8     341550071728321
    9..11    3825123056546413051
    12       318665857834031151167461
    13       3317044064679887385961981   (about 2^81.5)

So for x < psi_t the first t prime bases prove x prime or composite.
``test_prime`` uses that: below psi_13, an x that survives its first
random round is decided by the first t prime bases, t least with
x < psi_t, instead of by more random rounds.  It still draws every base
the random rounds would draw: an accepted x draws its remaining bases
untested, and a rejected one keeps running random rounds until one of
them finds a witness, or the rounds run out.  Its use of rng is
therefore that of plain random rounds whenever those reach the right
verdict, and its verdict is exact below psi_13.

The sampler goes further above 2^81.  Damgard, Landrock and Pomerance
(Math. Comp. 61, 1993) bound the chance p_{k,t} that a uniformly random
odd k-bit integer which passes t random rounds is composite; the t of
``_SAMPLER_ROUNDS`` make it at most 2^-80, which is what 40 rounds give
in the worst case.  For k >= 100 they are those of Menezes, van Oorschot
and Vanstone (Handbook of Applied Cryptography, Table 4.4).  For
82 <= k <= 99 they are the least t with

    p_{k,t} <= (1/7) k^(15/4) 2^(-k/2 - 2t) <= 2^-80,

DLP's estimate for k >= 21 and t >= k/4, which every such t meets:
31 rounds at 82 bits, 30 at 83-86, 29 at 87-91, 28 at 92-95 and 27 at
96-99 (at 100 bits the same formula gives HAC's 27).  The bound applies
to the sampler's candidates of k >= 82 bits, which only uncapped windows
hold:

  - an uncapped window is [2^a, 2^2a], so given its bit length k the
    candidate is uniform on all k-bit integers, and given that it is
    odd, on all odd ones;
  - the gcd filter removes only composites (every candidate is at least
    512), which can only lower the share of composites among the
    candidates that pass;
  - the repeat filter removes at most the c primes already drawn, out of
    more than 2^75 of k bits, so it raises the bound by a factor of at
    most 1 + c 2^-75;
  - a capped window ends below the word bound, 2^50 or less, so all its
    candidates lie below psi_13 and are decided exactly.

An accepted candidate then draws the 40 - t bases it did not test, so a
stream departs from that of 40 random rounds only where 40 rounds would
have caught a composite that t rounds passed: probability 2^-80 per
accepted prime.  Candidates below 82 bits keep 40 rounds, which the
prime bases settle below psi_13.

CRT reconstruction is incremental (Garner style): only the running product
and remainder are live, never the full residue table.
"""

from __future__ import annotations

import bisect
import math
import random

from . import meter

PRIME = "PRIME"
COMPOSITE = "COMPOSITE"

_SMALL_PRIMES = frozenset(q for q in range(2, 512)
                          if all(q % d for d in range(2, math.isqrt(q) + 1)))
# product of the odd primes below 512; a single gcd rejects most composites
_PRIMORIAL = math.prod(q for q in _SMALL_PRIMES if q > 2)


class SamplingExhausted(RuntimeError):
    """The rejection budget ran out; the n^-c failure branch was hit."""


class DuplicatePrime(ValueError):
    pass


# psi_t for t = 1..13 and the first 13 prime bases (module docstring)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051,
        318665857834031151167461, 3317044064679887385961981)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (k, t): t random rounds leave a uniformly random odd integer of k or more
# bits composite with probability <= 2^-80 (HAC Table 4.4 from 100 bits,
# DLP's t >= k/4 estimate below; module docstring)
_SAMPLER_ROUNDS = ((1300, 2), (850, 3), (650, 4), (550, 5), (450, 6),
                   (400, 7), (350, 8), (300, 9), (250, 12), (200, 15),
                   (150, 18), (96, 27), (92, 28), (87, 29), (83, 30),
                   (82, 31))


def _witness(a, d, r, x):
    """True when base a proves x = d 2^r + 1 composite."""
    y = pow(a, d, x)
    if y == 1 or y == x - 1:
        return False
    for _ in range(r - 1):
        y = y * y % x
        if y == x - 1:
            return False
    return True


def test_prime(x: int, rounds: int = 40, rng: random.Random | None = None) -> str:
    """Miller-Rabin: PRIME for every prime, exact below psi_13; above it
    composites escape w.p. <= 4^-rounds.  Draws rounds random bases from
    rng whatever it finds, except that a composite stops at its first
    random witness."""
    if x < 2:
        raise ValueError("test_prime wants x >= 2")
    if x < 512:
        return PRIME if x in _SMALL_PRIMES else COMPOSITE
    if x & 1 == 0:
        return COMPOSITE
    if rounds < 1:
        raise ValueError("test_prime wants rounds >= 1")
    rng = rng or random.Random()
    d = x - 1
    r = 0
    while d & 1 == 0:
        d >>= 1
        r += 1
    verdict = PRIME
    for i in range(rounds):
        if _witness(rng.randrange(2, x - 1), d, r, x):
            return COMPOSITE
        if i == 0 and x < _PSI[-1]:
            t = bisect.bisect_right(_PSI, x) + 1
            if not any(_witness(a, d, r, x) for a in _PRIME_BASES[:t]):
                for _ in range(rounds - 1):
                    rng.randrange(2, x - 1)
                return PRIME
            verdict = COMPOSITE
    return verdict


def _looks_prime(x, rng):
    """The sampler's test: like test_prime(x, 40, rng), rng use included,
    but with the rounds of _SAMPLER_ROUNDS above 2^81."""
    if x < 512:
        return x in _SMALL_PRIMES
    if x & 1 == 0 or math.gcd(x, _PRIMORIAL) > 1:
        return False
    k = x.bit_length()
    t = next((t for bits, t in _SAMPLER_ROUNDS if k >= bits), 40)
    if test_prime(x, t, rng) == COMPOSITE:
        return False
    for _ in range(40 - t):
        rng.randrange(2, x - 1)
    return True


def _draw_prime(rng: random.Random, lower: int, seen: set,
                hi: int | None = None) -> int:
    """One prime from [lower, hi] (hi = lower^2 by default) not in seen, by
    rejection; adds it to seen.

    The budget of draws comes from the prime density bound 1/(8*log2 n)
    for n >= 16, which holds on [lower, hi] for lower^2 >= hi >= 2 lower
    (see the module docstring); exhausting it has probability below
    lower^-4.
    """
    if hi is None:
        hi = lower * lower
    budget = math.ceil(8 * 4 * math.log2(lower) ** 2)
    for _attempt in range(budget):
        x = rng.randrange(lower, hi + 1)
        if x in seen:
            continue
        if _looks_prime(x, rng):
            seen.add(x)
            return x
    raise SamplingExhausted(
        f"no new prime in [{lower}, {hi}] after {budget} draws")


def window_floor(lower: int) -> int:
    """The start of the pool window for lower: lower snapped up to a power
    of two, at least 16, so that nearby ranges share one stream."""
    return max(16, 1 << (lower - 1).bit_length())


class PrimePool:
    """Deterministic lazily-extended streams of distinct primes per window.

    The stream for a window is seeded from its bounds alone, so any two
    runs (or two callers in one run) see the same primes; an uncapped
    window [m, m^2] keeps the seed label of m alone.  Reusing primes is
    sound wherever the per-prime work is certificate-checked: a residue
    computed mod any prime is a valid CRT input.
    """

    def __init__(self):
        self._streams = {}

    def get(self, lower: int, count: int,
            top: int | None = None) -> list[int]:
        """The first count primes of the window for lower: [m, m^2] with
        m = lower snapped up to a power of two (at least 16), capped below
        the exclusive top when 2m <= top < m^2."""
        import hashlib

        lower = window_floor(lower)
        hi = lower * lower
        label = f"lospace.primepool|{lower}"
        if top is not None and 2 * lower <= top < hi:
            hi = top - 1
            label += f"|{hi}"
        st = self._streams.get((lower, hi))
        if st is None:
            seed = int.from_bytes(
                hashlib.sha256(label.encode()).digest()[:16], "big")
            st = {"rng": random.Random(seed), "primes": [], "seen": set()}
            self._streams[(lower, hi)] = st
        while len(st["primes"]) < count:
            st["primes"].append(
                _draw_prime(st["rng"], lower, st["seen"], hi))
        return st["primes"][:count]


shared_pool = PrimePool()


def crt_combine(pairs) -> tuple[int, int]:
    """Fold residue/prime pairs into (P, R) with R = x mod P, P = prod p_i.

    Incremental Garner reconstruction: after step i the only live state is
    (P, R) of the first i moduli.
    """
    P, R = 1, 0
    seen = set()
    with meter.track("crt.state", 2) as state:
        for p, r in pairs:
            if p in seen:
                raise DuplicatePrime(f"modulus {p} repeated")
            seen.add(p)
            if not 0 <= r < p:
                raise ValueError("residue out of range")
            # R' = R + P * ((r - R)/P mod p) matches both congruences
            t = (r - R) * pow(P, -1, p) % p
            R = R + P * t
            P = P * p
            state.resize(2 * (P.bit_length() + R.bit_length() + 2))
    return P, R
