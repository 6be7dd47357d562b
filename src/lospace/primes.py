"""Randomized primality testing, uniform prime sampling, and CRT.

Sampling draws uniform integers from a window [N, hi] and rejects
non-primes and repeats; conditioned on success the first k primes of a
stream are a uniform k-subset of the primes in the window.  The window is
[N, N^2], or [N, top - 1] for an exclusive top with 2N <= top < N^2:
callers pass the word bound of their fused kernels as top.  PrimePool
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

CRT reconstruction is incremental (Garner style): only the running product
and remainder are live, never the full residue table.
"""

from __future__ import annotations

import math
import random

from . import meter

PRIME = "PRIME"
COMPOSITE = "COMPOSITE"

# product of the odd primes below 512; a single gcd rejects most composites
_SMALL_PRIMES = []


def _small_primes():
    if not _SMALL_PRIMES:
        sieve = bytearray([1]) * 512
        sieve[0:2] = b"\x00\x00"
        for i in range(2, 23):
            if sieve[i]:
                sieve[i * i:: i] = b"\x00" * len(sieve[i * i:: i])
        _SMALL_PRIMES.extend(i for i in range(2, 512) if sieve[i])
    return _SMALL_PRIMES


_PRIMORIAL = None


def _primorial():
    global _PRIMORIAL
    if _PRIMORIAL is None:
        acc = 1
        for q in _small_primes():
            if q > 2:
                acc *= q
        _PRIMORIAL = acc
    return _PRIMORIAL


class SamplingExhausted(RuntimeError):
    """The rejection budget ran out; the n^-c failure branch was hit."""


class DuplicatePrime(ValueError):
    pass


def test_prime(x: int, rounds: int = 40, rng: random.Random | None = None) -> str:
    """Miller-Rabin: PRIME for every prime; composites escape w.p. <= 4^-rounds."""
    if x < 2:
        raise ValueError("test_prime wants x >= 2")
    if x < 512:
        return PRIME if x in _small_primes() else COMPOSITE
    if x & 1 == 0:
        return COMPOSITE
    rng = rng or random.Random()
    d = x - 1
    r = 0
    while d & 1 == 0:
        d >>= 1
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, x - 1)
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(r - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return COMPOSITE
    return PRIME


def _looks_prime(x, rng):
    if x < 512:
        return x in _small_primes()
    if x & 1 == 0 or math.gcd(x, _primorial()) > 1:
        return False
    return test_prime(x, rng=rng) == PRIME


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
    m = meter.current()
    tok = m.alloc("crt.state", 2)
    try:
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
            m.resize(tok, 2 * (P.bit_length() + R.bit_length() + 2))
    finally:
        m.free(tok)
    return P, R
