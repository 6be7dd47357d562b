"""Randomized primality testing, uniform prime sampling, and CRT.

Sampling draws uniform integers from [n, n^2] and rejects non-primes and
repeats; conditioned on success the first k primes of a stream are a
uniform k-subset of the primes in the range.  PrimePool keeps one seeded
stream per range.

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


def _looks_prime(x, rounds, rng):
    if x < 512:
        return x in _small_primes()
    if x & 1 == 0 or math.gcd(x, _primorial()) > 1:
        return False
    return test_prime(x, rounds, rng) == PRIME


def _draw_prime(rng: random.Random, lower: int, seen: set, rounds: int = 40) -> int:
    """One prime from [lower, lower^2] not in seen, by rejection; adds it to seen.

    The budget of draws comes from the prime density bound 1/(8*log2 n)
    for n >= 16; exhausting it has probability below lower^-4.
    """
    budget = math.ceil(8 * 4 * math.log2(lower) ** 2)
    for _attempt in range(budget):
        x = rng.randrange(lower, lower * lower + 1)
        if x in seen:
            continue
        if _looks_prime(x, rounds, rng):
            seen.add(x)
            return x
    raise SamplingExhausted(
        f"no new prime in [{lower}, {lower ** 2}] after {budget} draws")


class PrimePool:
    """Deterministic lazily-extended streams of distinct primes per range.

    The stream for lower bound m is seeded from m alone, so any two runs
    (or two callers in one run) see the same primes.  Reusing primes is
    sound wherever the per-prime work is certificate-checked: a residue
    computed mod any prime is a valid CRT input.
    """

    def __init__(self):
        self._streams = {}

    def get(self, lower: int, count: int, rounds: int = 40) -> list[int]:
        import hashlib

        # snap to a power of two so nearby ranges share one stream
        lower = max(16, 1 << (lower - 1).bit_length())
        st = self._streams.get(lower)
        if st is None:
            seed = int.from_bytes(
                hashlib.sha256(f"lospace.primepool|{lower}".encode()).digest()[:16],
                "big")
            st = {"rng": random.Random(seed), "primes": [], "seen": set()}
            self._streams[lower] = st
        while len(st["primes"]) < count:
            st["primes"].append(_draw_prime(st["rng"], lower, st["seen"], rounds))
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
