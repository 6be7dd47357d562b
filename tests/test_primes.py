import hashlib
import random

import pytest
from mpmath.libmp import isprime as reference_is_prime

from lospace import primes
from lospace.primes import (
    DuplicatePrime,
    PrimePool,
    _draw_prime,
    crt_combine,
    is_prime,
)


def sieve_upto(n):
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    i = 2
    while i * i <= n:
        if flags[i]:
            flags[i * i:: i] = b"\x00" * len(flags[i * i:: i])
        i += 1
    return [i for i, f in enumerate(flags) if f]


def test_small_examples():
    rng = random.Random(0)
    assert is_prime(2, rng)
    assert is_prime(97, rng)
    assert not is_prime(91, rng)


def test_agrees_with_trial_division_upto_1e5():
    primes = set(sieve_upto(10 ** 5))
    rng = random.Random(123)
    for x in range(2, 10 ** 5 + 1):
        assert is_prime(x, rng) == (x in primes), x


def test_prime_large_known():
    rng = random.Random(5)
    assert is_prime((1 << 61) - 1, rng)
    assert not is_prime((1 << 61) + 1, rng)
    # Carmichael number 561 must not fool the test
    assert not is_prime(561, rng)
    assert not is_prime(512461, rng)  # another Carmichael


def _draw(k, lower, rng):
    seen = set()
    return [_draw_prime(rng, lower, seen, lower * lower) for _ in range(k)]


def test_sample_basic_and_deterministic():
    out = _draw(3, 16, random.Random(42))
    assert len(out) == len(set(out)) == 3
    primes = set(sieve_upto(256))
    for p in out:
        assert 16 <= p <= 256 and p in primes
    again = _draw(3, 16, random.Random(42))
    assert out == again
    pool = PrimePool().get(16, 3)
    assert PrimePool().get(16, 3) == pool
    assert PrimePool().get(16, 5)[:3] == pool
    assert all(16 <= p <= 256 and p in primes for p in pool)


def test_sample_outputs_pass_primality_and_distinct():
    out = _draw(20, 400, random.Random(9))
    pooled = PrimePool().get(400, 20)  # lower snaps up to 512
    check = random.Random(10)
    for lower, ps in ((400, out), (512, pooled)):
        assert len(set(ps)) == 20
        for p in ps:
            assert is_prime(p, check)
            assert lower <= p <= lower * lower


def test_sample_uniformity_chi_square():
    """Empirical distribution of one draw from [16, 256] over 10^4 seeds is uniform at 1%."""
    targets = [p for p in sieve_upto(256) if p >= 16]
    counts = {p: 0 for p in targets}
    for seed in range(10 ** 4):
        counts[_draw_prime(random.Random(seed), 16, set(), 256)] += 1
    expected = 10 ** 4 / len(targets)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    from scipy.stats import chi2 as chi2_dist
    crit = chi2_dist.ppf(0.99, df=len(targets) - 1)
    assert chi2 < crit, (chi2, crit)


def _prod(ps):
    acc = 1
    for p in ps:
        acc *= p
    return acc


def test_crt_examples():
    assert crt_combine([(3, 2), (5, 3)]) == (15, 8)
    assert crt_combine([(2, 0), (3, 0)]) == (6, 0)
    assert crt_combine([(5, 4)]) == (5, 4)


def test_crt_duplicate_prime():
    with pytest.raises(DuplicatePrime):
        crt_combine([(5, 1), (5, 2)])


def test_crt_property_random():
    rnd = random.Random(77)
    small = sieve_upto(2000)[3:]
    for _ in range(1000):
        ps = rnd.sample(small, rnd.randrange(1, 6))
        x = rnd.randrange(0, _prod(ps))
        P, R = crt_combine([(p, x % p) for p in ps])
        assert P == _prod(ps)
        assert 0 <= R < P
        for p in ps:
            assert R % p == x % p
        assert R == x


def test_capped_window_draws_below_top():
    """With an exclusive top, 2 lower <= top < lower^2, every pooled prime
    lies in [lower, top); the stream is seeded from the window, so two
    pools agree and a longer request extends the shorter one."""
    check = random.Random(11)
    for lower, top, k in ((1 << 29, 1 << 50, 12), (1 << 33, 1 << 50, 12),
                          (1 << 10, (1 << 11) + 1, 12), (16, 32, 4)):
        ps = PrimePool().get(lower, k, top=top)
        assert len(set(ps)) == k
        assert all(lower <= p < top for p in ps)
        assert all(is_prime(p, check) for p in ps)
        assert PrimePool().get(lower, k + 1, top=top)[:k] == ps
    # the capped and the uncapped window are separate streams
    pool = PrimePool()
    wide = pool.get(1 << 29, 4)
    assert pool.get(1 << 29, 4, top=1 << 50) != wide
    assert max(wide) > 1 << 50 and pool.get(1 << 29, 4) == wide


def test_pool_grows_one_prime_at_a_time():
    """get(lower, 1), get(lower, 2), ..., get(lower, k) on one pool each
    extend the same stream: the last call equals get(lower, k) on a fresh
    pool, capped or not, so drawing one prime at a time picks the primes
    a batch would."""
    for lower, top, k in ((1 << 25, None, 9), (1 << 19, 1 << 50, 9),
                          (1 << 30, 1 << 50, 6), (16, 32, 5)):
        pool = PrimePool()
        for count in range(1, k + 1):
            got = pool.get(lower, count, top=top)
        assert got == PrimePool().get(lower, k, top=top)


def test_uncapped_window_keeps_its_stream():
    """A top that caps nothing (top >= lower^2, or top < 2 lower) leaves
    the window [lower, lower^2] and so its stream as they were: the
    pinned primes are the stream's first draws."""
    first = [841997035214077, 1068378927365833, 699209994254021,
             435955549066249, 416975037916757, 1023083417341949,
             412754343464167, 179774701289693]
    assert PrimePool().get(1 << 25, 8) == first
    assert PrimePool().get(1 << 25, 8, top=1 << 50) == first
    assert PrimePool().get(1 << 25, 8, top=(1 << 25) + 5) == first
    assert PrimePool().get(16, 4, top=1 << 50) == [97, 59, 37, 173]


def test_draw_prime_capped_window():
    """_draw_prime honours hi; its budget holds on the narrowest window
    the pool allows, [16, 31]."""
    rng, seen = random.Random(3), set()
    out = [_draw_prime(rng, 16, seen, hi=31) for _ in range(5)]
    assert sorted(out) == [17, 19, 23, 29, 31]


PSI_13 = primes._PSI[-1]


def test_word_size_test_leaves_rng_untouched():
    """Below psi_13 the prime bases decide, so is_prime leaves rng as it
    found it."""
    rnd = random.Random(7)
    xs = [rnd.randrange(513, PSI_13) | 1 for _ in range(200)]
    xs += PrimePool().get(1 << 30, 5, top=1 << 50)
    for x in xs:
        rng = random.Random(x)
        state = rng.getstate()
        assert is_prime(x, rng) == reference_is_prime(x), x
        assert rng.getstate() == state, x


def test_capped_stream_draws_once_per_candidate():
    """A capped 2^50 window's stream, seeded from the label lower|hi,
    spends exactly one randrange per candidate, so its primes are those
    of a replay that draws candidates and keeps each new prime."""
    lower, top = 1 << 30, 1 << 50
    label = f"lospace.primepool|{lower}|{top - 1}"
    rng = random.Random(int.from_bytes(
        hashlib.sha256(label.encode()).digest()[:16], "big"))
    want = []
    while len(want) < 8:
        x = rng.randrange(lower, top)
        if x not in want and reference_is_prime(x):
            want.append(x)
    assert PrimePool().get(lower, 8, top=top) == want


def _spy_pow(monkeypatch):
    calls = []

    def spy(base, exp, mod=None):
        calls.append((base, mod))
        return pow(base, exp, mod)

    monkeypatch.setattr(primes, "pow", spy, raising=False)
    return calls


@pytest.mark.parametrize("lower, top, most", [(1 << 25, 1 << 50, 9),
                                              (1 << 45, None, 31),
                                              (1 << 105, None, 15)],
                         ids=["capped-2^50", "uncapped-2^45", "uncapped-2^105"])
def test_exponentiations_per_accepted_prime(monkeypatch, lower, top, most):
    """An accepted word-size prime costs at most 9 prime bases; one of 82
    to 90 bits, at most 31 random rounds, and one of over 200 bits, 15."""
    calls = _spy_pow(monkeypatch)
    ps = PrimePool().get(lower, 6, top=top)
    for p in ps:
        assert 0 < sum(1 for _, mod in calls if mod == p) <= most, p


def test_boundary_pseudoprimes_are_composite():
    """Every psi_t passes the first t prime bases, yet is_prime finds it
    composite for any seed."""
    for t, x in enumerate(primes._PSI, 1):
        d, r = x - 1, 0
        while d & 1 == 0:
            d >>= 1
            r += 1
        assert not any(primes._witness(a, d, r, x)
                       for a in primes._PRIME_BASES[:t]), t
        for seed in range(50):
            assert not is_prime(x, random.Random(seed)), (t, seed)


def test_psi13_takes_the_random_rounds(monkeypatch):
    """At psi_13 the prime bases no longer decide: every exponentiation is
    on a base drawn from rng, and rng draws no base it does not test."""
    calls = _spy_pow(monkeypatch)
    for seed in range(20):
        calls.clear()
        rng = random.Random(seed)
        assert not is_prime(PSI_13, rng)
        replay = random.Random(seed)
        assert calls and [b for b, _ in calls] == \
            [replay.randrange(2, PSI_13 - 1) for _ in calls]
        assert rng.getstate() == replay.getstate()


def test_verdicts_below_and_above_psi13():
    """On primes and composites below and above psi_13, is_prime gives
    the verdict of an independent Miller-Rabin test."""
    rnd = random.Random(99)
    xs = [rnd.randrange(513, 1 << k) | 1 for k in (12, 33, 50, 63, 81, 90, 130)
          for _ in range(40)]
    xs += PrimePool().get(1 << 30, 5, top=1 << 50) + PrimePool().get(1 << 45, 3)
    for x in xs:
        assert is_prime(x, random.Random(x)) == reference_is_prime(x), x
