import hashlib
import math
import random

import pytest

from lospace import primes
from lospace.primes import (
    COMPOSITE,
    PRIME,
    DuplicatePrime,
    PrimePool,
    _draw_prime,
    crt_combine,
    window_floor,
)
from lospace.primes import test_prime as check_prime


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
    assert check_prime(2) == PRIME
    assert check_prime(97) == PRIME
    assert check_prime(91, rounds=40, rng=random.Random(0)) == COMPOSITE


def test_agrees_with_trial_division_upto_1e5():
    primes = set(sieve_upto(10 ** 5))
    rng = random.Random(123)
    for x in range(2, 10 ** 5 + 1):
        want = PRIME if x in primes else COMPOSITE
        assert check_prime(x, rounds=12, rng=rng) == want, x


def test_prime_large_known():
    rng = random.Random(5)
    assert check_prime((1 << 61) - 1, rng=rng) == PRIME
    assert check_prime((1 << 61) + 1, rng=rng) == COMPOSITE
    # Carmichael number 561 must not fool the test
    assert check_prime(561, rng=rng) == COMPOSITE
    assert check_prime(512461, rng=rng) == COMPOSITE  # another Carmichael


def _draw(k, lower, rng):
    seen = set()
    return [_draw_prime(rng, lower, seen) for _ in range(k)]


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
            assert check_prime(p, 40, check) == PRIME
            assert lower <= p <= lower * lower


def test_sample_uniformity_chi_square():
    """Empirical distribution of one draw from [16, 256] over 10^4 seeds is uniform at 1%."""
    targets = [p for p in sieve_upto(256) if p >= 16]
    counts = {p: 0 for p in targets}
    for seed in range(10 ** 4):
        counts[_draw_prime(random.Random(seed), 16, set())] += 1
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
        assert all(check_prime(p, 40, check) == PRIME for p in ps)
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
    the window [lower, lower^2] and its seed label as they were: the
    pinned primes are the stream's first draws."""
    first = [224684153252341, 566981378571913, 282345534603607,
             496692797470021, 710033071154423, 1037838347729089,
             224457821524141, 208928608754759]
    assert PrimePool().get(1 << 25, 8) == first
    assert PrimePool().get(1 << 25, 8, top=1 << 50) == first
    assert PrimePool().get(1 << 25, 8, top=(1 << 25) + 5) == first
    assert PrimePool().get(16, 4, top=1 << 50) == [139, 229, 223, 83]


def test_draw_prime_capped_window():
    """_draw_prime honours hi; its budget holds on the narrowest window
    the pool allows, [16, 31]."""
    rng, seen = random.Random(3), set()
    out = [_draw_prime(rng, 16, seen, hi=31) for _ in range(5)]
    assert sorted(out) == [17, 19, 23, 29, 31]


# -- the 40-random-round sampler the settled tests must reproduce ------------

PSI_13 = 3317044064679887385961981


def _mr_rounds(x, rounds, rng):
    """Plain Miller-Rabin on rounds random bases, stopping at a witness."""
    d, r = x - 1, 0
    while d & 1 == 0:
        d >>= 1
        r += 1
    for _ in range(rounds):
        y = pow(rng.randrange(2, x - 1), d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(r - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return COMPOSITE
    return PRIME


def _reference_get(lower, count, top=None):
    """PrimePool.get as 40 random rounds per candidate draw it."""
    lower = window_floor(lower)
    hi = lower * lower
    label = f"lospace.primepool|{lower}"
    if top is not None and 2 * lower <= top < hi:
        hi = top - 1
        label += f"|{hi}"
    rng = random.Random(int.from_bytes(
        hashlib.sha256(label.encode()).digest()[:16], "big"))
    small = set(sieve_upto(511))
    odd_primorial = math.prod(q for q in small if q > 2)
    out = []
    while len(out) < count:
        x = rng.randrange(lower, hi + 1)
        if x in out:
            continue
        if x < 512:
            ok = x in small
        else:
            ok = (x & 1 and math.gcd(x, odd_primorial) == 1
                  and _mr_rounds(x, 40, rng) == PRIME)
        if ok:
            out.append(x)
    return out


def test_settled_streams_match_forty_rounds():
    """Every pool window draws the primes 40 random rounds per candidate
    drew: all windows through 2^64, where the prime bases decide, and
    windows up to 2^260 across the bit lengths of _SAMPLER_ROUNDS."""
    for a in list(range(4, 65)) + [76, 100, 126, 150, 176, 200, 226, 260]:
        tops = (None, 1 << 50) if 26 <= a <= 49 else (None,)
        for top in tops:
            assert PrimePool().get(1 << a, 6, top=top) == \
                _reference_get(1 << a, 6, top), (a, top)


def _spy_pow(monkeypatch):
    calls = []

    def spy(base, exp, mod=None):
        calls.append((base, mod))
        return pow(base, exp, mod)

    monkeypatch.setattr(primes, "pow", spy, raising=False)
    return calls


@pytest.mark.parametrize("lower, top, most", [(1 << 25, 1 << 50, 10),
                                              (1 << 105, None, 15)],
                         ids=["capped-2^50", "uncapped-2^105"])
def test_exponentiations_per_accepted_prime(monkeypatch, lower, top, most):
    """An accepted word-size prime costs one random round plus at most 9
    prime bases; one of over 200 bits, 15 random rounds (40 before)."""
    calls = _spy_pow(monkeypatch)
    ps = PrimePool().get(lower, 6, top=top)
    for p in ps:
        assert 0 < sum(1 for _, mod in calls if mod == p) <= most, p


def test_boundary_pseudoprimes_are_composite():
    """psi_4, psi_9 and psi_12 pass every prime base below their own t but
    not the next one: COMPOSITE for any seed and any number of rounds."""
    for x in (3215031751, 3825123056546413051, 318665857834031151167461):
        for seed in range(50):
            for rounds in (1, 2, 7, 40):
                assert check_prime(x, rounds, random.Random(seed)) == COMPOSITE


def test_psi13_takes_the_random_rounds(monkeypatch):
    """At psi_13 the prime bases no longer decide: every exponentiation is
    on a base drawn from rng, as in plain random rounds."""
    calls = _spy_pow(monkeypatch)
    for seed in range(20):
        calls.clear()
        rng, ref = random.Random(seed), random.Random(seed)
        assert check_prime(PSI_13, 40, rng) == \
            _mr_rounds(PSI_13, 40, ref) == COMPOSITE
        assert rng.getstate() == ref.getstate()
        replay = random.Random(seed)
        assert [b for b, _ in calls] == \
            [replay.randrange(2, PSI_13 - 1) for _ in calls]


def test_settled_test_uses_rng_as_random_rounds_do():
    """On primes and composites below and above psi_13, test_prime gives
    the right verdict (a composite may fool a few random rounds) and,
    wherever random rounds get it right too, leaves rng where they do."""
    rnd = random.Random(99)
    xs = [rnd.randrange(513, 1 << k) | 1 for k in (12, 33, 50, 63, 81, 90, 130)
          for _ in range(40)]
    xs += PrimePool().get(1 << 30, 5, top=1 << 50) + PrimePool().get(1 << 45, 3)
    agreed = 0
    for x in xs:
        truth = _mr_rounds(x, 64, random.Random(-x))
        for rounds in (1, 3, 40):
            rng, ref = random.Random(x), random.Random(x)
            assert check_prime(x, rounds, rng) == truth, x
            if _mr_rounds(x, rounds, ref) == truth:
                assert rng.getstate() == ref.getstate(), x
                agreed += 1
    assert agreed > 0.9 * 3 * len(xs)
