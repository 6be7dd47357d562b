import dataclasses
import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from lospace import meter, solver, spectral
from lospace.meter import int_bits, intvec_bits
from lospace.linop import LinearOperator, SparseMatrix
from lospace.numeric import FloatL, fl_from_bigratio
from lospace.oracle import dense_of, oracle_det_bareiss, oracle_eigs_bisect
from lospace.primes import PrimePool
from lospace.spectral import (
    NO,
    YES,
    ResultCountMismatch,
    eigendecompose,
    inv_power_gap,
    perturb_spectrum,
    shift_invert,
    spectrum,
    svd,
)


def sym_random(rnd, n, u=10):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            a[i][j] = a[j][i] = rnd.randrange(-u, u + 1)
    return a


def inv_power(a, eps, delta, seed):
    """lambda ~=_eps max(delta, min_i |lambda_i|) for symmetric integer a,
    exact 0 when a is singular."""
    return spectral._inverse_power(a, eps, delta, random.Random(seed)).lam


def test_inv_power_examples():
    lam = inv_power(SparseMatrix.from_dense([[2, 0], [0, 5]]), 0.1, Fraction(1, 100), 0)
    assert math.exp(-0.1) * 2 <= float(lam.to_fraction()) <= math.exp(0.1) * 2
    lam = inv_power(SparseMatrix.from_dense([[1, 1], [1, 1]]), 0.1, Fraction(1, 100), 1)
    assert lam.is_zero()
    lam = inv_power(SparseMatrix.identity(3), 0.1, Fraction(2), 2)
    assert math.exp(-0.1) * 2 <= float(lam.to_fraction()) <= math.exp(0.1) * 2


def test_inv_power_bracketing_vs_oracle():
    rnd = random.Random(5)
    checked = 0
    while checked < 8:
        n = rnd.randrange(1, 6)
        a = sym_random(rnd, n, 6)
        eigs = oracle_eigs_bisect(a, 1e-9)
        lam_min = min(abs(x) for x in eigs)
        if lam_min < 1e-6:
            continue
        checked += 1
        delta = Fraction(1, 1000)
        got = float(inv_power(SparseMatrix.from_dense(a), 0.1, delta, checked).to_fraction())
        want = max(float(delta), lam_min)
        assert math.exp(-0.12) * want <= got <= math.exp(0.12) * want, (a, got, want)


def test_inv_power_gap_examples():
    lam, v = inv_power_gap(SparseMatrix.from_dense([[1, 0], [0, 10]]), 0.01, Fraction(1, 2), 3)
    assert abs(float(lam.to_fraction()) - 1) <= 0.05
    assert abs(float(v[0].to_fraction())) >= 0.99
    assert abs(float(v[1].to_fraction())) <= 0.15

    lam, v = inv_power_gap(SparseMatrix.from_dense([[-7]]), 0.01, Fraction(1), 4)
    assert abs(float(lam.to_fraction()) - 7) <= 0.1
    assert abs(abs(float(v[0].to_fraction())) - 1) <= 0.02

    lam, v = inv_power_gap(SparseMatrix.from_dense([[2, 0], [0, -3]]), 0.01, Fraction(1), 5)
    assert abs(float(lam.to_fraction()) - 2) <= 0.05
    assert abs(float(v[0].to_fraction())) >= 0.99


def test_perturb_properties():
    rnd = random.Random(7)
    a = SparseMatrix.from_dense(sym_random(rnd, 5, 9))
    for eps in (0.5, 0.05):
        b = perturb_spectrum(a, eps, rnd)
        # diagonal-only perturbation, every entry within [0, eps/2]
        assert len(b.diag_scaled) == 5
        for v in b.diag_scaled:
            assert 0 <= Fraction(v, 1 << b.scale_pow) <= Fraction(eps) / 2
        # scaled matrix differs from 2^s A only on the diagonal
        s = b.scale_pow + 2
        m = b.scaled(s)
        dense = dense_of(m)
        ad = dense_of(a)
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert dense[i][j] == ad[i][j] << s


def test_perturb_diagonal_case_shifts_exactly():
    a = SparseMatrix.from_dense([[1, 0], [0, 5]])
    rnd = random.Random(3)
    b = perturb_spectrum(a, 0.25, rnd)
    vals = spectrum(a, 0.2, 11)
    assert abs(float(vals[0]) - 1) <= 0.2 and abs(float(vals[1]) - 5) <= 0.2


def test_shift_invert_examples():
    rnd = random.Random(1)
    b10 = SparseMatrix.from_dense([[10 << 4]])
    assert shift_invert(b10, 4, Fraction(0), Fraction(1), rnd) == NO
    b0 = SparseMatrix.from_dense([[0]])
    assert shift_invert(b0, 0, Fraction(-1), Fraction(1), rnd) == YES
    b3 = SparseMatrix.from_dense([[3 << 8]])
    # [2.8984375, 3.1015625] on the 2^-8 grid straddles the eigenvalue
    lo, hi = Fraction(742, 256), Fraction(794, 256)
    assert shift_invert(b3, 8, lo, hi, rnd) == YES


def test_shift_invert_soundness_random():
    """NO implies no eigenvalue in [lo, hi]; YES implies one in the widened
    interval. Checked against the exact oracle on random instances."""
    rnd = random.Random(13)
    for trial in range(60):
        n = rnd.randrange(1, 5)
        a = sym_random(rnd, n, 5)
        eigs = oracle_eigs_bisect(a, 1e-9)
        s = 6
        width = Fraction(rnd.randrange(1, 40), 8)
        lo = Fraction(rnd.randrange(-12 * 8, 12 * 8), 8)
        hi = lo + width
        lo *= Fraction(1 << s, 1 << s)
        ans = shift_invert(SparseMatrix.from_dense([[v << s for v in row] for row in a]),
                           s, lo, hi, rnd)
        inside = [x for x in eigs if lo - 1e-9 <= x <= float(hi) + 1e-9]
        w = float(width) / 4
        widened = [x for x in eigs if float(lo) - w - 1e-9 <= x <= float(hi) + w + 1e-9]
        if ans == NO:
            strict = [x for x in eigs if float(lo) + 1e-9 < x < float(hi) - 1e-9]
            assert not strict, (a, lo, hi, eigs)
        else:
            assert widened, (a, lo, hi, eigs)


def test_inverse_power_estimates_never_rise(monkeypatch):
    """lam = |v| / |M^-1 v| never rises from one iterate to the next
    (Cauchy-Schwarz), which is what lets shift_invert stop at the hint.
    _plateaued sees each estimate as the last of the history, whose
    first estimate starts a run."""
    runs = []
    plateaued = spectral._plateaued

    def spy(history, eps, hint):
        if len(history) == 1:
            runs.append([])
        runs[-1].append(history[-1].to_fraction())
        return plateaued(history, eps, hint)

    monkeypatch.setattr(spectral, "_plateaued", spy)
    rnd = random.Random(13)
    for trial in range(60):
        n = rnd.randrange(1, 5)
        a = sym_random(rnd, n, 5)
        s = 6
        width = Fraction(rnd.randrange(1, 40), 8)
        lo = Fraction(rnd.randrange(-12 * 8, 12 * 8), 8)
        shift_invert(SparseMatrix.from_dense([[v << s for v in row] for row in a]),
                     s, lo, lo + width, rnd)
    steps = 0
    for hist in runs:
        for prev, cur in zip(hist, hist[1:]):
            assert cur <= prev * (1 + Fraction(1, 1 << 30)), hist
            steps += 1
    assert steps >= 100


def test_shifted_determinant_sign_is_count_parity():
    """det(2^s (A - m I)) < 0 iff an odd number of eigenvalues lie below m;
    an exact zero exactly when m is an eigenvalue."""
    rnd = random.Random(41)
    zeros = checked = 0
    for trial in range(40):
        n = rnd.randrange(1, 6)
        a = sym_random(rnd, n, 5)
        if trial % 4 == 0:
            a = [[a[i][j] if i == j else 0 for j in range(n)] for i in range(n)]
        eigs = oracle_eigs_bisect(a, 1e-9)
        s = 4
        scaled = SparseMatrix.from_dense([[v << s for v in row] for row in a])
        for k in range(6):
            m = Fraction(rnd.randrange(-12 * 4, 12 * 4), 4)
            if trial % 4 == 0 and k % 2 == 0:
                m = Fraction(a[k % n][k % n])  # an eigenvalue of a diagonal a
            got = solver.determinant(LinearOperator.shift(scaled, -int(m * (1 << s))),
                                     rng=random.Random(trial))
            shifted = [[int((a[i][j] - (m if i == j else 0)) * 4) for j in range(n)]
                       for i in range(n)]
            if oracle_det_bareiss(shifted) == 0:
                assert got == 0, (a, m)
                zeros += 1
                continue
            if min(abs(x - m) for x in eigs) < 1e-6:
                continue
            assert int(got < 0) == sum(1 for x in eigs if x < m) % 2, \
                (a, m, eigs)
            checked += 1
    assert checked >= 150 and zeros >= 5


def _unperturbed(monkeypatch):
    perturb = spectral.perturb_spectrum

    def no_diagonal(a, eps, rng):
        b = perturb(a, eps, rng)
        return dataclasses.replace(b, diag_scaled=[0] * a.n)

    monkeypatch.setattr(spectral, "perturb_spectrum", no_diagonal)


def test_zero_determinant_at_a_split_point_is_the_eigenvalue(monkeypatch):
    """With no perturbation, +-4 are tree midpoints of [-16, 16]: the zero
    determinants there are reported as the eigenvalues themselves."""
    _unperturbed(monkeypatch)
    vals = spectrum(SparseMatrix.from_dense([[4, 0], [0, -4]]), 0.05, 1)
    assert [float(v) for v in vals] == [-4.0, 4.0]


def test_double_eigenvalue_counts_short(monkeypatch):
    """An unseparated double eigenvalue at a midpoint is reported once per
    attempt: the count comes out short and spectrum raises."""
    _unperturbed(monkeypatch)
    counts = []
    extract = spectral._extract_eigs

    def spy(*args, **kwargs):
        out = extract(*args, **kwargs)
        counts.append([v / 2 ** out[1] for v in out[0]])
        return out

    monkeypatch.setattr(spectral, "_extract_eigs", spy)
    with pytest.raises(ResultCountMismatch):
        spectrum(SparseMatrix.from_dense([[7, 0], [0, 7]]), 0.5, 2)
    assert counts == [[7.0], [7.0]]


def test_shift_invert_sees_only_even_intervals(monkeypatch):
    """No interval whose end determinants differ in sign reaches
    shift_invert, nor one whose midpoint splits it into odd halves; it
    gets the midpoint determinant, and a benchmark-size n=4 spectrum
    makes few calls."""
    calls = []
    shift = spectral.shift_invert

    def spy(b_scaled, scale_pow, lo, hi, rng, det=None):
        dense = dense_of(b_scaled)
        dets = []
        for m in (lo, (lo + hi) / 2, hi):
            ms = int(m * (1 << scale_pow))
            dets.append(oracle_det_bareiss([[v - (ms if i == j else 0)
                                             for j, v in enumerate(row)]
                                            for i, row in enumerate(dense)]))
        signs = [(d > 0) - (d < 0) for d in dets]
        assert signs[0] * signs[2] >= 0, (lo, hi)
        assert signs[0] == signs[1] == signs[2] != 0, (lo, hi)
        assert det == dets[1]
        calls.append((lo, hi))
        return shift(b_scaled, scale_pow, lo, hi, rng, det=det)

    monkeypatch.setattr(spectral, "shift_invert", spy)
    a = sym_random(random.Random(1), 4, 10)
    vals = spectrum(SparseMatrix.from_dense(a), 0.05, 1)
    for got, want in zip(vals, oracle_eigs_bisect(a, 1e-8)):
        assert abs(float(got) - want) <= 0.05
    assert 0 < len(calls) <= 30, len(calls)


def _bisect(f, ka, kb, f_lo, f_hi, leaves, g=0, stats=None):
    """Reference for spectral._narrow: determinant-sign bisection of the
    aligned node (ka, kb), one determinant per level at the midpoint of
    the aligned node that is the bracket, each node counted in stats as it
    is split, down to 2^g leaves: (lo, hi), or (k, k) at a zero."""
    depth = leaves.bit_length() - 1
    while kb - ka > 1 << g:
        h = (kb - ka).bit_length() - 1
        if stats is not None:
            stats[depth - h] = stats.get(depth - h, 0) + 1
        mid = (ka + kb) // 2
        f_mid = f(mid)
        if f_mid.is_zero():
            return mid, mid
        if f_mid.sign() == f_lo.sign():
            ka, f_lo = mid, f_mid
        else:
            kb = mid
    return ka, kb


def _both_ways(monkeypatch, run):
    """run() with ITP narrowing, then with the bisection reference, and the
    spectral determinant calls each made."""
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return solver.determinant(*args, **kwargs)

    monkeypatch.setattr(spectral, "determinant", counting)
    out = []
    for narrow in (spectral._narrow, _bisect):
        monkeypatch.setattr(spectral, "_narrow", narrow)
        calls[0] = 0
        out.append((run(), calls[0]))
    return out


def _spectra(n, count, seed):
    rnd = random.Random(seed)
    return [spectrum(SparseMatrix.from_dense(sym_random(rnd, n, 10)), 0.05, i)
            for i in range(count)]


def test_regula_falsi_matches_bisection_with_fewer_determinants(monkeypatch):
    """16 seeded n=4 spectra: the same FixedL bits as bisection to the same
    eps/2 stop, at most 40 determinants per spectrum on average, a cap
    bisection's ~47.6 fails."""
    (got, dets), (want, ref_dets) = _both_ways(
        monkeypatch, lambda: _spectra(4, 16, 104))
    assert got == want
    assert dets / 16 <= 40 < ref_dets / 16, (dets / 16, ref_dets / 16)


def test_regula_falsi_matches_bisection_n6_eigendecompose_svd(monkeypatch):
    (got, _), (want, _) = _both_ways(monkeypatch, lambda: _spectra(6, 6, 106))
    assert got == want
    rnd = random.Random(3)
    mats = [SparseMatrix.from_dense(sym_random(rnd, 3, 10)) for _ in range(3)]
    (got, _), (want, _) = _both_ways(monkeypatch, lambda: [
        list(eigendecompose(a, 0.05, i)) for i, a in enumerate(mats)])
    assert got == want
    mats = [SparseMatrix.from_dense([[rnd.randrange(-10, 11) for _ in range(2)]
                                     for _ in range(2)]) for _ in range(3)]
    (got, _), (want, _) = _both_ways(monkeypatch, lambda: [
        list(svd(a, 0.05, i)) for i, a in enumerate(mats)])
    assert got == want


def test_eigenvalue_on_a_fine_grid_point_is_exact(monkeypatch):
    """Unperturbed, 1 is a depth-5 grid point of [-16, 16] that no
    isolating split reaches: ITP must land on its zero."""
    _unperturbed(monkeypatch)
    a = SparseMatrix.from_dense([[1, 0], [0, -4]])
    (got, _), (want, _) = _both_ways(monkeypatch, lambda: spectrum(a, 0.05, 1))
    assert [float(v) for v in got] == [-4.0, 1.0]
    assert got == want


def test_narrow_on_strongly_curved_values():
    """One eigenvalue inside an aligned node, a cluster of others just
    outside each end: at most ceil(log2(kb - ka)) + 2 evaluations, each
    node entered once, only nodes bisection splits, and bisection's
    leaf."""
    rnd = random.Random(61)
    depth = 30
    leaves = 1 << depth
    for trial in range(40):
        h = rnd.randrange(2, 25)
        ka = rnd.randrange(leaves >> h) << h
        kb = ka + (1 << h)
        inside = Fraction(rnd.randrange(ka, kb)) + rnd.choice([0, Fraction(1, 3)])
        if inside == ka:
            inside += Fraction(1, 2)
        eigs = [inside]
        eigs += [ka - Fraction(rnd.randrange(1, 100), 1000) for _ in range(trial % 4)]
        eigs += [kb + Fraction(rnd.randrange(1, 100), 1000) for _ in range(3)]
        evals = []

        def f(k):
            evals.append(k)
            v = math.prod(lam - k for lam in eigs)
            return fl_from_bigratio(v.numerator, v.denominator, 64)

        f_lo, f_hi = f(ka), f(kb)
        evals.clear()
        stats, ref_stats = {}, {}
        got = spectral._narrow(f, ka, kb, f_lo, f_hi, leaves, 0, stats)
        k = math.floor(inside)
        assert got == ((k, k) if k == inside else (k, k + 1))
        assert len(evals) <= h + 2, (trial, len(evals))
        assert _bisect(f, ka, kb, f_lo, f_hi, leaves, 0, ref_stats) == got
        assert set(stats.values()) == {1} and set(stats) <= set(ref_stats)


def test_narrow_on_a_huge_grid_is_exact():
    """2^300 leaves, far past a double's 2^53: ITP keeps exact widths,
    finds bisection's leaf or coarser node within ceil(log2((kb - ka) /
    2^g)) + 2 evaluations, and lands on an eigenvalue at a grid point."""
    rnd = random.Random(300)
    depth = 300
    leaves = 1 << depth
    for trial in range(24):
        h = rnd.randrange(60, depth)
        g = rnd.choice([0, 0, rnd.randrange(h)])
        ka = rnd.randrange(leaves >> h) << h
        kb = ka + (1 << h)
        inside = rnd.randrange(ka + 1, kb) + rnd.choice([0, Fraction(1, 7)])
        eigs = [inside, ka - Fraction(1, 3), kb + 5, kb + rnd.randrange(1, 1 << h)]
        evals = []

        def f(k):
            evals.append(k)
            v = math.prod(lam - k for lam in eigs)
            return fl_from_bigratio(v.numerator, v.denominator, 64)

        f_lo, f_hi = f(ka), f(kb)
        evals.clear()
        got = spectral._narrow(f, ka, kb, f_lo, f_hi, leaves, g)
        assert len(evals) <= h - g + 2, (trial, len(evals))
        assert got == _bisect(f, ka, kb, f_lo, f_hi, leaves, g)
        if got[0] == got[1]:
            assert got[0] == inside
        else:
            assert got[1] - got[0] == 1 << g and got[0] < inside < got[1]


def test_off_grid_midpoint_rejected_under_optimize():
    """The dyadic-grid invariant is a raised check, so python -O keeps it."""
    code = (
        "import random\n"
        "from fractions import Fraction\n"
        "from lospace.linop import SparseMatrix\n"
        "from lospace.spectral import shift_invert\n"
        "try:\n"
        "    shift_invert(SparseMatrix.from_dense([[1]]), 0, Fraction(0),\n"
        "                 Fraction(1), random.Random(0))\n"
        "except ValueError as e:\n"
        "    print(e)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    r = subprocess.run([sys.executable, "-O", "-c", code],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "midpoint off the dyadic grid\n"


def test_spectrum_examples():
    vals = spectrum(SparseMatrix.from_entries(3, 3, []), 0.1, 0)
    assert len(vals) == 3 and all(abs(float(v)) <= 0.1 for v in vals)

    vals = spectrum(SparseMatrix.from_dense(
        [[1, 0, 0], [0, 3, 0], [0, 0, 5]]), 0.1, 1)
    for got, want in zip(vals, [1, 3, 5]):
        assert abs(float(got) - want) <= 0.1

    vals = spectrum(SparseMatrix.from_dense([[0, 1], [1, 0]]), 0.05, 2)
    assert abs(float(vals[0]) + 1) <= 0.05 and abs(float(vals[1]) - 1) <= 0.05


def test_spectrum_random_and_level_counts():
    rnd = random.Random(17)
    for trial in range(4):
        n = rnd.randrange(2, 7)
        a = sym_random(rnd, n, 8)
        stats = {}
        vals = spectrum(SparseMatrix.from_dense(a), 0.1, trial, stats=stats)
        want = oracle_eigs_bisect(a, 1e-8)
        assert len(vals) == n
        assert all(float(vals[i]) <= float(vals[i + 1]) + 1e-12 for i in range(n - 1))
        for got, w in zip(vals, want):
            assert abs(float(got) - w) <= 0.1
        # eq:level-size-bound: at most 2n internal YES-nodes per level
        assert max(stats.values()) <= 2 * n, stats


def test_spectrum_stops_at_half_eps(monkeypatch):
    """Held-out n = 4..8 spectra at eps = 0.05: each narrowing stops at a
    node of 2^g leaves no wider than eps/2, g the widest such, and every
    value is within 3 eps / 4 of the oracle (eps/4 from the midpoint,
    eps/2 from the perturbation).  The leaf is at most eps^2 / (32 n^4 U)
    wide, so g >= log2(16 n^4 U / eps) >= 4 for eps < 1; eigendecompose
    narrows to the leaf, g = 0."""
    calls = []
    narrow = spectral._narrow

    def spy(f, ka, kb, f_lo, f_hi, leaves, g=0, stats=None):
        calls.append((leaves, g))
        return narrow(f, ka, kb, f_lo, f_hi, leaves, g, stats)

    monkeypatch.setattr(spectral, "_narrow", spy)
    rnd = random.Random(2108)
    eps = 0.05
    for n in range(4, 9):
        a = sym_random(rnd, n, 10)
        calls.clear()
        vals = spectrum(SparseMatrix.from_dense(a), eps, n)
        for got, want in zip(vals, oracle_eigs_bisect(a, 1e-8)):
            assert abs(float(got) - want) <= 3 * eps / 4, (n, got, want)
        u = max(max(map(abs, row)) for row in a)
        assert calls and len(calls) <= n
        for leaves, g in calls:
            node = Fraction(4 * n * u * 2 ** g, leaves)
            assert g >= 4 and node <= eps / 2 < 2 * node, (n, g)
    calls.clear()
    list(eigendecompose(SparseMatrix.from_dense(sym_random(rnd, 3, 10)), eps, 1))
    assert calls and {g for _, g in calls} == {0}


def test_eigendecompose_residuals():
    rnd = random.Random(23)
    n = 4
    a = sym_random(rnd, n, 8)
    eps = 0.05
    pairs = list(eigendecompose(SparseMatrix.from_dense(a), eps, 3))
    assert len(pairs) == n
    vs = []
    for lam, v in pairs:
        vf = [float(x.to_fraction()) for x in v]
        vs.append(vf)
        nrm = sum(x * x for x in vf)
        assert 1 - eps <= nrm <= 1 + eps
        av = [sum(a[i][j] * vf[j] for j in range(n)) for i in range(n)]
        res = math.sqrt(sum((x - float(lam) * y) ** 2 for x, y in zip(av, vf)))
        assert res <= eps
    for i in range(n):
        for j in range(i):
            assert abs(sum(x * y for x, y in zip(vs[i], vs[j]))) <= eps
    want = oracle_eigs_bisect(a, 1e-8)
    for (lam, _), w in zip(pairs, want):
        assert abs(float(lam) - w) <= eps


def test_eigendecompose_repeated_eigenvalue():
    pairs = list(eigendecompose(SparseMatrix.from_dense([[7, 0], [0, 7]]), 0.1, 4))
    assert len(pairs) == 2
    inner = sum(float(x.to_fraction()) * float(y.to_fraction())
                for x, y in zip(pairs[0][1], pairs[1][1]))
    assert abs(inner) <= 0.1
    for lam, _ in pairs:
        assert abs(float(lam) - 7) <= 0.1


def test_svd_examples():
    trips = list(svd(SparseMatrix.from_dense([[3, 0], [0, 4]]), 0.05, 5))
    sig = sorted(float(s.to_fraction()) for _, s, _ in trips if s is not None)
    assert abs(sig[0] - 3) <= 0.05 and abs(sig[1] - 4) <= 0.05

    trips = list(svd(SparseMatrix.from_dense([[0], [2]]), 0.05, 6))
    sig = [float(s.to_fraction()) for _, s, _ in trips if s is not None]
    assert len(sig) == 1 and abs(sig[0] - 2) <= 0.05

    trips = list(svd(SparseMatrix.from_entries(2, 2, []), 0.4, 7))
    for _, s, _ in trips:
        if s is not None:
            assert float(s.to_fraction()) <= 0.4


def test_zero_matrix_svd_gram_bound_is_the_ridge(monkeypatch):
    """Over a zero 3x2 matrix the operator svd diagonalizes, 2^2t A A^T
    plus the ridge, has the ridge as its entry bound: the floor of 1
    applies once, to a composition, not to the zero matrix below 2^2t.
    The singular values stay within eps of 0 and U is orthonormal."""
    import numpy as np

    grams = []
    eigenvectors = spectral._eigenvectors

    def spy(a, *args, **kwargs):
        grams.append(a)
        return eigenvectors(a, *args, **kwargs)

    monkeypatch.setattr(spectral, "_eigenvectors", spy)
    eps = 0.05
    trips = list(svd(SparseMatrix.from_entries(3, 2, []), eps, 4))
    (gram,) = grams
    assert gram.base.entry_bound == 1
    assert gram.entry_bound == gram.diag[0]
    sig = [float(s.to_fraction()) for _, s, _ in trips if s is not None]
    assert len(sig) == 2 and all(0 <= s <= eps for s in sig)
    U = np.array([[float(x.to_fraction()) for x in u] for u, _, _ in trips])
    assert np.linalg.norm(U @ U.T - np.eye(3), 2) <= eps


def _primes_drawn(monkeypatch, run):
    """run() on a fresh prime pool; the primes drawn, one list per window."""
    pool = PrimePool()
    monkeypatch.setattr(solver, "shared_pool", pool)
    run()
    return [st["primes"] for st in pool._streams.values()]


def test_one_prime_window_per_spectral_call(monkeypatch):
    """Every determinant and lift of a spectrum, eigendecompose or svd
    call draws from the one window of its widest shift: one stream per
    call, where one window per operator took three or four."""
    rnd = random.Random(18)
    sym4 = SparseMatrix.from_dense(sym_random(rnd, 4, 10))
    sym3 = SparseMatrix.from_dense(sym_random(rnd, 3, 10))
    tall = SparseMatrix.from_dense([[rnd.randrange(-10, 11) for _ in range(2)]
                                    for _ in range(3)])
    for run in (lambda: spectrum(sym4, 0.05, 1),
                lambda: list(eigendecompose(sym3, 0.05, 2)),
                lambda: list(svd(tall, 0.05, 3))):
        streams = _primes_drawn(monkeypatch, run)
        assert len(streams) == 1 and streams[0], streams


def test_svd_norm_inequalities():
    import numpy as np

    rnd = random.Random(31)
    n, m = 4, 3
    a = [[rnd.randrange(-5, 6) for _ in range(m)] for _ in range(n)]
    eps = 0.05
    trips = list(svd(SparseMatrix.from_dense(a), eps, 8))
    A = np.array(a, dtype=float)
    U = np.array([[float(x.to_fraction()) for x in u] for u, _, _ in trips]).T
    sig = [float(s.to_fraction()) for _, s, _ in trips if s is not None]
    V = np.array([[float(x.to_fraction()) for x in v]
                  for _, s, v in trips if s is not None]).T
    S = np.zeros((n, m))
    for i, s in enumerate(sig):
        S[i, i] = s
    assert np.linalg.norm(U.T @ U - np.eye(n), 2) <= eps
    assert np.linalg.norm(V.T @ V - np.eye(m), 2) <= eps
    assert np.linalg.norm(A @ V - U @ S, 2) <= eps
    assert np.linalg.norm(A.T @ U - V @ S.T, 2) <= eps


def _spectrum_peak(a, seed):
    m = meter.WorkspaceMeter()
    with m.activate():
        spectrum(SparseMatrix.from_dense(a), 0.05, seed)
    return m.peak_bits, m.by_label["spectrum.bmatrix"][1]


def test_svd_charges_its_operators_diagonals(monkeypatch):
    """svd's operator 2^2t A A^T + ridge I holds two n-entry diagonals,
    the 2^2t of its DIAG_SCALE and the ridge of its SHIFT, for the whole
    call: they are live under spectrum.bmatrix before the eigenvectors
    start, and released when the call ends."""
    seen = []
    eigenvectors = spectral._eigenvectors

    def spy(op, *args, **kwargs):
        live = meter.current().by_label.get("spectrum.bmatrix", [0, 0])[0]
        seen.append((live, meter.intvec_bits(op.diag)
                     + meter.intvec_bits(op.base.diag)))
        yield from eigenvectors(op, *args, **kwargs)

    monkeypatch.setattr(spectral, "_eigenvectors", spy)
    a = SparseMatrix.from_dense([[3, -1], [2, 5], [0, 4]])
    m = meter.WorkspaceMeter()
    with m.activate():
        assert len(list(svd(a, 0.05, 1))) == 3
    (live, bits), = seen
    assert live == bits > 0
    assert m.current_bits == 0


@pytest.mark.parametrize("n", [6, 10])
def test_dense_and_tridiagonal_spectrum_peaks_agree(n):
    """spectrum reads its input through products only: a dense symmetric
    matrix and a tridiagonal one of the same n and U reach the same meter
    peak, up to the bit lengths of their determinant values, and charge
    the same bits for 2^s B and its shifts' diagonals.  Copying 2^s B made the dense
    peak the larger by 800 bits at n = 6 and 3,359 at n = 10."""
    rnd = random.Random(n)
    u = 10
    dense = [[0] * n for _ in range(n)]
    tri = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            dense[i][j] = dense[j][i] = rnd.randrange(-u, u + 1)
            if i - j <= 1:
                tri[i][j] = tri[j][i] = rnd.randrange(-u, u + 1)
    dense[0][0] = tri[0][0] = u
    (peak_dense, b_dense), (peak_tri, b_tri) = (
        _spectrum_peak(dense, 1), _spectrum_peak(tri, 1))
    assert b_dense == b_tri
    assert abs(peak_dense - peak_tri) <= 16, (peak_dense, peak_tri)


def test_spectral_routines_build_no_matrix(monkeypatch):
    """spectrum, eigendecompose and svd compose operators over their input
    and construct no SparseMatrix of their own."""
    rnd = random.Random(9)
    sym = SparseMatrix.from_dense(sym_random(rnd, 3, 10))
    rect = SparseMatrix.from_dense([[rnd.randrange(-10, 11) for _ in range(2)]
                                    for _ in range(3)])
    built = []
    init = SparseMatrix.__init__

    def spy(self, *args, **kwargs):
        built.append(args[:2])
        init(self, *args, **kwargs)

    monkeypatch.setattr(SparseMatrix, "__init__", spy)
    assert len(spectrum(sym, 0.05, 1)) == 3
    assert len(list(eigendecompose(sym, 0.05, 2))) == 3
    assert len(list(svd(rect, 0.05, 3))) == 3
    assert built == []


def _bits(v):
    """Every bit of a spectral output: FixedL, FloatL, None, or lists and
    tuples of them."""
    if isinstance(v, (list, tuple)):
        return [_bits(x) for x in v]
    if v is None:
        return None
    if isinstance(v, FloatL):
        return ("F", v.mantissa, v.exponent, v.L)
    return ("X", v.scaled, v.L)


def _golden_inputs():
    """(i, a, rect) for i < 12: a a seeded symmetric matrix (n = 1..4),
    run at eps 0.1 with seed i; eigendecompose runs on the even ones, and
    svd on rect, a seeded matrix up to 4x2, for the odd ones."""
    rnd = random.Random(2020)
    for i in range(12):
        n = 1 + (i // 2) % 4
        a = SparseMatrix.from_dense(sym_random(rnd, n, 9))
        rect = None
        if i % 2:
            m = 1 + (i // 2) % 2
            rect = SparseMatrix.from_dense([[rnd.randrange(-9, 10) for _ in range(m)]
                                            for _ in range(m + i % 3)])
        yield i, a, rect


SPECTRAL_BITS = (
    "311870f9f5d5081bc34e1eaa218b2241fc8bf0ab4f8119e41da95c23b5d947c4")
SPECTRUM_BITS = (
    "ec66e1c832b6ce83771d488e85c534eaf4cf824fb75c0843925ee9c2e3cfdee5")


def spectral_digest():
    """The sha256 of every output bit of eigendecompose and svd on the
    golden inputs."""
    h = hashlib.sha256()
    for i, a, rect in _golden_inputs():
        out = eigendecompose(a, 0.1, i) if rect is None else svd(rect, 0.1, i)
        h.update(repr(_bits(list(out))).encode())
    return h.hexdigest()


def spectrum_digest():
    """The sha256 of every output bit of spectrum on the golden inputs'
    symmetric matrices."""
    h = hashlib.sha256()
    for i, a, _ in _golden_inputs():
        h.update(repr(_bits(spectrum(a, 0.1, i))).encode())
    return h.hexdigest()


def test_spectral_outputs_match_recorded_bits():
    """eigendecompose and svd on the golden inputs: a new hash means some
    output bit changed for a fixed seed."""
    assert spectral_digest() == SPECTRAL_BITS


def test_spectrum_outputs_match_recorded_bits():
    """spectrum on the golden inputs, recorded with the eps/2 stop."""
    assert spectrum_digest() == SPECTRUM_BITS


def test_empty_matrix_is_refused():
    """spectrum, eigendecompose and svd refuse a 0 x 0 matrix with a
    ValueError that names it, as RationalSolver does, instead of dividing
    by zero."""
    a = SparseMatrix.from_dense([])
    with pytest.raises(ValueError, match="0 x 0"):
        spectrum(a, 0.1, 1)
    with pytest.raises(ValueError, match="0 x 0"):
        list(eigendecompose(a, 0.1, 1))
    with pytest.raises(ValueError, match="0 x 0"):
        list(svd(a, 0.1, 1))


@pytest.mark.parametrize("eps", [0, 1, 100, -0.5, float("nan")])
def test_eps_outside_the_unit_interval_is_refused(eps):
    """spectrum, eigendecompose and svd refuse eps outside (0, 1) with
    ValueError, as RationalSolver and the CLI do.  A larger eps let the
    perturbation move an eigenvalue of diag(1, -1) out of the root
    interval (ResultCountMismatch), and eps = 0 divided by zero."""
    a = SparseMatrix.from_dense([[1, 0], [0, -1]])
    with pytest.raises(ValueError, match="eps"):
        spectrum(a, eps, 1)
    with pytest.raises(ValueError, match="eps"):
        list(eigendecompose(a, eps, 1))
    with pytest.raises(ValueError, match="eps"):
        list(svd(a, eps, 1))


@pytest.mark.parametrize("big", [10 ** 20 + 1, 2 ** 70 + 3, 3 ** 45])
def test_svd_sigma_width_follows_its_magnitude(big):
    """svd of [[3, 0], [big, 0]] at eps 0.1: A^T A = diag(big^2 + 9, 0),
    so sigma is sqrt(big^2 + 9) and 0, each within eps, and
    |A v - sigma u| <= eps.  sigma carries its own integer bits besides
    eps's: at a fixed 64 bits these odd values of 67 to 72 bits came out
    off by 1, 3 and 83."""
    dense = [[3, 0], [big, 0]]
    eps = Fraction(1, 10)
    out = list(svd(SparseMatrix.from_dense(dense), 0.1, 1))
    assert len(out) == 2
    for (u, sigma, v), lam in zip(out, [big * big + 9, 0]):
        s = sigma.to_fraction()
        assert max(s - eps, 0) ** 2 <= lam <= (s + eps) ** 2
        u = [x.to_fraction() for x in u]
        v = [x.to_fraction() for x in v]
        res = [sum(dense[i][j] * v[j] for j in range(2)) - s * u[i]
               for i in range(2)]
        assert sum(r * r for r in res) <= eps * eps


def test_inverse_power_iterates_fit_their_charge(monkeypatch):
    """After every inverse-power iteration of eigendecompose (n = 3) and
    svd (2 x 2) on seeded inputs, U = 10 and eps 0.05: the bits the
    iterates hold never exceed the invpower.iterates charge.  Held is
    int_bits of every entry of the integer vectors and of every float's
    mantissa and exponent: v_int, u and the kept v when u's norm is taken,
    and v_int, the next grid vector and u when the regrid returns."""
    m = meter.WorkspaceMeter()
    seen = []

    def held(ints, floats):
        charge = m.by_label["invpower.iterates"][0]
        bits = sum(intvec_bits(v) for v in ints)
        bits += sum(int_bits(x.mantissa) + int_bits(x.exponent)
                    for vec in floats if vec is not None for x in vec)
        seen.append((bits, charge))

    norm_sq, regrid = spectral._norm_sq, spectral._regrid

    def norm_spy(vec):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_inverse_power":
            loc = caller.f_locals
            held([loc["v_int"]], [loc["u_fl"], loc["v_fl"]])
        return norm_sq(vec)

    def regrid_spy(vec, bits):
        nxt = regrid(vec, bits)
        loc = sys._getframe(1).f_locals
        held([loc["v_int"], nxt or []], [loc["u_fl"]])
        return nxt

    monkeypatch.setattr(spectral, "_norm_sq", norm_spy)
    monkeypatch.setattr(spectral, "_regrid", regrid_spy)
    rnd = random.Random(31)
    with m.activate():
        for seed in range(2):
            sym = SparseMatrix.from_dense(sym_random(rnd, 3, 10))
            list(eigendecompose(sym, 0.05, seed))
            rect = SparseMatrix.from_dense(
                [[rnd.randrange(-10, 11) for _ in range(2)] for _ in range(2)])
            list(svd(rect, 0.05, seed))
    assert seen
    assert all(bits <= charge for bits, charge in seen), max(seen)
