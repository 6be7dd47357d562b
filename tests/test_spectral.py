import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from lospace import solver, spectral
from lospace.linop import SparseMatrix
from lospace.numeric import fl_from_bigratio
from lospace.oracle import oracle_det_bareiss, oracle_eigs_bisect
from lospace.spectral import (
    NO,
    YES,
    ResultCountMismatch,
    eigendecompose,
    inv_power,
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
        dense = m.to_dense()
        ad = a.to_dense()
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
    (Cauchy-Schwarz), which is what lets shift_invert stop at the hint."""
    histories = {}
    plateaued = spectral._plateaued

    def spy(history, eps, hint):
        histories[id(history)] = [x.to_fraction() for x in history]
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
    for hist in histories.values():
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
            got = spectral._shifted_det(scaled, m * (1 << s), random.Random(trial))
            shifted = [[int((a[i][j] - (m if i == j else 0)) * 4) for j in range(n)]
                       for i in range(n)]
            if oracle_det_bareiss(shifted) == 0:
                assert got.is_zero(), (a, m)
                zeros += 1
                continue
            if min(abs(x - m) for x in eigs) < 1e-6:
                continue
            assert int(got.sign() < 0) == sum(1 for x in eigs if x < m) % 2, \
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
        counts.append([float(v) for v in out[0]])
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
        dense = b_scaled.to_dense()
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


def _bisect(f, ka, kb, f_lo, f_hi, leaves, stats=None):
    """Reference for spectral._narrow: determinant-sign bisection, one
    determinant per level at the midpoint of the aligned node that is the
    bracket, each node counted in stats as it is split."""
    depth = leaves.bit_length() - 1
    while kb - ka > 1:
        h = (kb - ka).bit_length() - 1
        if stats is not None:
            stats[depth - h] = stats.get(depth - h, 0) + 1
        mid = (ka + kb) // 2
        f_mid = f(mid)
        if f_mid.is_zero():
            return mid
        if f_mid.sign() == f_lo.sign():
            ka, f_lo = mid, f_mid
        else:
            kb = mid
    return ka


def _both_ways(monkeypatch, run):
    """run() with regula falsi, then with the bisection reference, and the
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
    """16 seeded n=4 spectra: the same FixedL bits as bisection, at most 70
    determinants per spectrum on average, a cap bisection's ~123 fails."""
    (got, dets), (want, ref_dets) = _both_ways(
        monkeypatch, lambda: _spectra(4, 16, 104))
    assert got == want
    assert dets / 16 <= 70 < ref_dets / 16, (dets / 16, ref_dets / 16)


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
    isolating split reaches: regula falsi must land on its zero."""
    _unperturbed(monkeypatch)
    a = SparseMatrix.from_dense([[1, 0], [0, -4]])
    (got, _), (want, _) = _both_ways(monkeypatch, lambda: spectrum(a, 0.05, 1))
    assert [float(v) for v in got] == [-4.0, 1.0]
    assert got == want


def test_narrow_on_strongly_curved_values():
    """One eigenvalue inside an aligned node, a cluster of others just
    outside each end: at most two evaluations per node entered, only nodes
    bisection splits, and bisection's leaf."""
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
        got = spectral._narrow(f, ka, kb, f_lo, f_hi, leaves, stats)
        assert got == math.floor(inside)
        assert len(evals) <= 2 * sum(stats.values()), (trial, len(evals))
        assert _bisect(f, ka, kb, f_lo, f_hi, leaves, ref_stats) == got
        assert set(stats.values()) == {1} and set(stats) <= set(ref_stats)


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
