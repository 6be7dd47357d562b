"""Acceptance criteria, one test per criterion, tolerances pinned inline.

Each test prints a single CRITERION line with its outcome and timing, so a
plain `pytest -s tests/test_acceptance.py` doubles as the acceptance
report.
"""

import io
import math
import random
import time
from fractions import Fraction

import pytest

from lospace.cli import bench_run
from lospace.linop import SparseMatrix
from lospace.numeric import fl_from_int, fl_mul, fl_add_scaled
from lospace.oracle import (
    SINGULAR,
    oracle_det_bareiss,
    oracle_eigs_bisect,
    oracle_matrix_minpoly_mod,
    oracle_solve_exact,
)
from lospace.primes import crt_combine
from lospace.solver import RationalSolver, determinant, lin_solve
from lospace.spectral import eigendecompose, shift_invert, spectrum, svd
from lospace.wiedemann import FpSolver, minimal_polynomial


def announce(num, ok, t0, extra=""):
    state = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {num}: {state} ({time.perf_counter() - t0:.1f}s) {extra}")
    assert ok


def rand_dense(rnd, n, lo, hi):
    return [[rnd.randrange(lo, hi + 1) for _ in range(n)] for _ in range(n)]


def mult_close(x, want, eps):
    got = x.to_fraction()
    if want == 0:
        return got == 0
    if got == 0 or (got < 0) != (want < 0):
        return False
    r = float(abs(got / want))
    return math.exp(-eps) <= r <= math.exp(eps)


def test_criterion_01_exact_determinant():
    """200 seeded matrices, n in [1,40], entries in [-50,50]: determinant
    equals the Bareiss oracle exactly every time."""
    t0 = time.perf_counter()
    rnd = random.Random(101)
    failures = 0
    for trial in range(200):
        n = rnd.randrange(1, 41)
        d = rand_dense(rnd, n, -50, 50)
        got = determinant(SparseMatrix.from_dense(d), rng=trial)
        if got != oracle_det_bareiss(d):
            failures += 1
    elapsed = time.perf_counter() - t0
    announce(1, failures == 0 and elapsed < 300, t0, f"failures={failures}/200")


def test_criterion_02_rational_solve_multiplicative():
    """100 seeded invertible systems, n in [2,24], U=50, eps=1e-6: sign and
    e^eps bracket entry-wise against the exact oracle; planted zero entries
    come back exactly zero."""
    t0 = time.perf_counter()
    rnd = random.Random(202)
    eps = 1e-6
    bad = 0
    for trial in range(100):
        n = rnd.randrange(2, 25)
        while True:
            d = rand_dense(rnd, n, -50, 50)
            if oracle_det_bareiss(d) != 0:
                break
        if trial % 7 == 0:
            xs = [rnd.randrange(-9, 10) for _ in range(n)]
            xs[rnd.randrange(n)] = 0
            b = [sum(d[i][j] * xs[j] for j in range(n)) for i in range(n)]
        else:
            b = [rnd.randrange(-50, 51) for _ in range(n)]
        out = lin_solve(SparseMatrix.from_dense(d), b, eps, trial)
        want = oracle_solve_exact(d, b)
        assert not out.singular and want != SINGULAR
        for x, w in zip(out.x, want):
            if not mult_close(x, w, eps):
                bad += 1
    elapsed = time.perf_counter() - t0
    announce(2, bad == 0 and elapsed < 300, t0, f"bad entries={bad}")


def test_criterion_03_large_rhs():
    """n=8, U=10, b entries up to U^n = 1e8: the criterion-2 check holds."""
    t0 = time.perf_counter()
    rnd = random.Random(303)
    eps = 1e-6
    ok = True
    for trial in range(12):
        while True:
            d = rand_dense(rnd, 8, -10, 10)
            if oracle_det_bareiss(d) != 0:
                break
        b = [rnd.randrange(-10 ** 8, 10 ** 8 + 1) for _ in range(8)]
        b[trial % 8] = 10 ** 8 if trial % 2 else -10 ** 8
        out = lin_solve(SparseMatrix.from_dense(d), b, eps, trial)
        want = oracle_solve_exact(d, b)
        for x, w in zip(out.x, want):
            ok = ok and mult_close(x, w, eps)
    announce(3, ok, t0)


def test_criterion_04_singular_detection():
    """50 constructed singular matrices (duplicated rows / zero rows):
    lin_solve answers SINGULAR every time."""
    t0 = time.perf_counter()
    rnd = random.Random(404)
    ok = True
    for trial in range(50):
        n = rnd.randrange(2, 13)
        d = rand_dense(rnd, n, -50, 50)
        if trial % 2:
            i, j = rnd.sample(range(n), 2)
            d[i] = list(d[j])          # duplicated row
        else:
            d[rnd.randrange(n)] = [0] * n  # zero row
        b = [rnd.randrange(-50, 51) for _ in range(n)]
        out = lin_solve(SparseMatrix.from_dense(d), b, 1e-6, trial)
        ok = ok and out.singular
    announce(4, ok, t0)


def test_criterion_05_finite_field_layer():
    """FpSolver solves always satisfy Ax = b mod p (inline verified);
    un-boosted minimal_polynomial with a 31-bit prime recovers the oracle
    minimal polynomial in >= 50% of 200 dense 8x8 trials."""
    t0 = time.perf_counter()
    p = (1 << 31) - 1
    rnd = random.Random(505)
    solved = 0
    for _ in range(40):
        n = rnd.randrange(2, 10)
        d = rand_dense(rnd, n, -20, 20)
        if oracle_det_bareiss(d) % p == 0:
            continue
        b = [rnd.randrange(p) for _ in range(n)]
        a = SparseMatrix.from_dense(d)
        with FpSolver(a, p, rnd) as s:
            x = s.solve(b)
        assert a.apply_mod(x, p) == [v % p for v in b]
        solved += 1
    hits = 0
    for trial in range(200):
        d = rand_dense(random.Random(5050 + trial), 8, -50, 50)
        got = minimal_polynomial(SparseMatrix.from_dense(d), p, boost=1,
                                 rng=random.Random(trial))
        hits += got == oracle_matrix_minpoly_mod(d, p)
    announce(5, solved >= 35 and hits >= 100, t0,
             f"verified solves={solved}, minpoly hits={hits}/200")


def _sym(rnd, n, u):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            a[i][j] = a[j][i] = rnd.randrange(-u, u + 1)
    return a


@pytest.mark.slow
def test_criterion_06_spectrum():
    """50 random symmetric matrices, n <= 10, U = 10, eps = 0.05: sorted,
    correct count, each eigenvalue within eps of the bisection oracle
    (tol 1e-4); the implementation retries at most once internally."""
    t0 = time.perf_counter()
    rnd = random.Random(606)
    eps = 0.05
    worst = 0.0
    for trial in range(50):
        n = rnd.randrange(2, 11) if trial else 1
        a = _sym(rnd, n, 10)
        vals = spectrum(SparseMatrix.from_dense(a), eps, trial)
        want = oracle_eigs_bisect(a, 1e-4)
        assert len(vals) == n
        fv = [float(v) for v in vals]
        assert all(fv[i] <= fv[i + 1] + 1e-12 for i in range(n - 1))
        worst = max(worst, max(abs(g - w) for g, w in zip(fv, want)))
    elapsed = time.perf_counter() - t0
    announce(6, worst <= eps and elapsed < 600, t0, f"worst err={worst:.4f}")


@pytest.mark.slow
def test_criterion_07_eigendecompose_and_svd():
    """Same instance family: residuals |Av - lv| <= eps, |v|^2 in [1 +- eps],
    pairwise inner products <= eps; the four SVD norm inequalities hold at
    eps on dense evaluation for n <= 8."""
    import numpy as np

    t0 = time.perf_counter()
    rnd = random.Random(707)
    eps = 0.05
    ok = True
    for trial in range(20):
        n = rnd.randrange(2, 11)
        a = _sym(rnd, n, 10)
        pairs = list(eigendecompose(SparseMatrix.from_dense(a), eps, trial))
        assert len(pairs) == n
        want = oracle_eigs_bisect(a, 1e-4)
        vs = []
        for (lam, v), w in zip(pairs, want):
            ok = ok and abs(float(lam) - w) <= eps
            vf = [float(x.to_fraction()) for x in v]
            vs.append(vf)
            nrm = sum(x * x for x in vf)
            ok = ok and (1 - eps <= nrm <= 1 + eps)
            av = [sum(a[i][j] * vf[j] for j in range(n)) for i in range(n)]
            res = math.sqrt(sum((x - float(lam) * y) ** 2
                                for x, y in zip(av, vf)))
            ok = ok and res <= eps
        for i in range(n):
            for j in range(i):
                ok = ok and abs(sum(x * y for x, y in zip(vs[i], vs[j]))) <= eps
        assert ok, f"eigendecompose failed on trial {trial}"
    for trial in range(8):
        n = rnd.randrange(2, 9)
        m = rnd.randrange(1, n + 1)
        dense = [[rnd.randrange(-10, 11) for _ in range(m)] for _ in range(n)]
        A = np.array(dense, dtype=float)
        if np.linalg.matrix_rank(A) < m:
            continue
        trips = list(svd(SparseMatrix.from_dense(dense), eps, trial))
        U = np.array([[float(x.to_fraction()) for x in u]
                      for u, _, _ in trips]).T
        sig = [float(s.to_fraction()) for _, s, _ in trips if s is not None]
        V = np.array([[float(x.to_fraction()) for x in v]
                      for _, s, v in trips if s is not None]).T
        S = np.zeros((n, m))
        for i, s in enumerate(sig):
            S[i, i] = s
        ok = ok and np.linalg.norm(U.T @ U - np.eye(n), 2) <= eps
        ok = ok and np.linalg.norm(V.T @ V - np.eye(m), 2) <= eps
        ok = ok and np.linalg.norm(A @ V - U @ S, 2) <= eps
        ok = ok and np.linalg.norm(A.T @ U - V @ S.T, 2) <= eps
        assert ok, f"svd failed on trial {trial}"
    announce(7, ok, t0)


def test_criterion_08_space_scaling():
    """bench --sizes 64,128,256 --epsilon 1e-6: peak_bits/(n log2(nU))
    varies by < 2.5x across sizes, and the n=256 peak stays below 5% of the
    8 n^2 log2(nU) bits a dense-inverse method would hold."""
    t0 = time.perf_counter()
    buf = io.StringIO()
    bench_run([64, 128, 256], 1e-6, 0, buf)
    rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
    ratios = [float(r[4]) for r in rows]
    peak256 = int(rows[-1][3])
    dense_bits = 8 * 256 * 256 * math.log2(256 * 100)
    spread = max(ratios) / min(ratios)
    elapsed = time.perf_counter() - t0
    announce(8, spread < 2.5 and peak256 < 0.05 * dense_bits and elapsed < 900,
             t0, f"ratio spread={spread:.2f}, peak256={peak256} "
                 f"({100 * peak256 / dense_bits:.1f}% of dense)")


def test_criterion_09_block_equivalence():
    """20 seeded instances: K=1 and the default K produce byte-identical
    outputs per coordinate."""
    t0 = time.perf_counter()
    rnd = random.Random(909)
    ok = True
    for trial in range(20):
        n = rnd.randrange(2, 10)
        while True:
            d = rand_dense(rnd, n, -20, 20)
            if oracle_det_bareiss(d) != 0:
                break
        b = [rnd.randrange(-30, 31) for _ in range(n)]
        a = SparseMatrix.from_dense(d)
        eps = 10.0 ** -rnd.randrange(6, 12)
        one = lin_solve(a, b, eps, trial, K=1)
        dflt = lin_solve(a, b, eps, trial)
        ok = ok and [(x.mantissa, x.exponent) for x in one.x] == \
            [(x.mantissa, x.exponent) for x in dflt.x]
    announce(9, ok, t0)


def test_criterion_10_property_suites():
    """The per-module invariant suites, 1000 randomized cases each: float
    error composition, CRT round trip, carry-vector bound, digit
    reconstruction in exact mode, shift-invert soundness, and the <= 2n
    per-level node count."""
    t0 = time.perf_counter()
    rnd = random.Random(1010)

    # float error composition: each exact-operand op rounds once, so a
    # chain of k ops lands within e^(k 2^-L) of the exact value
    for _ in range(1000):
        L = rnd.choice([16, 24, 32])
        x = fl_from_int(rnd.randrange(1, 30), L)
        exact = x.to_fraction()
        ops = rnd.randrange(1, 12)
        for _ in range(ops):
            k = rnd.randrange(1, 9)
            if rnd.random() < 0.5:
                x = fl_add_scaled(x, 1, fl_from_int(k, L))
                exact += k
            else:
                x = fl_mul(x, fl_from_int(k, L))
                exact *= k
        ratio = float(x.to_fraction() / exact)
        bound = math.exp(ops * 2.0 ** -L)
        assert 1 / bound - 1e-12 <= ratio <= bound + 1e-12

    # CRT round trip
    small_primes = [p for p in range(3, 3000)
                    if all(p % q for q in range(2, int(p ** 0.5) + 1))]
    for _ in range(1000):
        ps = rnd.sample(small_primes, rnd.randrange(1, 6))
        prod = math.prod(ps)
        x = rnd.randrange(prod)
        P, R = crt_combine([(p, x % p) for p in ps])
        assert (P, R) == (prod, x)

    # carry bound + digit reconstruction in exact mode (asserted in-loop)
    for trial in range(1000):
        n = rnd.randrange(1, 7)
        while True:
            d = rand_dense(rnd, n, -9, 9)
            if oracle_det_bareiss(d) != 0:
                break
        b = [rnd.randrange(-9, 10) for _ in range(n)]
        with RationalSolver(SparseMatrix.from_dense(d), 1e-4, trial) as s:
            T = s.lift_length(b)
            acc = [0] * n
            pw = 1
            for digits in s.digit_vectors(b, T):  # carry bound asserted inside
                for j in range(n):
                    acc[j] += digits[j] * pw
                pw *= s.prime
        want = oracle_solve_exact(d, b)
        for j in range(n):
            num = want[j] * s.det
            assert num.denominator == 1 and acc[j] % pw == int(num) % pw

    # shift-invert soundness, both directions of the lemma
    hits = 0
    for trial in range(1000):
        n = rnd.randrange(1, 5)
        a = _sym(rnd, n, 5)
        eigs = oracle_eigs_bisect(a, 1e-9)
        sc = 8
        lo = Fraction(rnd.randrange(-10 * 64, 9 * 64), 64)
        hi = lo + Fraction(rnd.randrange(1, 129), 64)
        ans = shift_invert(
            SparseMatrix.from_dense([[v << sc for v in row] for row in a]),
            sc, lo, hi, random.Random(trial))
        w = float(hi - lo) / 4
        if ans == "NO":
            assert not [x for x in eigs
                        if float(lo) + 1e-9 < x < float(hi) - 1e-9]
        else:
            hits += 1
            assert [x for x in eigs
                    if float(lo) - w - 1e-9 <= x <= float(hi) + w + 1e-9]

    # spectrum level counts: <= 2n internal nodes per level
    checked_levels = 0
    for trial in range(12):
        n = rnd.randrange(2, 7)
        a = _sym(rnd, n, 6)
        stats = {}
        spectrum(SparseMatrix.from_dense(a), 0.2, trial, stats=stats)
        assert max(stats.values()) <= 2 * n, stats
        checked_levels += len(stats)
    assert checked_levels >= 100
    announce(10, True, t0, f"shift-invert YES rate {hits}/1000")
