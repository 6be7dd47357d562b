import hashlib
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lospace import kernels, meter, solver, wiedemann
from lospace.cli import bench_matrix
from lospace.linop import DIAG_SCALE, GRAM, LinearOperator, SparseMatrix
from lospace.meter import int_bits
from lospace.numeric import FloatL
from lospace.oracle import SINGULAR as ORACLE_SINGULAR
from lospace.oracle import dense_of, oracle_det_bareiss, oracle_solve_exact
from lospace.solver import (
    RationalSolver,
    SingularMatrix,
    _isqrt_ceil,
    _signed_sums,
    determinant,
    gram_bound,
    hadamard_bound,
    lin_solve,
    linear_regression,
    row_norm_bound,
)
from lospace.primes import PrimePool, shared_pool, window_floor
from lospace.wiedemann import FpSolver, RetriesExhausted


def rand_dense(rnd, n, lo=-9, hi=9):
    return [[rnd.randrange(lo, hi + 1) for _ in range(n)] for _ in range(n)]


def rand_invertible(rnd, n, lo=-9, hi=9):
    while True:
        d = rand_dense(rnd, n, lo, hi)
        if oracle_det_bareiss(d) != 0:
            return d


def test_determinant_runs_word_size_kernels(monkeypatch):
    """A dense 20 x 20 determinant draws CRT primes below 2^50, so every
    Krylov call is an int64 kernel call; the result is exact."""
    rnd = random.Random(20)
    d = [[rnd.choice((-1, 1)) * rnd.randrange(1, 101) for _ in range(20)]
         for _ in range(20)]
    a = SparseMatrix.from_dense(d)
    calls = []
    krylov = kernels.Field.krylov

    def spy(self, coo, *args, **kwargs):
        calls.append(kernels.word_size(self.p, coo[3]))
        return krylov(self, coo, *args, **kwargs)

    monkeypatch.setattr(kernels.Field, "krylov", spy)
    assert determinant(a, rng=5) == oracle_det_bareiss(d)
    assert calls and all(calls)


def test_determinant_examples():
    assert determinant(SparseMatrix.identity(5), rng=1) == 1
    assert determinant(SparseMatrix.from_dense([[0, 1], [1, 0]]), rng=2) == -1
    rnd = random.Random(7)
    for _ in range(10):
        d = rand_dense(rnd, 6)
        a = SparseMatrix.from_dense(d)
        assert determinant(a, rng=rnd) == oracle_det_bareiss(d)


def test_determinant_small_and_singular():
    assert determinant(SparseMatrix.from_dense([[-37]]), rng=3) == -37
    assert determinant(SparseMatrix.from_dense([[50]]), rng=3) == 50
    assert determinant(SparseMatrix.from_dense([[1, 2], [2, 4]]), rng=4) == 0
    z = SparseMatrix.from_entries(3, 3, [])
    assert determinant(z, rng=5) == 0


def test_determinant_matches_oracle_various_sizes():
    rnd = random.Random(11)
    for n in (1, 2, 3, 5, 8, 12):
        d = rand_dense(rnd, n, -50, 50)
        assert determinant(SparseMatrix.from_dense(d), rng=rnd) == oracle_det_bareiss(d)


def test_hadamard_bound_dominates():
    rnd = random.Random(13)
    for _ in range(50):
        n = rnd.randrange(1, 6)
        d = rand_dense(rnd, n, -7, 7)
        u = max(max(abs(x) for x in row) for row in d) or 1
        assert abs(oracle_det_bareiss(d)) <= hadamard_bound(n, u)


def _sylvester(order):
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-v for v in row] for row in h]
    return h


def test_row_norm_bound_is_tight_on_hadamard_matrices():
    """Sylvester-Hadamard matrices have orthogonal rows, and so have their
    copies with rows sign-flipped or scaled: |det| equals the row-norm
    bound exactly, so the CRT product must clear exactly 2 |det|."""
    rnd = random.Random(31)
    for order in (1, 2, 4, 8, 16):
        h = _sylvester(order)
        flipped = [[-v for v in row] if rnd.random() < 0.5 else row for row in h]
        scales = [rnd.choice((-1, 1)) * rnd.randrange(1, 9) for _ in h]
        scaled = [[s * v for v in row] for s, row in zip(scales, h)]
        for d in (h, flipped, scaled):
            a = SparseMatrix.from_dense(d)
            want = oracle_det_bareiss(d)
            assert row_norm_bound(a) == abs(want)
            assert row_norm_bound(a) <= hadamard_bound(order, a.entry_bound)
            assert determinant(a, rng=order) == want


def test_zero_row_determinant_draws_no_prime(monkeypatch):
    """A missing row, or a row of stored zeros, makes the row-norm bound
    0: the determinant is 0 without any finite-field work."""
    def fail(*args, **kwargs):
        raise AssertionError("determinant_zp called")

    monkeypatch.setattr(solver, "determinant_zp", fail)
    missing = SparseMatrix.from_entries(3, 3, [(0, 0, 5), (2, 1, 7), (2, 2, 1)])
    stored = SparseMatrix.from_entries(2, 2, [(0, 0, 3), (1, 0, 0), (1, 1, 0)])
    for a in (missing, stored):
        assert row_norm_bound(a) == 0
        assert determinant(a, rng=1) == 0


def _block_diagonal(b, copies):
    """diag(b, ..., b) with `copies` blocks: derogatory whenever copies > 1,
    as each eigenvalue of b has as many Jordan blocks."""
    n = b.n
    return SparseMatrix.from_entries(
        copies * n, copies * n,
        [(k * n + i, k * n + j, v) for k in range(copies)
         for i, j, v in zip(b.rows, b.cols, b.vals)])


def _spy_on_determinant_zp(monkeypatch):
    """The list of primes solver.determinant hands to determinant_zp."""
    calls = []
    zp = solver.determinant_zp

    def spy(op, p, *args, **kwargs):
        calls.append(p)
        return zp(op, p, *args, **kwargs)

    monkeypatch.setattr(solver, "determinant_zp", spy)
    return calls


def _spy_on_lift(monkeypatch):
    """The list of denominators d that solver.determinant's lifts return."""
    found = []
    lift = solver._lift_denominator

    def spy(*args):
        found.append(lift(*args))
        return found[-1]

    monkeypatch.setattr(solver, "_lift_denominator", spy)
    return found


def _c_primes(lower, bound, d, top=None, pool=shared_pool):
    """The primes whose residues give c = det / d: the shortest pool
    prefix whose primes not dividing d multiply past bound / d, with the
    primes dividing d left out."""
    primes, prod, k = [], 1, 0
    while prod * d <= bound:
        k += 1
        q = pool.get(lower, k, top=top)[-1]
        if d % q:
            primes.append(q)
            prod *= q
    return primes


def _pool_prefix(lower, bound, top=None):
    """Length of the shortest shared-pool prefix whose product exceeds bound."""
    k, prod = 0, 1
    while prod <= bound:
        k += 1
        prod = math.prod(shared_pool.get(lower, k, top=top))
    return k


def test_determinant_stops_at_the_row_norm_bound(monkeypatch):
    """On seeded tridiagonal-plus-noise matrices (n = 64, U = 100) the
    determinant lifts one divisor d > 1 of det at the first prime of the
    operator's pool window [n^3 U, ..^2], then computes one residue per
    prime of the shortest prefix of that window, primes dividing d left
    out, whose product exceeds 2 H / d, H the row-norm bound.  That is
    fewer primes than the prefix past 2 H that the CRT of det itself
    needs, which is fewer than the entry-bound form U^n n^(n/2) needs."""
    calls = _spy_on_determinant_zp(monkeypatch)
    lifts = _spy_on_lift(monkeypatch)
    n = 64
    for seed in (1, 2, 3):
        a = bench_matrix(n, random.Random(seed))
        lower = max(16, n ** 3 * a.entry_bound)
        top = a.prime_top()
        calls.clear()
        lifts.clear()
        det = determinant(a, rng=seed)
        (d,) = lifts
        assert det != 0 and d > 1 and det % d == 0
        bound = 2 * row_norm_bound(a)
        assert calls == _c_primes(lower, bound, d, top)
        assert len(calls) < _pool_prefix(lower, bound, top)
        assert _pool_prefix(lower, bound, top) < _pool_prefix(
            lower, 2 * hadamard_bound(n, a.entry_bound), top)


def test_gram_determinant_stops_at_the_column_norm_bound(monkeypatch):
    """det(A^T A) <= prod_j |col_j|^2 = H (Hadamard, A^T A positive
    semidefinite): the determinant of a Gram operator lifts a divisor d of
    det, then computes one residue per prime of the shortest pool prefix,
    primes dividing d left out, whose product exceeds 2 H / d.  That is
    fewer primes than the prefix past 2 H, which is fewer than the
    entry-bound form needs, and the result matches the oracle."""
    calls = _spy_on_determinant_zp(monkeypatch)
    lifts = _spy_on_lift(monkeypatch)
    rnd = random.Random(7)
    n, m = 24, 8
    dense = [[rnd.randrange(-100, 101) for _ in range(m)] for _ in range(n)]
    a = SparseMatrix.from_dense(dense)
    gram = LinearOperator.gram(a)
    lower = max(16, m ** 3 * gram.entry_bound)
    top = gram.prime_top()
    bound = math.prod(sum(row[j] ** 2 for row in dense) for j in range(m))
    assert gram_bound(a) == bound
    det = determinant(gram, rng=5)
    (d,) = lifts
    assert det % d == 0
    assert calls == _c_primes(lower, 2 * bound, d, top)
    assert len(calls) < _pool_prefix(lower, 2 * bound, top)
    assert _pool_prefix(lower, 2 * bound, top) < _pool_prefix(
        lower, 2 * hadamard_bound(m, gram.entry_bound), top)
    gram_dense = [[sum(row[i] * row[j] for row in dense) for j in range(m)]
                  for i in range(m)]
    assert det == oracle_det_bareiss(gram_dense)


class _HeadPool:
    """The shared pool with given primes moved to the front of every
    stream."""

    def __init__(self, head):
        self.head = head

    def get(self, lower, count, top=None):
        rest = shared_pool.get(lower, count + len(self.head), top=top)
        return (self.head + [q for q in rest if q not in self.head])[:count]


def _lower_unit(rnd, n):
    return [[1 if i == j else rnd.randrange(-3, 4) if j < i else 0
             for j in range(n)] for i in range(n)]


def _times(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)]
            for row in x]


def _with_pivots(rnd, pivots):
    """L diag(pivots) L'^T for unit lower-triangular L, L' with small
    entries: a dense matrix whose determinant is prod(pivots)."""
    n = len(pivots)
    low = _lower_unit(rnd, n)
    up = [list(col) for col in zip(*_lower_unit(rnd, n))]
    mid = [[v if i == j else 0 for j in range(n)]
           for i, v in enumerate(pivots)]
    return _times(_times(low, mid), up)


def test_determinant_is_d_times_c_on_seeded_families(monkeypatch):
    """det = d c equals Bareiss on seeded sparse, dense and Gram families,
    singular ones included: a nonzero residue at the first prime lifts a
    divisor d of det, and a singular matrix's zero residue runs no lift."""
    lifts = _spy_on_lift(monkeypatch)
    rnd = random.Random(2026)
    cases = []
    for n in (8, 16, 33):
        sparse = bench_matrix(n, rnd)
        dense = [[0] * n for _ in range(n)]
        for i, j, v in zip(sparse.rows, sparse.cols, sparse.vals):
            dense[i][j] = v
        cases.append((sparse, dense))
        # a repeated row makes it singular
        twice = [row[:] for row in dense]
        twice[n - 1] = twice[0][:]
        cases.append((SparseMatrix.from_dense(twice), twice))
    for n in (5, 12):
        dense = _dense_nonzero(rnd, n, n, 100)
        cases.append((SparseMatrix.from_dense(dense), dense))
        low = [row[:] for row in dense]
        low[1] = [2 * v for v in low[0]]
        cases.append((SparseMatrix.from_dense(low), low))
    for n, m in ((20, 6), (30, 9)):
        tall = _dense_nonzero(rnd, n, m, 100)
        for cols in (tall, [row[:m - 1] + [row[0]] for row in tall]):
            ata = [[sum(r[i] * r[j] for r in cols) for j in range(m)]
                   for i in range(m)]
            cases.append((LinearOperator.gram(SparseMatrix.from_dense(cols)),
                          ata))
    singular = 0
    for k, (op, dense) in enumerate(cases):
        lifts.clear()
        want = oracle_det_bareiss(dense)
        assert determinant(op, rng=k) == want
        if want == 0:
            singular += 1
            assert lifts == []
        else:
            (d,) = lifts
            assert want % d == 0
    assert singular == 7


def test_prime_dividing_det_falls_back_to_the_crt(monkeypatch):
    """When the first prime divides det, its residue is 0 and no lift
    runs: the CRT over that prime and the next ones decides det, exactly,
    as before the lift existed.  The pool is patched to put such a prime
    first."""
    calls = _spy_on_determinant_zp(monkeypatch)
    lifts = _spy_on_lift(monkeypatch)
    rnd = random.Random(97)
    q = 1_000_003
    dense = _with_pivots(rnd, [q, 7, -5, 3, 11, 2])
    a = SparseMatrix.from_dense(dense)
    assert oracle_det_bareiss(dense) == q * 7 * -5 * 3 * 11 * 2
    assert a._fused(q)
    pool = _HeadPool([q])
    monkeypatch.setattr(solver, "shared_pool", pool)
    assert determinant(a, rng=3) == q * 7 * -5 * 3 * 11 * 2
    assert lifts == []
    lower, top = solver._prime_window(a)
    assert calls == _c_primes(lower, 2 * row_norm_bound(a), 1, top, pool)
    assert calls[0] == q


def test_prime_dividing_d_is_skipped(monkeypatch):
    """A prime that divides the lift's denominator d carries no residue
    of c = det / d: the CRT skips it and takes the next one.  The pool is
    patched to put such a prime second; det is still exact."""
    calls = _spy_on_determinant_zp(monkeypatch)
    lifts = _spy_on_lift(monkeypatch)
    rnd = random.Random(98)
    q = 1_000_003
    pivots = [q, q, 9, -7, 5, 3]
    dense = _with_pivots(rnd, pivots)
    a = SparseMatrix.from_dense(dense)
    want = math.prod(pivots)
    assert oracle_det_bareiss(dense) == want
    lower, top = solver._prime_window(a)
    p = shared_pool.get(lower, 1, top=top)[0]
    assert want % p
    pool = _HeadPool([p, q])
    monkeypatch.setattr(solver, "shared_pool", pool)
    assert determinant(a, rng=4) == want
    (d,) = lifts
    assert d % q == 0 and want % d == 0
    assert calls == _c_primes(lower, 2 * row_norm_bound(a), d, top, pool)
    assert calls[0] == p and q not in calls and len(calls) > 1


def test_sparse_determinant_runs_at_most_three_berlekamp_massey_calls(
        monkeypatch):
    """On the seeded n = 64 tridiagonal-plus-noise family a determinant
    makes at most 3 Berlekamp-Massey calls: the residue at the lift prime
    and those of c = det / d, where the CRT of det itself makes one per
    prime, 9 on this family."""
    count = []
    bm = kernels.Field.berlekamp_massey

    def spy(self, seq):
        count.append(len(seq))
        return bm(self, seq)

    monkeypatch.setattr(kernels.Field, "berlekamp_massey", spy)
    for seed in (1, 2, 3, 4, 5):
        count.clear()
        assert determinant(bench_matrix(64, random.Random(seed)), rng=seed)
        assert 1 <= len(count) <= 3


@settings(max_examples=300, deadline=None)
@given(num=st.integers(-10 ** 30, 10 ** 30), den=st.integers(1, 10 ** 20),
       slack=st.integers(0, 10 ** 6))
def test_reconstruction_recovers_every_fraction_in_bounds(num, den, slack):
    """For M > 2 (N + 1) H, N >= |num| and H >= den, the reconstruction
    returns den / gcd(num, den) from num / den mod M alone."""
    nb, h = abs(num) + slack, den + slack
    M = next(q for q in range(2 * (nb + 1) * h + 1, 2 * (nb + 1) * h + 10 ** 4)
             if math.gcd(q, den) == 1)
    v = num * pow(den, -1, M) % M
    got = solver._reconstructed_denominator(v, M, nb, h)
    assert got == den // math.gcd(num, den)


def test_determinant_lift_charges_what_it_holds(monkeypatch):
    """On seeded sparse, dense and Gram operators, after every lift digit
    and every reconstruction step, the determinant's new buffers hold at
    most what is charged: b', r and the running r.x (with the
    reconstruction's r0, r1, t0, t1 and quotient) as lift.accumulators,
    M and the power of p as lift.ppow, the FpSolver's diagonal as
    det.diag (none, 0 bits, where the first Wiedemann run certified) and
    its recurrence as fpsolver.poly; the meter balances.  diag(B, B) is
    derogatory, so its lift runs on a preconditioned copy and the
    det.diag check meets a diagonal there."""
    m = meter.WorkspaceMeter()
    lift_digits = solver._lift_digits
    checks = []

    def live(label):
        return m.by_label.get(label, [0])[0]

    def digits_spy(op, u, fp, b, mult, T):
        caller = sys._getframe(1)
        for digits in lift_digits(op, u, fp, b, mult, T):
            yield digits
            if caller.f_code.co_name != "_lift_denominator":
                continue
            held = caller.f_locals
            assert (int_bits(held["acc"]) + meter.intvec_bits(held["b"])
                    + meter.intvec_bits(held["r"])
                    <= live("lift.accumulators"))
            assert (int_bits(held["ppow"]) + int_bits(held["M"])
                    <= live("lift.ppow"))
            assert meter.intvec_bits(fp._diag or ()) <= live("det.diag")
            assert meter.intvec_bits(fp._gbar) <= live("fpsolver.poly")
            checks.append("digit" if fp._diag is None else "diag digit")

    code = solver._reconstructed_denominator.__code__

    def steps(frame, event, arg):
        if event == "line":
            outer = frame.f_back.f_locals
            held = sum(int_bits(frame.f_locals[name])
                       for name in ("r0", "r1", "t0", "t1", "q")
                       if name in frame.f_locals)
            held += (int_bits(outer["acc"]) + meter.intvec_bits(outer["b"])
                     + meter.intvec_bits(outer["r"]))
            assert held <= live("lift.accumulators")
            checks.append("step")
        return steps

    def calls(frame, event, arg):
        return steps if event == "call" and frame.f_code is code else None

    monkeypatch.setattr(solver, "_lift_digits", digits_spy)
    rnd = random.Random(3)
    ops = [bench_matrix(40, rnd),
           SparseMatrix.from_dense(_dense_nonzero(rnd, 12, 12, 100)),
           LinearOperator.gram(SparseMatrix.from_dense(
               _dense_nonzero(rnd, 30, 9, 100))),
           _block_diagonal(bench_matrix(8, rnd), 2)]
    previous = sys.gettrace()
    for k, op in enumerate(ops):
        checks.clear()
        sys.settrace(calls)
        try:
            with m.activate():
                assert determinant(op, rng=k) != 0
        finally:
            sys.settrace(previous)
        digit = "digit" if k < 3 else "diag digit"
        assert digit in checks and "step" in checks
        assert m.current_bits == 0
        assert {label: v for label, (v, _) in m.by_label.items() if v} == {}


def test_solve_reuses_the_determinants_recurrence(monkeypatch):
    """RationalSolver keeps the FpSolver its determinant lifted with when
    its own lift prime is that prime, as it is on a plain sparse matrix
    and on a Gram operator: a solve then runs no Wiedemann trial, and its
    output equals the one from a solver that built its own recurrence."""
    trials = []
    trial = wiedemann._one_wiedemann_trial

    def spy(*args):
        trials.append(args[0].kind)
        return trial(*args)

    monkeypatch.setattr(wiedemann, "_one_wiedemann_trial", spy)
    rnd = random.Random(11)
    sparse = bench_matrix(64, rnd)
    gram = LinearOperator.gram(SparseMatrix.from_dense(
        _dense_nonzero(rnd, 40, 12, 100)))
    for op in (sparse, gram):
        b = [rnd.randrange(-100, 101) for _ in range(op.n)]
        kept = []
        det = determinant(op, rng=5, keep=kept)
        with RationalSolver(op, 1e-6, 5) as s:
            assert s._fp is not None and s._fp.p == s.prime == kept[0].p
            trials.clear()
            x = s.solve(b).x
            assert trials == []
        with RationalSolver(op, 1e-6, 5, det=det) as own:
            assert own.prime == s.prime
            assert own.solve(b).x == x
            assert trials == [op.kind]


def test_recurrence_is_built_before_the_lift_buffers(monkeypatch):
    """Where no residue is handed over, after the spectral-style det=
    hand-off, the solver's Wiedemann trial runs before any lift buffer
    opens.  A dense U = 10^12 matrix, whose determinant and lift both
    draw from the n^2 U window, keeps the determinant's FpSolver and runs
    no trial at all."""
    m = meter.WorkspaceMeter()
    trials = []
    trial = wiedemann._one_wiedemann_trial

    def spy(*args):
        trials.append([label for label, (v, _) in m.by_label.items()
                       if v and label.startswith("lift.")])
        return trial(*args)

    monkeypatch.setattr(wiedemann, "_one_wiedemann_trial", spy)
    rnd = random.Random(40)
    sparse = bench_matrix(24, rnd)
    band = SparseMatrix.from_dense(_dense_nonzero(rnd, 12, 12, 10 ** 12))
    assert 2 * window_floor(12 ** 3 * band.entry_bound) > band.prime_top()
    b = [rnd.randrange(-100, 101) for _ in range(sparse.n)]
    with RationalSolver(sparse, 1e-6, 7, det=determinant(sparse, rng=1)) as s:
        assert s._fp is None
        with m.activate():
            trials.clear()
            s.solve(b)
    assert trials and trials == [[]] * len(trials)
    b = [rnd.randrange(-100, 101) for _ in range(band.n)]
    with RationalSolver(band, 1e-6, 7) as s:
        assert s._fp is not None and s.prime < band.prime_top()
        trials.clear()
        s.solve(b)
    assert trials == []


def test_lin_solve_refuses_the_empty_system():
    """A 0 x 0 system raises a ValueError that names it, not a math
    domain error from a logarithm of n U."""
    with pytest.raises(ValueError, match="nonempty system"):
        lin_solve(SparseMatrix.from_entries(0, 0, []), [], 1e-6)


def test_row_norm_bound_with_b_dominates_cramer_numerators():
    """row_norm_bound(a, b) bounds |det| of a with any one column replaced
    by b, so lifting det * a^-1 b to that many digits is exact."""
    rnd = random.Random(17)
    for trial in range(60):
        n = rnd.randrange(1, 6)
        d = rand_invertible(rnd, n)
        b = [rnd.randrange(-30, 31) for _ in range(n)]
        bound = row_norm_bound(SparseMatrix.from_dense(d), b)
        for i in range(n):
            di = [row[:i] + [bj] + row[i + 1:] for row, bj in zip(d, b)]
            assert abs(oracle_det_bareiss(di)) <= bound


def _lift_length_entry_bound(self, b):
    """RationalSolver.lift_length as it was before the row-norm bound."""
    n, u = self.n, self.u
    colnorm = u * _isqrt_ceil(n)
    bnorm = max((abs(x) for x in b), default=0) * _isqrt_ceil(n)
    bound = 2 * colnorm ** max(0, n - 1) * max(1, bnorm)
    T, ppow = 1, self.prime
    while ppow <= bound:
        ppow *= self.prime
        T += 1
    return T


def test_lift_length_from_the_row_norm_bound(monkeypatch):
    """On seeded tridiagonal-plus-noise systems (n = 64, U = 100) the
    row-norm lift length is shorter than the entry-bound one and never
    longer, also when |b| dwarfs U, and the solves at either length land
    within e^eps of the exact solution: the digits it drops are past the
    exact value.  (The accumulator precision grows with T, so the two
    lengths need not give the same bits.)"""
    n = 64
    for seed in (1, 2, 3):
        rnd = random.Random(seed)
        a = bench_matrix(n, rnd)
        b = [rnd.randrange(-100, 101) for _ in range(n)]
        with RationalSolver(a, 1e-6, seed) as s:
            assert s.lift_length(b) < _lift_length_entry_bound(s, b)
            huge = [x * 10 ** 60 for x in b]
            assert s.lift_length(huge) <= _lift_length_entry_bound(s, huge)
        dense = [[0] * n for _ in range(n)]
        for i, j, v in zip(a.rows, a.cols, a.vals):
            dense[i][j] += v
        want = oracle_solve_exact(dense, b)
        for eps in (1e-6, 1e-30):
            new = lin_solve(a, b, eps, seed).x
            with monkeypatch.context() as mp:
                mp.setattr(RationalSolver, "lift_length",
                           _lift_length_entry_bound)
                old = lin_solve(a, b, eps, seed).x
            for x_new, x_old, w in zip(new, old, want):
                assert _close_mult(x_new, w, eps)
                assert _close_mult(x_old, w, eps)


def test_bad_eps_raises_before_the_determinant(monkeypatch):
    """eps outside (0, 1) is rejected before any determinant work, so
    the meter is balanced after the raise."""
    calls = []

    def det(*args, **kwargs):
        calls.append(args)
        return 5

    monkeypatch.setattr(solver, "determinant", det)
    a = SparseMatrix.from_dense([[2, 1], [1, 3]])
    m = meter.WorkspaceMeter()
    with m.activate():
        for eps in (0.0, 1.0, 2.0, -1e-6):
            with pytest.raises(ValueError, match="eps"):
                lin_solve(a, [1, 2], eps)
    assert calls == []
    assert m.current_bits == 0


def _balanced_digits(z, p, T):
    """The T balanced base-p digits of z, |z| <= (p^T - 1)/2."""
    digits = []
    for _ in range(T):
        d = z % p
        d -= p if d > p // 2 else 0
        digits.append(d)
        z = (z - d) // p
    assert z == 0
    return digits


def _summed(digits, p, L):
    """_signed_sums over one coordinate's digit stream, as a Fraction."""
    (s,) = _signed_sums(([d] for d in digits), 0, 1, p, L)
    return s.to_fraction()


def test_signed_sums_match_enumeration():
    """For small p and T, every balanced digit string, so every z with
    |z| <= (p^T - 1)/2, maximal cancellation (a top digit +-1 over an
    opposite partial sum near p^t / 2) and z = 0 included: the one
    signed accumulator lands within 4 2^-L |z| of z = sum d_i p^i at
    mantissas down to L = 4, z = 0 stays exactly 0, and at
    L = T (bitlen(p) + 1) + 8, the exact accumulator width, every sum is
    z itself."""
    for p, T in ((3, 6), (5, 5), (7, 4), (11, 3)):
        top = (p ** T - 1) // 2
        for z in range(-top, top + 1):
            digits = _balanced_digits(z, p, T)
            for L in (4, 6, 9):
                got = _summed(digits, p, L)
                assert abs(got - z) <= Fraction(4 * abs(z), 2 ** L), (p, z, L)
            assert _summed(digits, p, T * (p.bit_length() + 1) + 8) == z
    # maximal cancellation at a word-size prime: a top digit +-1 over the
    # opposite partial sum -+(p^t - 1)/2, and random strings, at L = 16
    p, rnd = 2 ** 31 - 1, random.Random(7)
    h = (p - 1) // 2
    for t in range(1, 8):
        for sign in (1, -1):
            digits = [-sign * h] * t + [sign] + [0] * 2
            z = sum(d * p ** i for i, d in enumerate(digits))
            assert abs(_summed(digits, p, 16) - z) <= Fraction(4 * abs(z), 2 ** 16)
        digits = [rnd.randint(-h, h) for _ in range(t + 1)]
        z = sum(d * p ** i for i, d in enumerate(digits))
        assert abs(_summed(digits, p, 16) - z) <= Fraction(4 * abs(z), 2 ** 16)


def test_digits_past_the_top_are_skipped(monkeypatch):
    """A solve that runs T + 3 digits gives the same bits as one that
    runs T: balanced digits past the top of det x_i are zero, so no
    accumulator takes them in, and the powers of p keep their precision
    whatever T is."""
    rnd = random.Random(11)
    a = bench_matrix(16, rnd)
    b = [rnd.randrange(-100, 101) for _ in range(16)]
    lift_length = RationalSolver.lift_length
    # from 1e-80 on, the accumulators run at their exact width
    for eps in (1e-6, 1e-30, 1e-80, 1e-120):
        want = lin_solve(a, b, eps, 5).x
        with monkeypatch.context() as mp:
            mp.setattr(RationalSolver, "lift_length",
                       lambda self, b: lift_length(self, b) + 3)
            assert lin_solve(a, b, eps, 5).x == want


def _close_mult(x: FloatL, want: Fraction, eps: float) -> bool:
    """x within e^eps of want, exact zeros exact, in rationals: the ratio
    must lie in [1 - eps + eps^2/2, 1 + eps + eps^2/2 + eps^3/6], inside
    [e^-eps, e^eps], so the check holds at any eps, 1e-45 included."""
    got = x.to_fraction()
    if want == 0:
        return got == 0
    e = Fraction(eps)
    ratio = got / want
    return 1 - e + e * e / 2 <= ratio <= 1 + e + e * e / 2 + e ** 3 / 6


def test_lin_solve_identity_exact():
    out = lin_solve(SparseMatrix.identity(2), [3, -5], 1e-3, 0)
    assert not out.singular
    assert [v.to_fraction() for v in out.x] == [3, -5]


def test_lin_solve_diag_example():
    out = lin_solve(SparseMatrix.from_dense([[2, 0], [0, 4]]), [1, 3], 1e-6, 1)
    assert _close_mult(out.x[0], Fraction(1, 2), 1e-6)
    assert _close_mult(out.x[1], Fraction(3, 4), 1e-6)


def test_lin_solve_singular():
    out = lin_solve(SparseMatrix.from_dense([[1, 1], [1, 1]]), [1, 2], 1e-6, 2)
    assert out.singular


def test_lin_solve_random_vs_oracle():
    rnd = random.Random(23)
    for trial in range(25):
        n = rnd.randrange(2, 9)
        d = rand_invertible(rnd, n, -20, 20)
        b = [rnd.randrange(-40, 41) for _ in range(n)]
        eps = rnd.choice([1e-3, 1e-6, 0.3])
        out = lin_solve(SparseMatrix.from_dense(d), b, eps, trial)
        want = oracle_solve_exact(d, b)
        assert want != ORACLE_SINGULAR
        for x, w in zip(out.x, want):
            assert _close_mult(x, w, eps), (d, b, eps, x, w)


def test_lin_solve_zero_entries_exact():
    rnd = random.Random(31)
    for trial in range(10):
        n = rnd.randrange(2, 7)
        d = rand_invertible(rnd, n)
        x_true = [rnd.randrange(-5, 6) for _ in range(n)]
        x_true[rnd.randrange(n)] = 0
        b = [sum(d[i][j] * x_true[j] for j in range(n)) for i in range(n)]
        out = lin_solve(SparseMatrix.from_dense(d), b, 1e-6, trial)
        for x, w in zip(out.x, x_true):
            if w == 0:
                assert x.is_zero()
            else:
                assert _close_mult(x, Fraction(w), 1e-6)


def test_lin_solve_large_b():
    rnd = random.Random(37)
    n, u = 8, 10
    d = rand_invertible(rnd, n, -u, u)
    b = [rnd.randrange(-10 ** 8, 10 ** 8 + 1) for _ in range(n)]
    b[0] = 10 ** 8
    out = lin_solve(SparseMatrix.from_dense(d), b, 1e-6, 5)
    want = oracle_solve_exact(d, b)
    for x, w in zip(out.x, want):
        assert _close_mult(x, w, 1e-6)


def test_block_equivalence():
    rnd = random.Random(41)
    for trial in range(6):
        n = rnd.randrange(2, 8)
        d = rand_invertible(rnd, n)
        b = [rnd.randrange(-9, 10) for _ in range(n)]
        a = SparseMatrix.from_dense(d)
        eps = 1e-9
        base = lin_solve(a, b, eps, 100 + trial, K=1)
        for K in range(2, n + 1):
            other = lin_solve(a, b, eps, 100 + trial, K=K)
            assert [(v.mantissa, v.exponent) for v in base.x] == \
                   [(v.mantissa, v.exponent) for v in other.x]


def _acc_bits(L, top_exp):
    """What one coordinate's accumulator is charged: a canonical L-bit
    float, an odd mantissa of L + 1 bits with its sign and an exponent in
    [0, top_exp]."""
    return (L + 1) + int_bits(top_exp)


def test_block_count_fits_the_linear_budget():
    """block_count(acc) is the fewest blocks whose accumulators, at
    acc = (L + 1) + int_bits(top_exp) bits each, fit
    B = 16 n ceil(log2(2nU)) bits, one coordinate per block when a single
    accumulator exceeds B.  On the benchmark's n = 64, U = 100 system
    (T = 9 digits of a 50-bit prime, top_exp = 523) that is 1 block at
    eps = 1e-30 (L = 104) and at eps = 1e-6 (L = 24)."""
    rnd = random.Random(1)
    a = bench_matrix(64, rnd)
    b = [rnd.randrange(-100, 101) for _ in range(64)]
    with RationalSolver(a, 1e-6, 0) as s:
        T = s.lift_length(b)
        top_exp = T * (s.prime.bit_length() + 1) + 64
        assert (T, s.prime.bit_length(), top_exp) == (9, 50, 523)
        assert s.block_count(_acc_bits(104, top_exp)) == 1
        assert s.block_count(_acc_bits(24, top_exp)) == 1
    with RationalSolver(SparseMatrix.identity(4), 1e-6, 0) as s:
        assert s.block_count(_acc_bits(107, 554)) == 4
    for n, u in ((1, 1), (4, 1), (5, 9), (64, 100), (200, 10 ** 6)):
        op = SparseMatrix.from_entries(n, n, [(i, i, u) for i in range(n)])
        budget = 16 * n * math.ceil(math.log2(2 * n * u))
        with RationalSolver(op, 1e-6, 0, det=u ** n) as s:
            for L in (16, 27, 64, 107, 300, 3000):
                for top_exp in (64, 554, 10 ** 5):
                    acc = _acc_bits(L, top_exp)
                    K = s.block_count(acc)
                    assert 1 <= K <= n
                    assert math.ceil(n / K) * acc <= max(budget, acc)
                    if K > 1:
                        assert math.ceil(n / (K - 1)) * acc > budget


@pytest.mark.parametrize("K", [-1, 0, 3, 1.0, True])
def test_solve_refuses_a_block_count_outside_1_to_n(K):
    """An explicit K must be an int in 1..n: a negative K would range the
    block loop backwards and return no entries, and K = 0 would silently
    stand for the default, which only K = None asks for."""
    a = SparseMatrix.from_dense([[3, 1], [1, 2]])
    with pytest.raises(ValueError, match="block count"):
        lin_solve(a, [1, 0], 1e-6, 0, K=K)


def test_digit_reconstruction_exact_mode():
    """Exact accumulators: sum y_i p^i == det * A^-1 b (mod p^T)."""
    rnd = random.Random(43)
    for trial in range(12):
        n = rnd.randrange(2, 8)
        d = rand_invertible(rnd, n)
        b = [rnd.randrange(-20, 21) for _ in range(n)]
        with RationalSolver(SparseMatrix.from_dense(d), 1e-6, trial) as s:
            T = s.lift_length(b)
            acc = [0] * n
            pw = 1
            for digits in s.digit_vectors(b, T):
                for j in range(n):
                    acc[j] += digits[j] * pw
                pw *= s.prime
        xs = oracle_solve_exact(d, b)
        for j in range(n):
            want = xs[j] * s.det
            assert want.denominator == 1
            assert acc[j] % pw == int(want) % pw


@st.composite
def _systems(draw):
    """(dense, b, eps): n <= 6, entries within +-9, b with zeros and
    entries up to 10^40, their bit lengths uniform, eps from 0.9 down to
    1e-45, log-uniform, so many draws run exact accumulators.  Half are
    diagonal with b_i in {0, +-a_ii c}: with one nonzero b_i,
    |det x_i| = |det| c sits at the Cramer bound |det| sqrt(1 + c^2) up to
    a factor below 1 + 1/c^2, so the balanced digits run up to the lift's
    margin, p^T > 2 |det x_i|."""
    def upto(top):
        """An integer in [-top, top], its bit length uniform."""
        bits = draw(st.integers(0, top.bit_length()))
        return max(-top, min(top, draw(st.integers(-2 ** bits, 2 ** bits))))

    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        diag = [draw(st.integers(1, 9)) * draw(st.sampled_from((-1, 1)))
                for _ in range(n)]
        dense = [[d if i == j else 0 for j in range(n)]
                 for i, d in enumerate(diag)]
        c = max(1, abs(upto(10 ** 40 // 9)))
        b = [draw(st.sampled_from((0, d * c, -d * c))) for d in diag]
    else:
        dense = [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
        assume(oracle_det_bareiss(dense) != 0)
        b = [upto(10 ** 40) for _ in range(n)]
    eps = draw(st.sampled_from((0.9, 1e-6, 1e-30, 1e-45))
               | st.floats(0.16, 149.4).map(lambda t: 2.0 ** -t))
    return dense, b, eps


@settings(max_examples=150, deadline=None)
@given(system=_systems(), seed=st.integers(0, 2 ** 32))
def test_lin_solve_meets_eps_at_every_precision(system, seed):
    """Every entry lands within e^eps of the exact solution, exact zeros
    exact, for eps down to 1e-45, exact accumulators included, and K = 1, 2
    (when n >= 2) and n blocks give the same bits."""
    dense, b, eps = system
    a = SparseMatrix.from_dense(dense)
    n = a.n
    outs = [lin_solve(a, b, eps, seed, K=K).x for K in (1, min(2, n), n)]
    for x, w in zip(outs[0], oracle_solve_exact(dense, b)):
        assert _close_mult(x, w, eps), (x, w)
    assert outs[0] == outs[1] == outs[2]


@settings(max_examples=150, deadline=None)
@given(system=_systems(), seed=st.integers(0, 2 ** 32))
@example(system=([[2, 1], [1, 3]], [5, -7], 1e-45), seed=0)
def test_lift_accumulators_fit_the_linear_budget(system, seed):
    """On the same draws, exact accumulators included, after every digit:
    the bits the block's accumulators hold (int_bits of each one's
    mantissa and exponent) never exceed its lift.accumulators charge,
    (hi - lo) accumulators of (L + 1) + int_bits(top_exp) bits; that
    charge fits B = 16 n ceil(log2(2nU)) bits, or is exactly one
    accumulator when a block holds one coordinate; and K - 1 blocks would
    not fit.  The meter runs for the solve alone: the determinant's own
    lift charges the same label
    (test_determinant_lift_charges_what_it_holds)."""
    dense, b, eps = system
    a = SparseMatrix.from_dense(dense)
    n = a.n
    budget = 16 * n * math.ceil(math.log2(2 * n * a.entry_bound))
    seen, digits_seen = [], []
    block_count = RationalSolver.block_count
    digit_vectors = RationalSolver.digit_vectors
    m = meter.WorkspaceMeter()

    def count_spy(self, acc):
        seen.append((acc, block_count(self, acc)))
        return seen[-1][1]

    def digit_spy(self, b, T):
        # the caller is _signed_sums: its locals hold the accumulators
        sums = sys._getframe(1)
        for digits in digit_vectors(self, b, T):
            yield digits
            held = sums.f_locals
            lo, hi = held["lo"], held["hi"]
            bits = sum(int_bits(y.mantissa) + int_bits(y.exponent)
                       for y in held["acc"])
            charge = m.by_label["lift.accumulators"][0]
            (acc, K), = seen
            assert len(held["acc"]) == hi - lo
            assert charge == (hi - lo) * acc
            assert bits <= charge, (bits, charge, held["L"], hi - lo)
            assert charge <= budget or (hi - lo == 1 and charge == acc)
            if K > 1:
                assert math.ceil(n / (K - 1)) * acc > budget
            digits_seen.append(hi)

    with (pytest.MonkeyPatch.context() as mp,
          RationalSolver(a, eps, seed) as s, m.activate()):
        mp.setattr(RationalSolver, "block_count", count_spy)
        mp.setattr(RationalSolver, "digit_vectors", digit_spy)
        s.solve(b)
    (acc, K), = seen
    # b = 0 has a zero residual from the start, so it yields no digit
    assert (digits_seen and digits_seen[-1] == n) or not any(b)
    assert m.by_label["lift.accumulators"][1] == math.ceil(n / K) * acc


def test_determinism_same_seed():
    d = [[3, 1, 0], [1, 4, 2], [0, 2, 5]]
    a = SparseMatrix.from_dense(d)
    r1 = lin_solve(a, [1, 2, 3], 1e-8, 777)
    r2 = lin_solve(a, [1, 2, 3], 1e-8, 777)
    assert [(v.mantissa, v.exponent) for v in r1.x] == \
           [(v.mantissa, v.exponent) for v in r2.x]


def test_solver_outputs_match_recorded_bits(monkeypatch):
    """lin_solve on a seeded sparse n = 64 system at eps 1e-6 and 1e-30
    and on a dense n = 40 one, and linear_regression on an 80 x 20
    input: the sha256 of every output bit.  These run the fused plain
    and Gram kernels, which the spectral golden inputs never reach; a
    new hash means some output bit changed for a fixed seed."""
    ran = set()
    for name in ("krylov", "horner"):
        kernel = getattr(kernels.Field, name)

        def spy(self, coo, *args, kernel=kernel, gram=False, **kw):
            ran.add(gram)
            return kernel(self, coo, *args, gram=gram, **kw)
        monkeypatch.setattr(kernels.Field, name, spy)
    rnd = random.Random(2024)
    a = bench_matrix(64, rnd)
    b = [rnd.randrange(-100, 101) for _ in range(64)]
    outs = [lin_solve(a, b, 1e-6, 1).x, lin_solve(a, b, 1e-30, 2).x]
    n = 40
    dense = [[100 if i == j else rnd.choice((-1, 1)) * rnd.randint(1, 2)
              for j in range(n)] for i in range(n)]
    b = [rnd.randrange(-100, 101) for _ in range(n)]
    outs.append(lin_solve(SparseMatrix.from_dense(dense), b, 1e-6, 3).x)
    tall = [[rnd.randint(-100, 100) for _ in range(20)] for _ in range(80)]
    b = [rnd.randrange(-100, 101) for _ in range(80)]
    outs.append(linear_regression(SparseMatrix.from_dense(tall), b, 1e-6, 4))
    assert ran == {False, True}
    assert [hashlib.sha256(repr([(v.mantissa, v.exponent, v.L)
                                 for v in x]).encode()).hexdigest()
            for x in outs] == [
        "81729f820b96fb9922a43e0383be09ff6f8445d29dfc96edc2aaf8e84de42d15",
        "497f227c92185d31f0625add81a7ad9e813cff97499ca57f3a79459a72e0c12f",
        "5e9c6782a19362a37758d4572e6ef69f0c8b1ac6645cbcdfe5ead27e8d584e45",
        "83770723fa2e2866fd4495a9fc0800f59b0c01bb6e8256753afbe477c229fccd"]


def test_solve_mantissas_follow_eps():
    """On the sparse n = 64 system of the recorded-bits test, every solve
    output is a float of ceil(log2(1/eps)) + 2 bits, which exponent room
    does not widen here: 22 at eps 1e-6 and 102 at 1e-30."""
    rnd = random.Random(2024)
    a = bench_matrix(64, rnd)
    b = [rnd.randrange(-100, 101) for _ in range(64)]
    for eps, L in ((1e-6, 22), (1e-30, 102)):
        x = lin_solve(a, b, eps, 1).x
        assert {v.L for v in x} == {L}
        assert max(abs(v.mantissa).bit_length() for v in x) <= L


def test_solve_independent_of_call_history():
    a = SparseMatrix.from_dense([[3, 1, 0], [1, 4, 1], [0, 1, 5]])
    with RationalSolver(a, 1e-15, 0) as fresh:
        want = fresh.solve([1, 2, 3]).x
    with RationalSolver(a, 1e-15, 0) as used:
        used.solve([10 ** 40, 1, 1])
        got = used.solve([1, 2, 3]).x
    assert got == want


def test_linear_regression_examples():
    x = linear_regression(SparseMatrix.from_dense([[1], [1]]), [1, 3], 1e-6, 0)
    assert _close_mult(x[0], Fraction(2), 1e-6)
    x = linear_regression(SparseMatrix.from_dense([[1], [2]]), [1, 2], 1e-6, 1)
    assert _close_mult(x[0], Fraction(1), 1e-6)
    ident = SparseMatrix.identity(3)
    x = linear_regression(ident, [4, -5, 6], 1e-6, 2)
    assert [v.to_fraction() for v in x] == [4, -5, 6]


def test_linear_regression_overdetermined_vs_normal_equations():
    rnd = random.Random(47)
    for trial in range(6):
        n, dcols = 7, 3
        dense = [[rnd.randrange(-5, 6) for _ in range(dcols)] for _ in range(n)]
        b = [rnd.randrange(-5, 6) for _ in range(n)]
        ata = [[sum(dense[k][i] * dense[k][j] for k in range(n)) for j in range(dcols)]
               for i in range(dcols)]
        atb = [sum(dense[k][i] * b[k] for k in range(n)) for i in range(dcols)]
        want = oracle_solve_exact(ata, atb)
        if want == ORACLE_SINGULAR:
            continue
        x = linear_regression(SparseMatrix.from_dense(dense), b, 1e-6, trial)
        for xi, w in zip(x, want):
            assert _close_mult(xi, w, 1e-6)


def test_linear_regression_rank_deficient_raises():
    a = SparseMatrix.from_dense([[1, 1], [2, 2], [3, 3]])
    with pytest.raises(SingularMatrix):
        linear_regression(a, [1, 2, 3], 1e-6, 3)


def test_meter_balances_after_solve():
    m = meter.WorkspaceMeter()
    d = [[5, 1], [1, 3]]
    with m.activate():
        lin_solve(SparseMatrix.from_dense(d), [7, -2], 1e-6, 9)
    assert m.current_bits == 0
    assert m.peak_bits > 0


def test_failed_solve_releases_every_charge(monkeypatch):
    """A Las Vegas failure inside the lift, on the second and last digit of
    its one block, unwinds every charge: the lift's, the accumulators',
    the cached polynomial's and det's."""
    calls = []
    real_solve = FpSolver.solve

    def failing_solve(self, b):
        # count only the solve's own lift, once solver.det is charged
        if meter.current().by_label.get("solver.det", [0])[0]:
            calls.append(b)
        if len(calls) == 2:
            raise RetriesExhausted("injected")
        return real_solve(self, b)

    monkeypatch.setattr(FpSolver, "solve", failing_solve)
    rnd = random.Random(5)
    a = bench_matrix(8, rnd)
    b = [rnd.randrange(-100, 101) for _ in range(8)]
    m = meter.WorkspaceMeter()
    with m.activate(), pytest.raises(RetriesExhausted, match="injected"):
        lin_solve(a, b, 1e-6, 5)
    assert len(calls) == 2
    assert {"solver.det", "fpsolver.poly", "lift.accumulators", "lift.rtilde",
            "lift.ppow", "lift.rhs+digits"} <= set(m.by_label)
    assert m.current_bits == 0
    assert {label: live for label, (live, _) in m.by_label.items() if live} == {}


def test_closed_digit_stream_releases_its_charges():
    """A digit stream abandoned after two digits releases its three lift
    buffers when it is closed; the solver's own charges stay."""
    rnd = random.Random(5)
    a = bench_matrix(8, rnd)
    b = [rnd.randrange(-100, 101) * 10 ** 30 for _ in range(8)]
    lift = ("lift.rtilde", "lift.ppow", "lift.rhs+digits")
    m = meter.WorkspaceMeter()
    with m.activate(), RationalSolver(a, 1e-6, 5) as s:
        T = s.lift_length(b)
        assert T > 2
        digits = s.digit_vectors(b, T)
        next(digits)
        next(digits)
        assert all(m.by_label[label][0] > 0 for label in lift)
        digits.close()
        assert [m.by_label[label][0] for label in lift] == [0, 0, 0]
        assert m.by_label["solver.det"][0] > 0
        assert m.by_label["fpsolver.poly"][0] > 0
    assert m.current_bits == 0


def test_workspace_scales_linearly():
    """Peak solve workspace is c * n * log2(nU) bits with stable c across
    n in {64, 128, 256} at eps = 2^-20."""
    from lospace.cli import BENCH_U, bench_matrix

    ratios = []
    for n in (64, 128, 256):
        rng = random.Random(n)
        a = bench_matrix(n, rng)
        b = [rng.randrange(-BENCH_U, BENCH_U + 1) for _ in range(n)]
        m = meter.WorkspaceMeter()
        with m.activate():
            out = lin_solve(a, b, 2.0 ** -20, n)
        assert not out.singular and m.current_bits == 0
        ratios.append(m.peak_bits / (n * math.log2(n * BENCH_U)))
    assert max(ratios) / min(ratios) < 2.5, ratios


def _dense_nonzero(rnd, n, m, u):
    return [[rnd.choice((-1, 1)) * rnd.randrange(1, u + 1) for _ in range(m)]
            for _ in range(n)]


def test_shift_operator_primes_are_uncapped(monkeypatch):
    """SHIFT has no fused kernel, so its determinant and lifting primes
    come from the one uncapped window [n^3 U, ..^2]; the same matrix as a
    plain operator draws them below its word bound instead."""
    calls = _spy_on_determinant_zp(monkeypatch)
    rnd = random.Random(61)
    n, u = 4, 10 ** 7
    dense = _dense_nonzero(rnd, n, n, u)
    a = SparseMatrix.from_dense(dense)
    shifted = LinearOperator.shift(a, 3)
    assert shifted.prime_top() is None
    top = a.prime_top()
    assert top == kernels.word_top((n, n)) == 1 << 50
    want_det = oracle_det_bareiss(
        [[v + (3 if i == j else 0) for j, v in enumerate(row)]
         for i, row in enumerate(dense)])
    with RationalSolver(shifted, 1e-6, 3) as s:
        det_lower = max(16, n ** 3 * shifted.entry_bound)
        assert s.det == want_det
        assert calls == shared_pool.get(det_lower, len(calls))
        assert max(calls) > top
        lift_lower = n ** 3 * shifted.entry_bound
        assert s.prime in shared_pool.get(lift_lower, 8) and s.prime > top

    calls.clear()
    with RationalSolver(a, 1e-6, 3) as plain:
        assert plain.det == oracle_det_bareiss(dense)
        assert calls == shared_pool.get(n ** 3 * a.entry_bound, len(calls),
                                        top=top)
        assert max(calls) < top and plain.prime < top


def test_shared_window_must_cover_the_operators_own():
    """A (lower, top) prime window an operator carries serves it only when
    it starts at or above the operator's own lower end and keeps its top:
    a higher window gives the same det and lifts from its own primes,
    while a lower one, or another top, raises ValueError in determinant
    and in RationalSolver alike."""
    rnd = random.Random(73)
    a = SparseMatrix.from_dense(_dense_nonzero(rnd, 4, 4, 10))
    shifted = LinearOperator.shift(a, 3)
    lower, top = solver._prime_window(shifted)
    assert top is None
    want = determinant(shifted, rng=1)
    shifted.window = (lower << 20, top)
    assert determinant(shifted, rng=1) == want
    with RationalSolver(shifted, 1e-6, 3) as s:
        assert s.det == want
        assert s.prime in shared_pool.get(lower << 20, 8)
    for op, bad in ((shifted, (lower - 1, top)), (shifted, (lower, 1 << 50)),
                    (a, (solver._prime_window(a)[0], None))):
        op.window = bad
        with pytest.raises(ValueError, match="prime window"):
            determinant(op, rng=1)
        with pytest.raises(ValueError, match="prime window"):
            RationalSolver(op, 1e-6, 3)


def _fresh_pool(monkeypatch):
    """A new, empty pool in place of the solver's shared one."""
    pool = PrimePool()
    monkeypatch.setattr(solver, "shared_pool", pool)
    return pool


def _streams(pool):
    """The primes a pool has drawn, one list per window."""
    return [st["primes"] for st in pool._streams.values()]


def _one_of_each_kind(rnd):
    """A sparse plain matrix, a Gram operator and a shifted matrix, each
    invertible."""
    base = bench_matrix(24, rnd)
    gram = LinearOperator.gram(SparseMatrix.from_dense(
        _dense_nonzero(rnd, 30, 9, 100)))
    shift = LinearOperator.shift(
        SparseMatrix.from_dense(_dense_nonzero(rnd, 5, 5, 10)), 3)
    return [base, gram, shift]


def test_determinant_draws_only_the_primes_it_uses(monkeypatch):
    """On a fresh pool the determinant draws its primes one at a time:
    afterwards the pool holds exactly the primes determinant_zp saw, in
    one stream, for a plain, a Gram and a shifted operator."""
    calls = _spy_on_determinant_zp(monkeypatch)
    for seed in (1, 2, 3):
        for op in _one_of_each_kind(random.Random(seed)):
            pool = _fresh_pool(monkeypatch)
            calls.clear()
            assert determinant(op, rng=seed) != 0
            assert _streams(pool) == [calls]


def test_solver_lifts_with_the_determinants_stream(monkeypatch):
    """RationalSolver draws the determinant's CRT primes and its lifting
    prime from one stream: a fresh pool ends with that stream alone, the
    lift prime is its first prime not dividing det, and every pooled
    prime was a residue's or the lift's."""
    calls = _spy_on_determinant_zp(monkeypatch)
    for seed in (1, 2, 3):
        for op in _one_of_each_kind(random.Random(seed)):
            pool = _fresh_pool(monkeypatch)
            calls.clear()
            with RationalSolver(op, 1e-6, seed) as s:
                (stream,) = _streams(pool)
                assert stream[:len(calls)] == calls
                assert s.prime == next(p for p in stream if s.det % p)
                assert set(stream) == set(calls) | {s.prime}


def test_band_determinant_stays_on_the_fused_kernels(monkeypatch):
    """Dense n = 40 at U = 10^10: the n^3 U window starts above half the
    word bound, so its primes are all too wide for the int64 kernels.
    The determinant falls back to the capped n^2 U window: its lift runs
    at that window's first prime, its residues at the shortest prefix of
    that window whose primes, those dividing the lift's d left out,
    multiply past 2 H / d, and every Krylov and Horner call is fused.
    The result equals Bareiss."""
    rnd = random.Random(40)
    n, u = 40, 10 ** 10
    dense = _dense_nonzero(rnd, n, n, u)
    a = SparseMatrix.from_dense(dense)
    top = a.prime_top()
    assert 2 * window_floor(n ** 3 * a.entry_bound) > top
    fused = []
    is_fused = LinearOperator._fused

    def spy(self, p):
        fused.append(is_fused(self, p))
        return fused[-1]

    monkeypatch.setattr(LinearOperator, "_fused", spy)
    calls = _spy_on_determinant_zp(monkeypatch)
    lifts = _spy_on_lift(monkeypatch)
    assert determinant(a, rng=9) == oracle_det_bareiss(dense)
    assert fused and all(fused)
    (d,) = lifts
    lower = n * n * a.entry_bound
    assert calls == _c_primes(lower, 2 * row_norm_bound(a), d, top)
    assert len(calls) < _pool_prefix(lower, 2 * row_norm_bound(a), top)


def test_band_solver_lifts_with_the_determinants_prime(monkeypatch):
    """On the same dense n = 40, U = 10^10 input the solver draws from
    the determinant's n^2 U window too: it lifts with the determinant's
    prime below the word bound and keeps its FpSolver, so lin_solve runs
    one Wiedemann trial, the determinant's, and every entry is within
    e^eps of the exact solution."""
    rnd = random.Random(40)
    n, u, eps = 40, 10 ** 10, 1e-6
    dense = _dense_nonzero(rnd, n, n, u)
    b = [rnd.randrange(-100, 101) for _ in range(n)]
    trials = []
    trial = wiedemann._one_wiedemann_trial

    def spy(*args):
        trials.append(args[1].p)
        return trial(*args)

    monkeypatch.setattr(wiedemann, "_one_wiedemann_trial", spy)
    x = lin_solve(SparseMatrix.from_dense(dense), b, eps, 3).x
    assert len(trials) == 1 and trials[0] < 1 << 50
    for xi, w in zip(x, oracle_solve_exact(dense, b)):
        assert _close_mult(xi, w, eps)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_by_one_determinant_is_exact(seed):
    """A 1 x 1 determinant needs a prime above 2|a|; the first prime of
    the window [max(16, U), ..^2] can miss that, and a second one is then
    drawn.  Exact on both signs, over a range of entries around powers of
    two."""
    for u in (1, 7, 15, 16, 17, 63, 64, 65, 1000, 2 ** 40 + 3):
        for v in (u, -u):
            assert determinant(SparseMatrix.from_dense([[v]]), rng=seed) == v


def test_regression_runs_the_fused_gram_kernels(monkeypatch):
    """A dense 80 x 20 regression (U = 100) draws its determinant and
    lifting primes below the word bound, so every Krylov and Horner call
    on the Gram operator, and on its diagonal scaling, is a fused int64
    kernel call; the output is within eps of the exact least-squares
    solution and the meter ends at 0."""
    rnd = random.Random(80)
    n, m, eps = 80, 20, 1e-6
    dense = _dense_nonzero(rnd, n, m, 100)
    b = [rnd.randrange(-100, 101) for _ in range(n)]
    ops, fused = [], []
    krylov_scalars = LinearOperator.krylov_scalars
    horner_apply = LinearOperator.horner_apply
    krylov, horner = kernels.Field.krylov, kernels.Field.horner

    def spy_ops(method):
        def spy(self, *args):
            ops.append((self.kind, args[-1].p))
            return method(self, *args)
        return spy

    def spy_kernel(kernel):
        def spy(self, *args, **kwargs):
            fused.append(kwargs.get("gram", False))
            return kernel(self, *args, **kwargs)
        return spy

    monkeypatch.setattr(LinearOperator, "krylov_scalars", spy_ops(krylov_scalars))
    monkeypatch.setattr(LinearOperator, "horner_apply", spy_ops(horner_apply))
    monkeypatch.setattr(kernels.Field, "krylov", spy_kernel(krylov))
    monkeypatch.setattr(kernels.Field, "horner", spy_kernel(horner))
    mtr = meter.WorkspaceMeter()
    with mtr.activate():
        x = linear_regression(SparseMatrix.from_dense(dense), b, eps, 4)
    assert mtr.current_bits == 0
    assert ops and fused == [True] * len(ops)
    assert all(kind in (GRAM, DIAG_SCALE) for kind, _ in ops)
    assert all(p < 1 << 50 for _, p in ops)
    ata = [[sum(row[i] * row[j] for row in dense) for j in range(m)]
           for i in range(m)]
    atb = [sum(row[i] * bi for row, bi in zip(dense, b)) for i in range(m)]
    for xi, w in zip(x, oracle_solve_exact(ata, atb)):
        assert _close_mult(xi, w, eps)


def test_gram_determinant_runs_fused_kernels(monkeypatch):
    """The determinant of a Gram operator runs every Krylov call on the
    fused Gram kernels, equals Bareiss on A^T A, and leaves the meter at 0."""
    rnd = random.Random(81)
    n, m = 40, 12
    dense = _dense_nonzero(rnd, n, m, 100)
    gram = LinearOperator.gram(SparseMatrix.from_dense(dense))
    calls = []
    krylov = kernels.Field.krylov

    def spy(self, coo, *args, **kwargs):
        calls.append(kwargs.get("gram", False))
        return krylov(self, coo, *args, **kwargs)

    monkeypatch.setattr(kernels.Field, "krylov", spy)
    want = oracle_det_bareiss(
        [[sum(row[i] * row[j] for row in dense) for j in range(m)]
         for i in range(m)])
    mtr = meter.WorkspaceMeter()
    with mtr.activate():
        assert determinant(gram, rng=6) == want
    assert mtr.current_bits == 0
    assert calls and all(calls)


def test_large_entry_gram_primes_stay_under_the_l1_bound(monkeypatch):
    """With U = 2^15 the Gram operator's prime top is its l1 bound,
    kernels.gram_top, well below word_top.  Its determinant and lifting
    primes still come from the capped window, so every Krylov and Horner
    call runs the fused Gram kernels below that top, and the determinant
    and the solve agree with the oracle.  An empty row is included."""
    rnd = random.Random(15)
    n, m, u, eps = 13, 4, 1 << 15, 1e-6
    dense = _dense_nonzero(rnd, n - 1, m, u) + [[0] * m]
    a = SparseMatrix.from_dense(dense)
    gram = LinearOperator.gram(a)
    top = gram.prime_top()
    row_l1, col_l1 = a.l1_norms
    assert col_l1 == max(sum(abs(row[j]) for row in dense) for j in range(m))
    assert top == kernels.gram_top((n, m), row_l1, col_l1)
    assert top < kernels.word_top((n, m)) >> 4
    primes = []
    krylov, horner = kernels.Field.krylov, kernels.Field.horner

    def spy(kernel):
        def run(self, *args, **kwargs):
            assert kwargs.get("gram")
            primes.append(self.p)
            return kernel(self, *args, **kwargs)
        return run

    monkeypatch.setattr(kernels.Field, "krylov", spy(krylov))
    monkeypatch.setattr(kernels.Field, "horner", spy(horner))
    ata = [[sum(row[i] * row[j] for row in dense) for j in range(m)]
           for i in range(m)]
    b = [rnd.randrange(-u, u + 1) for _ in range(m)]
    with RationalSolver(gram, eps, 3) as rs:
        assert rs.det == oracle_det_bareiss(ata) != 0
        x = rs.solve(b).x
    assert primes and all(p < top for p in primes)
    assert rs.prime < top
    for xi, w in zip(x, oracle_solve_exact(ata, b)):
        assert _close_mult(xi, w, eps)


def _spy_on_first_runs(monkeypatch):
    """[(plain, diag)] for every determinant_zp call solver.determinant
    makes: whether it may try M = A first, and the diagonal its
    certificate came with (None without certificate=True or when the
    first run certified); and the list of operators every Wiedemann
    trial ran on."""
    calls, trials = [], []
    zp, trial = solver.determinant_zp, wiedemann._one_wiedemann_trial

    def zp_spy(op, p, *args, certificate=False, plain=True, **kwargs):
        out = zp(op, p, *args, certificate=certificate, plain=plain, **kwargs)
        calls.append((plain, out[1] if certificate else None))
        return out

    def trial_spy(op, f, rng):
        trials.append(op)
        return trial(op, f, rng)

    monkeypatch.setattr(solver, "determinant_zp", zp_spy)
    monkeypatch.setattr(wiedemann, "_one_wiedemann_trial", trial_spy)
    return calls, trials


def test_first_residue_and_lift_run_on_a_itself(monkeypatch):
    """On seeded sparse (n = 64 tridiagonal plus noise), dense (n = 24)
    and Gram (60 x 16) operators, all nonderogatory mod p, the first
    Wiedemann run of the first residue, on A itself, certifies it: no
    diagonal is drawn, every trial runs on the operator itself, and the
    lift's FpSolver, which the solver keeps, has no diagonal.  The
    determinant equals Bareiss."""
    calls, trials = _spy_on_first_runs(monkeypatch)
    rnd = random.Random(64)
    ops = [bench_matrix(64, rnd),
           SparseMatrix.from_dense(_dense_nonzero(rnd, 24, 24, 100)),
           LinearOperator.gram(SparseMatrix.from_dense(
               _dense_nonzero(rnd, 60, 16, 100)))]
    for k, op in enumerate(ops):
        calls.clear()
        trials.clear()
        kept = []
        det = determinant(op, rng=k, keep=kept)
        assert det == oracle_det_bareiss(dense_of(op))
        assert calls and calls[0] == (True, None)
        assert trials and all(t is op for t in trials)
        (fp,) = kept
        assert fp._diag is None and fp._m is op


def _derogatory_matrices():
    """The identity, diag(1, 1, 2, ..., 7) and diag(B, B) for a seeded
    32 x 32 tridiagonal-plus-noise B: each has an eigenvalue with more
    than one Jordan block, so no Krylov recurrence of A reaches degree n."""
    rnd = random.Random(32)
    return [SparseMatrix.identity(6),
            SparseMatrix.from_dense([[v if i == j else 0 for j in range(8)]
                                     for i, v in enumerate((1, 1, 2, 3, 4, 5,
                                                            6, 7))]),
            _block_diagonal(bench_matrix(32, rnd), 2)]


@pytest.mark.parametrize("k", range(3))
def test_derogatory_inputs_fall_back_to_the_preconditioner(monkeypatch, k):
    """A derogatory A fails the first, unpreconditioned run: its residue
    comes from a run on diag(d) A, and the lift runs on that product with
    d as the FpSolver's diagonal.  Every later residue skips the first
    run, so A itself sees one trial in all.  The determinant equals
    Bareiss, and solves at two eps are within e^eps of the exact
    solution."""
    a = _derogatory_matrices()[k]
    dense = dense_of(a)
    calls, trials = _spy_on_first_runs(monkeypatch)
    kept = []
    assert determinant(a, rng=k, keep=kept) == oracle_det_bareiss(dense)
    first_plain, diag = calls[0]
    assert first_plain and diag is not None
    assert all(not plain for plain, _ in calls[1:])
    assert sum(t is a for t in trials) == 1
    (fp,) = kept
    assert fp._diag == diag
    rnd = random.Random(k)
    b = [rnd.randrange(-100, 101) for _ in range(a.n)]
    want = oracle_solve_exact(dense, b)
    for eps in (1e-6, 1e-30):
        out = lin_solve(a, b, eps, k)
        assert not out.singular
        assert all(_close_mult(x, w, eps) for x, w in zip(out.x, want))


def test_solve_lift_stops_after_its_top_digit(monkeypatch):
    """A system with a small integral solution x (b = A x): the solver
    lifts det x, whose balanced base-p digits end at the least t with
    (p^t - 1)/2 >= max |det x_i|.  The digit stream stops after that
    digit, well short of lift_length's T, the last digit it yields is
    nonzero, and the solve is exact."""
    rnd = random.Random(21)
    a = bench_matrix(24, rnd)
    x = [rnd.randrange(-3, 4) for _ in range(a.n)]
    x[0] = 2
    b = a.apply_int(x)
    seen = []
    digit_vectors = RationalSolver.digit_vectors

    def spy(self, b, T):
        seen.append(T)
        for digits in digit_vectors(self, b, T):
            seen.append(digits)
            yield digits

    monkeypatch.setattr(RationalSolver, "digit_vectors", spy)
    with RationalSolver(a, 1e-6, 5) as s:
        out = s.solve(b, K=1)
        p, det = s.prime, s.det
    T, *digits = seen
    top = max(abs(det * xi) for xi in x)
    t = 1
    while (p ** t - 1) // 2 < top:
        t += 1
    assert len(digits) == t < T
    assert any(digits[-1])
    assert [v.to_fraction() for v in out.x] == x


def test_a_none_seed_draws_seed_zeros_streams(monkeypatch):
    """lin_solve and linear_regression map a None seed to 0, as
    determinant and the spectral entry points do: two calls of each draw
    identical internal streams, equal to seed 0's, instead of seeding
    from OS entropy."""
    streams = []
    derive = solver.derive_rng

    def spy(rng_or_seed, *labels):
        out = derive(rng_or_seed, *labels)
        streams.append((labels, out.getstate()))
        return out

    monkeypatch.setattr(solver, "derive_rng", spy)
    a = SparseMatrix.from_dense([[3, 1], [1, 2]])
    tall = SparseMatrix.from_dense([[3, 1], [1, 2], [4, -1]])
    for call in (lambda seed: lin_solve(a, [1, -2], 1e-6, seed),
                 lambda seed: linear_regression(tall, [1, 0, 2], 1e-6, seed)):
        runs = []
        for seed in (None, None, 0):
            streams.clear()
            call(seed)
            runs.append(list(streams))
        assert runs[0] and runs[0] == runs[1] == runs[2]
