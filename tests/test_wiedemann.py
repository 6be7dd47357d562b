import random

import pytest

from lospace import meter, wiedemann
from lospace.kernels import Field
from lospace.linop import SparseMatrix
from lospace.oracle import (
    oracle_charpoly_mod,
    oracle_matrix_minpoly_mod,
    oracle_min_recurrence,
)
from lospace.wiedemann import (
    FpSolver,
    RetriesExhausted,
    determinant_zp,
    minimal_polynomial,
)


def test_bm_matches_hankel_oracle():
    rnd = random.Random(3)
    p = 101
    for _ in range(200):
        d = rnd.randrange(0, 5)
        if d == 0:
            seq = [0] * rnd.randrange(3, 9)
        else:
            coeffs = [rnd.randrange(p) for _ in range(d)]
            seq = [rnd.randrange(p) for _ in range(d)]
            while len(seq) < 2 * d + 1 + rnd.randrange(0, 4):
                seq.append(sum(c * a for c, a in zip(coeffs, seq[-d:])) % p)
        got = Field(p).berlekamp_massey(seq)
        want = oracle_min_recurrence(seq, p, max_deg=6)
        assert got == want


def _poly_divides(a, b, p):
    """a | b over F_p (coefficients lowest first, b nonzero)."""
    b = [x % p for x in b]
    da = len(a) - 1
    ainv = pow(a[-1], -1, p)
    while len(b) - 1 >= da and any(b):
        if b[-1] % p == 0:
            b.pop()
            continue
        f = b[-1] * ainv % p
        k = len(b) - 1 - da
        for i in range(da + 1):
            b[k + i] = (b[k + i] - f * a[i]) % p
        b.pop()
    return not any(x % p for x in b)


def test_minpoly_examples():
    rng = random.Random(0)
    p = 101
    ident = SparseMatrix.identity(3)
    assert minimal_polynomial(ident, p, boost=3, rng=rng) == [100, 1]
    diag = SparseMatrix.from_dense([[1, 0], [0, 2]])
    assert minimal_polynomial(diag, p, boost=5, rng=rng) == [2, 98, 1]
    nil = SparseMatrix.from_dense([[0, 1], [0, 0]])
    assert minimal_polynomial(nil, p, boost=5, rng=rng) == [0, 0, 1]


def test_minpoly_divides_charpoly_and_annihilates():
    rnd = random.Random(11)
    p = (1 << 31) - 1
    for trial in range(30):
        n = rnd.randrange(1, 8)
        dense = [[rnd.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        a = SparseMatrix.from_dense(dense)
        g = minimal_polynomial(a, p, boost=4, rng=rnd)
        cp = oracle_charpoly_mod(dense, p)
        assert _poly_divides(g, cp, p)
        # annihilates a fresh Krylov scalar sequence
        f = Field(p)
        x, y = f.rand(n, rnd), f.rand(n, rnd)
        seq = a.krylov_scalars(x, y, 2 * n + 1, f)
        d = len(g) - 1
        for j in range(len(seq) - d):
            assert sum(g[i] * seq[i + j] for i in range(d + 1)) % p == 0


def test_minpoly_unboosted_success_rate():
    """Single-trial Wiedemann with a 31-bit prime recovers the true minimal
    polynomial in at least half of 200 seeded dense 8x8 trials."""
    p = (1 << 31) - 1
    rnd = random.Random(42)
    hits = 0
    for trial in range(200):
        dense = [[rnd.randrange(-50, 51) for _ in range(8)] for _ in range(8)]
        a = SparseMatrix.from_dense(dense)
        got = minimal_polynomial(a, p, boost=1, rng=random.Random(1000 + trial))
        want = oracle_matrix_minpoly_mod(dense, p)
        hits += got == want
    assert hits >= 100, hits


def _fp_solve(a, b, p, rng):
    with FpSolver(a, p, rng) as s:
        return s.solve(b)


def test_linsolve_zp_examples():
    rng = random.Random(5)
    x = _fp_solve(SparseMatrix.identity(2), [3, 5], 7, rng)
    assert x == [3, 5]
    x = _fp_solve(SparseMatrix.from_dense([[2, 0], [0, 3]]), [4, 6], 101, rng)
    assert x == [2, 2]
    x = _fp_solve(SparseMatrix.from_dense([[1, 1], [0, 1]]), [3, 1], 7, rng)
    assert x == [2, 1]


def test_linsolve_zp_always_verified():
    rnd = random.Random(9)
    p = (1 << 31) - 1
    for _ in range(40):
        n = rnd.randrange(1, 9)
        dense = [[rnd.randrange(-20, 21) for _ in range(n)] for _ in range(n)]
        from lospace.oracle import oracle_det_bareiss
        if oracle_det_bareiss(dense) % p == 0:
            continue
        b = [rnd.randrange(-50, 51) % p for _ in range(n)]
        a = SparseMatrix.from_dense(dense)
        x = _fp_solve(a, b, p, rnd)
        assert a.apply_mod(x, p) == b


def test_determinant_zp_examples():
    rng = random.Random(13)
    assert determinant_zp(SparseMatrix.identity(2), 29, rng=rng) == 1
    assert determinant_zp(SparseMatrix.from_dense([[1, 2], [3, 4]]), 29, rng=rng) == 27
    assert determinant_zp(SparseMatrix.from_dense([[1, 1], [1, 1]]), 29, rng=rng) == 0


def test_determinant_zp_never_returns_an_uncertified_zero(monkeypatch):
    # every trial yields X + 1: degree below n and a nonzero constant term,
    # so neither certificate appears and the routine may not answer 0
    monkeypatch.setattr(wiedemann, "_one_wiedemann_trial",
                        lambda op, f, rng: [1, 1])
    ones = SparseMatrix.from_dense([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    with pytest.raises(RetriesExhausted):
        determinant_zp(ones, 29, rng=random.Random(13))


def test_determinant_zp_certifies_a_singular_residue_in_one_trial(monkeypatch):
    """X divides the recurrence of a singular diag(d) A, so a residue 0 is
    certified by the first trial, whatever the rank."""
    trials = []
    trial = wiedemann._one_wiedemann_trial

    def spy(op, f, rng):
        trials.append(op)
        return trial(op, f, rng)

    monkeypatch.setattr(wiedemann, "_one_wiedemann_trial", spy)
    rng = random.Random(29)
    for dense in ([[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                  [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
                  [[1, 2, 3], [4, 5, 6], [5, 7, 9]]):
        trials.clear()
        assert determinant_zp(SparseMatrix.from_dense(dense), 10007,
                              rng=rng) == 0
        assert len(trials) == 1, dense


def test_determinant_zp_random_vs_oracle():
    from lospace.oracle import oracle_det_bareiss
    rnd = random.Random(17)
    p = (1 << 31) - 1
    for _ in range(60):
        n = rnd.randrange(1, 9)
        dense = [[rnd.randrange(-30, 31) for _ in range(n)] for _ in range(n)]
        if rnd.random() < 0.3 and n >= 2:
            dense[0] = [2 * v for v in dense[1]]  # singular case
        a = SparseMatrix.from_dense(dense)
        got = determinant_zp(a, p, delta=1e-6, rng=rnd)
        assert got == oracle_det_bareiss(dense) % p


def test_fpsolver_repeated_rhs():
    rnd = random.Random(19)
    p = (1 << 31) - 1
    dense = [[rnd.randrange(-9, 10) for _ in range(6)] for _ in range(6)]
    from lospace.oracle import oracle_det_bareiss
    while oracle_det_bareiss(dense) == 0:
        dense = [[rnd.randrange(-9, 10) for _ in range(6)] for _ in range(6)]
    a = SparseMatrix.from_dense(dense)
    with FpSolver(a, p, rnd) as solver:
        for _ in range(10):
            b = [rnd.randrange(p) for _ in range(6)]
            x = solver.solve(b)
            assert a.apply_mod(x, p) == b


def test_fpsolver_degree_zero_recurrence_is_a_failed_trial():
    # this seed draws an all-zero Krylov sequence first; its recurrence [1]
    # has no coefficients left for Horner once the constant term is split off
    with FpSolver(SparseMatrix.from_dense([[3]]), 5, random.Random(2)) as solver:
        x = solver.solve([1])
    assert 3 * x[0] % 5 == 1


def test_fpsolver_takes_residues_as_they_are():
    """A right-hand side is read in place: an entry outside [0, p) raises
    ValueError, and a solve charges fpsolver.vecs for the two vectors it
    makes, the Horner result and x, on the fused and the loop path."""
    p = 10007
    a = SparseMatrix.from_dense([[3, 1, 0], [1, 4, 1], [0, 1, 5]])
    with FpSolver(a, p, random.Random(3)) as solver:
        for bad in ([1, -1, 0], [1, p, 0]):
            with pytest.raises(ValueError, match="right-hand side"):
                solver.solve(bad)
    for op in (a, SparseMatrix.from_dense([[1 << 70, 1], [3, 4]])):
        b = list(range(1, op.n + 1))
        m = meter.WorkspaceMeter()
        with m.activate(), FpSolver(op, p, random.Random(3)) as solver:
            x = solver.solve(b)
        assert op.apply_mod(x, p) == b
        assert m.by_label["fpsolver.vecs"][1] == 2 * op.n * (p.bit_length() + 1)


def test_minpoly_workspace_linear():
    """Live field elements during minimal_polynomial stay within c*n."""
    rnd = random.Random(3)
    ratios = []
    for n in (32, 64, 128):
        entries = [(i, i, 1 + (i % 5)) for i in range(n)]
        entries += [(i, (i + 1) % n, 2) for i in range(n)]
        a = SparseMatrix.from_entries(n, n, entries)
        p = (1 << 31) - 1
        m = meter.WorkspaceMeter()
        with m.activate():
            minimal_polynomial(a, p, boost=1, rng=rnd)
        words = m.peak_bits / 64
        ratios.append(words / n)
    assert max(ratios) <= 24, ratios
    assert max(ratios) / min(ratios) < 2.0, ratios


def test_entries_past_the_word_bound_take_the_generic_loop():
    """A plain matrix with an entry past int64 (2^70), or just past the
    kernels' signed-entry bound (2^50), under a word-size prime: the
    fused kernels cannot read it, so determinant_zp and FpSolver run the
    generic loop and still match the exact residues."""
    p = 1009
    for big in (1 << 70, -(1 << 50), (1 << 50) - 1):
        a = SparseMatrix.from_dense([[big, 1], [3, 4]])
        assert a._fused(p) is (abs(big) < 1 << 50)
        det = determinant_zp(a, p, rng=random.Random(1))
        assert det == (4 * big - 3) % p
        with FpSolver(a, p, random.Random(1)) as solver:
            x = solver.solve([1, 2])
        assert [(big * x[0] + x[1]) % p, (3 * x[0] + 4 * x[1]) % p] == [1, 2]
