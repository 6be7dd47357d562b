import random

import pytest

from lospace import meter, primes
from lospace.kernels import ENTRY_TOP, Field, _bm, gram_top, word_size, word_top
from lospace.linop import LinearOperator, SparseMatrix
from lospace.oracle import dense_of, oracle_det_bareiss
from lospace.solver import determinant, lin_solve
from lospace.wiedemann import determinant_zp


def _rand_coo(rnd, n, m, nnz, p):
    seen = set()
    rows, cols, vals = [], [], []
    while len(rows) < nnz:
        i, j = rnd.randrange(n), rnd.randrange(m)
        if (i, j) in seen:
            continue
        seen.add((i, j))
        rows.append(i)
        cols.append(j)
        vals.append(rnd.randrange(p))
    order = sorted(range(nnz), key=lambda k: (rows[k], cols[k]))
    return ([rows[k] for k in order], [cols[k] for k in order],
            [vals[k] for k in order])


def _dense(rows, cols, vals, n, m):
    out = [[0] * m for _ in range(n)]
    for r, c, v in zip(rows, cols, vals):
        out[r][c] = v
    return out


def _dense_apply(a, x, p):
    return [sum(aij * xj for aij, xj in zip(row, x)) % p for row in a]


# the largest prime below the word bound 2^50 and the smallest above it
# pin the boundary between the fused int64 kernels and the generic loop
PRIMES = [97, (1 << 31) - 1, (1 << 50) - 27, (1 << 50) + 55, (1 << 61) - 1]


@pytest.mark.parametrize("p", PRIMES)
def test_kernels_match_naive_reference(p):
    """Krylov scalars and Horner of BASE, DIAG_SCALE, GRAM and DIAG_SCALE
    over GRAM operators against a dense, one-step-at-a-time big-int
    reference mod p, on both sides of the word bound; the fused kernels
    are called directly where p is word-size.  Every kernel reads the
    matrix's signed words, so the plain matrices have entries of both
    signs, below and above p and at +-(ENTRY_TOP - 1), and an empty row."""
    rnd = random.Random(3)
    f = Field(p)
    for _ in range(10):
        n = rnd.randrange(2, 12)
        # nnz from 0 up: all-zero matrices included, and row `empty` empty
        rows, cols, _ = _rand_coo(rnd, n, n, rnd.randrange(0, n * n + 1), p)
        empty = rnd.randrange(n)
        keep = [(r, c) for r, c in zip(rows, cols) if r != empty]
        rows, cols = [r for r, _ in keep], [c for _, c in keep]
        vals = [rnd.choice((-1, 1)) * rnd.choice(
                    (rnd.randrange(1, p), rnd.randrange(1, ENTRY_TOP),
                     ENTRY_TOP - 1)) for _ in rows]
        a = _dense(rows, cols, vals, n, n)
        mat = SparseMatrix(n, n, rows, cols, vals)
        word = word_size(p, (n, n))
        assert word == (p < 1 << 50) == mat._fused(p)
        x = [rnd.randrange(p) for _ in range(n)]
        y = [rnd.randrange(p) for _ in range(n)]
        assert mat.apply_mod(x, p) == _dense_apply(a, x, p)
        assert f.dot(x, y) == sum(xi * yi for xi, yi in zip(x, y)) % p

        count = 2 * n + 1
        d = [rnd.randrange(1, p) for _ in range(n)]
        coeffs = [rnd.randrange(p) for _ in range(rnd.randrange(1, n + 2))]
        for diag in (None, d):
            if diag is None:
                op, da = mat, a
            else:
                op = LinearOperator.diag_scale(diag, mat)
                da = [[di * v % p for v in row] for di, row in zip(diag, a)]
            want, w = [], list(y)
            for _ in range(count):
                want.append(sum(xi * wi for xi, wi in zip(x, w)) % p)
                w = _dense_apply(da, w, p)
            seq = op.krylov_scalars(x, y, count, f)
            assert seq == want
            assert all(type(s) is int for s in seq)
            g = f.berlekamp_massey(seq)
            deg = len(g) - 1
            assert g[-1] == 1 and deg <= n
            for j in range(count - deg):
                assert sum(g[i] * seq[i + j] for i in range(deg + 1)) % p == 0

            want_h, power = [0] * n, list(x)
            for c in coeffs:
                want_h = [(wi + c * pi) % p for wi, pi in zip(want_h, power)]
                power = _dense_apply(da, power, p)
            got = op.horner_apply(coeffs, x, f)
            assert got == want_h
            assert type(got) is list and all(type(v) is int for v in got)

            if word:
                coo = f.coo(mat, diag)
                assert f.krylov(coo, x, y, count=count) == want
                assert f.horner(coo, coeffs, x) == want_h

    # Gram products of n x m matrices, some rows and columns empty, with
    # signed entries in [-100, 100]: the Gram kernels read them unreduced,
    # and their l1 norms keep every word-size p of PRIMES fused
    for _ in range(10):
        n, m = rnd.randrange(1, 12), rnd.randrange(1, 8)
        rows, cols, vals = _rand_coo(rnd, n, m, rnd.randrange(0, n * m + 1), 201)
        vals = [v - 100 for v in vals]
        a = _dense(rows, cols, vals, n, m)
        mat = SparseMatrix(n, m, rows, cols, vals)
        gram = LinearOperator.gram(mat)
        ata = [[sum(row[i] * row[j] for row in a) % p for j in range(m)]
               for i in range(m)]
        assert gram._fused(p) == (p < 1 << 50)
        x = [rnd.randrange(p) for _ in range(m)]
        y = [rnd.randrange(p) for _ in range(m)]
        count = 2 * m + 1
        d = [rnd.randrange(1, p) for _ in range(m)]
        coeffs = [rnd.randrange(p) for _ in range(rnd.randrange(1, m + 2))]
        for diag in (None, d):
            if diag is None:
                op, da = gram, ata
            else:
                op = LinearOperator.diag_scale(diag, gram)
                da = [[di * v % p for v in row] for di, row in zip(diag, ata)]
            want, w = [], list(y)
            for _ in range(count):
                want.append(sum(xi * wi for xi, wi in zip(x, w)) % p)
                w = _dense_apply(da, w, p)
            seq = op.krylov_scalars(x, y, count, f)
            assert seq == want
            assert all(type(s) is int for s in seq)
            want_h, power = [0] * m, list(x)
            for c in coeffs:
                want_h = [(wi + c * pi) % p for wi, pi in zip(want_h, power)]
                power = _dense_apply(da, power, p)
            got = op.horner_apply(coeffs, x, f)
            assert got == want_h
            assert type(got) is list and all(type(v) is int for v in got)
            if gram._fused(p):
                coo = f.coo(mat)
                assert f.krylov(coo, x, y, count=count, gram=True,
                                diag=diag) == want
                assert f.horner(coo, coeffs, x, gram=True, diag=diag) == want_h


def test_fused_kernels_reject_non_word_moduli():
    """numpy does not report int64 overflow, so Field.coo, krylov and
    horner refuse a modulus outside word_size instead of wrapping."""
    a = SparseMatrix.identity(2)
    wide = Field((1 << 50) + 55)
    with pytest.raises(ValueError):
        wide.coo(a)
    coo = Field(97).coo(a)
    with pytest.raises(ValueError):
        wide.krylov(coo, [1, 2], [3, 4], count=3)
    with pytest.raises(ValueError):
        wide.horner(coo, [1, 2], [3, 4])
    # a word-size prime on a shape whose row sums could overflow
    with pytest.raises(ValueError):
        Field((1 << 50) - 27).coo(SparseMatrix(4096, 4096, [], [], []))


def test_wide_modulus_builds_no_reduced_copy():
    """Above the word bound BASE, DIAG_SCALE and GRAM run the generic
    loop over exact products: no per-prime reduced copy is built or
    charged, and the meter is back at 0."""
    p = (1 << 61) - 1
    rnd = random.Random(4)
    n = 9
    mat = SparseMatrix.from_dense(
        [[rnd.randrange(-50, 51) for _ in range(n)] for _ in range(n)])
    d = [rnd.randrange(1, p) for _ in range(n)]
    f = Field(p)
    m = meter.WorkspaceMeter()
    with m.activate():
        for op in (mat,
                   LinearOperator.diag_scale(d, mat),
                   LinearOperator.gram(mat)):
            op.krylov_scalars(f.rand(n, rnd), f.rand(n, rnd), 2 * n + 1, f)
            op.horner_apply([1, 2, 3], f.rand(n, rnd), f)
            assert m.current_bits == 0
        determinant_zp(mat, p, rng=rnd)
    assert m.by_label.get("linop.mod_cache", [0, 0]) == [0, 0]
    assert m.current_bits == 0


def test_fused_calls_leave_nothing_live():
    """At a word-size prime each fused Krylov or Horner call builds its
    reduced copy for that call only: the meter is back at 0 after it, and
    the linop.mod_cache peak is the copy's coo_bits, plus the n-word
    w = A y for a Gram product.  A determinant and a solve end at 0
    too, and no operator has a cache to release by hand."""
    p = (1 << 31) - 1
    rnd = random.Random(5)
    n, k = 9, 5
    mat = SparseMatrix.from_dense(
        [[rnd.randrange(-50, 51) for _ in range(n)] for _ in range(n)])
    tall = SparseMatrix.from_dense(
        [[rnd.randrange(-50, 51) for _ in range(k)] for _ in range(n)])
    f = Field(p)
    gram = LinearOperator.gram(tall)
    word = p.bit_length() + 1
    for op, a, extra in ((mat, mat, 0),
                         (LinearOperator.diag_scale(f.rand(n, rnd), mat), mat, 0),
                         (gram, tall, n * word),
                         (LinearOperator.diag_scale(f.rand(k, rnd), gram),
                          tall, n * word)):
        assert op._fused(p)
        bits = f.coo_bits(f.coo(a)) + extra
        x = f.rand(op.n, rnd)
        for call in (lambda: op.krylov_scalars(x, x, 2 * op.n + 1, f),
                     lambda: op.horner_apply([1, 2, 3], x, f)):
            m = meter.WorkspaceMeter()
            with m.activate():
                call()
            assert m.current_bits == 0
            assert m.by_label["linop.mod_cache"] == [0, bits]

    m = meter.WorkspaceMeter()
    with m.activate():
        assert determinant(mat, rng=1) == oracle_det_bareiss(dense_of(mat))
        assert m.current_bits == 0
        b = [rnd.randrange(-50, 51) for _ in range(n)]
        assert not lin_solve(mat, b, 1e-6, 2).singular
    assert m.current_bits == 0
    assert m.by_label["linop.mod_cache"][1] > 0
    assert not hasattr(LinearOperator, "drop_cache")


def test_matvec_against_dense():
    rnd = random.Random(8)
    p = 10007
    for _ in range(50):
        n, m = rnd.randrange(1, 7), rnd.randrange(1, 7)
        nnz = rnd.randrange(0, n * m + 1)
        rows, cols, vals = _rand_coo(rnd, n, m, nnz, p)
        dense = _dense(rows, cols, vals, n, m)
        mat = SparseMatrix(n, m, rows, cols, vals)
        x = [rnd.randrange(p) for _ in range(m)]
        want = [sum(dense[i][j] * x[j] for j in range(m)) % p for i in range(n)]
        assert mat.apply_mod(x, p) == want
        gram_want = [
            sum(dense[i][a] * dense[i][b] * x[b] for i in range(n) for b in range(m)) % p
            for a in range(m)
        ]
        assert LinearOperator.gram(mat).apply_mod(x, p) == gram_want


def test_bm_known_sequences():
    f = Field(101)
    assert f.berlekamp_massey([0, 0, 0, 0, 0]) == [1]
    assert f.berlekamp_massey([5, 5, 5, 5, 5]) == [100, 1]
    assert f.berlekamp_massey([1, 1, 2, 3, 5]) == [100, 100, 1]


def _bm_reference(seq, p):
    """Berlekamp-Massey as first written: every update loops over all
    n + 1 - m slots and a length change copies the whole of C."""
    n = len(seq)
    C = [0] * (n + 1)
    B = [0] * (n + 1)
    C[0] = B[0] = 1
    L, m, b = 0, 1, 1
    for i in range(n):
        d = (seq[i] + sum(C[j] * seq[i - j] for j in range(1, L + 1))) % p
        if d == 0:
            m += 1
            continue
        coef = d * pow(b, -1, p) % p
        if 2 * L <= i:
            T = C[:]
            for j in range(n + 1 - m):
                C[j + m] = (C[j + m] - coef * B[j]) % p
            L = i + 1 - L
            B = T
            b = d
            m = 1
        else:
            for j in range(n + 1 - m):
                C[j + m] = (C[j + m] - coef * B[j]) % p
            m += 1
    return C, L


def _bm_sequences(rnd, p, count):
    """Random, empty, one-term, all-zero, zero-run, recurrent and
    singular-Krylov sequences mod p, in turn."""
    for k in range(count):
        kind = k % 7
        if kind == 0:
            yield [rnd.randrange(p) for _ in range(rnd.randrange(41))]
        elif kind == 1:
            yield [rnd.randrange(p) for _ in range(k % 2)]
        elif kind == 2:
            yield [0] * rnd.randrange(1, 41)
        elif kind == 3:
            runs = [[0] * rnd.randrange(1, 15) if rnd.random() < 0.5
                    else [rnd.randrange(p) for _ in range(rnd.randrange(1, 5))]
                    for _ in range(rnd.randrange(1, 6))]
            yield [v for run in runs for v in run]
        elif kind == 4:
            d = rnd.randrange(1, 8)
            coeffs = [rnd.randrange(p) for _ in range(d)]
            seq = [rnd.randrange(p) for _ in range(d)]
            length = 2 * d + rnd.randrange(0, 6)
            while len(seq) < length:
                seq.append(sum(c * a for c, a in zip(coeffs, seq[-d:])) % p)
            yield seq
        else:
            # x.A^i y for a rank-deficient A: rows are combinations of r < n
            n = rnd.randrange(1, 12)
            r = rnd.randrange(0, n)
            basis = [[rnd.randrange(p) for _ in range(n)] for _ in range(r)]
            a = []
            for _ in range(n):
                w = [rnd.randrange(p) if kind == 5 else rnd.randrange(2)
                     for _ in range(r)]
                a.append([sum(wi * bi[j] for wi, bi in zip(w, basis)) % p
                          for j in range(n)])
            x = [rnd.randrange(p) for _ in range(n)]
            y = [rnd.randrange(p) for _ in range(n)]
            seq = []
            for _ in range(2 * n + 1):
                seq.append(sum(xi * yi for xi, yi in zip(x, y)) % p)
                y = _dense_apply(a, y, p)
            yield seq


@pytest.mark.parametrize("p", PRIMES)
def test_bm_matches_reference(p):
    """The support-trimmed Berlekamp-Massey returns the reference's C and
    L exactly, trailing zeros included."""
    rnd = random.Random(p % 1000)
    for seq in _bm_sequences(rnd, p, 500):
        assert _bm(seq, p) == _bm_reference(seq, p), seq


def test_bm_recovers_random_recurrences():
    rnd = random.Random(17)
    for p in (101, (1 << 31) - 1):
        f = Field(p)
        for _ in range(40):
            d = rnd.randrange(1, 6)
            coeffs = [rnd.randrange(p) for _ in range(d)]  # a_{t+d} = sum c_i a_{t+i}
            seq = [rnd.randrange(p) for _ in range(d)]
            while len(seq) < 2 * d + 3:
                seq.append(sum(c * a for c, a in zip(coeffs, seq[-d:])) % p)
            out = f.berlekamp_massey(seq)
            dd = len(out) - 1
            assert dd <= d
            assert out[-1] == 1
            for j in range(len(seq) - dd):
                assert sum(out[i] * seq[i + j] for i in range(dd + 1)) % p == 0


def test_word_kernels_at_the_sum_bound():
    """An arrow matrix whose first row is full puts n = 4095 products into
    one row sum, and Horner's extra column one more, at p just below 2^50:
    (n + 1) * p sits just under the 2^62 word bound, and one more row
    moves the shape off the fused kernels."""
    p = (1 << 50) - 27
    n = 4095
    assert word_size(p, (n, n)) and not word_size(p, (n + 1, n + 1))
    rnd = random.Random(11)
    entries = {(0, j) for j in range(n)} | {(i, 0) for i in range(n)}
    entries |= {(i, i) for i in range(n)}
    rows, cols = zip(*sorted(entries))
    vals = [rnd.randrange(p) for _ in rows]
    mat = SparseMatrix(n, n, rows, cols, vals)
    f = Field(p)
    x = [rnd.randrange(p) for _ in range(n)]
    d = [rnd.randrange(p) for _ in range(n)]

    def apply(v):
        out = [0] * n
        for r, c, a in zip(rows, cols, vals):
            out[r] += a * v[c]
        return [o % p for o in out]

    for diag in (None, d):
        want, w = [], list(x)
        for _ in range(4):
            want.append(sum(a * b for a, b in zip(x, w)) % p)
            w = apply(w)
            if diag is not None:
                w = [di * wi % p for di, wi in zip(diag, w)]
        coo = f.coo(mat, diag)
        assert f.krylov(coo, x, x, count=4) == want

    coeffs = [rnd.randrange(p) for _ in range(3)]
    want, power = [0] * n, list(x)
    for c in coeffs:
        want = [(wi + c * pi) % p for wi, pi in zip(want, power)]
        power = apply(power)
    assert f.horner(f.coo(mat), coeffs, x) == want


def _gram_apply_mod(entries, k, diag, w, p):
    """diag(diag) A^T A w mod p for A given by its (i, j, v) entries, one
    row at a time in Python: the reference the kernels are held to."""
    inner, out = {}, [0] * k
    for i, j, v in entries:
        inner[i] = inner.get(i, 0) + v * w[j]
    for i, j, v in entries:
        out[j] += v * inner[i]
    if diag is not None:
        out = [di * o for di, o in zip(diag, out)]
    return [o % p for o in out]


def test_gram_kernels_at_the_sum_bound():
    """A Gram step's dot product and diagonal mulmod keep the word bound
    (max(n, m) + 1) p < 2^62, and its column pass the l1 bound
    (col l1 + 2) p < 2^63: on a 4095 x 2 matrix whose first column is
    full of +-2, p just below 2^50 sits just under both, so the GRAM
    operator and its diagonal scaling are fused and exact; with 4096
    rows the word bound sends them to the generic loop."""
    p = (1 << 50) - 27
    k = 2
    rnd = random.Random(12)
    f = Field(p)
    for n, fused in ((4095, True), (4096, False)):
        entries = [(i, 0, rnd.choice((-2, 2))) for i in range(n)]
        entries += [(i, 1, rnd.choice((-2, 2))) for i in range(0, n, 7)]
        a = SparseMatrix.from_entries(n, k, entries)
        gram = LinearOperator.gram(a)
        d = [rnd.randrange(1, p) for _ in range(k)]
        scaled = LinearOperator.diag_scale(d, gram)
        assert gram._fused(p) is fused and scaled._fused(p) is fused
        x = [rnd.randrange(p - 1000, p) for _ in range(k)]
        coeffs = [rnd.randrange(p - 1000, p) for _ in range(4)]
        for op, diag in ((gram, None), (scaled, d)):
            want, w = [], list(x)
            for _ in range(2 * k + 1):
                want.append(sum(xi * wi for xi, wi in zip(x, w)) % p)
                w = _gram_apply_mod(entries, k, diag, w, p)
            assert op.krylov_scalars(x, x, 2 * k + 1, f) == want
            want_h, power = [0] * k, list(x)
            for c in coeffs:
                want_h = [(wi + c * pi) % p for wi, pi in zip(want_h, power)]
                power = _gram_apply_mod(entries, k, diag, power, p)
            assert op.horner_apply(coeffs, x, f) == want_h
            if fused:
                coo = f.coo(a)
                assert f.krylov(coo, x, x, count=2 * k + 1, gram=True,
                                diag=diag) == want


def _prime_near(x, step):
    """The first prime from x on, stepping by step (+1 or -1)."""
    while not primes.is_prime(x, random.Random(0)):
        x += step
    return x


def test_gram_kernels_at_the_l1_bound():
    """The Gram passes multiply A's signed words by residues with no
    mulmod, so their sums are bounded by l1 norms.  A 20 x 5 matrix has
    sixteen entries s 2^16 in column 0 (l1 norm c = 2^20), empty rows and
    columns and a few small entries of both signs; its Gram top is the
    l1 bound, far below word_top.  At the largest prime q under it,
    (c + 2)(q - 1) sits just below 2^63, and y_0 = -1/(s 2^16) mod q makes
    every w_r of column 0 equal q - 1, so the column sum reaches
    -+c (q - 1).  Krylov and Horner, with and without a diagonal, match a
    big-int reference; at the next prime up the kernels raise ValueError
    and the operator takes the generic loop, which still matches."""
    rnd = random.Random(13)
    n, m, c = 20, 5, 1 << 20
    for s in (-1, 1):
        a0 = s << 16
        entries = [(r, 0, a0) for r in range(16)]
        entries += [(18, 2, -7), (18, 3, 5), (19, 2, 3)]
        a = SparseMatrix.from_entries(n, m, entries)
        assert a.l1_norms == (1 << 16, c)
        gram = LinearOperator.gram(a)
        top = gram.prime_top()
        assert top == gram_top((n, m), 1 << 16, c) < word_top((n, m))
        q = _prime_near(top - 1, -1)
        assert (1 << 63) - (1 << 40) < (c + 2) * (q - 1) < 1 << 63
        wide = _prime_near(top, 1)
        d = [rnd.randrange(1, q) for _ in range(m)]
        for diag in (None, d):
            op = gram if diag is None else LinearOperator.diag_scale(diag, gram)
            assert op.prime_top() == top
            for p in (q, wide):
                f = Field(p)
                y = [-pow(a0, -1, p) % p] + [rnd.randrange(p - 9, p)
                                             for _ in range(m - 1)]
                x = [rnd.randrange(p - 9, p) for _ in range(m)]
                coeffs = [p - 1, p - 2, 1]
                want, w = [], list(y)
                for _ in range(2 * m + 1):
                    want.append(sum(xi * wi for xi, wi in zip(x, w)) % p)
                    w = _gram_apply_mod(entries, m, diag, w, p)
                want_h, power = [0] * m, list(y)
                for coef in coeffs:
                    want_h = [(wi + coef * pi) % p
                              for wi, pi in zip(want_h, power)]
                    power = _gram_apply_mod(entries, m, diag, power, p)
                assert op.krylov_scalars(x, y, 2 * m + 1, f) == want
                assert op.horner_apply(coeffs, y, f) == want_h
                coo = f.coo(a)
                if p == q:
                    assert op._fused(p)
                    assert f.krylov(coo, x, y, count=2 * m + 1, gram=True,
                                    diag=diag) == want
                    assert f.horner(coo, coeffs, y, gram=True,
                                    diag=diag) == want_h
                else:
                    assert not op._fused(p) and word_size(p, (n, m))
                    with pytest.raises(ValueError):
                        f.krylov(coo, x, y, count=3, gram=True, diag=diag)
                    with pytest.raises(ValueError):
                        f.horner(coo, coeffs, y, gram=True, diag=diag)
