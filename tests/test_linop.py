import io
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lospace import linop, meter
from lospace.kernels import Field
from lospace.linop import (
    DimensionMismatch,
    LinearOperator,
    MatrixFormatError,
    SHIFT,
    SparseMatrix,
    read_matrix,
    read_vector,
)
from lospace.oracle import oracle_charpoly_mod
from test_kernels import PRIMES


def test_apply_mod_examples():
    p = 7
    ident = SparseMatrix.identity(2)
    f = Field(p)
    assert ident.apply_mod(f.vec([3, 5]), p) == [3, 5]

    a = SparseMatrix.from_dense([[1, 2], [3, 4]])
    f5 = Field(5)
    assert a.apply_mod(f5.vec([1, 1]), 5) == [3, 2]

    d = LinearOperator.diag_scale([2, 3], SparseMatrix.identity(2))
    f7 = Field(7)
    assert d.apply_mod(f7.vec([1, 1]), 7) == [2, 3]


def test_apply_int_examples():
    a = SparseMatrix.from_dense([[2, 1], [1, 1]])
    assert a.apply_int([0, 0]) == [0, 0]
    assert a.apply_int([1, 2]) == [4, 3]
    g = LinearOperator.gram(SparseMatrix.from_dense([[1], [2]]))
    assert g.apply_int([1]) == [5]


def test_gram_examples():
    g = LinearOperator.gram(SparseMatrix.identity(3))
    f = Field(11)
    assert g.apply_mod(f.vec([4, 5, 6]), 11) == [4, 5, 6]
    gt = LinearOperator.shift(
        LinearOperator.gram_t(SparseMatrix.from_dense([[3, 0], [0, 4]])), 1)
    assert gt.apply_int([1, 0]) == [10, 0]
    f2 = Field(101)
    assert gt.apply_mod(f2.vec([1, 0]), 101) == [10, 0]


def test_shift_operator():
    a = SparseMatrix.from_dense([[1, 2], [3, 4]])
    s = LinearOperator.shift(a, -5)
    assert s.apply_int([1, 1]) == [-2, 2]
    sv = LinearOperator.shift(a, [10, 20])
    assert sv.apply_int([1, 1]) == [13, 27]
    p = 13
    f = Field(p)
    assert s.apply_mod(f.vec([1, 1]), p) == [(-2) % 13, 2]


def test_scalar_shifts_carry_the_characteristic_polynomial():
    """An operator with chi = (p, g, 0), g = det(X I - A) mod p, and a
    prime window: scalar shifts, folded or chained, keep the window and
    give charpoly(p) = det(X I - (A + c I)) mod p; another prime knows
    no polynomial, and a vector shift, a DIAG_SCALE, GRAM and GRAM_T
    carry neither."""
    rnd = random.Random(7)
    p = PRIMES[0]
    window = (1 << 20, None)
    for n in range(1, 6):
        dense = [[rnd.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        op = LinearOperator.shift(SparseMatrix.from_dense(dense), [0] * n)
        assert op.charpoly(p) is None and op.window is None
        op.chi = (p, oracle_charpoly_mod(dense, p), 0)
        op.window = window
        for c in (0, 5, -7, 10 ** 30):
            once = LinearOperator.shift(op, c)
            shifted = LinearOperator.shift(once, 3)
            assert once.window == shifted.window == window
            want = [[dense[i][j] + (c + 3 if i == j else 0) for j in range(n)]
                    for i in range(n)]
            assert shifted.charpoly(p) == oracle_charpoly_mod(want, p)
            assert shifted.charpoly(PRIMES[1]) is None
            for other in (LinearOperator.shift(shifted, [1] * n),
                          LinearOperator.diag_scale([1] * n, shifted)):
                assert other.charpoly(p) is None and other.window is None
        matrix = SparseMatrix.from_dense(dense)
        matrix.chi, matrix.window = op.chi, window
        for other in (LinearOperator.gram(matrix),
                      LinearOperator.gram_t(matrix)):
            assert other.charpoly(p) is None and other.window is None


def _dense_mul(dense, v):
    return [sum(r[j] * v[j] for j in range(len(v))) for r in dense]


def test_composition_against_dense_oracle():
    """apply_int, apply_mod, krylov_scalars and horner_apply of every
    composition kind against its dense matrix, including the DIAG_SCALE
    over GRAM that the determinant builds and the SHIFT over GRAM_T,
    DIAG_SCALE over that and SHIFT over that which the SVD path builds,
    a SHIFT of that SHIFT, which folds into one,
    on every prime of PRIMES in turn (fused kernels and generic loop),
    with empty rows and columns."""
    rnd = random.Random(21)
    for trial in range(60):
        p = PRIMES[trial % len(PRIMES)]
        f = Field(p)
        n = rnd.randrange(1, 8)
        m = rnd.randrange(1, 8)
        dense = [[rnd.randrange(-9, 10) for _ in range(m)] for _ in range(n)]
        if trial % 3 == 0:
            zero_row, zero_col = rnd.randrange(n), rnd.randrange(m)
            dense[zero_row] = [0] * m
            for row in dense:
                row[zero_col] = 0
        a = SparseMatrix.from_dense(dense)
        ops = [(a, dense)]
        d = [rnd.randrange(-5, 6) for _ in range(n)]
        ops.append((LinearOperator.diag_scale(d, a),
                    [[d[i] * dense[i][j] for j in range(m)] for i in range(n)]))
        gram = LinearOperator.gram(a)
        gram_ref = [[sum(dense[k][i] * dense[k][j] for k in range(n))
                     for j in range(m)] for i in range(m)]
        ops.append((gram, gram_ref))
        assert gram._fused(p) == (p < 1 << 50)
        dg = [rnd.randrange(1, p) for _ in range(m)]
        ops.append((LinearOperator.diag_scale(dg, gram),
                    [[dg[i] * x for x in row] for i, row in enumerate(gram_ref)]))
        c = rnd.randrange(-4, 5)
        gt = LinearOperator.shift(LinearOperator.gram_t(a), c)
        gt_ref = [[sum(dense[i][k] * dense[j][k] for k in range(m))
                   + (c if i == j else 0) for j in range(n)] for i in range(n)]
        ops.append((gt, gt_ref))
        d2 = [rnd.randrange(-5, 6) for _ in range(n)]
        scaled = LinearOperator.diag_scale(d2, gt)
        scaled_ref = [[d2[i] * x for x in row] for i, row in enumerate(gt_ref)]
        ops.append((scaled, scaled_ref))
        s2 = [rnd.randrange(-7, 8) for _ in range(n)]
        ops.append((LinearOperator.shift(scaled, s2),
                    [[x + (s2[i] if i == j else 0) for j, x in enumerate(row)]
                     for i, row in enumerate(scaled_ref)]))
        s3 = rnd.randrange(-7, 8)
        folded = LinearOperator.shift(LinearOperator.shift(scaled, s2), s3)
        assert folded.kind == SHIFT and folded.base is scaled
        ops.append((folded,
                    [[x + (s2[i] + s3 if i == j else 0) for j, x in enumerate(row)]
                     for i, row in enumerate(scaled_ref)]))
        if n == m:
            s = rnd.randrange(-7, 8)
            ops.append((LinearOperator.shift(a, s),
                        [[dense[i][j] + (s if i == j else 0) for j in range(n)]
                         for i in range(n)]))
        for op, ref in ops:
            v = [rnd.randrange(-20, 21) for _ in range(op.m)]
            want = _dense_mul(ref, v)
            assert op.apply_int(v) == want
            assert op.apply_mod(f.vec(v), p) == [w % p for w in want]
            if op.n != op.m:
                continue
            x, y = f.rand(op.n, rnd), f.rand(op.n, rnd)
            count = 2 * op.n + 1
            seq, w = [], y
            for _ in range(count):
                seq.append(sum(xi * wi for xi, wi in zip(x, w)) % p)
                w = [t % p for t in _dense_mul(ref, w)]
            assert op.krylov_scalars(x, y, count, f) == seq
            coeffs = [rnd.randrange(p) for _ in range(rnd.randrange(1, op.n + 2))]
            acc, power = [0] * op.n, y
            for k in coeffs:
                acc = [(ai + k * pi) % p for ai, pi in zip(acc, power)]
                power = [t % p for t in _dense_mul(ref, power)]
            assert op.horner_apply(coeffs, y, f) == acc


def test_apply_int_mod_consistency_random():
    rnd = random.Random(5)
    for p in (101, (1 << 31) - 1):
        for _ in range(40):
            n = rnd.randrange(1, 9)
            dense = [[rnd.randrange(-50, 51) for _ in range(n)] for _ in range(n)]
            a = SparseMatrix.from_dense(dense)
            v = [rnd.randrange(-100, 101) for _ in range(n)]
            f = Field(p)
            got = a.apply_mod(f.vec(v), p)
            assert got == [w % p for w in a.apply_int(v)]


def test_gram_workspace_is_output_sized():
    rnd = random.Random(2)
    n, d = 4000, 3
    entries = [(i, rnd.randrange(d), rnd.randrange(1, 10)) for i in range(n)]
    a = SparseMatrix.from_entries(n, d, entries)
    g = LinearOperator.gram(a)
    v = [1] * d
    m = meter.WorkspaceMeter()
    with m.activate():
        p = 10007
        f = Field(p)
        out = g.apply_mod(f.vec(v), p)
    assert len(out) == d
    # the product holds A v (n entries) for its length, uncharged, and
    # builds no reduced copy: the meter's peak stays far below n words
    assert m.peak_bits < 64 * n / 4


def test_dimension_errors():
    a = SparseMatrix.identity(3)
    with pytest.raises(DimensionMismatch):
        a.apply_int([1, 2])


def test_matrix_roundtrip_bit_exact():
    """Unsorted 1-indexed text reads back as the sorted matrix built from
    the same entries, a 100-bit one included."""
    a = SparseMatrix.from_entries(3, 2, [(0, 0, 5), (2, 1, -7), (1, 0, 10 ** 30)])
    b = read_matrix(io.StringIO(f"3 2 3\n1 1 5\n3 2 -7\n2 1 {10 ** 30}\n"))
    assert (b.n, b.m) == (3, 2)
    assert (b.rows, b.cols, b.vals) == ([0, 1, 2], [0, 0, 1], [5, 10 ** 30, -7])
    assert (b.rows, b.cols, b.vals) == (a.rows, a.cols, a.vals)


def test_vector_roundtrip():
    v = [3, -5, 10 ** 40]
    assert read_vector(io.StringIO(f"3\n3\n-5\n{10 ** 40}\n")) == v


def test_format_errors_carry_line_numbers():
    with pytest.raises(MatrixFormatError) as e:
        read_matrix(io.StringIO("2 2\n"))
    assert "line 1" in str(e.value)
    with pytest.raises(MatrixFormatError) as e:
        read_matrix(io.StringIO("2 2 2\n1 1 5\n"))
    assert "line 3" in str(e.value)
    with pytest.raises(MatrixFormatError) as e:
        read_matrix(io.StringIO("2 2 1\n3 1 5\n"))
    assert "line 2" in str(e.value)
    with pytest.raises(MatrixFormatError) as e:
        read_matrix(io.StringIO("3 3 3\n1 1 3\n1 1 4\n2 2 5\n"))
    assert "line 3" in str(e.value) and "duplicate" in str(e.value)
    with pytest.raises(MatrixFormatError) as e:
        read_vector(io.StringIO("2\n1\nxx\n"))
    assert "line 3" in str(e.value)
    with pytest.raises(MatrixFormatError) as e:
        read_vector(io.StringIO("-1\n"))
    assert str(e.value) == "line 1: negative length"
    # a non-blank line past the declared entries; blank ones are fine
    with pytest.raises(MatrixFormatError) as e:
        read_matrix(io.StringIO("2 2 1\n1 1 3\n2 2 4\n"))
    assert "line 3" in str(e.value)
    with pytest.raises(MatrixFormatError) as e:
        read_matrix(io.StringIO("2 2 0\n\n1 1 3\n"))
    assert "line 3" in str(e.value)
    with pytest.raises(MatrixFormatError) as e:
        read_vector(io.StringIO("2\n1\n2\n3\n"))
    assert "line 4" in str(e.value)
    assert read_matrix(io.StringIO("2 2 1\n1 1 3\n\n  \n")).vals == [3]
    assert read_vector(io.StringIO("2\n1\n2\n\n\n")) == [1, 2]


def test_symmetry_check():
    assert SparseMatrix.from_dense([[1, 2], [2, 3]]).is_symmetric()
    assert not SparseMatrix.from_dense([[1, 2], [0, 3]]).is_symmetric()
    assert not SparseMatrix.from_entries(2, 3, []).is_symmetric()


def _loop_product(entries, v, size, transpose=False):
    """A v, or A^T v, of the (i, j, a) entries, one entry at a time."""
    out = [0] * size
    for i, j, a in entries:
        if transpose:
            out[j] += a * v[i]
        else:
            out[i] += a * v[j]
    return out


# vector entries: small, anywhere in int64, and at +-2^62 and the int64 ends
_WORD = (st.integers(-3, 3) | st.integers(-(1 << 63), (1 << 63) - 1)
         | st.sampled_from([1 << 62, -(1 << 62), (1 << 62) - 1, 1 - (1 << 62),
                            (1 << 63) - 1, -(1 << 63)]))


@st.composite
def _product_cases(draw):
    """(n, m, entries, v of length m, u of length n): n, m in 0..6, any
    subset of cells (zero rows and columns included), entries up to 2^40
    and now and then 2^60, whose l1 norms may pass 2^61."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cells = sorted(draw(st.sets(st.tuples(st.integers(0, max(n - 1, 0)),
                                          st.integers(0, max(m - 1, 0))),
                                max_size=n * m))) if n and m else []
    entry = (st.integers(-(1 << 40), 1 << 40).filter(bool)
             | st.sampled_from([1 << 60, -(1 << 60), 1, -1]))
    entries = [(i, j, draw(entry)) for i, j in cells]
    v = draw(st.lists(_WORD, min_size=m, max_size=m))
    u = draw(st.lists(_WORD, min_size=n, max_size=n))
    return n, m, entries, v, u


@settings(max_examples=300, deadline=None)
@given(case=_product_cases())
def test_word_products_match_the_loops(case):
    """A v, A^T u and the GRAM's A^T (A v) on the int64 words equal the
    Python loops exactly, for every shape down to 0 x 0 and for vector
    entries up to the int64 ends, which the products meet as limbs.  With
    WORD_NNZ at 0 the words take every matrix whose l1 norms stay below
    2^61, and the others take the loop; the GRAM composes the two
    products, so its second pass takes the words only when A v stays
    within int64."""
    n, m, entries, v, u = case
    a = SparseMatrix.from_entries(n, m, entries)
    want_v = _loop_product(entries, v, n)
    want_u = _loop_product(entries, u, m, transpose=True)
    want_g = _loop_product(entries, want_v, m, transpose=True)
    with (mock.patch.object(linop, "WORD_NNZ", 0),
          mock.patch.object(linop, "_word_sum", wraps=linop._word_sum) as spy):
        got = (a.apply_int(v), a.apply_transpose_int(u),
               LinearOperator.gram(a).apply_int(v))
    assert got == (want_v, want_u, want_g)
    assert all(type(x) is int for out in got for x in out)
    av_words = all(-(1 << 63) <= x < 1 << 63 for x in want_v)
    assert spy.call_count == (3 + av_words if max(a.l1_norms) < 1 << 61
                              else 0)


def test_products_the_words_cannot_hold_take_the_loop():
    """Vector entries past int64, such as 10^400, non-integer vectors
    such as svd's Fractions, and matrix entries past int64 take the
    Python loop and still match it; a vector of int64 entries on a
    matrix of WORD_NNZ entries takes the words by default, except in the
    GRAM's second pass, whose A v leaves int64."""
    rnd = random.Random(6)
    n, m = 9, 8
    entries = [(i, j, rnd.randrange(-100, 101)) for i in range(n)
               for j in range(m)]
    big = [(i, j, a * 10 ** 400) for i, j, a in entries]
    assert len(entries) >= linop.WORD_NNZ
    cases = [(entries, [10 ** 400 * rnd.randrange(-9, 10) for _ in range(m)],
              False),
             (entries, [Fraction(rnd.randrange(-99, 100), rnd.randrange(1, 99))
                        for _ in range(m)], False),
             (big, [rnd.randrange(-99, 100) for _ in range(m)], False),
             (entries, [rnd.randrange(-(1 << 63), 1 << 63) for _ in range(m)],
              True)]
    for ents, v, words in cases:
        a = SparseMatrix.from_entries(n, m, ents)
        u = v + v[:n - m]
        with mock.patch.object(linop, "_word_sum",
                               wraps=linop._word_sum) as spy:
            assert a.apply_int(v) == _loop_product(ents, v, n)
            assert a.apply_transpose_int(u) == _loop_product(ents, u, m, True)
            assert LinearOperator.gram(a).apply_int(v) == _loop_product(
                ents, _loop_product(ents, v, n), m, True)
        assert spy.call_count == (3 if words else 0)
