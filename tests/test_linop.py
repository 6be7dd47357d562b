import io
import random

import pytest

from lospace import meter
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
    # pure path materializes no reduced copy: peak stays far below n words
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


def test_symmetry_check():
    assert SparseMatrix.from_dense([[1, 2], [2, 3]]).is_symmetric()
    assert not SparseMatrix.from_dense([[1, 2], [0, 3]]).is_symmetric()
    assert not SparseMatrix.from_entries(2, 3, []).is_symmetric()
