import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from lospace.oracle import (
    SINGULAR,
    oracle_charpoly,
    oracle_charpoly_mod,
    oracle_det_bareiss,
    oracle_eigs_bisect,
    oracle_matrix_minpoly_mod,
    oracle_min_recurrence,
    oracle_solve_exact,
)


def test_det_examples():
    assert oracle_det_bareiss([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert oracle_det_bareiss([[2, 1], [1, 1]]) == 1
    assert oracle_det_bareiss([[1, 2], [2, 4]]) == 0
    assert oracle_det_bareiss([[0, 1], [1, 0]]) == -1


def test_det_against_permanent_expansion():
    rnd = random.Random(1)
    for _ in range(40):
        n = rnd.randrange(1, 6)
        a = [[rnd.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        assert oracle_det_bareiss(a) == _det_expansion(a)


def _det_expansion(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j] * _det_expansion(
        [row[:j] + row[j + 1:] for row in a[1:]]) for j in range(n))


def test_solve_examples():
    assert oracle_solve_exact([[1, 0], [0, 1]], [4, 9]) == [4, 9]
    assert oracle_solve_exact([[2, 0], [0, 4]], [1, 3]) == [Fraction(1, 2), Fraction(3, 4)]
    assert oracle_solve_exact([[1, 1], [1, 1]], [1, 2]) == SINGULAR


def test_solve_det_consistency():
    rnd = random.Random(2)
    for _ in range(300):
        n = rnd.randrange(1, 6)
        a = [[rnd.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        b = [rnd.randrange(-4, 5) for _ in range(n)]
        det = oracle_det_bareiss(a)
        sol = oracle_solve_exact(a, b)
        assert (det == 0) == (sol == SINGULAR)
        if sol != SINGULAR:
            for i in range(n):
                assert sum(Fraction(a[i][j]) * sol[j] for j in range(n)) == b[i]


def test_charpoly_small():
    # X^2 - 5X - 2 for [[1,2],[3,4]]
    assert oracle_charpoly([[1, 2], [3, 4]]) == [-2, -5, 1]
    assert oracle_charpoly_mod([[1, 2], [3, 4]], 29) == [27, 24, 1]
    assert oracle_charpoly([[0, 1], [1, 0]]) == [-1, 0, 1]


def test_matrix_minpoly_mod():
    p = 101
    assert oracle_matrix_minpoly_mod([[1, 0], [0, 1]], p) == [p - 1, 1]
    assert oracle_matrix_minpoly_mod([[1, 0], [0, 2]], p) == [2, 98, 1]
    assert oracle_matrix_minpoly_mod([[0, 1], [0, 0]], p) == [0, 0, 1]


def test_min_recurrence_examples():
    assert oracle_min_recurrence([0, 0, 0, 0], 101, 3) == [1]
    assert oracle_min_recurrence([5, 5, 5, 5, 5], 101, 3) == [100, 1]
    assert oracle_min_recurrence([1, 1, 2, 3, 5], 101, 2) == [100, 100, 1]
    with pytest.raises(LookupError):
        oracle_min_recurrence([1, 2, 4, 9, 3, 7, 1], 101, 1)


def test_eigs_examples():
    assert oracle_eigs_bisect([[1, 0, 0], [0, 3, 0], [0, 0, 5]], 1e-6) == [1, 3, 5]
    out = oracle_eigs_bisect([[0, 1], [1, 0]], 1e-4)
    assert abs(out[0] + 1) <= 1e-4 and abs(out[1] - 1) <= 1e-4
    out = oracle_eigs_bisect([[2, 1], [1, 2]], 1e-4)
    assert abs(out[0] - 1) <= 1e-4 and abs(out[1] - 3) <= 1e-4


def test_eigs_count_check_survives_optimize():
    """The root count is checked with a raised error, so python -O keeps
    it: a characteristic polynomial of the wrong degree is caught."""
    code = (
        "from fractions import Fraction\n"
        "from lospace import oracle\n"
        "oracle.oracle_charpoly = lambda dense: [Fraction(-1), Fraction(1)]\n"
        "try:\n"
        "    oracle.oracle_eigs_bisect([[1, 0], [0, 2]], 1e-6)\n"
        "except RuntimeError as e:\n"
        "    print(e)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    r = subprocess.run([sys.executable, "-O", "-c", code],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "multiplicity accounting is off\n"


def test_eigs_multiplicities_and_random():
    out = oracle_eigs_bisect([[2, 0, 0], [0, 2, 0], [0, 0, 7]], 1e-5)
    assert abs(out[0] - 2) <= 1e-5 and abs(out[1] - 2) <= 1e-5 and abs(out[2] - 7) <= 1e-5
    rnd = random.Random(4)
    import numpy as np
    for _ in range(25):
        n = rnd.randrange(1, 7)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                a[i][j] = a[j][i] = rnd.randrange(-5, 6)
        got = oracle_eigs_bisect(a, 1e-7)
        want = sorted(np.linalg.eigvalsh(np.array(a, dtype=float)))
        assert len(got) == n
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-5
