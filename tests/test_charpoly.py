"""The characteristic polynomial a spectral call certifies once, at the
first prime of its window, and what reads it: every tree determinant's
residue at that prime and every solver lifting with it."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from lospace import meter, solver, spectral, wiedemann
from lospace.linop import LinearOperator, SparseMatrix
from lospace.oracle import (dense_of, oracle_charpoly_mod, oracle_det_bareiss,
                            oracle_solve_exact)
from lospace.primes import PrimePool
from lospace.solver import RationalSolver, _prime_window, determinant
from lospace.spectral import eigendecompose, perturb_spectrum, spectrum, svd
from lospace.wiedemann import FpSolver, determinant_zp
from test_spectral import (SPECTRAL_BITS, SPECTRUM_BITS, _bits,
                           spectral_digest, spectrum_digest, sym_random)


def _bases():
    """Seeded symmetric matrices, n = 2..6, and svd's operator
    2^2t A A^T + ridge I for a seeded 3 x 2 matrix A."""
    rnd = random.Random(29)
    bases = [SparseMatrix.from_dense(sym_random(rnd, n, 10)) for n in range(2, 7)]
    rect = SparseMatrix.from_dense([[rnd.randrange(-10, 11) for _ in range(2)]
                                    for _ in range(3)])
    bases.append(LinearOperator.shift(LinearOperator.diag_scale(
        [1 << 8] * 3, LinearOperator.gram_t(rect)), 5))
    return bases


def _no_rebuilt_recurrence(*args, **kwargs):
    raise AssertionError("a solver recurrence was built by Wiedemann")


@pytest.mark.parametrize("k", range(6))
def test_charpoly_gives_every_shift_its_residue_and_recurrence(k, monkeypatch):
    """chi, certified on 2^s B at the first prime p of the window it
    carries, that of shifts up to 2^s (2nU + 1), is det(X I - 2^s B) mod
    p, and for random integer shifts m in that reach, which keep the
    window, (-1)^n chi(m) is determinant_zp's residue of 2^s B - m I at
    p, while an FpSolver started from the Taylor-shifted chi(X + m)
    solves, checked by its own apply_mod, without building a recurrence."""
    base = _bases()[k]
    n = base.n
    rng = random.Random(k)
    b = perturb_spectrum(base, 0.05, rng)
    s = b.scale_pow + 4
    b_scaled = b.scaled(s)
    reach = (2 * n * base.entry_bound + 1) << s
    window = _prime_window(LinearOperator.shift(b_scaled, reach))
    b_scaled.window = window
    spectral._certify_charpoly(b_scaled)
    p, g, c = b_scaled.chi
    assert p == solver._first_prime(window) and c == 0
    assert g == oracle_charpoly_mod(dense_of(b_scaled), p)
    monkeypatch.setattr(wiedemann, "minimal_polynomial", _no_rebuilt_recurrence)
    for _ in range(4):
        m = rng.randrange(-reach, reach + 1)
        shifted = LinearOperator.shift(b_scaled, -m)
        chi = shifted.charpoly(p)
        at_m = sum(gi * pow(m, i, p) for i, gi in enumerate(g)) % p
        residue = determinant_zp(shifted, p, 1e-6, rng=random.Random(m))
        assert (-1) ** n * at_m % p == (-1) ** n * chi[0] % p == residue != 0
        assert shifted.window == window
        assert determinant(shifted, random.Random(m)) == \
            oracle_det_bareiss(dense_of(shifted))
        rhs = [rng.randrange(p) for _ in range(n)]
        with FpSolver(shifted, p, random.Random(m), poly=chi) as fp:
            x = fp.solve(rhs)
        assert shifted.apply_mod(x, p) == rhs


def _det_primes(monkeypatch):
    """The primes every determinant_zp the solver module runs is called at."""
    primes = []
    run = solver.determinant_zp

    def spy(a, p, *args, **kwargs):
        primes.append(p)
        return run(a, p, *args, **kwargs)

    monkeypatch.setattr(solver, "determinant_zp", spy)
    return primes


def test_integer_eigenvalue_reads_zero_and_is_singular(monkeypatch):
    """A shift at an exact integer eigenvalue: chi gives the residue 0 at
    the first prime, which alone exceeds 2 H here, so the CRT certifies
    det = 0 with no determinant_zp, and the solver reports SINGULAR
    without choosing a prime."""
    op = LinearOperator.shift(SparseMatrix.from_dense([[2, 1], [1, 2]]), [0, 0])
    op.window = _prime_window(LinearOperator.shift(op, 4))
    spectral._certify_charpoly(op)
    p = op.chi[0]
    primes = _det_primes(monkeypatch)
    at_one = LinearOperator.shift(op, -1)       # eigenvalues 1 and 3
    assert at_one.charpoly(p)[0] == 0
    assert determinant(at_one, 1) == 0
    assert primes == []
    with RationalSolver(at_one, 0.1, 2) as s:
        assert s.det == 0 and s.prime is None
        assert s.solve([1, 0]).singular


class _FirstPrime(PrimePool):
    """A pool whose every stream starts with the prime q."""

    def __init__(self, q):
        super().__init__()
        self.q = q

    def get(self, lower, count, top=None):
        return ([self.q] + super().get(lower, count, top))[:count]


def test_first_prime_dividing_det_falls_to_the_second(monkeypatch):
    """Where the first prime divides a nonzero det (a ~1/p event inside a
    real window, so the stream is made to start with a factor of det,
    181 for det = -362), chi's residue is 0, the CRT still finds det, and
    the solver lifts with the second prime, building its recurrence by
    one Wiedemann trial as it does without chi."""
    dense = [[6, 0, 4], [0, -7, -4], [4, -4, 9]]
    assert oracle_det_bareiss(dense) == -2 * 181
    monkeypatch.setattr(solver, "shared_pool", _FirstPrime(181))
    op = LinearOperator.shift(SparseMatrix.from_dense(dense), [0, 0, 0])
    window = _prime_window(op)
    spectral._certify_charpoly(op)
    assert op.chi[0] == 181
    primes = _det_primes(monkeypatch)
    assert determinant(op, 1) == -362
    assert primes and 181 not in primes
    built = []
    rebuild = wiedemann.minimal_polynomial

    def spy(a, p, *args, **kwargs):
        built.append(p)
        return rebuild(a, p, *args, **kwargs)

    monkeypatch.setattr(wiedemann, "minimal_polynomial", spy)
    b = [5, -3, 8]
    with RationalSolver(op, 1e-6, 3, det=-362) as s:
        x = s.solve(b).x
        assert s.prime == solver.shared_pool.get(window[0], 2)[1]
    assert built == [s.prime]
    for xi, want in zip(x, oracle_solve_exact(dense, b)):
        assert abs(xi.to_fraction() - want) <= Fraction(1, 10 ** 5) * abs(want)


def _spied_call(monkeypatch, run):
    """run() with every polynomial trial, determinant residue, Wiedemann
    recurrence and FpSolver solve recorded by prime.  Returns the
    perturbation attempts, (p, trials, certified) per spectral polynomial,
    and the primes of determinant_zp, of recurrences built by Wiedemann and
    of FpSolver solves."""
    attempts, certified, rebuilt, solved, trials = [], [], [], [], []
    dets = _det_primes(monkeypatch)
    trial, minpoly = wiedemann._one_wiedemann_trial, wiedemann.minimal_polynomial
    perturb, fp_solve = spectral.perturb_spectrum, FpSolver.solve

    def count_trial(op, f, rng):
        trials.append(f.p)
        return trial(op, f, rng)

    def certify(a, p, boost=1, *, rng):
        before = len(trials)
        g = minpoly(a, p, boost, rng=rng)
        certified.append((p, len(trials) - before, len(g) == a.n + 1))
        return g

    def rebuild(a, p, boost=1, *, rng):
        rebuilt.append(p)
        return minpoly(a, p, boost, rng=rng)

    def attempt(*args, **kwargs):
        attempts.append(1)
        return perturb(*args, **kwargs)

    def solve(self, b):
        solved.append(self.p)
        return fp_solve(self, b)

    monkeypatch.setattr(wiedemann, "_one_wiedemann_trial", count_trial)
    # raising=False: a program without the polynomial trial shows as no
    # certified polynomial, not as a missing name
    monkeypatch.setattr(spectral, "minimal_polynomial", certify, raising=False)
    monkeypatch.setattr(wiedemann, "minimal_polynomial", rebuild)
    monkeypatch.setattr(spectral, "perturb_spectrum", attempt)
    monkeypatch.setattr(FpSolver, "solve", solve)
    run()
    return len(attempts), certified, dets, rebuilt, solved


def _spectral_inputs():
    rnd = random.Random(41)
    sym4 = SparseMatrix.from_dense(sym_random(rnd, 4, 10))
    sym3 = SparseMatrix.from_dense(sym_random(rnd, 3, 10))
    tall = SparseMatrix.from_dense([[rnd.randrange(-10, 11) for _ in range(2)]
                                    for _ in range(3)])
    return sym4, sym3, tall


@pytest.mark.parametrize("which", ["spectrum", "eigendecompose", "svd"])
def test_one_polynomial_trial_replaces_the_first_prime_trials(which, monkeypatch):
    """One Wiedemann trial per perturbation attempt certifies chi; no
    determinant_zp and no solver recurrence then runs at its prime, while
    solves there still do."""
    sym4, sym3, tall = _spectral_inputs()
    run = {"spectrum": lambda: spectrum(sym4, 0.05, 1),
           "eigendecompose": lambda: list(eigendecompose(sym3, 0.05, 2)),
           "svd": lambda: list(svd(tall, 0.05, 3))}[which]
    attempts, certified, dets, rebuilt, solved = _spied_call(monkeypatch, run)
    assert len(certified) == attempts >= 1
    assert all(trials == 1 and full for _, trials, full in certified)
    firsts = {p for p, _, _ in certified}
    assert dets and not firsts & set(dets)
    assert not firsts & set(rebuilt)
    assert firsts & set(solved)


def test_bits_do_not_depend_on_call_history():
    """spectrum(A), svd(B), spectrum(A) in one process give the bits each
    call gives in a fresh process."""
    sym4, _, tall = _spectral_inputs()
    first = _bits(spectrum(sym4, 0.05, 1))
    middle = _bits(list(svd(tall, 0.05, 3)))
    assert _bits(spectrum(sym4, 0.05, 1)) == first
    here = os.path.dirname(__file__)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(here, "..", "src"), here, env.get("PYTHONPATH", "")])
    for call, want in (("_bits(spectrum(sym4, 0.05, 1))", first),
                       ("_bits(list(svd(tall, 0.05, 3)))", middle)):
        code = ("from test_charpoly import _spectral_inputs, _bits, spectrum, svd\n"
                "sym4, _, tall = _spectral_inputs()\n"
                f"print(repr({call}))\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env, timeout=120)
        assert r.returncode == 0, r.stderr
        assert r.stdout == repr(want) + "\n"


def test_short_polynomial_trial_keeps_the_per_node_path(monkeypatch):
    """With the polynomial trial forced short, no chi is certified: the
    residues at the first primes come from determinant_zp again, the
    golden bits of spectrum, eigendecompose and svd hold and the meter
    returns to zero."""
    firsts = []

    def short(a, p, boost=1, *, rng):
        firsts.append(p)
        return [1]

    monkeypatch.setattr(spectral, "minimal_polynomial", short)
    dets = _det_primes(monkeypatch)
    m = meter.WorkspaceMeter()
    with m.activate():
        assert spectrum_digest() == SPECTRUM_BITS
        assert spectral_digest() == SPECTRAL_BITS
    assert firsts and set(firsts) <= set(dets)
    assert m.current_bits == 0
