"""Seeded input families, the ops each workload runs, and their checks.

Every input is generated here from the workload seed and written to text
files; the program sees only those files and the CLI arguments.  Each op
is one ``lospace`` CLI invocation; its check compares the captured stdout
with a ground truth from ``lospace.oracle`` and runs outside the timed
region.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SPARSE_U = 100
DENSE_U = 100
SPECTRAL_U = 10
SPECTRAL_EPS = 0.05

# Sizes per profile.  "full" is what the benchmark measures; "smoke" is
# the tiny profile the benchmark's own test runs.
SIZES = {
    "full": {
        "sparse_n": 64,
        "dense_n": 40,
        "regress_shape": (80, 20),
        "eigs_n": 4,
        "eigvecs_n": 3,
        "svd_shape": (2, 2),
    },
    "smoke": {
        "sparse_n": 16,
        "dense_n": 8,
        "regress_shape": (12, 4),
        "eigs_n": 2,
        "eigvecs_n": 2,
        "svd_shape": (2, 1),
    },
}


# -- input families -------------------------------------------------------------


def tridiag_noise(n, u, rng):
    """Tridiagonal plus n/4 noise entries, diagonal u: diagonally dominant."""
    entries = {(i, i): u for i in range(n)}
    for i in range(n - 1):
        entries[(i, i + 1)] = rng.randrange(-(u // 3), u // 3 + 1)
        entries[(i + 1, i)] = rng.randrange(-(u // 3), u // 3 + 1)
    placed = 0
    while placed < n // 4:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j and (i, j) not in entries:
            entries[(i, j)] = rng.randrange(-(u // 8), u // 8 + 1)
            placed += 1
    a = [[0] * n for _ in range(n)]
    for (i, j), v in entries.items():
        a[i][j] = v
    return a


def dense_dominant(n, u, rng):
    """Every entry nonzero, diagonal u, off-diagonal |a_ij| <= (u-1)/(n-1)."""
    w = max(1, (u - 1) // max(1, n - 1))
    return [[u if i == j else rng.choice((-1, 1)) * rng.randint(1, w)
             for j in range(n)] for i in range(n)]


def _pin_bound(a, u, rng, mirror=False):
    """Make some entry +-u (and its mirror), so that U is exactly u."""
    if any(abs(v) == u for row in a for v in row):
        return
    i, j = rng.randrange(len(a)), rng.randrange(len(a[0]))
    a[i][j] = rng.choice((-u, u))
    if mirror:
        a[j][i] = a[i][j]


def dense_tall(n, m, u, rng):
    """Uniform entries in [-u, u], U exactly u, full column rank."""
    while True:
        a = [[rng.randint(-u, u) for _ in range(m)] for _ in range(n)]
        _pin_bound(a, u, rng)
        if np.linalg.matrix_rank(np.array(a, dtype=float)) == m:
            return a


def symmetric(n, u, rng):
    """Uniform entries in [-u, u], U exactly u."""
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            a[i][j] = a[j][i] = rng.randint(-u, u)
    _pin_bound(a, u, rng, mirror=True)
    return a


def vector(n, u, rng):
    return [rng.randint(-u, u) for _ in range(n)]


def matrix_text(a) -> str:
    n, m = len(a), len(a[0])
    lines = [f"{i + 1} {j + 1} {v}"
             for i, row in enumerate(a) for j, v in enumerate(row) if v]
    return f"{n} {m} {len(lines)}\n" + "".join(line + "\n" for line in lines)


def vector_text(b) -> str:
    return f"{len(b)}\n" + "".join(f"{x}\n" for x in b)


@dataclass
class Instance:
    """One op's inputs: a dense integer matrix, an optional right-hand side."""

    a: list
    b: list | None = None

    @property
    def shape(self):
        return len(self.a), len(self.a[0])

    @property
    def entry_bound(self):
        return max(1, max(abs(v) for row in self.a for v in row))

    def space_scale(self) -> float:
        """n log2(nU), the paper's linear-space unit for this input."""
        n = max(self.shape)
        return n * math.log2(n * self.entry_bound)


# -- output parsing ---------------------------------------------------------------


def parse_value(tok: str) -> Fraction:
    """Exact value of a '+m*2^e' literal (FloatL and FixedL both print so)."""
    mant, _, exp = tok.partition("*2^")
    if not exp:
        raise ValueError(f"not a m*2^e literal: {tok!r}")
    m, e = int(mant), int(exp)
    return Fraction(m * (1 << e)) if e >= 0 else Fraction(m, 1 << -e)


def _exp_bounds(eps: float):
    """[lo, hi] containing [e^-eps, e^eps], looser by at most eps^4."""
    e = Fraction(eps)
    lo = 1 - e + e * e / 2 - e ** 3 / 6
    hi = 1 + e + e * e / 2 + e ** 3 / 6 + e ** 4
    return lo, hi


def _check_multiplicative(got, want, eps):
    if want == "SINGULAR":
        return "oracle says singular"
    if len(got) != len(want):
        return f"{len(got)} entries, expected {len(want)}"
    lo, hi = _exp_bounds(eps)
    for i, (g, w) in enumerate(zip(got, want)):
        if w == 0:
            if g != 0:
                return f"entry {i}: {g} for an exact zero"
            continue
        r = g / w
        if not lo <= r <= hi:
            return f"entry {i}: ratio {float(r)!r} outside e^+-{eps}"
    return None


def _values(stdout):
    return [parse_value(line) for line in stdout.split()]


# -- checks (outside the timed region) -------------------------------------------


def check_det(inst, stdout, oracle):
    want = oracle.oracle_det_bareiss(inst.a)
    got = int(stdout.strip())
    return None if got == want else f"det {got} != oracle {want}"


def check_solve(eps):
    def check(inst, stdout, oracle):
        return _check_multiplicative(
            _values(stdout), oracle.oracle_solve_exact(inst.a, inst.b), eps)
    return check


def check_regress(eps):
    def check(inst, stdout, oracle):
        a, b = inst.a, inst.b
        n, m = inst.shape
        ata = [[sum(a[k][i] * a[k][j] for k in range(n)) for j in range(m)]
               for i in range(m)]
        atb = [sum(a[k][i] * b[k] for k in range(n)) for i in range(m)]
        return _check_multiplicative(
            _values(stdout), oracle.oracle_solve_exact(ata, atb), eps)
    return check


def check_eigs(inst, stdout, oracle):
    got = [float(v) for v in _values(stdout)]
    want = oracle.oracle_eigs_bisect(inst.a, 1e-4)
    if len(got) != len(want):
        return f"{len(got)} eigenvalues, expected {len(want)}"
    if any(x > y for x, y in zip(got, got[1:])):
        return "eigenvalues not ascending"
    worst = max(abs(g - w) for g, w in zip(got, want))
    return None if worst <= SPECTRAL_EPS else f"eigenvalue off by {worst:.4g}"


def check_eigvecs(inst, stdout, oracle):
    eps = SPECTRAL_EPS
    a = np.array(inst.a, dtype=float)
    n = a.shape[0]
    rows = [[float(v) for v in _values(line)] for line in stdout.splitlines()]
    if len(rows) != n or any(len(r) != n + 1 for r in rows):
        return f"expected {n} lines of 1 + {n} values"
    want = oracle.oracle_eigs_bisect(inst.a, 1e-4)
    vecs = np.array([r[1:] for r in rows])
    for (lam, *_), w, v in zip(rows, want, vecs):
        if abs(lam - w) > eps:
            return f"eigenvalue {lam} vs oracle {w}"
        if not 1 - eps <= v @ v <= 1 + eps:
            return f"|v|^2 = {v @ v:.4g}"
        if np.linalg.norm(a @ v - lam * v) > eps:
            return "residual |Av - lv| above eps"
    gram = vecs @ vecs.T - np.diag(np.diag(vecs @ vecs.T))
    if np.abs(gram).max(initial=0.0) > eps:
        return "eigenvectors not orthogonal within eps"
    return None


def check_svd(inst, stdout, oracle):
    eps = SPECTRAL_EPS
    a = np.array(inst.a, dtype=float)
    n, m = a.shape
    us, sig, vs = [], [], []
    for line in stdout.splitlines():
        parts = [p.split() for p in line.split("|")]
        us.append([float(v) for v in _values(" ".join(parts[1]))])
        if parts[0] != ["-"]:
            sig.append(float(parse_value(parts[0][0])))
            vs.append([float(v) for v in _values(" ".join(parts[2]))])
    if len(us) != n or len(sig) != m:
        return f"{len(us)} left and {len(sig)} singular values for {n}x{m}"
    u, v = np.array(us).T, np.array(vs).T
    s = np.zeros((n, m))
    s[np.arange(m), np.arange(m)] = sig
    norms = {
        "U^T U - I": np.linalg.norm(u.T @ u - np.eye(n), 2),
        "V^T V - I": np.linalg.norm(v.T @ v - np.eye(m), 2),
        "A V - U S": np.linalg.norm(a @ v - u @ s, 2),
        "A^T U - V S^T": np.linalg.norm(a.T @ u - v @ s.T, 2),
    }
    bad = [k for k, x in norms.items() if x > eps]
    return f"|{bad[0]}| above eps" if bad else None


# -- workloads ---------------------------------------------------------------------


@dataclass
class Op:
    """One CLI operation of a workload: metric slot, generator, argv, check."""

    kind: str          # named metric, e.g. "det_s"
    command: str       # CLI subcommand
    make: object       # (sizes, rng) -> Instance
    flags: tuple       # extra CLI arguments
    check: object      # (Instance, stdout, oracle module) -> error or None

    @property
    def takes_vector(self):
        return self.command in ("solve", "regress")


@dataclass
class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    name: str
    ops: tuple         # exactly three, in slot order op1, op2, op3
    exercises: tuple   # per-layer metrics that must be nonzero here


def _sparse(sz, rng):
    n = sz["sparse_n"]
    return Instance(tridiag_noise(n, SPARSE_U, rng), vector(n, SPARSE_U, rng))


def _dense(sz, rng):
    n = sz["dense_n"]
    return Instance(dense_dominant(n, DENSE_U, rng), vector(n, DENSE_U, rng))


def _regress(sz, rng):
    n, m = sz["regress_shape"]
    return Instance(dense_tall(n, m, DENSE_U, rng), vector(n, DENSE_U, rng))


def _sym(key):
    def make(sz, rng):
        return Instance(symmetric(sz[key], SPECTRAL_U, rng))
    return make


def _svd(sz, rng):
    n, m = sz["svd_shape"]
    return Instance(dense_tall(n, m, SPECTRAL_U, rng))


_EPS_FLAGS = ("--epsilon", str(SPECTRAL_EPS))

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sparse-lift",
            (Op("det_s", "det", _sparse, (), check_det),
             Op("solve_s", "solve", _sparse, ("--epsilon", "1e-6"),
                check_solve(1e-6)),
             Op("solve_fine_s", "solve", _sparse, ("--epsilon", "1e-30"),
                check_solve(1e-30))),
            ("kernels.krylov.calls", "kernels.horner.calls",
             "kernels.bm.calls", "kernels.matvec_nnz",
             "wiedemann.determinant_zp.calls", "wiedemann.trials",
             "wiedemann.fpsolver_solve.calls", "solver.crt_primes",
             "solver.lift_T", "solver.blocks_K", "space.linop.mod_cache"),
        ),
        Workload(
            "dense-gram",
            (Op("det_s", "det", _dense, (), check_det),
             Op("solve_s", "solve", _dense, ("--epsilon", "1e-6"),
                check_solve(1e-6)),
             Op("regress_s", "regress", _regress, ("--epsilon", "1e-6"),
                check_regress(1e-6))),
            ("linop.apply_mod.calls", "linop.krylov_scalars.calls",
             "linop.horner_apply.calls", "linop.apply_int.calls",
             "space.linop.mod_cache", "space.regress.atb",
             "cli.parse_s", "cli.format_s"),
        ),
        Workload(
            "spectral-tree",
            (Op("eigs_s", "eigs", _sym("eigs_n"), _EPS_FLAGS, check_eigs),
             Op("eigvecs_s", "eigvecs", _sym("eigvecs_n"), _EPS_FLAGS,
                check_eigvecs),
             Op("svd_s", "svd", _svd, _EPS_FLAGS, check_svd)),
            ("spectral.shift_invert.calls", "spectral.solves_per_node",
             "spectral.inv_power_gap.calls", "numeric.fl_ops",
             "numeric.self_s", "solver.solve.self_s",
             "space.invpower.iterates"),
        ),
    )
}


def instance_for(workload: str, seed: int, op: Op, round_no: int, sizes):
    """The op's inputs in a given round; depends only on these labels."""
    rng = random.Random(f"{workload}|{seed}|{op.kind}|{round_no}")
    return op.make(sizes, rng)


def program_seed(workload: str, seed: int, op: Op, round_no: int) -> int:
    """The op's --seed: a 31-bit integer named by the same labels."""
    label = f"{workload}|{seed}|{op.kind}|{round_no}|program"
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:4], "big") >> 1
