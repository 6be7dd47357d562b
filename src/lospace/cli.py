"""Command-line front end.

Subcommands: det, solve, regress, eigs, eigvecs, svd, bench.  Matrices and
vectors are the text formats from linop; results print to stdout, one
entry per line, as +m*2^e literals by default or as fixed decimals with
--format decimal --decimal-digits D.  Eigenpairs and SVD columns stream as
they are produced and are never re-read.

Exit codes: 0 success, 1 SINGULAR input, 2 malformed input or argument
(including a non-integer LOSPACE_SEED, the fallback of --seed, a value
outside the L-bit float range, an eigvecs or svd whose vector accuracy
falls below the double range, and a matrix with no rows, or for regress
no columns, for any command but det), 3 a probabilistic retry budget ran
out.

bench writes one CSV row per size over seeded tridiagonal-plus-noise
matrices (U pinned to 100, diagonally dominant so invertibility is
guaranteed): n,nnz,ms,peak_bits,ratio where ratio = peak_bits/(n log2(nU)).
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
import time

from . import meter
from .linop import (
    DimensionMismatch,
    MatrixFormatError,
    SparseMatrix,
    read_matrix,
    read_vector,
)
from .numeric import FloatOverflow, format_decimal, format_float2exp
from .primes import SamplingExhausted
from .solver import SingularMatrix, determinant, lin_solve, linear_regression
from .spectral import ResultCountMismatch, eigendecompose, spectrum, svd
from .wiedemann import RetriesExhausted

EXIT_OK = 0
EXIT_SINGULAR = 1
EXIT_INPUT = 2
EXIT_RETRIES = 3


class ArgumentError(ValueError):
    """A command-line argument outside its documented range."""


def _load_matrix(path):
    try:
        with open(path) as fp:
            return read_matrix(fp)
    except OSError as e:
        raise MatrixFormatError(0, f"cannot read {path}: {e}") from None


def _load_vector(path):
    try:
        with open(path) as fp:
            return read_vector(fp)
    except OSError as e:
        raise MatrixFormatError(0, f"cannot read {path}: {e}") from None


def _fmt_value(x, args):
    if args.format == "decimal":
        digits = 6 if args.decimal_digits is None else args.decimal_digits
        return format_decimal(x, digits)
    return format_float2exp(x)


def _cmd_det(args, out):
    a = _load_matrix(args.matrix)
    if a.n != a.m:
        raise MatrixFormatError(1, f"determinant needs a square matrix, got {a.n}x{a.m}")
    out.write(f"{determinant(a, rng=random.Random(args.seed))}\n")
    return EXIT_OK


def _cmd_solve(args, out):
    a = _load_matrix(args.matrix)
    b = _load_vector(args.vector)
    if a.n != a.m or a.n == 0:
        raise MatrixFormatError(
            1, f"solve needs a nonempty square matrix, got {a.n}x{a.m}")
    if len(b) != a.n:
        raise MatrixFormatError(1, f"vector length {len(b)} != {a.n}")
    outcome = lin_solve(a, b, args.epsilon, args.seed)
    if outcome.singular:
        out.write("SINGULAR\n")
        return EXIT_SINGULAR
    for x in outcome.x:
        out.write(_fmt_value(x, args) + "\n")
    return EXIT_OK


def _cmd_regress(args, out):
    a = _load_matrix(args.matrix)
    if a.n < a.m or a.m == 0:
        raise MatrixFormatError(1, f"regress wants n >= m >= 1, got {a.n}x{a.m}")
    b = _load_vector(args.vector)
    if len(b) != a.n:
        raise MatrixFormatError(1, f"vector length {len(b)} != {a.n}")
    try:
        xs = linear_regression(a, b, args.epsilon, args.seed)
    except SingularMatrix:
        out.write("SINGULAR\n")
        return EXIT_SINGULAR
    for x in xs:
        out.write(_fmt_value(x, args) + "\n")
    return EXIT_OK


def _check_sym(a):
    if a.n != a.m or a.n == 0 or not a.is_symmetric():
        raise MatrixFormatError(1, "eigen routines need a nonempty symmetric matrix")


def _cmd_eigs(args, out):
    a = _load_matrix(args.matrix)
    _check_sym(a)
    for lam in spectrum(a, args.epsilon, random.Random(args.seed)):
        out.write(_fmt_value(lam, args) + "\n")
    return EXIT_OK


def _cmd_eigvecs(args, out):
    a = _load_matrix(args.matrix)
    _check_sym(a)
    for lam, vec in eigendecompose(a, args.epsilon, random.Random(args.seed)):
        row = [_fmt_value(lam, args)] + [_fmt_value(x, args) for x in vec]
        out.write(" ".join(row) + "\n")
        out.flush()
    return EXIT_OK


def _cmd_svd(args, out):
    a = _load_matrix(args.matrix)
    if a.n < a.m or a.n == 0:
        raise MatrixFormatError(1, f"svd wants n >= m and n >= 1, got {a.n}x{a.m}")
    for uvec, sigma, vvec in svd(a, args.epsilon, random.Random(args.seed)):
        if sigma is None:
            out.write("- | " + " ".join(_fmt_value(x, args) for x in uvec) + " |\n")
        else:
            out.write(
                _fmt_value(sigma, args) + " | "
                + " ".join(_fmt_value(x, args) for x in uvec) + " | "
                + " ".join(_fmt_value(x, args) for x in vvec) + "\n")
        out.flush()
    return EXIT_OK


# -- benchmark -------------------------------------------------------------------

BENCH_U = 100


def bench_matrix(n: int, rng: random.Random) -> SparseMatrix:
    """Tridiagonal plus noise, diagonally dominant at U = 100."""
    u = BENCH_U
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
    return SparseMatrix.from_entries(
        n, n, [(i, j, v) for (i, j), v in entries.items() if v])


def bench_run(sizes, eps, seed, out):
    """One CSV row per size: n,nnz,ms,peak_bits,ratio."""
    out.write("n,nnz,ms,peak_bits,ratio\n")
    for n in sizes:
        rng = random.Random((seed, "bench", n).__repr__())
        a = bench_matrix(n, rng)
        b = [rng.randrange(-BENCH_U, BENCH_U + 1) for _ in range(n)]
        m = meter.WorkspaceMeter()
        t0 = time.perf_counter()
        with m.activate():
            outcome = lin_solve(a, b, eps, seed)
        ms = (time.perf_counter() - t0) * 1000.0
        if outcome.singular:
            raise RetriesExhausted("bench generator produced a singular matrix")
        if m.current_bits != 0:
            raise RuntimeError(f"meter did not return to zero: {m.current_bits} bits live")
        ratio = m.peak_bits / (n * math.log2(n * BENCH_U))
        out.write(f"{n},{a.nnz},{ms:.1f},{m.peak_bits},{ratio:.2f}\n")
    return EXIT_OK


def _cmd_bench(args, out):
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise ArgumentError(f"--sizes wants integers, got {args.sizes!r}") from None
    if not sizes:
        raise ArgumentError("empty --sizes")
    if min(sizes) < 1:
        raise ArgumentError(f"--sizes must be at least 1, got {min(sizes)}")
    return bench_run(sizes, args.epsilon, args.seed, out)


GLOBAL_DEFAULTS = {
    "report_space": False,
    "decimal_digits": None,
    "format": "float2exp",
}


def build_parser():
    # global flags are accepted before or after the subcommand; SUPPRESS
    # keeps the subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--report-space", action="store_true",
                        default=argparse.SUPPRESS,
                        help="print the working-space meter to stderr")
    common.add_argument("--decimal-digits", type=int, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=["float2exp", "decimal"],
                        default=argparse.SUPPRESS)
    ap = argparse.ArgumentParser(
        prog="lospace", parents=[common],
        description="linear-working-space exact and approximate linear algebra")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("det", parents=[common], help="exact determinant")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_det)

    for name, fn, needs_vec in (("solve", _cmd_solve, True),
                                ("regress", _cmd_regress, True),
                                ("eigs", _cmd_eigs, False),
                                ("eigvecs", _cmd_eigvecs, False),
                                ("svd", _cmd_svd, False)):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("matrix")
        if needs_vec:
            p.add_argument("vector")
        p.add_argument("--epsilon", type=float, default=1e-6)
        p.set_defaults(func=fn)

    p = sub.add_parser("bench", parents=[common], help="time/space scaling table")
    p.add_argument("--sizes", default="64,128,256")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.set_defaults(func=_cmd_bench)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    for key, val in GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, val)
    if args.decimal_digits is not None and args.format == "float2exp":
        args.format = "decimal"
    m = meter.WorkspaceMeter()
    try:
        if not hasattr(args, "seed"):
            seed = os.environ.get("LOSPACE_SEED", "0")
            try:
                args.seed = int(seed)
            except ValueError:
                raise ArgumentError(
                    f"LOSPACE_SEED must be an integer, got {seed!r}") from None
        eps = getattr(args, "epsilon", None)  # det takes none
        if eps is not None and not 0 < eps < 1:
            raise ArgumentError(f"--epsilon must lie in (0, 1), got {eps}")
        if args.decimal_digits is not None and args.decimal_digits < 0:
            raise ArgumentError(
                f"--decimal-digits must be at least 0, got {args.decimal_digits}")
        with m.activate():
            code = args.func(args, sys.stdout)
        if m.current_bits != 0:
            print(f"warning: meter imbalance {m.current_bits} bits",
                  file=sys.stderr)
    except (MatrixFormatError, ArgumentError, DimensionMismatch,
            FloatOverflow) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (RetriesExhausted, SamplingExhausted, ResultCountMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RETRIES
    if args.report_space:
        print(m.report(), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
