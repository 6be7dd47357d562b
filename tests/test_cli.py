import argparse
import contextlib
import io
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lospace import cli
from lospace.cli import main
from lospace.linop import DimensionMismatch
from lospace.numeric import FixedL, FloatOverflow
from lospace.oracle import oracle_det_bareiss, oracle_solve_exact


def run_cli(args, tmp_path=None):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(args)
    finally:
        sys.stdout = old
    return code, out.getvalue()


@pytest.fixture
def files(tmp_path):
    (tmp_path / "id3.mtx").write_text("3 3 3\n1 1 1\n2 2 1\n3 3 1\n")
    (tmp_path / "d24.mtx").write_text("2 2 2\n1 1 2\n2 2 4\n")
    (tmp_path / "sing.mtx").write_text("2 2 4\n1 1 1\n1 2 1\n2 1 1\n2 2 1\n")
    (tmp_path / "b13.vec").write_text("2\n1\n3\n")
    (tmp_path / "b2.vec").write_text("2\n1\n2\n")
    (tmp_path / "sym.mtx").write_text("2 2 2\n1 1 1\n2 2 3\n")
    (tmp_path / "tall.mtx").write_text("2 1 2\n1 1 1\n2 1 1\n")
    (tmp_path / "wide.mtx").write_text("2 3 3\n1 1 1\n2 2 1\n1 3 2\n")
    (tmp_path / "bad.mtx").write_text("2 2 1\n1 x 5\n")
    (tmp_path / "empty.mtx").write_text("0 0 0\n")
    (tmp_path / "nocols.mtx").write_text("3 0 0\n")
    (tmp_path / "b0.vec").write_text("0\n")
    (tmp_path / "b3.vec").write_text("3\n1\n2\n3\n")
    return tmp_path


def test_det_identity(files):
    code, out = run_cli(["det", str(files / "id3.mtx")])
    assert code == 0 and out == "1\n"


def test_det_of_empty_matrix_is_one(files):
    code, out = run_cli(["det", str(files / "empty.mtx")])
    assert code == 0 and out == "1\n"


def test_solve_singular_exit_code(files):
    code, out = run_cli(["solve", str(files / "sing.mtx"), str(files / "b2.vec")])
    assert code == 1 and out == "SINGULAR\n"


def test_solve_decimal_format(files):
    code, out = run_cli(["solve", str(files / "d24.mtx"), str(files / "b13.vec"),
                         "--epsilon", "1e-6", "--format", "decimal",
                         "--decimal-digits", "8"])
    assert code == 0
    assert out.splitlines() == ["0.50000000", "0.75000000"]


def test_solve_decimal_digits_zero_prints_whole_numbers(files):
    """0 digits is a valid request, not the default: x = (1/2, 3/4)
    rounds half to even to 0 and 1."""
    code, out = run_cli(["solve", str(files / "d24.mtx"), str(files / "b13.vec"),
                         "--decimal-digits", "0"])
    assert code == 0
    assert out.splitlines() == ["0", "1"]


def test_solve_float2exp_format(files):
    code, out = run_cli(["solve", str(files / "d24.mtx"), str(files / "b13.vec")])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith("*2^-1")


def test_fixed_point_decimal_ties_round_half_even():
    args = argparse.Namespace(format="decimal", decimal_digits=2)
    assert cli._fmt_value(FixedL(1, 3), args) == "0.12"
    assert cli._fmt_value(FixedL(-3, 3), args) == "-0.38"


def test_input_error_line_numbered(files, capsys):
    code, _ = run_cli(["det", str(files / "bad.mtx")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err


@pytest.mark.parametrize("argv, line", [
    (["det", "extra.mtx"], 3),
    (["solve", "d24.mtx", "extra.vec"], 4),
])
def test_lines_past_the_declared_entries_exit_2(files, capsys, argv, line):
    """An entry line past the header's count is an input error naming its
    line, not an entry silently dropped."""
    (files / "extra.mtx").write_text("2 2 1\n1 1 3\n2 2 4\n")
    (files / "extra.vec").write_text("2\n1\n2\n3\n")
    code, out = run_cli([str(files / a) if "." in a else a for a in argv])
    assert code == 2 and out == ""
    assert f"line {line}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "d24.mtx", "b13.vec", "--epsilon", "0"],
    ["solve", "d24.mtx", "b13.vec", "--epsilon", "2"],
    ["eigs", "sym.mtx", "--epsilon", "0"],
    ["bench", "--sizes", "0"],
    ["bench", "--sizes", "4,x"],
    ["regress", "wide.mtx", "b13.vec"],
    ["solve", "d24.mtx", "b13.vec", "--decimal-digits", "-2"],
    # nothing to compute: no rows, or for regress no columns
    ["solve", "empty.mtx", "b0.vec"],
    ["regress", "empty.mtx", "b0.vec"],
    ["eigs", "empty.mtx"],
    ["eigvecs", "empty.mtx"],
    ["svd", "empty.mtx"],
    ["regress", "nocols.mtx", "b3.vec"],
])
def test_bad_argument_exit_code(files, capsys, argv):
    argv = [str(files / a) if a.endswith((".mtx", ".vec")) else a for a in argv]
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("exc", [FloatOverflow("exponent out of range"),
                                 DimensionMismatch("vector length 3 != 2")])
def test_domain_errors_exit_code(files, capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "lin_solve", fail)
    code, _ = run_cli(["solve", str(files / "d24.mtx"), str(files / "b13.vec")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_nonsquare_det_rejected(files):
    code, _ = run_cli(["det", str(files / "tall.mtx")])
    assert code == 2


def test_regress(files):
    code, out = run_cli(["regress", str(files / "tall.mtx"), str(files / "b13.vec"),
                         "--format", "decimal", "--decimal-digits", "4"])
    assert code == 0 and out.splitlines() == ["2.0000"]


def test_eigs_and_eigvecs(files):
    code, out = run_cli(["eigs", str(files / "sym.mtx"), "--epsilon", "0.1",
                         "--decimal-digits", "3"])
    assert code == 0
    vals = [float(x) for x in out.splitlines()]
    assert abs(vals[0] - 1) <= 0.1 and abs(vals[1] - 3) <= 0.1

    code, out = run_cli(["eigvecs", str(files / "sym.mtx"), "--epsilon", "0.1",
                         "--decimal-digits", "3"])
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert len(rows) == 2 and all(len(r) == 3 for r in rows)


def test_svd_cli(files):
    code, out = run_cli(["svd", str(files / "tall.mtx"), "--epsilon", "0.1",
                         "--decimal-digits", "3"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    sig = float(lines[0].split(" | ")[0])
    assert abs(sig - 2 ** 0.5) <= 0.1
    assert lines[1].startswith("- | ")


def _literal(text):
    """The exact value of a +m*2^e literal."""
    mant, exp = text.split("*2^")
    return Fraction(int(mant)) * Fraction(2) ** int(exp)


def test_solve_entry_past_double_range(tmp_path):
    """n U = 2 * 10^400 has no float: the solver's bounds are logs of the
    exact integer, and each entry lands within e^eps of the exact answer."""
    big = 10 ** 400
    (tmp_path / "big.mtx").write_text(f"2 2 2\n1 1 {big}\n2 2 3\n")
    (tmp_path / "b.vec").write_text("2\n1\n2\n")
    code, out = run_cli(["solve", str(tmp_path / "big.mtx"),
                         str(tmp_path / "b.vec"), "--epsilon", "1e-6"])
    assert code == 0
    want = oracle_solve_exact([[big, 0], [0, 3]], [1, 2])
    got = [_literal(line) for line in out.splitlines()]
    assert len(got) == len(want)
    for x, w in zip(got, want):
        assert math.exp(-1e-6) <= x / w <= math.exp(1e-6)


def test_solve_with_exact_accumulators_meets_eps(tmp_path):
    """At eps = 1e-45 on [[3, 1], [1, 2]], T (bitlen(p) + 1) + 8 bits are
    fewer than ceil(log2(1/eps)) + 4, so the accumulators are exact and
    the one quotient is rounded for the requested eps: x = (2/5, -1/5)
    within e^eps, where a quotient sized by an eps clamped to 2^-16
    missed it by 9e-13."""
    (tmp_path / "a.mtx").write_text("2 2 4\n1 1 3\n1 2 1\n2 1 1\n2 2 2\n")
    (tmp_path / "b.vec").write_text("2\n1\n0\n")
    code, out = run_cli(["solve", str(tmp_path / "a.mtx"),
                         str(tmp_path / "b.vec"), "--epsilon", "1e-45"])
    assert code == 0
    eps = Fraction(1e-45)
    for line, want in zip(out.splitlines(), (Fraction(2, 5), Fraction(-1, 5)),
                          strict=True):
        # |ratio - 1| <= eps - eps^2 keeps the ratio inside [e^-eps, e^eps]
        assert abs(_literal(line) / want - 1) <= eps - eps * eps


def test_svd_gram_bound_past_double_range(tmp_path):
    """svd of [[3, 0], [10^26, 0]] at eps 0.1: its scaled Gram operator's
    n U over the solver's eps passes 2^1024, yet the singular values come
    out within eps of sqrt(10^52 + 9) and 0, A^T A being diag(10^52 + 9, 0),
    with |A v - sigma u| <= eps."""
    a = [[3, 0], [10 ** 26, 0]]
    (tmp_path / "a.mtx").write_text(f"2 2 2\n1 1 3\n2 1 {10 ** 26}\n")
    code, out = run_cli(["svd", str(tmp_path / "a.mtx"), "--epsilon", "0.1"])
    assert code == 0
    eps = Fraction(1, 10)
    lines = out.splitlines()
    assert len(lines) == 2
    for line, lam in zip(lines, [10 ** 52 + 9, 0]):
        sigma, u, v = ([_literal(x) for x in part.split()]
                       for part in line.split(" | "))
        (sigma,) = sigma
        assert max(sigma - eps, 0) ** 2 <= lam <= (sigma + eps) ** 2
        res = [sum(a[i][j] * v[j] for j in range(2)) - sigma * u[i]
               for i in range(2)]
        assert sum(r * r for r in res) <= eps ** 2


@pytest.mark.parametrize("command,entries", [
    ("svd", "2 2 2\n1 1 3\n2 1 {big}\n"),
    ("eigvecs", "2 2 2\n1 1 {big}\n2 2 3\n"),
])
def test_vector_target_below_double_range_is_an_input_error(
        tmp_path, capsys, command, entries):
    """At 10^160 the eigenvectors' accuracy target leaves the double range
    that inverse power runs on: a documented exit code, not a traceback."""
    (tmp_path / "a.mtx").write_text(entries.format(big=10 ** 160))
    code, out = run_cli([command, str(tmp_path / "a.mtx"), "--epsilon", "0.1"])
    assert code == 2 and out == ""
    assert "below the double range" in capsys.readouterr().err


def test_eigs_requires_symmetric(tmp_path):
    (tmp_path / "ns.mtx").write_text("2 2 3\n1 1 1\n1 2 5\n2 2 1\n")
    code, _ = run_cli(["eigs", str(tmp_path / "ns.mtx")])
    assert code == 2


def test_determinism_same_seed(files):
    _, out1 = run_cli(["--seed", "5", "solve", str(files / "d24.mtx"),
                       str(files / "b13.vec")])
    _, out2 = run_cli(["--seed", "5", "solve", str(files / "d24.mtx"),
                       str(files / "b13.vec")])
    assert out1 == out2


def test_global_flags_take_effect_before_the_subcommand(
        files, monkeypatch, capsys):
    """A global flag gives the same stdout and stderr before and after the
    subcommand, and not those of no flag; a --seed before it overrides a
    bad LOSPACE_SEED."""
    cmd = ["eigs", str(files / "sym.mtx"), "--epsilon", "0.1"]
    for flags in (["--format", "decimal"], ["--decimal-digits", "3"],
                  ["--report-space"]):
        runs = []
        for argv in (cmd, flags + cmd, cmd + flags):
            code, out = run_cli(argv)
            assert code == 0, argv
            runs.append((out, capsys.readouterr().err))
        plain, before, after = runs
        assert before == after != plain, flags
    monkeypatch.setenv("LOSPACE_SEED", "x")
    code, out = run_cli(["--seed", "5", "det", str(files / "id3.mtx")])
    assert code == 0 and out == "1\n"
    code, out = run_cli(["det", str(files / "id3.mtx")])
    assert code == 2 and out == ""
    assert "LOSPACE_SEED" in capsys.readouterr().err


def test_env_seed_fallback(files, monkeypatch):
    monkeypatch.setenv("LOSPACE_SEED", "9")
    _, out1 = run_cli(["det", str(files / "id3.mtx")])
    assert out1 == "1\n"


def test_bad_env_seed_is_an_argument_error(files, monkeypatch, capsys):
    monkeypatch.setenv("LOSPACE_SEED", "abc")
    code, out = run_cli(["det", str(files / "id3.mtx")])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: LOSPACE_SEED must be an integer, got 'abc'\n")


def test_parallel_flag_is_rejected(files, capsys):
    with pytest.raises(SystemExit) as e:
        run_cli(["--parallel", "det", str(files / "id3.mtx")])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --parallel" in captured.err


def test_bench_small():
    code, out = run_cli(["bench", "--sizes", "4,8", "--epsilon", "1e-3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,nnz,ms,peak_bits,ratio"
    assert len(lines) == 3
    for line in lines[1:]:
        n, nnz, ms, peak, ratio = line.split(",")
        assert int(peak) > 0 and float(ratio) > 0


def test_bench_deterministic_apart_from_timing():
    _, out1 = run_cli(["bench", "--sizes", "4,8", "--epsilon", "1e-3"])
    _, out2 = run_cli(["bench", "--sizes", "4,8", "--epsilon", "1e-3"])

    def mask(text):
        rows = []
        for line in text.splitlines()[1:]:
            f = line.split(",")
            rows.append((f[0], f[1], f[3], f[4]))  # drop the wall-time column
        return rows

    assert mask(out1) == mask(out2)


def test_cli_entrypoint_subprocess(files):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    r = subprocess.run(
        [sys.executable, "-m", "lospace.cli", "det", str(files / "id3.mtx")],
        capture_output=True, text=True, env=env)
    assert r.returncode == 0 and r.stdout == "1\n"


def test_numpy_loads_only_for_word_size_kernels(files):
    """numpy is imported on the first word-size kernel call: importing the
    CLI and a small eigs (wide moduli only) leave it unloaded, and det,
    whose primes fit a word, still prints the exact value."""
    (files / "sym2.mtx").write_text("2 2 4\n1 1 2\n1 2 1\n2 1 1\n2 2 3\n")
    (files / "m3.mtx").write_text("3 3 5\n1 1 2\n1 2 -1\n2 2 3\n3 1 4\n3 3 5\n")
    code = (
        "import sys\n"
        "import lospace.cli as cli\n"
        "print('numpy' in sys.modules)\n"
        f"cli.main(['eigs', {str(files / 'sym2.mtx')!r}, '--epsilon', '0.05'])\n"
        "print('numpy' in sys.modules)\n"
        f"cli.main(['det', {str(files / 'm3.mtx')!r}])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    r = subprocess.run([sys.executable, "-c", code],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "False"
    assert len(lines) == 5 and lines[3] == "False"
    want = oracle_det_bareiss([[2, -1, 0], [0, 3, 0], [4, 0, 5]])
    assert lines[4] == str(want)


@st.composite
def _cli_inputs(draw):
    """(matrix text, vector text): n, m <= 3 (0 included), entries
    |v| <= 10^6, a symmetric matrix when square half the time, and a
    vector of any length <= 3, so lengths often mismatch."""
    n = draw(st.integers(0, 3))
    m = n if draw(st.booleans()) else draw(st.integers(0, 3))
    entry = st.integers(-10 ** 6, 10 ** 6) | st.just(0)
    dense = [[draw(entry) for _ in range(m)] for _ in range(n)]
    if n == m and draw(st.booleans()):
        dense = [[dense[min(i, j)][max(i, j)] for j in range(m)]
                 for i in range(n)]
    nonzero = [(i + 1, j + 1, v) for i, row in enumerate(dense)
               for j, v in enumerate(row) if v]
    matrix = "".join([f"{n} {m} {len(nonzero)}\n"]
                     + [f"{i} {j} {v}\n" for i, j, v in nonzero])
    vec = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=3))
    return matrix, "".join(f"{x}\n" for x in [len(vec)] + vec)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=_cli_inputs(), eps=st.sampled_from(["0.5", "0.1", "1e-3"]))
def test_every_subcommand_exits_with_a_documented_code(tmp_path, inputs, eps):
    """Whatever the small input, every subcommand returns 0, 1, 2 or 3 and
    lets no exception escape.  Entries stay within 10^6: with 10^30
    entries svd on a 3x3 or 3x1 matrix takes 4-36 s (2-core x86-64), and
    eigs on [[10^400, 0], [0, 3]] at eps 0.1 runs for minutes, sampling
    primes of about 1,400 bits, so wider entries would test patience, not
    exit codes."""
    mtx, vec = tmp_path / "a.mtx", tmp_path / "b.vec"
    mtx.write_text(inputs[0])
    vec.write_text(inputs[1])
    n = inputs[0].split()[0]
    for argv in (["det", str(mtx)],
                 ["solve", str(mtx), str(vec), "--epsilon", eps],
                 ["regress", str(mtx), str(vec), "--epsilon", eps],
                 ["eigs", str(mtx), "--epsilon", eps],
                 ["eigvecs", str(mtx), "--epsilon", eps],
                 ["svd", str(mtx), "--epsilon", eps],
                 ["bench", "--sizes", n, "--epsilon", eps]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (cli.EXIT_OK, cli.EXIT_SINGULAR, cli.EXIT_INPUT,
                        cli.EXIT_RETRIES), argv
