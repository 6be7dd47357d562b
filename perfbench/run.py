#!/usr/bin/env python3
"""lospace benchmark: CLI ops on seeded inputs, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload sparse-lift --seed 1 --seconds 42 --trace 0

``--trace 0`` times each op (one ``lospace.cli.main(argv)`` call, in
process, ``--report-space`` always on) round after round while another
round fits in ``--seconds``, checks every output against ``lospace.oracle``
outside the timed region, and prints the end-to-end metrics in reference
seconds (see pace.py).  ``--trace 1``
runs one round of the same ops untraced, then alternates traced and
untraced passes, and prints the per-layer metrics.  ``--workload all``
runs every workload in turn.  ``--smoke`` runs every workload at tiny
sizes in both modes and asserts the benchmark's own invariants.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A readable report goes to the lines above
it, and the full record (named metrics with sample counts, failures,
digests, environment; the spans of a traced run) to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import metrics
import workloads
from pace import Pace
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_ROUNDS = 5          # the peak ratio is taken over these rounds
HARD_CAP_S = 120.0      # start no further round after this long


# -- the program under test ------------------------------------------------------


def load_program():
    """Import lospace from this checkout's sources, never from elsewhere."""
    if not (SRC / "lospace" / "cli.py").is_file():
        raise SystemExit(f"error: no lospace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lospace
    import lospace.cli
    import lospace.kernels
    import lospace.oracle
    import lospace.primes

    if not Path(lospace.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported lospace from {lospace.__file__}")
    return lospace


def fresh_process_state(lospace):
    """Give every op the prime pool a new CLI process would start with.

    The pool is a process-wide cache; without this, ops after the first
    would skip the prime sampling every real invocation pays.
    """
    pool_cls = getattr(lospace.primes, "PrimePool", None)
    if pool_cls is None:
        return
    pool = pool_cls()
    for name, mod in list(sys.modules.items()):
        if name.startswith("lospace.") and mod is not None:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, pool_cls):
                    setattr(mod, attr, pool)


def cold_start():
    """Seconds a fresh interpreter takes to import lospace.cli and build
    its parser, timed inside the child.  numpy is imported first, untimed:
    its import time is the environment's, and swings with the file cache."""
    code = ("import sys, time, numpy; t = time.perf_counter(); "
            f"sys.path.insert(0, {str(SRC)!r}); import lospace.cli as c; "
            "c.build_parser(); print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout)


def environment(lospace):
    """Machine and backend; attributes a later program may drop read None."""
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    backend_for = getattr(lospace.kernels, "backend_for", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "have_numba": getattr(lospace.kernels, "HAVE_NUMBA", None),
        "LOSPACE_BACKEND": os.environ.get("LOSPACE_BACKEND"),
        # what backend_for resolves for a 61-bit and a 127-bit prime
        "backend_for": backend_for and {
            bits: backend_for((1 << bits) - 1) for bits in (61, 127)},
    }


# -- one op -------------------------------------------------------------------------


@dataclass
class OpRun:
    kind: str
    instance: int
    round_no: int
    pseed: int
    wall_s: float
    cpu_s: float
    stdout: str
    stderr: str
    error: str | None = None
    peak_bits: int = 0
    labels: dict = field(default_factory=dict)
    ref_s: float = 0.0              # wall_s in reference seconds (pace.py)

    @property
    def digest(self):
        return hashlib.sha256(self.stdout.encode()).hexdigest()


def parse_space(stderr):
    """Total and per-label peak bits from --report-space."""
    total, labels = 0, {}
    for line in stderr.splitlines():
        parts = line.split()
        if line.startswith("peak ") and len(parts) >= 2:
            total = int(parts[1])
        elif line.startswith("  ") and len(parts) >= 3 and parts[1] == "peak":
            labels[parts[0].rstrip(":")] = int(parts[2])
    return total, labels


class Bench:
    """The ops of one workload and seed.

    The first run of each (op, input) is checked against the oracle; every
    later run of the same input must reproduce its stdout digest.
    """

    def __init__(self, lospace, workload, seed, sizes, workdir):
        self.lospace = lospace
        self.cli = lospace.cli
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self._inputs = {}
        self.reference = {}         # (kind, instance) -> first stdout digest

    def inputs(self, op, instance):
        """(Instance, argv, program seed) for one input; files written once."""
        key = (op.kind, instance)
        if key not in self._inputs:
            inst = workloads.instance_for(self.workload.name, self.seed, op,
                                          instance, self.sizes)
            stem = self.workdir / f"{op.kind}-{instance}"
            paths = [stem.with_suffix(".mtx")]
            paths[0].write_text(workloads.matrix_text(inst.a))
            if op.takes_vector:
                paths.append(stem.with_suffix(".vec"))
                paths[1].write_text(workloads.vector_text(inst.b))
            pseed = workloads.program_seed(self.workload.name, self.seed, op,
                                           instance)
            argv = [op.command, *map(str, paths), *op.flags,
                    "--seed", str(pseed), "--report-space"]
            self._inputs[key] = (inst, argv, pseed)
        return self._inputs[key]

    def run_op(self, op, instance, round_no):
        inst, argv, pseed = self.inputs(op, instance)
        fresh_process_state(self.lospace)
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception:
            code, error = None, traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        run = OpRun(op.kind, instance, round_no, pseed, wall, cpu,
                    out.getvalue(), err.getvalue())
        if error is None and code != 0:
            error = f"exit code {code}: {run.stderr.strip()[-300:]}"
        if error is None and "meter imbalance" in run.stderr:
            error = "meter imbalance: " + run.stderr.strip()[-300:]
        run.error = error
        run.peak_bits, run.labels = parse_space(run.stderr)
        self._verify(op, run, inst)
        return run, inst

    def _verify(self, op, run, inst):
        """Outside the timed region: oracle on first sight, digest after."""
        if run.error is not None:
            return
        key = (op.kind, run.instance)
        if key in self.reference:
            if run.digest != self.reference[key]:
                run.error = "output differs from the first run of this input"
            return
        try:
            run.error = op.check(inst, run.stdout, self.lospace.oracle)
        except Exception as e:   # malformed output is a failed op
            run.error = f"unreadable output: {e!r}"
        if run.error is None:
            self.reference[key] = run.digest

    def round(self, round_no, instance):
        return [self.run_op(op, instance, round_no) for op in self.workload.ops]


def failure_record(bench, run):
    return {"workload": bench.workload.name, "seed": bench.seed, "op": run.kind,
            "input": run.instance, "round": run.round_no,
            "program_seed": run.pseed, "reason": run.error}


def combined_digest(runs):
    h = hashlib.sha256()
    for run in runs:
        h.update(f"{run.kind}:{run.digest}\n".encode())
    return h.hexdigest()


# -- untraced run: end-to-end metrics ------------------------------------------------


def keep_going(start, seconds, done, needed, last):
    """Another round fits: fewer than `needed` so far, or the round that
    took `last` seconds would still end within `seconds` of `start`."""
    elapsed = time.perf_counter() - start
    if done < needed:
        return not done or elapsed < HARD_CAP_S
    return elapsed + last <= seconds


def run_untraced(bench, seconds, min_rounds):
    """Rounds of fresh inputs; one cold start of the program per round.

    Every timing is kept both as wall seconds and as reference seconds
    (see pace.py); the metrics are medians of the reference seconds.
    """
    wl = bench.workload
    cold_start()                    # warms the file cache; not recorded
    start = time.perf_counter()
    pace = Pace()
    rounds, setup, setup_wall, last = [], [], [], 0.0
    while keep_going(start, seconds, len(rounds), min_rounds, last):
        t0 = time.perf_counter()
        wall = cold_start()
        setup_wall.append(wall)
        setup.append(pace.scale(wall))
        rnd = []
        for op in wl.ops:
            run, inst = bench.run_op(op, len(rounds), len(rounds))
            run.ref_s = pace.scale(run.wall_s)
            rnd.append((run, inst))
        rounds.append(rnd)
        last = time.perf_counter() - t0
    pairs = [pair for rnd in rounds for pair in rnd]
    runs = [r for r, _ in pairs]
    failed = [r for r in runs if r.error is not None]
    named = {"setup_s": {"value": statistics.median(setup), "unit": "s",
                         "samples": len(setup),
                         "wall_median": statistics.median(setup_wall)}}
    e2e = {"setup_s": named["setup_s"]["value"]}
    for slot, op in enumerate(wl.ops, 1):
        mine = [r for r in runs if r.kind == op.kind]
        walls = [r.wall_s for r in mine]
        named[op.kind] = {"value": statistics.median(r.ref_s for r in mine),
                          "unit": "s", "samples": len(mine),
                          "wall_median": statistics.median(walls),
                          "wall_min": min(walls), "wall_max": max(walls),
                          "cpu_median": statistics.median(r.cpu_s for r in mine)}
        e2e[f"op{slot}_s"] = named[op.kind]["value"]
    fixed = [pair for rnd in rounds[:min_rounds] for pair in rnd]
    peak = max(r.peak_bits / inst.space_scale() for r, inst in fixed)
    named["peak_ratio"] = {"value": peak, "unit": "ratio",
                           "samples": len(fixed)}
    named["fail_frac"] = {"value": len(failed) / len(runs), "unit": "ratio",
                          "samples": len(runs)}
    e2e["peak_ratio"] = peak
    e2e["ok_frac"] = 1.0 - len(failed) / len(runs)
    first = [r for r, _ in rounds[0]]
    return {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": metrics.END_TO_END[k]}
                    for k, v in e2e.items()},
        "named": named,
        "rounds": len(rounds),
        "failures": [failure_record(bench, r) for r in failed],
        "digest": combined_digest(first),
        "op_digests": {r.kind: r.digest for r in first},
        "samples": [[r.kind, r.instance, r.wall_s, r.ref_s, r.cpu_s,
                     r.peak_bits / inst.space_scale()] for r, inst in pairs],
    }


# -- traced run: per-layer metrics -----------------------------------------------------


def run_traced(bench, seconds):
    """Round 0 untraced, then traced and untraced passes over its inputs."""
    tracer = Tracer(bench.lospace)
    start = time.perf_counter()
    base = [r for r, _ in bench.round(0, 0)]
    runs = list(base)
    passes, spans, bits, last = [], None, [], 0.0
    while keep_going(start, seconds, len(passes), 1, last):
        t0 = time.perf_counter()
        tracer.reset()
        tracer.install()
        try:
            traced = [r for r, _ in bench.round(len(passes) + 1, 0)]
        finally:
            tracer.uninstall()
        plain = [r for r, _ in bench.round(len(passes) + 1, 0)]
        runs += traced + plain
        overhead = sum(r.wall_s for r in traced) - sum(r.wall_s for r in plain)
        space = {"": max(r.peak_bits for r in traced)}
        for r in traced:
            for label, v in r.labels.items():
                space[label] = max(space.get(label, 0), v)
        passes.append(metrics.layer_metrics(tracer, space, overhead))
        if spans is None:
            spans = tracer.dump()
            bits = sorted(set(tracer.moduli_bits))
        last = time.perf_counter() - t0
    failed = [r for r in runs if r.error is not None]
    # counts repeat exactly from pass to pass; times are medians
    layer = {k: statistics.median(p[k] for p in passes) if unit == "s"
             else passes[0][k] for k, unit in metrics.PER_LAYER.items()}
    return {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": metrics.PER_LAYER[k]}
                    for k, v in layer.items()},
        "passes": len(passes),
        "failures": [failure_record(bench, r) for r in failed],
        "digest": combined_digest(base),
        "op_digests": {r.kind: r.digest for r in base},
        "moduli_bits": [bits[0], bits[-1]] if bits else [],
        "backends": sorted(tracer.backends),
        "hook_misses": dict(tracer.hook_misses),
        "spans": spans,
    }


# -- driving ------------------------------------------------------------------------------


def run_workload(lospace, name, seed, seconds, trace, profile="full",
                 min_rounds=MIN_ROUNDS):
    wl = workloads.WORKLOADS[name]
    workdir = OUT / f"inputs-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(lospace, wl, seed, workloads.SIZES[profile], workdir)
        if trace:
            result = run_traced(bench, seconds)
        else:
            result = run_untraced(bench, seconds, min_rounds)
    finally:
        for f in workdir.iterdir():
            f.unlink()
        workdir.rmdir()
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  profile=profile, environment=environment(lospace),
                  ops=[f"op{i}={op.kind} ({' '.join((op.command, *op.flags))})"
                       for i, op in enumerate(wl.ops, 1)])
    return result


def save(result):
    OUT.mkdir(parents=True, exist_ok=True)
    stem = (f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
            f"-{result['profile']}")
    spans = result.pop("spans", None)
    if spans is not None:
        with gzip.open(OUT / f"{stem}-spans.json.gz", "wt") as fp:
            json.dump(spans, fp)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")


def report(result):
    """Readable lines: every named metric with its unit and sample count."""
    lines = [f"# {result['workload']} seed={result['seed']} "
             f"trace={result['trace']}: {'; '.join(result['ops'])}"]
    if result["trace"]:
        lines.append(f"# passes={result['passes']} moduli bits "
                     f"{result['moduli_bits']} backends {result['backends']}")
        for k, m in result["metrics"].items():
            lines.append(f"{k:34s} {m['value']:>16.6g} {m['unit']}")
    else:
        lines.append(f"# rounds={result['rounds']}")
        for k, m in result["named"].items():
            if k.endswith("_s"):
                how = (f"reference s, median of {m['samples']}; wall "
                       f"median {m['wall_median']:.4g} s")
            else:
                how = f"over {m['samples']} ops"
            lines.append(f"{k:14s} {m['value']:>12.6g} {m['unit']:6s} ({how})")
    for f in result["failures"]:
        lines.append(f"FAILED {f['workload']} seed={f['seed']} op={f['op']} "
                     f"input={f['input']} round={f['round']} "
                     f"program_seed={f['program_seed']}: {f['reason']}")
    lines.append(f"# digest {result['digest']}")
    return "\n".join(lines)


def final_line(result):
    return json.dumps({k: result[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def smoke(lospace, seed):
    """Tiny sizes, both modes, every workload: the benchmark's invariants."""
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group, table in (("end_to_end", metrics.END_TO_END),
                         ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in declared[group]}
        if listed != table:
            problems.append(f"BENCHMARK.json {group} differs from metrics.py")
    if [w["name"] for w in declared["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name, wl in workloads.WORKLOADS.items():
        runs = [run_workload(lospace, name, seed, 0.0, trace, "smoke",
                             min_rounds=1)
                for trace in (0, 0, 1)]
        for r, table in zip(runs, (metrics.END_TO_END, metrics.END_TO_END,
                                   metrics.PER_LAYER)):
            print(report(r))
            got = {k: m["unit"] for k, m in r["metrics"].items()}
            if got != table:
                problems.append(f"{name}: metrics/units differ from the table")
            if not r["correct"]:
                problems.append(f"{name}: failures {r['failures']}")
        if len({r["digest"] for r in runs}) != 1:
            problems.append(f"{name}: digests differ between runs or modes")
        layer = runs[2]["metrics"]
        for metric in wl.exercises:
            if not layer[metric]["value"]:
                problems.append(f"{name}: {metric} is zero")
    for p in problems:
        print("SMOKE FAILURE:", p)
    return not problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    lospace = load_program()
    if args.smoke:
        return 0 if smoke(lospace, args.seed) else 1
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(lospace, name, args.seed, args.seconds, args.trace)
        print(report(result), flush=True)
        save(result)
        results.append(result)
    if len(results) == 1:
        print(final_line(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": m for r in results
                        for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
