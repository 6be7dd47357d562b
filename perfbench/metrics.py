"""Metric names, units and how each per-layer metric is derived.

The end-to-end op slots are workload-neutral so that every workload emits
every metric: op1/op2/op3 are the workload's three ops in the order
listed in ``workloads.WORKLOADS`` (for example det, solve and fine solve
on sparse-lift).  The named per-op metrics (det_s, eigs_s, ...) appear in
the readable report and the results file.
"""

from __future__ import annotations

# name -> unit; the final JSON line of an untraced run carries exactly these
END_TO_END = {
    "setup_s": "s",
    "op1_s": "s",
    "op2_s": "s",
    "op3_s": "s",
    "peak_ratio": "ratio",
    "ok_frac": "ratio",
}

# metric stem -> (spans whose calls count, spans whose self time counts)
CALLS_AND_SELF = {
    "kernels.krylov": (["kernels.Field.krylov"],) * 2,
    "kernels.horner": (["kernels.Field.horner"],) * 2,
    "kernels.bm": (["kernels.Field.berlekamp_massey"],) * 2,
    "kernels.matvec": (["kernels.Field.matvec"],) * 2,
    "linop.apply_mod": (["linop.LinearOperator.apply_mod"],) * 2,
    "linop.apply_int": (["linop.LinearOperator.apply_int"],
                        ["linop.LinearOperator.apply_int",
                         "linop.SparseMatrix.apply_int"]),
    "linop.krylov_scalars": (["linop.LinearOperator.krylov_scalars"],) * 2,
    "linop.horner_apply": (["linop.LinearOperator.horner_apply"],) * 2,
    "wiedemann.determinant_zp": (["wiedemann.determinant_zp"],) * 2,
    "wiedemann.find_kernel": (["wiedemann.find_kernel"],) * 2,
    "wiedemann.fpsolver_solve": (["wiedemann.FpSolver.solve"],) * 2,
    "spectral.shift_invert": (["spectral.shift_invert"],) * 2,
}

SELF_ONLY = {
    "primes.pool_get.self_s": ["primes.PrimePool.get"],
    "primes.crt_combine.self_s": ["primes.crt_combine"],
    "solver.determinant.self_s": ["solver.determinant"],
    "solver.solve.self_s": ["solver.RationalSolver.solve"],
}

LAYERS = ("cli", "kernels", "linop", "wiedemann", "primes", "solver",
          "spectral", "numeric")

# every label the program's meter reports; '+' is not allowed in a name
SPACE_LABELS = (
    "crt.state", "det.diag", "digit.bprod", "fpsolver.poly", "fpsolver.vecs",
    "horner.vec", "invpower.iterates", "kernel.vecs", "krylov.vec",
    "lift.accumulators", "lift.ppow", "lift.rhs+digits", "lift.rtilde",
    "linop.mod_cache", "primes.sample", "regress.atb", "solver.det",
    "spectrum.bmatrix", "wiedemann.bm", "wiedemann.seq", "wiedemann.vecs",
)


def space_metric(label: str) -> str:
    return "space." + label.replace("+", "_")


def _per_layer_units():
    units = {}
    for stem in CALLS_AND_SELF:
        units[f"{stem}.calls"] = "count"
        units[f"{stem}.self_s"] = "s"
    units.update({
        "kernels.matvec_nnz": "count",
        "wiedemann.trials": "count",
        "wiedemann.det_yield": "ratio",
        "wiedemann.fpsolver_retries": "count",
        "solver.crt_primes": "count",
        "solver.lift_T": "count",
        "solver.blocks_K": "count",
        "numeric.fl_ops": "count",
        "spectral.solves_per_node": "ratio",
        "spectral.inv_power_gap.calls": "count",
        "cli.parse_s": "s",
        "cli.format_s": "s",
    })
    units.update({name: "s" for name in SELF_ONLY})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({space_metric(label): "bits" for label in SPACE_LABELS})
    units["space.peak_bits"] = "bits"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = _per_layer_units()


def layer_metrics(tracer, space_peaks, overhead_s):
    """Every PER_LAYER metric from one traced pass.

    space_peaks: label -> peak bits over the pass's ops ("" is the total).
    """
    calls, self_s, incl_s = tracer.summary()
    out = {}
    for stem, (call_names, self_names) in CALLS_AND_SELF.items():
        out[f"{stem}.calls"] = sum(calls[n] for n in call_names)
        out[f"{stem}.self_s"] = sum(self_s[n] for n in self_names)
    for metric, names in SELF_ONLY.items():
        out[metric] = sum(self_s[n] for n in names)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v for n, v in self_s.items() if n.startswith(layer + "."))

    det_calls = calls["wiedemann.determinant_zp"]
    det_trials = tracer.count_under("linop.LinearOperator.krylov_scalars",
                                    "wiedemann.determinant_zp")
    nodes = calls["spectral.shift_invert"]
    out.update({
        "kernels.matvec_nnz": tracer.tallies["kernels.matvec_nnz"],
        "wiedemann.trials": calls["linop.LinearOperator.krylov_scalars"],
        "wiedemann.det_yield": det_calls / det_trials if det_trials else 0.0,
        "wiedemann.fpsolver_retries": tracer.count_under(
            "linop.LinearOperator.horner_apply", "wiedemann.FpSolver.solve")
        - calls["wiedemann.FpSolver.solve"],
        "solver.crt_primes": tracer.count_under(
            "wiedemann.determinant_zp", "solver.determinant", direct=True),
        "solver.lift_T": tracer.tallies["solver.lift_T"],
        "solver.blocks_K": tracer.tallies["solver.blocks_K"],
        "numeric.fl_ops": sum(n for n, _ in tracer.counters.values()),
        "spectral.solves_per_node": tracer.count_under(
            "solver.RationalSolver.solve", "spectral.shift_invert") / nodes
        if nodes else 0.0,
        "spectral.inv_power_gap.calls": calls["spectral.inv_power_gap"],
        "cli.parse_s": sum(incl_s[n] for n in (
            "cli.build_parser", "cli._load_matrix", "cli._load_vector")),
        "cli.format_s": incl_s["cli._fmt_value"],
        "space.peak_bits": space_peaks.get("", 0),
        "trace.overhead_s": overhead_s,
    })
    for label in SPACE_LABELS:
        out[space_metric(label)] = space_peaks.get(label, 0)
    return out
