"""Benchmark for wpfield: run one workload with one seed and print its metrics.

    python3 perfbench/run.py --workload eval_grid --seed 1 --seconds 20 --trace 0

Run it from the repository root: the package is imported from ./src, so
nothing needs installing.  Workloads: eval_grid, eval_scatter, symbolic,
verify_suite (see perfbench/README.md).  With --trace 0 the run measures the
end-to-end metrics; with --trace 1 it wraps wpfield's public functions in
spans, writes the spans to perfbench/out/, and reports the per-layer metrics
and the tracing overhead.  The last line of output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import refclock

WORKLOADS = ("eval_grid", "eval_scatter", "symbolic", "verify_suite")
SETUP_RUNS = 5
CLI_RUNS = 5
RULE_TABLE_RUNS = 5

# The identity-suite cases whose time is a per-layer metric.
CASES = (
    "addition_formula", "derivative_closure_fd", "derivative_composite_fd",
    "duplication_formula", "e2_fixed_point", "e2_q_coefficients", "eta1_anchor",
    "half_period_invariants", "half_period_root_sum", "legendre_relation",
    "ode_residual", "oracle_e4", "oracle_e6", "oracle_wp", "oracle_zeta",
    "quasimodular_law", "ramanujan_fd", "s_law_exponent", "sine_limit",
    "zeta_quasi_periodicity", "zeta_three_term",
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "reduction.reduce_tau.self_us_per_op": "us",
    "reduction.reduce_point.self_us_per_op": "us",
    "reduction.self_share": "fraction",
    "reduction.unwound_frac": "fraction",
    "reduction.est_error_violation_frac": "fraction",
    "reduction.est_error_ratio_p50": "ratio",
    "reduction.delta_bad_frac": "fraction",
    "weier.wp_q.calls_per_op": "count",
    "weier.wp_prime_q.calls_per_op": "count",
    "weier.zeta_q.calls_per_op": "count",
    "weier.zeta_q.calls_per_zeta": "count",
    "weier.self_us_per_op": "us",
    "weier.self_share": "fraction",
    "eisenstein.eisenstein_at.calls_per_op": "count",
    "eisenstein.eisenstein_at.distinct_tau_frac": "fraction",
    "eisenstein.self_us_per_op": "us",
    "core.lattice_distance.calls_per_op": "count",
    "core.self_us_per_op": "us",
    "symbolic.parse_expr.self_ms_per_job": "ms",
    "symbolic.differentiate.self_ms_per_job": "ms",
    "symbolic.expr_to_text.self_ms_per_job": "ms",
    "symbolic.eval_expr.self_ms_per_job": "ms",
    "symbolic.terms_out_mean": "count",
    "symbolic.terms_out_max": "count",
    "symbolic.eval_share": "fraction",
    "symbolic.build_rule_table_ms": "ms",
    "cli.eval_cold_s": "s",
    **{f"verify.{case}.s": "s" for case in CASES},
    "verify.oracle_share": "fraction",
    "verify.oracle_lattice_points": "count",
    "weier.wp_lattice_oracle.self_ms_per_call": "ms",
    "weier.zeta_lattice_oracle.self_ms_per_call": "ms",
    "eisenstein.lattice_sum_eisenstein.self_ms_per_call": "ms",
    "trace.overhead_frac": "fraction",
}

# Child process for setup_s: fresh interpreter -> import wpfield -> the
# workload's first call, with its inputs passed as arguments.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import wpfield as W
workload, args = sys.argv[2], sys.argv[3:]
if workload == "symbolic":
    e = W.parse_expr(args[0])
    for var in args[4:]:
        e = W.differentiate(e, var)
    W.expr_to_text(e)
    W.eval_expr(e, complex(args[2]), complex(args[3]))
elif workload == "verify_suite":
    names = W.case_names()
    W.run_identity_suite(int(args[0]), only=["e2_fixed_point"] if "e2_fixed_point" in names else names[:1])
else:
    tau, z = complex(args[0]), complex(args[1])
    for f in (W.e2_anywhere, W.e4_anywhere, W.e6_anywhere, W.invariants_anywhere):
        f(tau)
    for f in (W.wp_anywhere, W.wp_prime_anywhere, W.zeta_anywhere):
        f(tau, z)
"""


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _timed_child(argv: list[str], env=None) -> tuple[float, float]:
    """Reference-speed and wall seconds a child process takes to exit."""
    return refclock.measure(subprocess.run, argv, check=True, stdout=subprocess.DEVNULL,
                            env=env, timeout=120)


def measure_setup(src: Path, workload: str, seed: int, WL) -> tuple[float, float]:
    """Medians of the set-up time on the reference-speed and wall clocks."""
    if workload == "symbolic":
        # the seed's first z job: every seed then sets up the same way
        text, kind, tau, z = next(job for job in WL.symbolic_jobs(seed) if job[1] == "z")
        args = [text, kind, repr(tau), repr(z), *WL.DERIVATIVES[kind]]
    elif workload == "verify_suite":
        args = [str(seed)]
    else:
        if workload == "eval_grid":
            tau, zs = WL.grid_inputs(seed)[0]
            z = zs[0]
        else:
            tau, z = WL.scatter_inputs(seed)[0]
        args = [repr(tau), repr(z)]
    argv = [sys.executable, "-c", SETUP_CODE, str(src), workload, *args]
    runs = [_timed_child(argv) for _ in range(SETUP_RUNS)]
    return tuple(statistics.median(clock) for clock in zip(*runs))


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_workload(WL, W, workload: str, seed: int, seconds: float, mark=None, span=None):
    """Returns the Outcome and, for eval_*, the reference samples (else None)."""
    if workload == "eval_grid":
        return WL.run_eval_grid(seed, seconds, W, mark)
    if workload == "eval_scatter":
        return WL.run_eval_scatter(seed, seconds, W, mark)
    if workload == "symbolic":
        return WL.run_symbolic(seed, seconds, W, mark), None
    return WL.run_verify_suite(seed, seconds, W, mark, span), None


def _timing_metrics(setup_s: float, lat_ns, workload: str) -> dict:
    """The timed end-to-end metrics from one clock's per-operation medians.
    A verify_suite operation is a whole suite: the sum of its cases' times."""
    lat = sorted(lat_ns)
    if workload == "verify_suite":
        lat = [sum(lat)]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) * 1e9 / sum(lat),
        "op_p50_us": statistics.median(lat) / 1e3,
        "op_p99_us": percentile(lat, 0.99) / 1e3,
    }


def end_to_end(args, src, W, WL):
    setup_ref, setup_wall = measure_setup(src, args.workload, args.seed, WL)
    # Lazy set-up (rule table, divisor-sum tables) is in setup_s; the timed
    # loop starts warm.
    W.default_rule_table()
    W.zeta_anywhere(0.1 + 1.1j, 0.3 + 0.2j)
    out, samples = run_workload(WL, W, args.workload, args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if samples is not None:
        WL.check_eval_samples(out, samples)
    # Each operation's latency is its median over the passes (workloads._Passes).
    ref = _timing_metrics(setup_ref, out.latencies_ns, args.workload)
    wall = _timing_metrics(setup_wall, out.wall_ns, args.workload)
    values = dict(ref, peak_rss_mb=peak_rss_mb)
    # the same numbers under the names the workload's users know them by
    if args.workload == "verify_suite":
        aliases = [("suite_s", values["op_p50_us"] / 1e6, "s")]
    elif args.workload == "symbolic":
        aliases = [("symbolic_jobs_per_s", values["ops_per_s"], "1/s"),
                   ("symbolic_p50_ms", values["op_p50_us"] / 1e3, "ms")]
    else:
        aliases = [("eval_per_s", values["ops_per_s"], "1/s"),
                   ("eval_p50_us", values["op_p50_us"], "us"),
                   ("eval_p99_us", values["op_p99_us"], "us")]
    lines = [f"{k} = {v:.6g} {u}" for k, v, u in aliases]
    # the wall clock too, so a gain can be checked on both (see refclock.py)
    lines.append("reference-speed / wall clock:")
    lines += [f"  {k}: {ref[k]:.6g} / {wall[k]:.6g} {END_TO_END[k]} "
              f"(ratio {ref[k] / wall[k]:.3f})" for k in ref]
    by_label: dict[str, list[int]] = {}
    for label, ns in zip(out.labels, out.latencies_ns):
        by_label.setdefault(label, []).append(ns)
    lines += [f"  {label}: median {statistics.median(v) / 1e3:.6g} us over {len(v)}"
              for label, v in by_label.items()]
    lines.append(f"operations per pass: {len(out.latencies_ns)}, passes: {out.passes}; "
                 f"each time is the operation's median over the passes")
    return out, {k: (values[k], END_TO_END[k]) for k in END_TO_END}, lines


def per_layer(args, src, W, WL, root):
    from tracing import ORACLES, Profile, Tracer

    m = dict.fromkeys(PER_LAYER, 0.0)
    lines = []
    m["symbolic.build_rule_table_ms"] = 1e3 * statistics.median(
        refclock.measure(W.build_rule_table, kind="fraction")[0] for _ in range(RULE_TABLE_RUNS))
    env = dict(os.environ, PYTHONPATH=str(src))
    cli = [sys.executable, "-m", "wpfield.cli", "eval", "--fn", "wp",
           "--tau", "0.1,1.3", "--z", "0.25,0.4"]
    m["cli.eval_cold_s"] = statistics.median(_timed_child(cli, env)[0] for _ in range(CLI_RUNS))

    W.default_rule_table()
    W.zeta_anywhere(0.1 + 1.1j, 0.3 + 0.2j)
    # The first third runs untraced; the rest replays the same inputs traced.
    base, _ = run_workload(WL, W, args.workload, args.seed, args.seconds / 3.0)
    tracer = Tracer()

    def phase(workload, seconds):
        start = len(tracer)
        out, samples = run_workload(WL, W, workload, args.seed, seconds, tracer.mark, tracer.span)
        return out, samples, Profile(tracer, start, len(tracer))

    tracer.install()
    try:
        out, samples, prof = phase(args.workload, args.seconds * 2 / 3)
        # the evaluator layers are float work (the suite's oracles aside)
        m.update(_layer_metrics(prof, out, _scale(out, "float", "fraction")))
        m["trace.overhead_frac"] = sum(out.latencies_ns) / sum(base.latencies_ns) - 1.0
        # Layers this workload never reaches are measured by one seeded pass
        # of their own work, so every traced run reports every layer.
        sym, _, sym_prof = (out, None, prof) if args.workload == "symbolic" else phase("symbolic", 0)
        m.update(_symbolic_metrics(sym_prof, sym, _scale(sym, "fraction")))
        ver, _, ver_prof = ((out, None, prof) if args.workload == "verify_suite"
                            else phase("verify_suite", 0))
        m.update(_verify_metrics(ver_prof, ver, ORACLES, _scale(ver, "numpy")))
    finally:
        tracer.uninstall()
    if samples is None:
        acc, samples = WL.run_eval_scatter(args.seed, 0.0, api=W)
    else:
        acc = out
    WL.check_eval_samples(acc, samples)
    for key in ("est_error_violation_frac", "est_error_ratio_p50", "delta_bad_frac"):
        m[f"reduction.{key}"] = acc.extra[key]
    if args.workload == "symbolic":
        lines.append("symbolic defect probe (untimed; documented weak spots of the tau-rules):")
        lines += ["  " + line for line in WL.symbolic_defect_probe(args.seed, W)]

    outdir = root / "perfbench" / "out"
    outdir.mkdir(exist_ok=True)
    tracer.write(outdir / f"trace-{args.workload}.csv")
    lines.append(f"spans: {len(tracer)} written to perfbench/out/trace-{args.workload}.csv")
    # the traced phase's own checks decide correctness; the extra passes
    # count too, so a failure anywhere is reported
    for extra in (sym, ver, acc):
        if extra is not out:
            out.absorb(extra)
    return out, {k: (v, PER_LAYER[k]) for k, v in m.items()}, lines


# Span durations are raw wall time; `scale` puts them on the reference-speed
# clock with the run's typical kernel reading (see refclock.py).


def _scale(out, *kinds) -> float:
    """The typical scale of the first of `kinds` the run had a clock for."""
    return next((out.ref_scales[k] for k in kinds if k in out.ref_scales), 1.0)


def _layer_metrics(prof, out, scale) -> dict:
    n = max(1, out.ops)
    busy = max(1, prof.busy_ns)
    us = scale / n / 1e3
    m = {
        "reduction.reduce_tau.self_us_per_op": prof.self_ns["reduction.reduce_tau"] * us,
        "reduction.reduce_point.self_us_per_op": prof.self_ns["reduction.reduce_point"] * us,
        "reduction.self_share": prof.layer_self_ns("reduction") / busy,
        "weier.self_us_per_op": prof.layer_self_ns("weier") * us,
        "weier.self_share": prof.layer_self_ns("weier") / busy,
        "eisenstein.eisenstein_at.calls_per_op": prof.calls["eisenstein.eisenstein_at"] / n,
        "eisenstein.self_us_per_op": prof.layer_self_ns("eisenstein") * us,
        "core.lattice_distance.calls_per_op": prof.calls["core.lattice_distance"] / n,
        "core.self_us_per_op": prof.layer_self_ns("core") * us,
    }
    for fn in ("wp_q", "wp_prime_q", "zeta_q"):
        m[f"weier.{fn}.calls_per_op"] = prof.calls[f"weier.{fn}"] / n
    shifts = [s for s in prof.extras["reduction.reduce_point"] if s is not None]
    m["reduction.unwound_frac"] = (
        sum(1 for s in shifts if s != (0, 0)) / len(shifts) if shifts else 0.0)
    zetas = prof.calls["reduction.zeta_anywhere"]
    m["weier.zeta_q.calls_per_zeta"] = (
        prof.calls_under("weier.zeta_q", "reduction.zeta_anywhere") / zetas if zetas else 0.0)
    # a tau counts as new the first time a pass meets it: passes repeat the inputs
    taus = prof.extras["eisenstein.eisenstein_at"]
    ops = prof.extra_ops["eisenstein.eisenstein_at"]
    per_pass = max(1, out.attempted)  # operations (tracer marks) per pass
    seen = {((op - 1) // per_pass, tau) for op, tau in zip(ops, taus)}
    m["eisenstein.eisenstein_at.distinct_tau_frac"] = len(seen) / len(taus) if taus else 0.0
    return m


def _symbolic_metrics(prof, out, scale) -> dict:
    jobs = max(1, out.ops)
    m = {f"symbolic.{fn}.self_ms_per_job": prof.self_ns[f"symbolic.{fn}"] * scale / jobs / 1e6
         for fn in ("parse_expr", "differentiate", "expr_to_text", "eval_expr")}
    terms = out.extra.get("terms_out") or [0]
    m["symbolic.terms_out_mean"] = statistics.fmean(terms)
    m["symbolic.terms_out_max"] = max(terms)
    m["symbolic.eval_share"] = prof.total_ns["symbolic.eval_expr"] / max(1, prof.busy_ns)
    return m


def _verify_metrics(prof, out, oracles, scale) -> dict:
    suites = max(1, out.ops)
    case_ns = dict(zip(out.labels, out.latencies_ns))
    m = {f"verify.{case}.s": case_ns.get(case, 0.0) / 1e9 for case in CASES}
    m["verify.oracle_share"] = sum(prof.total_ns[o] for o in oracles) / max(1, prof.busy_ns)
    m["verify.oracle_lattice_points"] = sum(sum(prof.extras[o]) for o in oracles) / suites
    for o in oracles:
        calls = prof.calls[o]
        m[f"{o}.self_ms_per_call"] = prof.self_ns[o] * scale / calls / 1e6 if calls else 0.0
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        die("--seconds must be positive")

    root = Path.cwd()
    src = root / "src"
    if not (src / "wpfield" / "__init__.py").is_file():
        die(f"no src/wpfield under {root}; run from the repository root")
    sys.path.insert(0, str(src))
    import wpfield as W
    import workloads as WL

    if args.trace:
        out, metrics, lines = per_layer(args, src, W, WL, root)
    else:
        out, metrics, lines = end_to_end(args, src, W, WL)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in out.checks:
        print(f"check: {line}")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_frac = {out.failed / max(1, out.attempted):.6g} "
          f"({out.failed} of {out.attempted} operations failed)")
    for what in out.failures:
        print(f"FAILED: {what}")
    print(json.dumps({
        "correct": out.wrong == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
