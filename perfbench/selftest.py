"""Self-test of the benchmark's inputs and checks.

    python3 perfbench/selftest.py

Run from the repository root.  It asserts that every workload draws the same
inputs for the same seed and other inputs for another seed; that the eval
check fails an evaluator whose output is scaled by (1 + 1e-6), for each of the
seven evaluators; that the symbolic check fails jobs differentiated with a
rule table that has one corrupted entry, and that the suite check fails a
report made with one; and that BENCHMARK.json declares exactly the metrics the
benchmark prints.  Exit code 0 when every assertion holds.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import wpfield as W  # noqa: E402

import run  # noqa: E402
import workloads as WL  # noqa: E402

SEED = 7
PERTURB = 1.0 + 1e-6
EVALUATORS = ("wp_anywhere", "wp_prime_anywhere", "zeta_anywhere", "e2_anywhere",
              "e4_anywhere", "e6_anywhere", "invariants_anywhere")


def _scaled(value):
    if isinstance(value, complex):
        return value * PERTURB
    changes = {f.name: getattr(value, f.name) * PERTURB for f in dataclasses.fields(value)
               if isinstance(getattr(value, f.name), complex)}
    return dataclasses.replace(value, **changes)


class _Perturbed:
    """wpfield's public API with one evaluator's output scaled by PERTURB."""

    def __init__(self, name: str) -> None:
        for attr in dir(W):
            if not attr.startswith("_"):
                setattr(self, attr, getattr(W, attr))
        original = getattr(W, name)
        setattr(self, name, lambda *a, **k: _scaled(original(*a, **k)))


def _eval_check(api) -> WL.Outcome:
    out, samples = WL.run_eval_scatter(SEED, 0.0, api=api)
    WL.check_eval_samples(out, samples)
    return out


def _corrupted_tables():
    e2_tau = W.build_rule_table()
    e2_tau["tau"] = tuple(W.rational(12, 13) * r if k == 5 else r
                          for k, r in enumerate(e2_tau["tau"]))
    zeta_z = W.build_rule_table()
    zeta_z["z"] = tuple(W.WP if k == 4 else r for k, r in enumerate(zeta_z["z"]))
    return {"E2 tau-rule scaled by 12/13": e2_tau, "zeta z-rule sign flipped": zeta_z}


def _symbolic_failures(rules) -> int:
    jobs = [job for job in WL.symbolic_jobs(SEED) if job[1] in ("z", "tau")]
    bad = 0
    for text, kind, tau, z in jobs:
        value, _ = WL.symbolic_job(W, text, kind, tau, z, rules=rules)
        bad += WL.check_symbolic(W, text, kind, tau, z, value) is not None
    return bad


def main() -> int:
    results = []

    def expect(ok: bool, what: str) -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    expect(WL.grid_inputs(SEED) == WL.grid_inputs(SEED)
           and WL.grid_inputs(SEED) != WL.grid_inputs(SEED + 1), "eval_grid inputs follow the seed")
    for name, inputs in (("eval_scatter", WL.scatter_inputs), ("symbolic", WL.symbolic_jobs)):
        expect(inputs(SEED) == inputs(SEED) and inputs(SEED) != inputs(SEED + 1),
               f"{name} inputs follow the seed")

    clean = _eval_check(W)
    expect(clean.wrong == 0, f"eval check passes the unmodified evaluators ({clean.failures[:1]})")
    for name in EVALUATORS:
        out = _eval_check(_Perturbed(name))
        expect(out.wrong > 0, f"eval check fails {name} scaled by (1 + 1e-6): "
                              f"{out.wrong} failed checks")

    expect(_symbolic_failures(None) == 0, "symbolic check passes the default rule table")
    names = ["derivative_closure_fd", "derivative_composite_fd", "ramanujan_fd"]
    for label, table in _corrupted_tables().items():
        bad = _symbolic_failures(table)
        expect(bad > 0, f"symbolic check fails jobs under '{label}': {bad} failed")
        report = W.run_identity_suite(SEED, rules=table, only=names)
        expect(WL.check_cases(report.cases, names) is not None,
               f"suite check fails a report made under '{label}'")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == table, f"BENCHMARK.json {key} matches the metrics printed")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")

    print(f"selftest: {sum(results)} of {len(results)} passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
