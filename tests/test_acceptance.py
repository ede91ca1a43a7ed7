"""Acceptance gate: the eleven numbered criteria, one test (and line) each.

The suite report is produced once per module from the committed tolerance
config, so the numbers printed here are exactly what `wpfield verify` reports.
"""

from pathlib import Path

import pytest

from wpfield.eisenstein import q_coefficients, sigma
from wpfield.symbolic import WP, build_rule_table, rational
from wpfield.verify import run_identity_suite, load_tolerance_config

SEED = 42
CONFIG = Path(__file__).resolve().parents[1] / "tolerances.cfg"

MUTATION_CASES = ["derivative_closure_fd", "derivative_composite_fd", "ramanujan_fd"]


@pytest.fixture(scope="module")
def report():
    policy, overrides = load_tolerance_config(str(CONFIG))
    return run_identity_suite(seed=SEED, policy=policy, case_tolerances=overrides)


def announce(num, title, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {title}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_ode_residual(report):
    c = report.case("ode_residual")
    ok = c.passed and c.tolerance <= 1e-8 and c.sample_count == 100
    announce(1, "ODE residual on 100 seeded samples", ok,
             f"max={c.max_residual:.3e} tol={c.tolerance:.1e}")


def test_criterion_02_derivative_closure(report):
    pairs = report.case("derivative_closure_fd")
    comp = report.case("derivative_composite_fd")
    ok = (
        pairs.passed and pairs.sample_count == 16 and pairs.tolerance <= 1e-5
        and comp.passed and comp.sample_count == 10 and comp.tolerance <= 1e-5
    )
    announce(2, "derivative closure vs finite differences", ok,
             f"pairs max={pairs.max_residual:.3e} composites max={comp.max_residual:.3e}")


def test_criterion_03_quasimodular_law(report):
    law = report.case("quasimodular_law")
    anchor = report.case("e2_fixed_point")
    ok = (
        law.passed and law.tolerance <= 1e-9 and law.sample_count == 60
        and anchor.passed and anchor.tolerance <= 1e-10
    )
    announce(3, "E2 transformation law and E2(i) = 3/pi", ok,
             f"law max={law.max_residual:.3e} anchor={anchor.max_residual:.3e}")


def test_criterion_04_quasi_periods_and_legendre(report):
    leg = report.case("legendre_relation")
    qp = report.case("zeta_quasi_periodicity")
    anchor = report.case("eta1_anchor")
    ok = (
        leg.passed and leg.tolerance <= 1e-9 and leg.sample_count == 20
        and qp.passed and qp.tolerance <= 1e-9
        and anchor.passed and anchor.tolerance <= 1e-9
    )
    announce(4, "zeta quasi-periodicity, Legendre relation, eta1(i) = pi", ok,
             f"legendre max={leg.max_residual:.3e} eta1 diff={anchor.max_residual:.3e}")


def test_criterion_05_addition_and_duplication(report):
    add = report.case("addition_formula")
    dup = report.case("duplication_formula")
    ok = (
        add.passed and add.tolerance <= 1e-7 and add.sample_count == 50
        and dup.passed and dup.sample_count >= 5
    )
    announce(5, "addition formula on 50 pairs, duplication branch >= 5 times", ok,
             f"addition max={add.max_residual:.3e} duplication max={dup.max_residual:.3e}")


def test_criterion_06_three_term_identity(report):
    c = report.case("zeta_three_term")
    sign = report.resolved.get("three_term_sign")
    ok = c.passed and c.tolerance <= 1e-8 and c.sample_count == 30 and sign == "minus"
    announce(6, "three-term zeta identity with oracle-selected sign", ok,
             f"max={c.max_residual:.3e} sign={sign}")


def test_criterion_07_oracle_cross_validation(report):
    names = ("oracle_wp", "oracle_zeta", "oracle_e4", "oracle_e6")
    cases = [report.case(n) for n in names]
    exponent = report.resolved.get("s_law_exponent")
    ok = (
        all(c.passed and c.tolerance <= 1e-9 for c in cases)
        and report.case("oracle_wp").sample_count == 30
        and report.case("oracle_zeta").sample_count == 30
        and report.case("s_law_exponent").passed
        and exponent == 2
    )
    worst = max(c.max_residual for c in cases)
    announce(7, "row-summed lattice oracles incl. Im(tau) < 1", ok,
             f"worst max={worst:.3e} s-law weight={exponent}")


def test_criterion_08_sine_limit(report):
    c = report.case("sine_limit")
    ok = c.passed and c.tolerance <= 1e-10 and c.sample_count == 5
    announce(8, "tau = 30i sine limit", ok, f"max={c.max_residual:.3e}")


def test_criterion_09_half_period_consistency(report):
    inv = report.case("half_period_invariants")
    root = report.case("half_period_root_sum")
    ok = (
        inv.passed and inv.tolerance <= 1e-9 and inv.sample_count == 20
        and root.passed and root.tolerance <= 1e-10 and root.sample_count == 10
    )
    announce(9, "half-period symmetric functions and root sum", ok,
             f"sym max={inv.max_residual:.3e} sum max={root.max_residual:.3e}")


def test_criterion_10_e2_coefficients(report):
    coeffs = q_coefficients("e2", 10)
    exact = coeffs == [1] + [-24 * sigma(n, 1) for n in range(1, 11)]
    confirmed = report.case("e2_q_coefficients").passed
    ok = exact and confirmed
    announce(10, "E2 q-coefficients are -24*sigma1(n), oracle confirmed", ok,
             f"coefficients[:4]={coeffs[:4]}")


def _mutated_tables():
    ramanujan = build_rule_table()
    ramanujan["tau"] = tuple(
        rational(12, 13) * r if k == 5 else r for k, r in enumerate(ramanujan["tau"])
    )
    zeta_sign = build_rule_table()
    zeta_sign["z"] = tuple(WP if k == 4 else r for k, r in enumerate(zeta_sign["z"]))
    wp_term = build_rule_table()
    wp_term["tau"] = tuple(
        r + rational(1, 7) * WP if k == 2 else r for k, r in enumerate(wp_term["tau"])
    )
    return {"ramanujan 12->13": ramanujan, "zeta z-rule sign": zeta_sign,
            "wp tau-rule extra term": wp_term}


def test_criterion_11_mutation_sensitivity(report):
    failures = {}
    for label, table in _mutated_tables().items():
        mutated = run_identity_suite(seed=SEED, rules=table, only=MUTATION_CASES)
        failures[label] = [c.name for c in mutated.cases if not c.passed]
    ok = all(failures[label] for label in failures) and report.all_passed
    detail = "; ".join(f"{label} -> {len(f)} failing case(s)" for label, f in failures.items())
    announce(11, "each of 3 rule mutations breaks the suite", ok, detail)
