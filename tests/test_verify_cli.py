"""Identity suite plumbing and the command line interface."""

import csv
import io
import json
import math
import random
import time
from dataclasses import asdict, fields

import pytest

from wpfield import verify
from wpfield.cli import main
from wpfield.core import TolerancePolicy
from wpfield.errors import PoleProximity
from wpfield.reduction import Lattice
from wpfield.symbolic import differentiate, expr_to_text, parse_expr
from wpfield.verify import case_names, load_tolerance_config, run_identity_suite

FAST_CASES = ["sine_limit", "e2_fixed_point", "eta1_anchor", "legendre_relation"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- suite plumbing -----------------------------------------------------------


def test_case_names_sorted_and_unique():
    names = case_names()
    assert list(names) == sorted(names)
    assert len(set(names)) == len(names)


def test_subset_run_and_unknown_case():
    report = run_identity_suite(seed=7, only=FAST_CASES)
    assert {c.name for c in report.cases} == set(FAST_CASES)
    with pytest.raises(ValueError):
        run_identity_suite(only=["no_such_case"])
    with pytest.raises(ValueError):
        run_identity_suite(case_tolerances={"no_such_case": 1.0})
    # an override holds to the policy's rule: finite and positive
    for tol in (math.inf, math.nan, -1.0, 0.0):
        with pytest.raises(ValueError):
            run_identity_suite(only=["oracle_wp"], case_tolerances={"oracle_wp": tol})


def test_an_empty_selection_is_refused():
    # a report of no cases would pass while certifying nothing
    with pytest.raises(ValueError, match="no cases selected"):
        run_identity_suite(seed=1, only=[])


def test_no_tau_samples_draw_nothing():
    rng = random.Random(5)
    state = rng.getstate()
    assert verify._tau_samples(rng, 0) == []
    assert rng.getstate() == state


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_minus_form_of_wp_add_fails_duplication_formula(monkeypatch, seed):
    # the case checks wp_add(z, z) against wp(2z) whichever sign of the
    # bracket it records as fitting better
    wp_add = verify._wp_add

    def minus_form(lat, z1, z2):  # -bracket - 2 wp(z) where z1 = z2
        if z1 != z2:
            return wp_add(lat, z1, z2)
        return -wp_add(lat, z1, z2) - 4.0 * lat.wp(z1).value

    monkeypatch.setattr(verify, "_wp_add", minus_form)
    report = run_identity_suite(seed=seed, only=["addition_formula", "duplication_formula"])
    assert report.resolved["duplication_sign"] == "minus"
    assert not report.case("duplication_formula").passed
    assert report.case("addition_formula").passed


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_plus_form_of_the_three_term_identity_fails_zeta_three_term(monkeypatch, seed):
    # the case checks [sum zeta]^2 - sum wp = 0 whichever form it records as
    # fitting better
    three_term = verify._three_term

    def plus_form(lat, zs):  # [sum zeta]^2 + sum wp = 0 holds
        for lhs, rhs in three_term(lat, zs):
            yield lhs, -rhs

    monkeypatch.setattr(verify, "_three_term", plus_form)
    report = run_identity_suite(seed=seed, only=["zeta_three_term"])
    assert report.resolved["three_term_sign"] == "plus"
    assert not report.case("zeta_three_term").passed


def test_determinism_same_seed():
    a = run_identity_suite(seed=11, only=FAST_CASES)
    b = run_identity_suite(seed=11, only=FAST_CASES)
    assert [(c.name, c.max_residual, c.mean_residual) for c in a.cases] == [
        (c.name, c.max_residual, c.mean_residual) for c in b.cases
    ]


def test_report_json_schema():
    report = run_identity_suite(seed=3, only=FAST_CASES)
    doc = report.to_json_dict()
    assert set(doc) == {"seed", "timestamp", "policy", "resolved", "all_passed", "cases"}
    assert doc["seed"] == 3
    assert set(doc["policy"]) == {"identity_tol", "oracle_tol", "fd_tol"}
    assert isinstance(doc["all_passed"], bool)
    for case in doc["cases"]:
        assert set(case) == {
            "name",
            "sample_count",
            "max_residual",
            "mean_residual",
            "tolerance",
            "passed",
            "notes",
        }
        assert isinstance(case["passed"], bool)
    json.dumps(doc)  # must be serializable as-is


def _strict_json(text):
    """json.loads that refuses Infinity and NaN, which are not JSON."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


HALF_PERIOD_CASES = {"half_period_invariants", "half_period_root_sum"}


def test_a_case_that_raises_fails_without_aborting_the_suite(monkeypatch, capsys):
    healthy = run_identity_suite(seed=42)

    def pole(lattice):
        raise PoleProximity("patched half periods")

    monkeypatch.setattr(Lattice, "half_periods", pole)
    report = run_identity_suite(seed=42)
    assert [c.name for c in report.cases] == [c.name for c in healthy.cases]
    for case, before in zip(report.cases, healthy.cases):
        if case.name in HALF_PERIOD_CASES:
            assert (case.sample_count, case.passed) == (0, False)
            assert case.max_residual == case.mean_residual == math.inf
            assert case.notes == "PoleProximity: patched half periods"
        else:
            assert asdict(case) == asdict(before)
    assert report.case("half_period_root_sum").tolerance == 1e-10
    with pytest.raises(KeyError):
        report.case("nope")

    # JSON has no Infinity: the residuals of a case that raised are null
    code, out, _ = run_cli(capsys, ["verify", "--seed", "42", "--json"])
    assert code == 1
    doc = _strict_json(out)
    assert doc["all_passed"] is False
    for case in doc["cases"]:
        raised = case["name"] in HALF_PERIOD_CASES
        assert (case["max_residual"] is None) == raised
        assert (case["mean_residual"] is None) == raised
    # text and CSV keep inf
    code, out, _ = run_cli(capsys, ["verify", "--cases", "half_period_root_sum", "--csv"])
    assert code == 1
    assert list(csv.reader(io.StringIO(out)))[1][2:4] == ["inf", "inf"]
    code, out, _ = run_cli(capsys, ["verify", "--cases", "half_period_root_sum"])
    assert code == 1
    assert "FAIL half_period_root_sum: max=inf mean=inf" in out


def test_report_csv_schema():
    report = run_identity_suite(seed=3, only=FAST_CASES)
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert rows[0] == [
        "name", "sample_count", "max_residual", "mean_residual",
        "tolerance", "passed", "notes",
    ]
    assert len(rows) == len(FAST_CASES) + 1


def test_case_tolerance_override_forces_failure():
    report = run_identity_suite(
        seed=3, only=["sine_limit"], case_tolerances={"sine_limit": 1e-30}
    )
    assert not report.all_passed
    assert report.case("sine_limit").tolerance == 1e-30


IDENTITY_TOL_CASES = {
    "eta1_anchor",
    "half_period_invariants",
    "legendre_relation",
    "quasimodular_law",
    "zeta_quasi_periodicity",
}


def test_identity_tol_sets_the_exact_identity_cases(tmp_path):
    default = run_identity_suite(seed=42, only=sorted(IDENTITY_TOL_CASES))
    assert {c.tolerance for c in default.cases} == {TolerancePolicy().identity_tol} == {1e-9}
    cfg = tmp_path / "strict_identities.cfg"
    cfg.write_text("identity_tol = 1e-30\n")
    policy, overrides = load_tolerance_config(str(cfg))
    report = run_identity_suite(seed=42, policy=policy, case_tolerances=overrides)
    assert {c.name for c in report.cases if not c.passed} == IDENTITY_TOL_CASES
    assert {c.name for c in report.cases if c.tolerance == 1e-30} == IDENTITY_TOL_CASES


def test_suite_passes_seeds_1_to_20_at_the_default_tolerances():
    # the row-summed oracles agree with the evaluators to about 1e-12 on
    # every seed, so oracle_tol holds at 1e-9, and a suite takes about 0.1 s
    assert TolerancePolicy().oracle_tol <= 1e-9
    failed = [seed for seed in range(1, 21) if not run_identity_suite(seed).all_passed]
    assert failed == []


def test_config_loader(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(
        "# comment\noracle_tol = 5e-5\nfd_tol = 1e-6  # inline comment\n"
        "tol.sine_limit = 1e-11\n\n"
    )
    policy, overrides = load_tolerance_config(str(cfg))
    assert policy.oracle_tol == 5e-5
    assert policy.fd_tol == 1e-6
    assert policy.identity_tol == TolerancePolicy().identity_tol
    assert overrides == {"sine_limit": 1e-11}


def test_config_loader_rejects_bad_lines(tmp_path):
    bad = (
        "mystery = 1.0\n",
        "oracle_tol 1e-4\n",
        "fd_tol = banana\n",
        # keys that once parsed but reached no evaluator
        "series_tail_bound = 1e-12\n",
        "pole_guard_radius = 1e-3\n",
    )
    for text in bad:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        with pytest.raises(ValueError):
            load_tolerance_config(str(cfg))


def test_config_loader_rejects_a_key_given_twice(tmp_path):
    # the last value would win and the first take no effect
    cfg = tmp_path / "twice.cfg"
    for key in ("fd_tol", "tol.sine_limit"):
        cfg.write_text(f"{key} = 1e-3\n# comment\n\n{key} = 1e-5\n")
        with pytest.raises(ValueError, match=rf"twice.cfg:4: duplicate key '{key}', "
                                             r"first given on line 1$"):
            load_tolerance_config(str(cfg))


def test_every_policy_field_sets_some_case():
    # a parsed key that no case reads would be a knob that does nothing
    read = {tol for _, _, tol in verify._CASE_TABLE if isinstance(tol, str)}
    assert {f.name for f in fields(TolerancePolicy)} == read


# --- CLI ----------------------------------------------------------------------


_G2_I = math.gamma(0.25) ** 8 / (16.0 * math.pi**2)  # g2(i)


@pytest.mark.parametrize(
    "fn, expected",
    [
        ("e2", 3.0 / math.pi),
        ("e4", 3.0 * math.gamma(0.25) ** 8 / (2.0 * math.pi) ** 6),
        ("e6", 0.0),
        ("g2", _G2_I),
        ("g3", 0.0),
        ("delta", _G2_I**3),
    ],
    ids=["e2", "e4", "e6", "g2", "g3", "delta"],
)
def test_cli_eval_tau_only_at_i(capsys, fn, expected):
    code, out, _ = run_cli(capsys, ["eval", "--fn", fn, "--tau", "0,1"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["re"] - expected) < 1e-12 * max(1.0, abs(expected))
    assert abs(doc["im"]) < 1e-15 * max(1.0, abs(expected))
    assert doc["est_error"] >= 1e-12
    if fn != "delta":  # delta's estimate is relative to |delta(i)| ~ 6.8e6
        assert doc["est_error"] == 1e-12


def test_cli_eval_wp_needs_z(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--fn", "wp", "--tau", "0,1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_eval_malformed_tau_exits_2(capsys):
    for tau in ("1;2", "1,2,3"):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--fn", "e2", "--tau", tau])
        assert exc.value.code == 2, tau
    capsys.readouterr()


def test_cli_eval_pole_is_exit_3(capsys):
    code, out, err = run_cli(capsys, ["eval", "--fn", "wp", "--tau", "0,1", "--z", "0,0"])
    assert code == 3
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "PoleProximity"


@pytest.mark.parametrize(
    "argv",
    [
        ["--fn", "wp", "--tau", "0,1e-300", "--z", "0.3,0"],
        ["--fn", "wp1", "--tau", "0,1e-300", "--z", "0.3,0"],
        ["--fn", "e2", "--tau", "0.5,1e-200"],
        ["--fn", "e4", "--tau", "0.5,1e-200"],
        ["--fn", "e6", "--tau", "0.5,1e-200"],
        ["--fn", "e6", "--tau", "0.1,1e-60"],
        ["--fn", "delta", "--tau", "0.1,1e-30"],
        # subnormal Im(tau): -1/tau overflows and tau* is not finite
        ["--fn", "zeta", "--tau", "0,1e-320", "--z", "0.3,0"],
        ["--fn", "e2", "--tau", "1e-320,1e-320"],
        # a finite value whose est_error overflows: JSON has no Infinity
        ["--fn", "e4", "--tau", "0.1,1e-60"],
        ["--fn", "zeta", "--tau", "0,1e-109", "--z", "0.3,0.1"],
    ],
)
def test_cli_eval_weight_factor_underflow_is_exit_3(capsys, argv):
    code, _, err = run_cli(capsys, ["eval", *argv])
    assert code == 3
    assert json.loads(err)["error"] == "NonFiniteValue"


def test_cli_eval_modulus_past_the_largest_double_is_exit_3(capsys):
    # both parts of z are finite, but |z| is not: abs(z) raised OverflowError
    code, out, err = run_cli(capsys, ["eval", "--fn", "wp", "--tau", "1e-300,1e300",
                                      "--z", "-1.7e308,1.7e308"])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "ConvergenceDomain"


def test_cli_reduce_overflowing_tau_star_is_exit_3(capsys):
    code, out, err = run_cli(capsys, ["reduce", "--tau", "0,1e-320"])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "NonFiniteValue"


def _delta_reference(tau):
    """delta = (2*pi)^12 (th2*th3*th4/2)^8 from mpmath theta constants at tau
    itself; 100 digits cover the cancellation in th4 down to Im(tau) = 0.01."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(100):
        q = mp.exp(1j * mp.pi * mp.mpc(tau.real, tau.imag))
        t2, t3, t4 = (mp.jtheta(k, 0, q) for k in (2, 3, 4))
        return complex((2 * mp.pi) ** 12 * (t2 * t3 * t4 / 2) ** 8)


@pytest.mark.parametrize(
    "tau", [1j, 0.01j, complex(0.3, 8.0), complex(-0.3740, 0.1448)],
    ids=["i", "0.01i", "0.3+8i", "low"],
)
def test_cli_delta_estimate_is_a_tight_bound(capsys, tau):
    code, out, _ = run_cli(capsys, ["eval", "--fn", "delta", f"--tau={tau.real},{tau.imag}"])
    assert code == 0
    doc = json.loads(out)
    value = complex(doc["re"], doc["im"])
    assert abs(value - _delta_reference(tau)) <= doc["est_error"]
    assert doc["est_error"] <= max(1e-12, 1e-10 * abs(value))


def _eisenstein_reference(tau):
    """E2, E4, E6, g2, g3 from mpmath theta constants at tau itself, at 100
    digits: E2 = -th1'''(0)/th1'(0), E4 = (th2^8 + th3^8 + th4^8)/2 and
    E6 = (th2^4 + th3^4)(th3^4 + th4^4)(th4^4 - th2^4)/2."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(100):
        q = mp.exp(1j * mp.pi * mp.mpc(tau.real, tau.imag))
        t2, t3, t4 = (mp.jtheta(k, 0, q) for k in (2, 3, 4))
        e4 = (t2**8 + t3**8 + t4**8) / 2
        e6 = (t2**4 + t3**4) * (t3**4 + t4**4) * (t4**4 - t2**4) / 2
        return {
            "e2": complex(-mp.jtheta(1, 0, q, 3) / mp.jtheta(1, 0, q, 1)),
            "e4": complex(e4),
            "e6": complex(e6),
            "g2": complex(4 * mp.pi**4 / 3 * e4),
            "g3": complex(8 * mp.pi**6 / 27 * e6),
        }


@pytest.mark.parametrize("fn", ["e2", "e4", "e6", "g2", "g3"])
@pytest.mark.parametrize(
    "tau",
    [1j, 0.01j, complex(0.3, 8.0), complex(-0.3740, 0.1448), complex(-0.9167, 0.00584)],
    ids=["i", "0.01i", "0.3+8i", "low", "lower"],
)
def test_cli_eisenstein_estimates_are_tight_bounds(capsys, tau, fn):
    code, out, _ = run_cli(capsys, ["eval", "--fn", fn, f"--tau={tau.real},{tau.imag}"])
    assert code == 0
    doc = json.loads(out)
    value = complex(doc["re"], doc["im"])
    assert abs(value - _eisenstein_reference(tau)[fn]) <= doc["est_error"]
    assert doc["est_error"] <= max(1e-12, 1e-10 * abs(value))


def test_cli_eval_lower_half_plane_is_exit_3(capsys):
    code, _, err = run_cli(capsys, ["eval", "--fn", "e4", "--tau", "0,-1"])
    assert code == 3
    assert "error" in json.loads(err)


def test_cli_diff_zeta(capsys):
    code, out, _ = run_cli(capsys, ["diff", "--expr", "zeta", "--var", "z"])
    assert code == 0
    assert out.strip() == "-(wp)"


def test_cli_diff_round_trips_through_eval(capsys):
    code, out, _ = run_cli(capsys, ["diff", "--expr", "(wp^2)", "--var", "z"])
    assert code == 0
    assert out.strip() == "((2*wp)*wp1)"


def test_cli_diff_bad_expression_exit_3(capsys):
    code, _, err = run_cli(capsys, ["diff", "--expr", "(wp", "--var", "z"])
    assert code == 3
    assert json.loads(err)["error"] == "ValueError"


def test_cli_diff_output_is_diff_input(capsys):
    # tau derivatives grow fast; each printed one must parse back
    text = "(E6*zeta+3*E6)/(wp1^2+1/3)"
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["diff", "--expr", text, "--var", "tau"])
        assert code == 0
        text = out.strip()
    code, out, _ = run_cli(capsys, ["diff", "--expr", text, "--var", "z"])
    assert code == 0
    assert out.strip() == expr_to_text(differentiate(parse_expr(text), "z"))


def test_cli_diff_power_past_the_budget_exit_3(capsys):
    # multiplied out in full this power did not finish within 5 s
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, ["diff", "--expr", "--+(pi-E4)^-2112", "--var", "z"])
    assert time.perf_counter() - t0 < 0.1
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_cli_diff_power_with_huge_coefficients_exit_3(capsys):
    # 3^100000000 squares its way through integers of 1.6e8 bits: it was
    # still running after 20 s
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, ["diff", "--expr", "3^100000000*wp", "--var", "z"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_cli_diff_product_with_huge_coefficients_exit_3(capsys):
    # each power is within the budget, their product is not: refused at the
    # parse, not at printing a derivative whose coefficient str() cannot print
    code, out, err = run_cli(capsys, ["diff", "--expr", "3^9000*3^9000*wp", "--var", "z"])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"
    assert json.loads(err)["message"].startswith("product too large")


@pytest.mark.parametrize("expr", ["wp^2147483648", "(wp^2147483647)*wp"])
def test_cli_diff_exponent_past_the_cap_exit_3(capsys, expr):
    code, out, err = run_cli(capsys, ["diff", "--expr", expr, "--var", "z"])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_cli_option_values_may_start_with_a_minus(capsys):
    for argv in (["diff", "--expr", "-wp", "--var", "z"], ["diff", "--expr=-wp", "--var", "z"]):
        code, out, _ = run_cli(capsys, argv)
        assert (code, out) == (0, "-(wp1)\n")
    spaced = run_cli(capsys, ["eval", "--fn", "wp", "--tau", "-0.2,1.6", "--z", "0.3,0.4"])
    attached = run_cli(capsys, ["eval", "--fn", "wp", "--tau=-0.2,1.6", "--z=0.3,0.4"])
    assert spaced == attached
    assert spaced[0] == 0
    assert json.loads(spaced[1])["tau"] == [-0.2, 1.6]
    # a value option at the end still lacks its value
    with pytest.raises(SystemExit) as exc:
        main(["diff", "--var", "z", "--expr"])
    assert exc.value.code == 2
    # each command takes a value that starts with '-'
    code, out, _ = run_cli(capsys, ["eval", "--fn", "wp", "--tau", "0,1", "--z", "-0.3,0.4"])
    assert code == 0 and json.loads(out)["z"] == [-0.3, 0.4]
    code, out, _ = run_cli(capsys, ["reduce", "--tau", "0.3,0.4", "--z", "-1.7,2.2"])
    assert code == 0 and json.loads(out)["z_star"] is not None
    code, out, _ = run_cli(capsys, ["verify", "--seed", "-1", "--cases", "sine_limit", "--json"])
    assert code == 0 and json.loads(out)["seed"] == -1
    code, out, err = run_cli(capsys, ["series", "--fn", "e2", "--order", "-1"])
    assert (code, out) == (3, "")
    assert "got -1" in json.loads(err)["message"]


@pytest.mark.parametrize("fn, tau, z", [("wp", "nan,1", "0.3,0"), ("wp", "0,1", "inf,0"),
                                       ("wp", "0,1", "0.3,nan"), ("e2", "0,1", "nan,0")])
def test_cli_eval_non_finite_input_is_exit_3(capsys, fn, tau, z):
    # a z given to a function of tau alone is still echoed, so it is checked too
    code, out, err = run_cli(capsys, ["eval", "--fn", fn, "--tau", tau, "--z", z])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "NonFiniteValue"


def test_cli_pole_proximity_names_the_given_z(capsys):
    code, out, err = run_cli(capsys, ["eval", "--fn", "wp", "--tau", "0.3,1e-4", "--z", "0,5e-4"])
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "PoleProximity",
        "message": "z = 0.0005j is within 5.000e-04 of the lattice (guard 1.0e-03)",
    }


@pytest.mark.parametrize("expr", ["1/0", "(wp-wp)^-1"])
def test_cli_diff_division_by_zero_exit_3(capsys, expr):
    code, out, err = run_cli(capsys, ["diff", "--expr", expr, "--var", "z"])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_cli_reduce_frozen_example(capsys):
    code, out, _ = run_cli(capsys, ["reduce", "--tau", "0.3,0.4", "--z", "1.7,2.2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"] == {"a": 1, "b": -1, "c": 1, "d": 0}
    assert doc["m"] == 6 and doc["n"] == 0
    assert abs(doc["tau_star"][0] + 0.2) < 1e-9
    assert abs(doc["tau_star"][1] - 1.6) < 1e-9
    assert abs(doc["z_star"][0] + 0.44) < 1e-9
    assert abs(doc["z_star"][1] + 0.08) < 1e-9


def test_cli_reduce_of_a_z_that_lost_its_place_is_exit_3(capsys):
    # z/s = 1e300 + 1e300i rounds by 3e284: no split of it means anything
    code, out, err = run_cli(capsys, ["reduce", "--tau", "0.1,1", "--z", "1e300,1e300"])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "ConvergenceDomain"


def test_cli_reduce_without_z(capsys):
    code, out, _ = run_cli(capsys, ["reduce", "--tau", "0.5,8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["z_star"] is None
    assert doc["gamma"]["c"] == 0  # high tau only needs a translation


def test_cli_series_e2_golden(capsys):
    code, out, _ = run_cli(capsys, ["series", "--fn", "e2", "--order", "5"])
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, -24, -72, -96, -168, -144]


def test_cli_series_order_is_bounded(capsys):
    # the divisor sums cost more than linearly in the order; past the bound
    # series refuses at once instead of running out of memory
    code, out, _ = run_cli(capsys, ["series", "--fn", "e4", "--order", "10000"])
    assert code == 0
    assert len(json.loads(out)["coefficients"]) == 10001
    start = time.perf_counter()
    for order in ("10001", "1000000000", "-1"):
        code, out, err = run_cli(capsys, ["series", "--fn", "e4", "--order", order])
        assert code == 3, order
        assert out == ""
        assert json.loads(err)["error"] == "WPFieldError"
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("fn", ["wp0", "zeta0"])
def test_cli_series_offers_only_eisenstein(capsys, fn):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--fn", fn, "--order", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_verify_json_subset(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--cases", ",".join(FAST_CASES), "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert {c["name"] for c in doc["cases"]} == set(FAST_CASES)


def test_cli_verify_csv_subset(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--cases", "sine_limit", "--csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "name"
    assert rows[1][0] == "sine_limit"


def test_cli_verify_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("tol.sine_limit = 1e-30\n")
    code, out, _ = run_cli(
        capsys,
        ["verify", "--cases", "sine_limit", "--tol-file", str(cfg)],
    )
    assert code == 1
    assert "FAIL sine_limit" in out


def test_cli_verify_env_var_config(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("tol.sine_limit = 1e-30\n")
    monkeypatch.setenv("WPFIELD_TOL_FILE", str(cfg))
    code, _, _ = run_cli(capsys, ["verify", "--cases", "sine_limit"])
    assert code == 1
    # an explicit --tol-file beats the environment
    good = tmp_path / "good.cfg"
    good.write_text("tol.sine_limit = 1e-9\n")
    code, _, _ = run_cli(
        capsys, ["verify", "--cases", "sine_limit", "--tol-file", str(good)]
    )
    assert code == 0


def test_cli_verify_bad_config_exit_3(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    bad = (
        "who_knows = 1\n",
        # an infinite override would pass the case unchecked, nan and -1 fail it
        "tol.oracle_wp = inf\n",
        "tol.oracle_wp = nan\n",
        "tol.oracle_wp = -1\n",
    )
    for text in bad:
        cfg.write_text(text)
        code, out, err = run_cli(capsys, ["verify", "--tol-file", str(cfg)])
        assert code == 3, text
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"


def test_cli_verify_empty_cases_is_exit_3(capsys):
    # an empty selection, refused as run_identity_suite(only=[]) is, not the
    # whole suite
    code, out, err = run_cli(capsys, ["verify", "--cases", ""])
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "no cases selected"}


def test_cli_verify_resolved_fields_present(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--cases", "s_law_exponent,zeta_three_term,duplication_formula", "--json"],
    )
    assert code == 0
    resolved = json.loads(out)["resolved"]
    assert resolved["s_law_exponent"] == 2
    assert resolved["three_term_sign"] == "minus"
    assert resolved["duplication_sign"] == "plus"
