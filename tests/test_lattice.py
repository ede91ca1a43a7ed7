"""Lattice(tau): one reduction of tau for many z, equal to the anywhere
evaluators bit for bit, exceptions included."""

import ast
import cmath
import collections
import math
import random
import sys
from pathlib import Path

import pytest

import wpfield
from wpfield import eisenstein, reduction, verify
from wpfield.errors import PoleProximity
from wpfield.reduction import (
    Lattice,
    e2_anywhere,
    e4_anywhere,
    e6_anywhere,
    half_periods,
    invariants_anywhere,
    lattice_distance,
    wp_add,
    wp_anywhere,
    wp_prime_anywhere,
    zeta_anywhere,
)

ROOT = Path(__file__).resolve().parents[1]

# (Lattice method, the evaluator it must equal, whether it takes z)
PAIRS = (
    ("wp", wp_anywhere, True),
    ("wp_prime", wp_prime_anywhere, True),
    ("zeta", zeta_anywhere, True),
    ("distance", lattice_distance, True),
    ("e2", e2_anywhere, False),
    ("e4", e4_anywhere, False),
    ("e6", e6_anywhere, False),
    ("invariants", invariants_anywhere, False),
    ("half_periods", half_periods, False),
)


def _outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def _assert_lattice_matches(tau, zs):
    try:
        lat = Lattice(tau)
    except Exception as exc:  # noqa: BLE001
        lat, built = None, (type(exc), str(exc))
    for name, evaluate, takes_z in PAIRS:
        for z in zs if takes_z else (None,):
            args = (tau, z) if takes_z else (tau,)
            want = _outcome(evaluate, *args)
            if lat is None:
                # the tau reduction is the first thing either side does
                assert repr(want) == repr(built), (name, tau, z)
                continue
            got = _outcome(getattr(lat, name), *args[1:])
            # repr tells -0.0 from 0.0 and shows every digit
            assert repr(got) == repr(want), (name, tau, z)


def _baseline_sweep():
    """The est_error sweep of the ROADMAP baseline: Random(7), 300 points,
    Im tau log-uniform in [0.005, 5], Re tau in [-1, 1], |z| = 60 sqrt(U)."""
    rng = random.Random(7)
    out = []
    for _ in range(300):
        im = math.exp(rng.uniform(math.log(0.005), math.log(5.0)))
        tau = complex(rng.uniform(-1.0, 1.0), im)
        z = cmath.rect(60.0 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi))
        out.append((tau, z))
    return out


def test_lattice_equals_the_evaluators_on_the_baseline_sweep():
    for tau, z in _baseline_sweep():
        _assert_lattice_matches(tau, [z])


def test_lattice_equals_the_evaluators_on_the_eval_grid_inputs():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        workloads = pytest.importorskip("workloads")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    blocks = workloads.grid_inputs(1)
    assert len(blocks) == 16
    for tau, zs in blocks:
        _assert_lattice_matches(tau, zs)


@pytest.mark.parametrize(
    "tau, zs",
    [
        # on the lattice, next to it, and a z that has lost its place in its cell
        (complex(0.3, 0.4), [0j, 1.0 + complex(0.3, 0.4), 1e-5 + 0j]),
        (complex(-1.38324, 2.54795), [complex(-1e200, -1.6708)]),
        # a z split out of its cell, which is 0 from the lattice
        (complex(-2.4396007645409723, 1e8), [complex(1e200, 1e15)]),
        (complex(0.3, 0.4), [complex(math.nan, 0.0), complex(math.inf, 1.0), "1+"]),
        # E2's s^2 underflows at tiny Im(tau)
        (complex(0.3, 1e-200), [0.25 + 0j]),
        # tau that cannot be reduced, or is not in the upper half-plane
        (complex(1e-320, 1e-320), [0.3 + 0j]),
        (complex(0.3, -1.0), [0.3 + 0j]),
        (complex(math.nan, 1.0), [0.3 + 0j]),
    ],
)
def test_lattice_raises_what_the_evaluators_raise(tau, zs):
    _assert_lattice_matches(tau, zs)


def _count_calls(monkeypatch, name, modules):
    calls = []
    for module in modules:
        original = getattr(module, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_one_reduction_and_one_e2_sum_for_a_hundred_points(monkeypatch):
    reductions = _count_calls(monkeypatch, "reduce_tau", [reduction])
    sums = _count_calls(monkeypatch, "_e_series", [eisenstein, reduction])
    tau = complex(0.3, 0.4)
    rng = random.Random(3)
    lat = Lattice(tau)
    for _ in range(100):
        z = complex(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0))
        lat.wp(z), lat.wp_prime(z), lat.zeta(z), lat.distance(z)
    lat.e2()
    assert len(reductions) == 1
    assert [args[0] for args in sums] == ["e2"]


def test_lattice_is_immutable():
    lat = Lattice(complex(0.3, 0.4))
    assert lat.tau == complex(0.3, 0.4)
    with pytest.raises(AttributeError):
        lat.tau = 1j
    assert lat.tau == complex(0.3, 0.4)
    assert lat == Lattice(complex(0.3, 0.4))
    assert hash(lat) == hash(Lattice(complex(0.3, 0.4)))
    assert lat != Lattice(complex(0.3, 0.5))
    assert lat != complex(0.3, 0.4)
    assert repr(Lattice(1j)) == "Lattice(tau=1j)"


def test_the_suite_reuses_its_lattice_for_the_addition_formula(monkeypatch):
    # the addition and duplication cases hold a Lattice; the public wp_add
    # would reduce tau again
    def refuse(*args, **kwargs):
        raise AssertionError("the suite called the public wp_add")

    for module in (wpfield, reduction, verify):
        if hasattr(module, "wp_add"):
            monkeypatch.setattr(module, "wp_add", refuse)
    report = verify.run_identity_suite(seed=11, only=["addition_formula",
                                                      "duplication_formula"])
    assert [(case.name, case.passed) for case in report.cases] == [
        ("addition_formula", True), ("duplication_formula", True)]


def test_the_frame_stays_inside_reduction():
    # the other modules evaluate through Lattice and the public evaluators;
    # of reduction's private names they import only these two, and they
    # read none of a Lattice's reduction (gamma, s, tau*, q*, the order, E2)
    # or the points it keeps
    frame = {"_tau", "_gamma", "_s", "_tau_star", "_q", "_order", "_e2", "_points"}
    for name in ("symbolic", "cli", "verify"):
        tree = ast.parse((ROOT / "src" / "wpfield" / f"{name}.py").read_text())
        private = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "reduction" and node.level == 1
            for alias in node.names
            if alias.name.startswith("_")
        }
        assert private <= {"_wp_add", "_cell_distance"}, (name, private)
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not read & frame, (name, read & frame)
    # one evaluation path: only reduction.py imports, reads or calls the
    # series pass, the E-series, the order rule and the eta product
    kernels = {"_point_values", "_e_series", "_order", "_delta_eta_product"}
    for path in sorted((ROOT / "src" / "wpfield").glob("*.py")):
        if path.name == "reduction.py":
            continue
        used = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Name):
                used.add(node.id)
        assert not used & kernels, (path.name, used & kernels)


def test_wp_wp_prime_and_zeta_at_one_z_share_one_pass(monkeypatch):
    passes = _count_calls(monkeypatch, "_point_values", [reduction])
    lat = Lattice(complex(0.3, 0.4))
    z = complex(2.7, -1.9)
    lat.wp(z), lat.wp_prime(z), lat.zeta(z)
    assert len(passes) == 1
    lat.wp(complex(2.7, -1.9))  # an equal z, a new object
    assert len(passes) == 1


def test_wp_add_runs_one_pass_for_a_duplication_and_two_otherwise(monkeypatch):
    passes = _count_calls(monkeypatch, "_point_values", [reduction])
    tau, z = complex(0.1, 1.3), complex(0.25, 0.4)
    wp_add(tau, z, z)
    assert len(passes) == 1
    wp_add(tau, z, complex(0.6, -0.3))
    assert len(passes) == 3


def test_a_lattice_keeps_at_most_four_points():
    lat = Lattice(complex(0.3, 0.4))
    rng = random.Random(5)
    for _ in range(100):
        lat.wp(complex(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)))
    assert len(lat._points) == 4


def test_a_point_within_the_pole_guard_raises_on_every_call():
    lat = Lattice(complex(0.3, 0.4))
    z = 1.0 + complex(0.3, 0.4) + 1e-5
    for method in (lat.wp, lat.wp_prime, lat.zeta, lat.wp, lat.zeta):
        with pytest.raises(PoleProximity):
            method(z)
    assert lat._points == ()


def test_a_held_lattice_equals_a_fresh_one_on_a_seeded_sweep():
    # points repeat on the held Lattice in a random order; zero parts of
    # either sign (0.0 == -0.0) and points that raise are among them
    rng = random.Random(11)
    for _ in range(60):
        tau = complex(rng.choice([0.0, -0.0, rng.uniform(-1.0, 1.0)]),
                      math.exp(rng.uniform(math.log(0.01), math.log(5.0))))
        x, y = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        pool = [complex(x, y), complex(x, 0.0), complex(x, -0.0), complex(-x, 0.0),
                complex(-x, -0.0), complex(0.0, y), complex(-0.0, y), complex(-0.0, -0.0),
                tau + 1e-5, complex(1e13, 0.5)]
        held = Lattice(tau)
        for _ in range(40):
            name = rng.choice(("wp", "wp_prime", "zeta", "distance"))
            z = rng.choice(pool)
            got = _outcome(getattr(held, name), z)
            want = _outcome(getattr(Lattice(tau), name), z)
            assert repr(got) == repr(want), (name, tau, z)


def test_the_suite_runs_one_pass_per_point_of_a_lattice(monkeypatch):
    # each case's identity reads wp, wp' and zeta off the Lattice it holds;
    # a second pass at a (Lattice, z) would repeat the first
    placing, held = [], []  # held keeps every Lattice alive, so ids stay unique
    place, run = Lattice._point, reduction._point_values

    def point(self, z):
        placing.append((self, z))
        try:
            return place(self, z)
        finally:
            placing.pop()

    def counted(*args):
        if placing:
            lat, z = placing[-1]
            held.append(lat)
            passes[case, id(lat), repr(complex(z))] += 1
        return run(*args)

    monkeypatch.setattr(Lattice, "_point", point)
    monkeypatch.setattr(reduction, "_point_values", counted)
    passes = collections.Counter()
    for seed in (1, 2, 3):
        for case in verify.case_names():
            verify.run_identity_suite(seed=seed, only=[case])
    assert len(passes) > 500
    assert sorted({key[0] for key, count in passes.items() if count > 1}) == []
