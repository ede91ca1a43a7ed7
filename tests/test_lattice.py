"""Lattice(tau): one reduction of tau for many z, equal to the anywhere
evaluators bit for bit, exceptions included."""

import ast
import cmath
import collections
import hashlib
import io
import math
import random
import sys
import threading
import tokenize
from pathlib import Path

import pytest

import wpfield
from wpfield import eisenstein, reduction, verify
from wpfield.errors import PoleProximity, WPFieldError
from wpfield.reduction import (
    Lattice,
    e2_anywhere,
    e4_anywhere,
    e6_anywhere,
    half_periods,
    invariants_anywhere,
    lattice_distance,
    reduce_point,
    reduce_tau,
    wp_add,
    wp_anywhere,
    wp_prime_anywhere,
    zeta_anywhere,
)
from wpfield.symbolic import E2, E4, E6, TAU, WP, WP1, Z, ZETA, eval_expr, fd_check, rational

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


def _golden_sweep():
    """2000 (tau, z): Random(2027), Im tau log-uniform in [1e-4, 5], Re tau in
    [-1, 1], |z| = 85 sqrt(U); then edge points, where each raise of the
    reduction, the split and the transports shows."""
    rng = random.Random(2027)
    for _ in range(2000):
        tau = complex(rng.uniform(-1.0, 1.0), math.exp(rng.uniform(math.log(1e-4), math.log(5.0))))
        yield tau, cmath.rect(85.0 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi))
    yield from [
        (1e-320j, 0.3), (complex(1e-320, 1e-320), 0.3), (1e-20j, complex(0.1, 0.1)),
        (complex(0.3, 1e-16), 0.2), (complex(-2.4396007645409723, 1e8), 0.3),
        (1j, 1e13 + 0.5), (complex(-1.38324, 2.54795), complex(-1e200, -1.6708)),
        (complex(0.1, 1e-9), 0.5), (complex(1e9, 1.0), complex(0.25, 0.1)),
        (complex(0.3, math.inf), 0.2), (1j, complex(math.nan, 0.0)), (1e-300j, 1e-300),
        (complex(0.5, math.sqrt(0.75)), 0.5), (complex(0.2, 1e-6), 1e250j),
        # wp and zeta overflow in their transport, E2 in its own
        (1e-155j, complex(-0.5, 3e-156)),
    ]


def _tau_errors(tau):
    """The est_error the CLI reports for each function of tau alone."""
    lat = Lattice(tau)
    inv = lat.invariants()
    values = {"e2": lat.e2(), "e4": lat.e4(), "e6": lat.e6(), "g2": inv.g2, "g3": inv.g3,
              "delta": inv.delta}
    return [lat._tau_error(fn, value) for fn, value in values.items()]


def _golden_outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return f"{type(exc).__name__}: {exc}"


# SHA-256 of the golden sweep's outcomes, recorded before the Lattice took
# gamma as four ints, the order a table and the transports one finiteness
# test: values, est_error and exceptions have not moved by a bit since.
GOLDEN_SHA256 = "9acd602b61200e1f92f578cc29d29b2faf7e1b9b064f041d4b591e7bb5ce9cbc"


def test_the_evaluators_match_the_golden_sweep_bit_for_bit():
    lines = [
        " ".join([_golden_outcome(fn, tau, z)
                  for fn in (wp_anywhere, wp_prime_anywhere, zeta_anywhere, lattice_distance,
                             reduce_point)]
                 + [_golden_outcome(fn, tau)
                    for fn in (e2_anywhere, e4_anywhere, e6_anywhere, invariants_anywhere,
                               half_periods, _tau_errors)])
        for tau, z in _golden_sweep()
    ]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_SHA256


def test_a_lattice_holds_the_walks_gamma_and_scale():
    for tau, _ in _golden_sweep():
        try:
            gamma, tau_star = reduce_tau(tau)
        except Exception as exc:  # noqa: BLE001 - the Lattice must raise it too
            assert _outcome(Lattice, tau) == (type(exc), str(exc)), tau
            continue
        lat = Lattice(tau)
        assert lat._gamma == (gamma.a, gamma.b, gamma.c, gamma.d), tau
        assert repr((lat._tau_star, lat._s)) == repr((tau_star, gamma.scale(tau))), tau
        assert lat._s_abs == abs(lat._s), tau


def test_every_lattice_sums_within_the_order_table():
    # _order is the table alone: the walk leaves Im(tau*) >= sqrt(3/4 - 1e-12)
    # (reduction._CIRCLE_EPS), so |q*| <= 0.0043334 < _ORDER_BOUNDS[-1].
    # Checked on the golden sweep's tau, on seeded tau down to Im tau = 1e-4,
    # and within 1e-12 inside and outside the unit arc at rho, -conj(rho), i
    rng = random.Random(28)
    taus = [tau for tau, _ in _golden_sweep()]
    taus += [complex(rng.uniform(-3.0, 3.0), math.exp(rng.uniform(math.log(1e-4), math.log(5.0))))
             for _ in range(10_000)]
    for corner in (cmath.exp(2j * math.pi / 3.0), cmath.exp(1j * math.pi / 3.0), 1j):
        taus += [corner * r for r in (1.0 - 1e-12, 1.0 - 4e-13, 1.0, 1.0 + 4e-13, 1.0 + 1e-12)]
        taus += [corner + d for d in (1e-12, -1e-12, 4e-13, -4e-13)]
    worst = 0.0
    for tau in taus:
        try:
            lat = Lattice(tau)
        except (WPFieldError, ValueError):
            continue
        assert abs(lat._q) <= eisenstein._ORDER_BOUNDS[-1] and lat._order <= 10, tau
        worst = max(worst, abs(lat._q))
    assert 0.0043334 < worst <= 0.0043335


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
    reductions = _count_calls(monkeypatch, "_walk", [reduction])
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
    # the other modules evaluate through Lattice's public methods and the
    # public evaluators; of reduction's private names each imports only its
    # own few, and none reads a Lattice's reduction (gamma, s, |s|, the
    # scaled pole guard, tau*, q*, the order, E2, E4, E6), the points it
    # keeps, or the point protocol behind its methods
    frame = {"_tau", "_gamma", "_s", "_s_abs", "_guard", "_tau_star", "_q", "_order", "_e2",
             "_e4", "_e6", "_points",
             "_place", "_point", "_fresh_point", "_wp", "_wp_prime", "_zeta", "_e2_star",
             "_too_near"}
    allowed = {"symbolic": {"_tau_lattice"}, "verify": {"_wp_add", "_cell_distance"},
               "cli": set()}
    for name, own in allowed.items():
        tree = ast.parse((ROOT / "src" / "wpfield" / f"{name}.py").read_text())
        private = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "reduction" and node.level == 1
            for alias in node.names
            if alias.name.startswith("_")
        }
        assert private <= own, (name, private)
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


def test_every_private_name_of_the_package_is_used():
    # a deleted code path leaves no orphan behind: each private name that a
    # module of the package defines at its top level is also named in the
    # code of the package (comments and strings do not count) somewhere
    # other than where it is defined
    sources = [path.read_text() for path in sorted((ROOT / "src" / "wpfield").glob("*.py"))]
    words = collections.Counter(
        token.string
        for text in sources
        for token in tokenize.generate_tokens(io.StringIO(text).readline)
        if token.type == tokenize.NAME
    )
    defined = collections.Counter()
    for text in sources:
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            defined.update(n for n in names if n.startswith("_") and not n.endswith("__"))
    assert len(defined) > 100
    orphans = sorted(name for name, count in defined.items() if words[name] <= count)
    assert orphans == []


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


def test_a_lattice_keeps_at_most_five_points():
    lat = Lattice(complex(0.3, 0.4))
    rng = random.Random(5)
    for _ in range(100):
        lat.wp(complex(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)))
    assert len(lat._points) == 5


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


# The functions of tau alone and the Lattice method each one is.
TAU_ONLY = (
    (e2_anywhere, "e2"),
    (e4_anywhere, "e4"),
    (e6_anywhere, "e6"),
    (invariants_anywhere, "invariants"),
    (half_periods, "half_periods"),
)


def _memo_key(tau):
    """The key the memo of the last tau files tau under, or None for a tau
    that is not a number."""
    try:
        return reduction._key(complex(tau))
    except (TypeError, ValueError):
        return None


def test_the_last_tau_memo_answers_as_a_fresh_lattice(monkeypatch):
    # repeated, alternating and raising tau, zero real parts of either sign
    # among them; each answer is a fresh Lattice's, value and est_error
    # digits or exception and message, whether the memo holds tau or not
    monkeypatch.setattr(reduction, "_last_tau", (None, None))
    rng = random.Random(33)
    pool = [complex(rng.uniform(-1.0, 1.0), math.exp(rng.uniform(math.log(0.005), math.log(5.0))))
            for _ in range(6)]
    pool += [complex(0.0, 1.0), complex(-0.0, 1.0), complex(-0.0, 0.7), complex(0.0, 0.7),
             1e-320j, complex(0.3, math.inf), complex(0.3, -1.0),
             complex(0.3, 1e-200),  # E2's s^2 underflows, E4's and E6's s^k too
             complex(0.1, 1e-9),  # a half period within the pole guard
             "0.2+1.1j", "1+"]
    hot = cold = raised = 0
    tau = pool[0]
    for _ in range(600):
        if rng.random() < 0.4:
            tau = rng.choice(pool)
        evaluate, name = rng.choice(TAU_ONLY)
        warm = reduction._last_tau[0] is not None and reduction._last_tau[0] == _memo_key(tau)
        got = _outcome(evaluate, tau)
        want = _outcome(lambda: getattr(Lattice(tau), name)())
        assert repr(got) == repr(want), (name, tau, warm)
        hot += warm
        cold += not warm
        raised += got[0] != "value"
    assert hot > 200 and cold > 200 and raised > 100
    # the kept Lattice is the one of the last tau that built one
    kept, lat = reduction._last_tau
    assert kept == reduction._key(lat.tau)


def test_eval_expr_and_fd_check_on_the_shared_lattice_answer_as_on_a_cold_one(monkeypatch):
    # seeded expressions over all eight generators at repeated and
    # alternating tau, zero real parts of either sign, tau that raise and z
    # within the pole guard; each value or exception, read with the slot of
    # the last tau as the calls before left it, equals the one read with the
    # slot emptied, which the next call then finds
    monkeypatch.setattr(reduction, "_last_tau", (None, None))
    rng = random.Random(34)
    pieces = (WP, WP1, ZETA, E2, E4, E6, Z, TAU)
    exprs = [piece + rational(1, 3) for piece in pieces]
    for _ in range(12):
        a, b, c, d = (rng.choice(pieces) for _ in range(4))
        exprs.append((a * b + rational(2) * c) / (d * d + rational(1, 3)))
    taus = [complex(rng.uniform(-1.0, 1.0), math.exp(rng.uniform(math.log(0.05), math.log(3.0))))
            for _ in range(4)]
    taus += [complex(0.0, 1.0), complex(-0.0, 1.0), complex(0.3, -1.0), 1e-320j,
             complex(0.3, 1e-200)]  # E2's s^2 underflows
    x, y = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
    zs = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(4)]
    zs += [complex(x, 0.0), complex(x, -0.0), complex(-0.0, y), 0j]  # 0j is on the lattice
    outcomes = collections.Counter()
    tau = taus[0]
    for _ in range(400):
        if rng.random() < 0.4:
            tau = rng.choice(taus)
        z = 1.0 + tau + 1e-5 if rng.random() < 0.1 else rng.choice(zs)  # within the pole guard
        e = rng.choice(exprs)
        call = rng.choice([(eval_expr, e, tau, z), (fd_check, e, "z", tau, z),
                           (fd_check, e, "tau", tau, z)])
        warm = reduction._last_tau[0] is not None and reduction._last_tau[0] == _memo_key(tau)
        got = _outcome(*call)
        reduction._last_tau = (None, None)
        want = _outcome(*call)
        assert repr(got) == repr(want), (call, warm)
        outcomes[warm, got[0] == "value"] += 1
    assert min(outcomes.values()) > 20, outcomes
    # fd_check in z: five points at one tau on one walk and one sum of each
    # series used; the functions of tau alone then find that Lattice
    walks = _count_calls(monkeypatch, "_walk", [reduction])
    sums = _count_calls(monkeypatch, "_e_series", [eisenstein, reduction])
    passes = _count_calls(monkeypatch, "_point_values", [reduction])
    reduction._last_tau = (None, None)
    tau, z = complex(0.2, 0.9), complex(0.3, 0.25)
    fd_check(WP * ZETA + E4, "z", tau, z)
    assert len(walks) == 1 and len(passes) == 5
    assert sorted(args[0] for args in sums) == ["e2", "e4"]
    e2_anywhere(tau)
    assert len(walks) == 1 and len(sums) == 2


def test_functions_of_tau_alone_reduce_once_and_sum_each_series_once(monkeypatch):
    monkeypatch.setattr(reduction, "_last_tau", (None, None))
    walks = _count_calls(monkeypatch, "_walk", [reduction])
    sums = _count_calls(monkeypatch, "_e_series", [eisenstein, reduction])
    tau, z = complex(0.3, 0.4), complex(4.3, 1.9)
    values = [repr(evaluate(tau)) for evaluate, _ in TAU_ONLY]
    assert len(walks) == 1
    assert sorted(args[0] for args in sums) == ["e2", "e4", "e6"]
    # a function of (tau, z) builds its own Lattice: it walks and sums E2
    # again, and the memo neither serves it nor loses the Lattice it holds
    kept = reduction._last_tau
    wp_anywhere(tau, z)
    assert reduction._last_tau is kept
    assert len(walks) == 2 and [args[0] for args in sums].count("e2") == 2
    assert [repr(evaluate(tau)) for evaluate, _ in TAU_ONLY] == values
    assert len(walks) == 2 and len(sums) == 4
    # the memo holds one tau: a new tau walks, and so does the old one after it
    e4_anywhere(complex(0.3, 0.5))
    e4_anywhere(tau)
    assert len(walks) == 4
    # an eval_scatter point (E2, E4, E6, the invariants, then wp, wp', zeta
    # at a new tau): 4 walks, E2 summed 3 times, E4 and E6 once each
    walks.clear(), sums.clear()
    tau = complex(-0.2, 1.6)
    for evaluate in (e2_anywhere, e4_anywhere, e6_anywhere, invariants_anywhere):
        evaluate(tau)
    for evaluate in (wp_anywhere, wp_prime_anywhere, zeta_anywhere):
        evaluate(tau, z)
    assert len(walks) == 4
    assert collections.Counter(args[0] for args in sums) == {"e2": 3, "e4": 1, "e6": 1}


def test_threads_that_alternate_tau_get_their_own_values():
    # racing threads share the one memo slot: each may miss, none may read
    # the other tau's Lattice
    taus = (complex(0.3, 0.4), complex(-0.2, 1.6))
    want = {tau: [repr(getattr(Lattice(tau), name)()) for _, name in TAU_ONLY] for tau in taus}
    wrong = []
    start = threading.Barrier(6)

    def work(k):
        start.wait(timeout=30)
        for i in range(1000):
            tau = taus[(i + k) % 2]
            evaluate, _ = TAU_ONLY[(i // 2 + k) % len(TAU_ONLY)]
            got = repr(evaluate(tau))
            if got != want[tau][(i // 2 + k) % len(TAU_ONLY)]:
                wrong.append((tau, evaluate.__name__, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
