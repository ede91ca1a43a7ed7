"""Reduction to the fundamental domain and the evaluate-anywhere transports."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpfield import cli, core, eisenstein, reduction, weier
from wpfield.core import DEFAULT_POLICY, _coords, _nome
from wpfield.eisenstein import _e_series, _order, _reduced_basis
from wpfield.errors import (
    ConvergenceDomain,
    DegenerateConfiguration,
    NearSingular,
    NonFiniteValue,
    PoleProximity,
)
from wpfield.reduction import (
    Lattice,
    UnimodularMatrix,
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
from wpfield.symbolic import E2, E4, E6, TAU, WP, WP1, ZETA, Z, eval_expr, fd_check
from wpfield.weier import _corner_distance, _point_values, wp_lattice_oracle, zeta_lattice_oracle


def test_matrix_determinant_validated():
    with pytest.raises(ValueError):
        UnimodularMatrix(1, 1, 1, 1)
    UnimodularMatrix(2, 1, 1, 1)  # det = 1, fine


def test_matrix_group_operations():
    s = UnimodularMatrix.inversion()
    t = UnimodularMatrix.translation(3)
    assert (s @ s.inverse()) == UnimodularMatrix.identity()
    assert (t @ t.inverse()) == UnimodularMatrix.identity()
    st_ = s @ t
    tau = complex(0.3, 1.1)
    assert abs(st_.mobius(tau) - s.mobius(t.mobius(tau))) < 1e-14


def test_mobius_scale_consistency():
    g = UnimodularMatrix(2, 1, 1, 1)
    tau = complex(0.2, 0.9)
    assert abs(g.mobius(tau) - (2 * tau + 1) / g.scale(tau)) < 1e-15


@given(st.floats(-8.0, 8.0), st.floats(0.05, 20.0))
@settings(max_examples=80, deadline=None)
def test_reduce_tau_lands_in_fundamental_domain(re, im):
    tau = complex(re, im)
    gamma, tau_star = reduce_tau(tau)
    assert abs(gamma.mobius(tau) - tau_star) < 1e-9 * max(1.0, abs(tau_star))
    assert -0.5 <= tau_star.real < 0.5
    assert abs(tau_star) >= 1.0 - 1e-9
    assert tau_star.imag >= im - 1e-12  # reduction never lowers Im


def test_reduce_tau_identity_when_already_reduced():
    for tau in (1j, complex(0.25, 2.0), complex(-0.5, 1.3)):
        gamma, tau_star = reduce_tau(tau)
        assert gamma == UnimodularMatrix.identity()
        assert tau_star == tau


def test_reduce_tau_corner_terminates():
    # the corner exp(i*pi/3) sits on both boundary arcs; the tie-break sends it
    # to the left corner without cycling
    gamma, tau_star = reduce_tau(cmath.exp(1j * math.pi / 3.0))
    assert abs(tau_star - complex(-0.5, math.sqrt(3.0) / 2.0)) < 1e-9
    assert -0.5 <= tau_star.real < 0.5
    assert abs(tau_star) >= 1.0 - 1e-9


def _reference_walk(tau):
    """The SL(2,Z) walk of reduce_tau, with gamma a product of
    UnimodularMatrix.translation and .inversion steps."""
    eps = 1e-12
    cur = complex(tau)
    gamma = UnimodularMatrix.identity()
    for _ in range(10_000):
        k = math.floor(cur.real + 0.5)
        if k != 0:
            cur = cur - k
            gamma = UnimodularMatrix.translation(-k) @ gamma
        norm2 = cur.real * cur.real + cur.imag * cur.imag
        if norm2 < 1.0 - eps:
            cur = -1.0 / cur
            gamma = UnimodularMatrix.inversion() @ gamma
            continue
        if norm2 <= 1.0 + eps and cur.real > eps:
            cur = -1.0 / cur
            gamma = UnimodularMatrix.inversion() @ gamma
        return gamma, cur
    raise AssertionError(f"reference walk did not settle at {tau!r}")


def test_integer_walk_equals_the_matrix_product_walk():
    rng = random.Random(11)
    taus = [
        complex(rng.uniform(-3.0, 3.0), math.exp(rng.uniform(math.log(1e-6), math.log(10.0))))
        for _ in range(2000)
    ]
    rho = cmath.exp(2j * math.pi / 3.0)
    corner = cmath.exp(1j * math.pi / 3.0)
    taus += [1j, rho, corner]
    taus += [corner + d for d in (1e-13, -1e-13, 1e-13j, -1e-13j)]
    for tau in taus:
        assert reduce_tau(tau) == _reference_walk(tau), tau
    # subnormal Im(tau): tau* overflows, inside the walk or at its end
    for tau in (1e-320j, 1e-320 + 1e-320j):
        with pytest.raises(NonFiniteValue):
            reduce_tau(tau)


def _split(tau, z):
    """reduce_point's (m, n, z*) at a reduced tau, where gamma = I and s = 1,
    so z/s = z and z* is the split of z itself."""
    rr = reduce_point(tau, z)
    assert rr.gamma == UnimodularMatrix.identity() and rr.scale == 1.0, tau
    return rr.m, rr.n, rr.z_star


def test_reduce_point_splits_a_reduced_tau_exactly():
    tau = complex(-0.2, 1.6)
    z = complex(3.7, -2.9)
    m, n, z_star = _split(tau, z)
    a, b = _coords(tau, z_star)
    assert 0.0 <= a < 1.0 and 0.0 <= b < 1.0
    assert abs(z_star + m + n * tau - z) < 1e-12


@pytest.mark.parametrize("z", [complex(0.5, -1e-17), -1e-17 + 0.5 * complex(0.1, 1.3)],
                         ids=["a-edge", "b-edge"])
def test_reduce_point_moves_a_far_edge_point_to_the_near_edge(z):
    # a coordinate a rounding below an integer rounds the subtraction onto
    # a or b = 1; at a = 1, |q/u| = 1 and the pass refused a point 0.5 from
    # the lattice
    tau = complex(0.1, 1.3)
    m, n, z_star = _split(tau, z)
    a, b = _coords(tau, z_star)
    assert 0.0 <= a < 1.0 and 0.0 <= b < 1.0
    assert abs(z_star + m + n * tau - z) < 1e-15
    for evaluate, oracle in ((wp_anywhere, wp_lattice_oracle),
                             (zeta_anywhere, zeta_lattice_oracle)):
        want = oracle(tau, z, 400)
        assert abs(evaluate(tau, z).value - want) <= 1e-13 * abs(want)


def test_reduce_point_pins_near_edge_points_in_the_cell():
    # 200000 points (m0 + eps_b) + (n0 + eps_a) tau at 200 reduced tau, each
    # eps one of 0, +-1e-17, +-1e-16 or U(0, 1): the subtraction rounds b a
    # rounding below 0 at about one point in five unless b is pinned at 0
    rng = random.Random(5)
    roundings = (0.0, 1e-17, -1e-17, 1e-16, -1e-16)
    eps = [rng.choice(roundings) if rng.random() < 5 / 6 else rng.random()
           for _ in range(1009)]
    for _ in range(200):
        tau = 0.5j
        while abs(tau) < 1.0:
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 3.0))
        lat = Lattice(tau)
        assert lat._gamma == (1, 0, 0, 1), tau
        for k in range(1000):
            m0, n0 = k % 13 - 6, k // 13 % 13 - 6
            z = (m0 + eps[k]) + (n0 + eps[(7 * k + 3) % 1009]) * tau
            z_star = reduce_point(lat, z).z_star
            a, b = _coords(tau, z_star)
            assert 0.0 <= a < 1.0 and 0.0 <= b < 1.0, (tau, z)


def _edge_sweep():
    """3000 tau, Re ~ U(-3, 3) and Im log-uniform in [0.1, 5] (Random(3)),
    each with the points 1/2, tau*/2, (1 + tau*)/2, 0.3 and 0.7 of its
    reduced cell carried back by s, so that z/s falls on a cell edge."""
    rng = random.Random(3)
    for _ in range(3000):
        tau = complex(rng.uniform(-3.0, 3.0), math.exp(rng.uniform(math.log(0.1), math.log(5.0))))
        rr = reduce_point(tau)
        for p in (0.5, rr.tau_star / 2.0, (1.0 + rr.tau_star) / 2.0, 0.3, 0.7):
            yield tau, rr.scale * p


def test_edge_points_split_into_the_cell_and_evaluate():
    # z/s lands within a rounding of a cell edge: a z* rounded onto the far
    # edge (a = 1) would make |q/u| = 1, which the series pass refuses
    for k, (tau, z) in enumerate(_edge_sweep()):
        rr = reduce_point(tau, z)
        a, b = _coords(rr.tau_star, rr.z_star)
        assert 0.0 <= a < 1.0 and 0.0 <= b < 1.0, (tau, z)
        wp, zeta = wp_anywhere(tau, z), zeta_anywhere(tau, z)
        if k % 100 == 0:
            assert abs(wp.value - wp_lattice_oracle(tau, z, 400)) <= wp.est_error, (tau, z)
            assert abs(zeta.value - zeta_lattice_oracle(tau, z, 400)) <= zeta.est_error, (tau, z)


def test_reduce_point_frozen_example():
    rr = reduce_point(complex(0.3, 0.4), complex(1.7, 2.2))
    assert (rr.gamma.a, rr.gamma.b, rr.gamma.c, rr.gamma.d) == (1, -1, 1, 0)
    assert abs(rr.tau_star - complex(-0.2, 1.6)) < 1e-12
    assert (rr.m, rr.n) == (5, -1)
    assert abs(rr.z_star - complex(0.36, 1.52)) < 1e-12
    assert abs(rr.scale - complex(0.3, 0.4)) < 1e-15


def test_lattice_distance_matches_brute_force():
    tau = complex(0.3, 0.4)
    z = complex(0.23, 0.11)
    brute = min(
        abs(z - (m + n * tau)) for m in range(-30, 31) for n in range(-30, 31)
    )
    assert abs(lattice_distance(tau, z) - brute) < 1e-12


def test_wp_anywhere_agrees_with_direct_series_on_reduced_input():
    # gamma = I and z in the cell: the transport and the split change no bit
    tau, z = complex(0.1, 1.5), complex(0.3, 0.4)
    q = _nome(tau)
    order = _order(abs(q))
    wp, _, zeta = _point_values(tau, q, order, z)
    eta1 = (math.pi**2 / 3.0) * _e_series("e2", q, order)
    assert wp_anywhere(tau, z).value == wp - eta1
    assert zeta_anywhere(tau, z).value == zeta + eta1 * z - 1j * math.pi


def test_translation_invariance_of_wp():
    tau, z = complex(0.13, 1.21), complex(0.31, 0.42)
    assert abs(wp_anywhere(tau + 1.0, z).value - wp_anywhere(tau, z).value) < 1e-12
    assert abs(wp_anywhere(tau, z + 1.0).value - wp_anywhere(tau, z).value) < 1e-12
    assert abs(wp_anywhere(tau, z + tau).value - wp_anywhere(tau, z).value) < 1e-12


def test_inversion_covariance_of_wp():
    # wp(tau; z) = tau^-2 wp(-1/tau; z/tau), checked from the reduced side
    tau, z = complex(0.05, 1.4), complex(0.27, 0.61)
    lhs = wp_anywhere(-1.0 / tau, z / tau).value
    rhs = tau**2 * wp_anywhere(tau, z).value
    assert abs(lhs - rhs) < 1e-9


def test_wp_prime_weight_three():
    tau, z = complex(0.05, 1.4), complex(0.27, 0.61)
    lhs = wp_prime_anywhere(-1.0 / tau, z / tau).value
    rhs = tau**3 * wp_prime_anywhere(tau, z).value
    assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize(
    "tau, m, n",
    [
        (complex(-0.2, 1.6), 3, -2),
        (complex(-0.2, 1.6), 12, -10),
        (complex(0.3, 0.4), 2, 5),  # s = tau, |s| = 0.5
        (complex(0.3, 0.4), -11, 10),
        (complex(0.21, 0.03), 10, -13),  # |s| = 0.16, Im tau* = 1.2
    ],
)
def test_zeta_unwinds_quasi_periods(tau, m, n):
    # eta1 = 2 zeta(1/2), eta2 = 2 zeta(tau/2) from the theta reference, not
    # from the closed forms the evaluator unwinds with
    eta1 = 2.0 * _theta_reference(tau, 0.5, dps=60)[2]
    eta2 = 2.0 * _theta_reference(tau, tau / 2.0, dps=60)[2]
    z = 0.31 + 0.52 * tau
    base = zeta_anywhere(tau, z).value
    got = zeta_anywhere(tau, z + m + n * tau).value
    want = base + m * eta1 + n * eta2
    assert abs(got - want) < 1e-10


def test_e2_translation_and_inversion():
    tau = complex(0.3, 0.4)
    assert abs(e2_anywhere(tau + 1.0) - e2_anywhere(tau)) < 1e-12
    lhs = e2_anywhere(-1.0 / tau)
    rhs = tau**2 * e2_anywhere(tau) - 6j * tau / math.pi
    assert abs(lhs - rhs) < 1e-11


def test_e4_e6_modular_covariance():
    tau = complex(0.13, 1.21)
    assert abs(e4_anywhere(-1.0 / tau) - tau**4 * e4_anywhere(tau)) < 1e-11
    assert abs(e6_anywhere(-1.0 / tau) - tau**6 * e6_anywhere(tau)) < 1e-11


def test_e2_matches_series_on_reduced_tau():
    tau = complex(0.2, 1.3)
    q = _nome(tau)
    assert abs(e2_anywhere(tau) - _e_series("e2", q, _order(abs(q)))) < 1e-15


def test_ode_survives_transport_at_low_imag_tau():
    # the weights 2, 3, 4, 6 must cohere for the differential equation to hold
    # on an unreduced lattice
    tau, z = complex(0.3, 0.4), complex(0.11, 0.13)
    inv = invariants_anywhere(tau)
    p = wp_anywhere(tau, z).value
    pp = wp_prime_anywhere(tau, z).value
    assert abs(pp * pp - (4.0 * p**3 - inv.g2 * p - inv.g3)) < 1e-6


def test_invariants_anywhere_weighted_consistency():
    # g2 transports with weight 4 and g3 with weight 6 under tau -> -1/tau
    tau = complex(0.3, 0.4)
    inv = invariants_anywhere(tau)
    inv_s = invariants_anywhere(-1.0 / tau)
    assert abs(inv_s.g2 - tau**4 * inv.g2) < 1e-7
    assert abs(inv_s.g3 - tau**6 * inv.g3) < 1e-7


def test_wp_anywhere_guards_poles_everywhere():
    with pytest.raises(PoleProximity):
        wp_anywhere(complex(0.3, 0.4), complex(1.0, 0.0))
    with pytest.raises(PoleProximity):
        zeta_anywhere(1j, complex(3.0, 2.0))


POINT_EVALUATORS = [wp_anywhere, wp_prime_anywhere, zeta_anywhere]


@pytest.mark.parametrize("fn", POINT_EVALUATORS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("tau", [complex(0.3, 0.4), complex(0.01, 0.05)])
def test_pole_guard_holds_in_the_original_frame(fn, tau):
    # |s| = 0.5 and 0.05 here: a guard applied in the reduced frame without the
    # 1/|s| would let the 0.5-guard point through
    guard = DEFAULT_POLICY.pole_guard_radius
    lattice_point = 2.0 - 3.0 * tau
    direction = cmath.exp(0.7j)
    with pytest.raises(PoleProximity):
        fn(tau, lattice_point + 0.5 * guard * direction)
    value = fn(tau, lattice_point + 2.0 * guard * direction).value
    assert math.isfinite(abs(value))


def test_half_period_pole_proximity_names_tau():
    # the guard is held in the reduced frame, where the half period 1/2 of
    # tau = 0.1+1e-9i is z* = 1/2 and the guard 1e-3/|s| is about 1e5; the
    # message gives tau, the distance 5e-9 of 1/2 from 5*tau and the guard
    with pytest.raises(PoleProximity) as exc:
        half_periods(complex(0.1, 1e-9))
    assert str(exc.value) == ("half period (1 + 0*tau)/2 of tau = (0.1+1e-09j) is within "
                              "5.000e-09 of the lattice (guard 1.0e-03)")


def _count_calls(monkeypatch, name, modules):
    """Replace `name` in each module by a wrapper that records its calls, and
    empty the functions of tau alone's memo of the last tau, so that a call
    counted from here on reduces and sums for its own tau, whatever tau an
    earlier test left warm."""
    monkeypatch.setattr(reduction, "_last_tau", (None, None))
    calls = []
    for module in modules:
        original = getattr(module, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def _bound_in(name, *modules):
    return [module for module in modules if hasattr(module, name)]


@pytest.mark.parametrize("fn", POINT_EVALUATORS, ids=lambda f: f.__name__)
def test_one_lattice_distance_per_point_evaluation(fn, monkeypatch):
    # the frame reads the distance of z* off the corners of its own cell;
    # neither the public lattice_distance nor the oracles' corner search
    # serves an evaluator
    tau, z = complex(0.3, 0.4), complex(4.3, 1.9)
    assert reduce_point(tau, z).m != 0  # reduce_point reads the distance too
    searches = [_count_calls(monkeypatch, name, _bound_in(name, core, weier, reduction))
                for name in ("lattice_distance", "_corner_distance")]
    corners = _count_calls(monkeypatch, "_cell_distance", [reduction])
    fn(tau, z)
    assert searches == [[], []]
    assert len(corners) == 1


def _distance_sweep(seed, count, im_min):
    """(tau, z): Im(tau) log-uniform in [im_min, 5], Re(tau) in [-1, 1],
    |z| <= 60, and every fifth point 1e-3 to 0.3 from a lattice point, where
    the nearest corner matters most."""
    rng = random.Random(seed)
    for k in range(count):
        im = 10.0 ** rng.uniform(math.log10(im_min), math.log10(5.0))
        tau = complex(rng.uniform(-1.0, 1.0), im)
        z = 60.0 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        if k % 5 == 0:
            n = round(z.imag / tau.imag)
            z = round(z.real - n * tau.real) + n * tau
            d = 10.0 ** rng.uniform(-3.0, math.log10(0.3))
            z += d * cmath.exp(2j * math.pi * rng.random())
        yield tau, z


def test_cell_distance_is_the_lattice_distance_bit_for_bit():
    for tau, z in _distance_sweep(20261018, 2000, 0.005):
        lat = Lattice(tau)
        rr = reduce_point(tau, z)
        want = _corner_distance(rr.tau_star, rr.z_star)
        assert reduction._cell_distance(rr.tau_star, rr.z_star) == want, (tau, z)
        assert lat.distance(z) == want * abs(rr.scale), (tau, z)
        try:
            assert lat._point(z)[3] == want, (tau, z)
        except PoleProximity:
            assert want < DEFAULT_POLICY.pole_guard_radius / abs(rr.scale)


def test_lattice_distance_is_exact_on_sheared_bases():
    # The reference is the oracles' corner search on their own reduced basis
    # (eisenstein._reduced_basis), which shares neither the SL(2,Z) walk nor
    # the split of z with the Lattice.
    sheared = 0
    for tau, z in _distance_sweep(1, 20000, 1e-3):
        got = lattice_distance(tau, z)
        assert got == Lattice(tau).distance(z), (tau, z)
        omega1, tau_r = _reduced_basis(tau)
        want = _corner_distance(tau_r, z / omega1) * abs(omega1)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(z)), (tau, z)
        sheared += _corner_distance(tau, z) > 2.0 * want
    # the sweep reaches sheared bases: the same search in the (1, tau) basis
    # overestimates by more than 2x at thousands of its points
    assert sheared > 2000


def test_a_point_split_out_of_its_cell_is_on_the_lattice():
    # at |z/s| = 1e200 the split z/s - m - n*tau* cancels to a z* millions of
    # cells away: its place in the cell is lost to rounding
    tau, z = complex(-2.4396007645409723, 1e8), complex(1e200, 1e15)
    assert abs(reduce_point(tau, z).z_star) > 1e6
    assert lattice_distance(tau, z) == 0.0
    for fn in POINT_EVALUATORS:
        with pytest.raises(PoleProximity):
            fn(tau, z)


@pytest.mark.parametrize(
    "evaluate",
    [
        # z/s has an ulp of about 1e184, yet the split lands z* in its cell
        lambda: wp_anywhere(complex(-1.38324, 2.54795), complex(-1e200, -1.6708)),
        # z2 = z1 + 1e300: z1 keeps its place, z2 has lost it
        lambda: wp_add(complex(1.7726164019360304, 1e200), complex(2.418969041776853, 1e8),
                       complex(1e300, 1e8)),
        # the distance and the split share the evaluators' check
        lambda: lattice_distance(complex(-1.38324, 2.54795), complex(-1e200, -1.6708)),
        lambda: reduce_point(complex(-1.38324, 2.54795), complex(-1e200, -1.6708)),
        # the pole guard is 1e-3 and z rounds by |z| 2^-52: from |z| = 4.5e12
        # on, whatever tau is
        lambda: lattice_distance(1j, 1e13 + 0.5),
    ],
    ids=["wp_anywhere", "wp_add", "lattice_distance", "reduce_point", "lattice_distance-1e13"],
)
def test_a_point_that_lost_its_place_in_the_cell_is_refused(evaluate):
    with pytest.raises(ConvergenceDomain):
        evaluate()


def test_unwound_zeta_calls_the_series_once(monkeypatch):
    series = _count_calls(monkeypatch, "_point_values", [weier, reduction])
    sums = _count_calls(monkeypatch, "_e_series", [eisenstein, reduction])
    tau, z = complex(0.3, 0.4), complex(4.3, 1.9)
    rr = reduce_point(tau, z)
    assert rr.m != 0 and rr.n != 0
    zeta_anywhere(tau, z)
    # one pass at z*; E2(tau*) alone, summed once in it and used both for
    # eta1*z* and for the unwinding by eta1 and eta2 = tau*eta1 - 2 pi i;
    # no E4 or E6
    assert len(series) == 1
    assert series[0][3] == rr.z_star
    assert [args[:2] for args in sums] == [("e2", _nome(rr.tau_star))]


@pytest.mark.parametrize(
    "kind, fn", [("e2", e2_anywhere), ("e4", e4_anywhere), ("e6", e6_anywhere)]
)
def test_eisenstein_evaluators_sum_only_their_own_series(kind, fn, monkeypatch):
    sums = _count_calls(monkeypatch, "_e_series", [eisenstein, reduction])
    tau = complex(0.3, 0.4)
    fn(tau)
    assert [args[:2] for args in sums] == [(kind, _nome(reduce_tau(tau)[1]))]


def test_one_series_pass_per_point(monkeypatch):
    passes = _count_calls(monkeypatch, "_point_values", [weier, reduction])
    sums = _count_calls(monkeypatch, "_e_series", [eisenstein, reduction])
    tau, z = complex(0.3, 0.4), complex(4.3, 1.9)
    # wp, wp1, zeta and E2 from one pass; E4 and E6 summed on their own
    eval_expr(Z * TAU * WP * WP1 * ZETA * E2 * E4 * E6, tau, z)
    assert len(passes) == 1
    assert sorted(args[0] for args in sums) == ["e2", "e4", "e6"]
    passes.clear()
    wp_add(tau, z, complex(0.21, 0.33))  # generic branch: one pass per point
    assert len(passes) == 2


def test_eval_expr_reduces_each_point_once(monkeypatch):
    calls = _count_calls(monkeypatch, "_walk", [reduction])
    tau, z = complex(0.3, 0.4), complex(4.3, 1.9)
    eval_expr(Z * TAU * WP * WP1 * ZETA * E2 * E4 * E6, tau, z)
    assert len(calls) == 1


def test_fd_check_in_z_reduces_tau_once(monkeypatch):
    # the symbolic value and the four differences share one frame and its E2
    calls = _count_calls(monkeypatch, "_walk", [reduction])
    sums = _count_calls(monkeypatch, "_e_series", [eisenstein, reduction])
    fd_check(WP * ZETA + WP1 * E2, "z", complex(0.3, 0.4), complex(4.3, 1.9))
    assert len(calls) == 1
    assert [args[0] for args in sums].count("e2") == 1


@pytest.mark.parametrize("tau, z", [(complex(0.3, 0.4), complex(4.3, 1.9)),
                                    (complex(-0.2, 1.6), complex(0.3, 0.4))])
def test_eval_expr_single_generators_equal_the_evaluators(tau, z):
    for gen, fn in ((WP, wp_anywhere), (WP1, wp_prime_anywhere), (ZETA, zeta_anywhere)):
        assert eval_expr(gen, tau, z) == fn(tau, z).value
    for gen, fn in ((E2, e2_anywhere), (E4, e4_anywhere), (E6, e6_anywhere)):
        assert eval_expr(gen, tau, z) == fn(tau)
        assert eval_expr(gen, tau) == fn(tau)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda tau, z: wp_anywhere(tau, z),
        lambda tau, z: wp_prime_anywhere(tau, z),
        lambda tau, z: zeta_anywhere(tau, z),
        lambda tau, z: e2_anywhere(tau),
        lambda tau, z: e4_anywhere(tau),
        lambda tau, z: e6_anywhere(tau),
        lambda tau, z: invariants_anywhere(tau),
        lambda tau, z: reduce_point(tau, z),
        lambda tau, z: reduce_point(tau),
        lambda tau, z: lattice_distance(tau, z),
        *(lambda tau, z, fn=fn: cli.main(["eval", "--fn", fn, "--tau", f"{tau.real},{tau.imag}",
                                          "--z", f"{z.real},{z.imag}"])
          for fn in cli._EVAL_FUNCTIONS),
    ],
    ids=["wp", "wp1", "zeta", "e2", "e4", "e6", "invariants", "reduce_point",
         "reduce_point-tau", "lattice_distance",
         *(f"cli-{fn}" for fn in cli._EVAL_FUNCTIONS)],
)
def test_entry_points_reduce_tau_once(evaluate, monkeypatch):
    # reduce_tau and Lattice both walk through reduction._walk, which the
    # CLI would bind by import if it walked tau itself
    calls = _count_calls(monkeypatch, "_walk", _bound_in("_walk", cli, reduction))
    evaluate(complex(0.3, 0.4), complex(4.3, 1.9))
    assert len(calls) == 1


def test_wp_add_reduces_tau_once(monkeypatch):
    calls = _count_calls(monkeypatch, "_walk", [reduction])
    tau, z1 = complex(0.3, 0.4), complex(0.21, 0.33)
    # the generic branch, then the duplication branch (z2 = z1 + 1 + tau):
    # the z1 +- z2 distances, both points and g2 come from one frame
    for z2 in (complex(4.52, 1.18), z1 + 1.0 + tau):
        calls.clear()
        wp_add(tau, z1, z2)
        assert len(calls) == 1


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda tau, z: zeta_anywhere(tau, z),
        lambda tau, z: invariants_anywhere(tau),
        lambda tau, z: half_periods(tau),
        lambda tau, z: eval_expr(Z * TAU * WP * WP1 * ZETA * E2 * E4 * E6, tau, z),
        lambda tau, z: wp_add(tau, z, complex(0.21, 0.33)),  # generic branch
        lambda tau, z: wp_add(tau, z, z + 1.0 + tau),  # duplication branch
    ],
    ids=["zeta_anywhere", "invariants_anywhere", "half_periods", "eval_expr",
         "wp_add_generic", "wp_add_duplication"],
)
def test_series_order_is_decided_once(evaluate, monkeypatch):
    # every q-series of the call (kernels, E-series, eta product) shares one order
    calls = _count_calls(monkeypatch, "_order", [eisenstein, reduction])
    evaluate(complex(0.3, 1.4), complex(4.3, 1.9))
    assert len(calls) == 1


def test_wp_add_matches_direct():
    tau = complex(0.1, 1.3)
    z1, z2 = complex(0.21, 0.33), complex(0.52, 0.18)
    got = wp_add(tau, z1, z2)
    want = wp_anywhere(tau, z1 + z2).value
    assert abs(got - want) < 1e-10


def test_wp_add_duplication_branch():
    tau, z = 1j, complex(0.3, 0.0)
    got = wp_add(tau, z, z)
    want = wp_anywhere(tau, 2.0 * z).value
    assert abs(got - want) < 1e-10


def test_wp_add_degenerate_sum_rejected():
    with pytest.raises(DegenerateConfiguration):
        wp_add(1j, complex(0.3, 0.4), complex(0.7, 0.6))  # z1 + z2 = 1 + i


@pytest.mark.parametrize(
    "tau, z1, z2",
    [
        # wp(z1) == wp(z2) to the last bit high in a tall reduced cell, at
        # points that are not equivalent: the generic slope divides by 0
        (complex(0.9887766635270419, 0.0054415475106576825),
         complex(-33.39418449182375, 37.78010620313004),
         complex(-1.6067325059126205, -4.89605981075839)),
        # z2 = z1 + 1 takes the duplication branch, where wp'(z1) is 0 to
        # the last bit though z1 is not a half period
        (complex(1.7726164019360304, 1e200), complex(2.418969041776853, 1e8),
         complex(3.418969041776853, 1e8)),
        # the same with wp'(z1) = 1.5e-116 against an est_error of 2.4e-6:
        # dividing by it returned -1.08e220+1.30e220i, where wp(2 z1) is
        # 41123+41194i
        (complex(-0.99712, 0.0069445), complex(-19.0206, 32.8123),
         complex(-19.0206, 32.8123) + 1),
        # wp(z1) and wp(z2) agree to a few ulps, not to the last bit: the
        # slope cancels, and the unchecked quotient was off by 2.7
        (complex(-0.02179, 0.05432), complex(43.24, 0.383), complex(-10.76, -19.15)),
    ],
    ids=["generic", "duplication", "duplication_noise", "generic_near_equal"],
)
def test_wp_add_zero_slope_denominator_is_near_singular(tau, z1, z2):
    with pytest.raises(NearSingular):
        wp_add(tau, z1, z2)


def test_reduced_distance_scales():
    tau = complex(0.3, 0.4)
    d = lattice_distance(tau, complex(0.15, 0.2))
    assert 0 < d < 0.5


def _theta_reference(tau, z, dps=120):
    """wp, wp', zeta and delta at (tau, z) from Jacobi theta functions (mpmath
    nome exp(pi*i*tau)), independent of the q-series and of reduction."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        q = mp.exp(1j * mp.pi * mp.mpc(tau.real, tau.imag))
        eta1 = -mp.pi**2 * mp.jtheta(1, 0, q, 3) / (3 * mp.jtheta(1, 0, q, 1))
        t2, t3, t4 = (mp.jtheta(k, 0, q) for k in (2, 3, 4))
        delta = (2 * mp.pi) ** 12 * (t2 * t3 * t4 / 2) ** 8
        z_m = mp.mpc(z.real, z.imag)
        th = [mp.jtheta(1, mp.pi * z_m, q, k) for k in range(4)]
        l1, l2, l3 = th[1] / th[0], th[2] / th[0], th[3] / th[0]
        wp = -eta1 - mp.pi**2 * (l2 - l1 * l1)
        wp1 = -mp.pi**3 * (l3 - 3 * l2 * l1 + 2 * l1**3)
        zeta = eta1 * z_m + mp.pi * l1
        return tuple(complex(v) for v in (wp, wp1, zeta, delta))


@pytest.mark.parametrize(
    "tau, z",
    [
        # tau* has Im 144 and z* Im 134: q and u both underflow to 0, q/u does not
        (complex(0.002857734964027303, 0.005440996935509459),
         complex(4.351911097261688, 44.33293627907187)),
        # tau* has Im 122 and z* Im 91: only q underflows, and wp' ~ 1e-74 lives
        # on the folded terms q^m/u
        (complex(-0.0007800464490713699, 0.008148744046559235),
         complex(33.31150947745894, 9.785318819232941)),
    ],
)
def test_evaluators_survive_underflow_high_in_the_cell(tau, z):
    wp, wp1, zeta, _ = _theta_reference(tau, z)
    assert abs(wp_anywhere(tau, z).value - wp) <= 1e-13 * abs(wp)
    assert abs(wp_prime_anywhere(tau, z).value - wp1) <= 1e-10 * abs(wp1)
    assert abs(zeta_anywhere(tau, z).value - zeta) <= 1e-13 * abs(zeta)


@pytest.mark.parametrize(
    "tau", [complex(0.1, 5.0), complex(-0.3, 8.0), complex(0.21, 0.03)]
)
def test_invariants_anywhere_delta_keeps_relative_accuracy(tau):
    # high in the cusp g2^3 - 27 g3^2 cancels to noise; the eta product at tau*
    # keeps its digits, also through weight-12 transport from low Im(tau)
    delta = _theta_reference(tau, 0.5j, dps=60)[3]
    assert abs(invariants_anywhere(tau).delta - delta) <= 1e-12 * abs(delta)


def _theta_eisenstein(tau, dps=60):
    """E2, E4, E6 at tau from Jacobi theta constants (mpmath nome exp(pi*i*tau))."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        q = mp.exp(1j * mp.pi * mp.mpc(tau.real, tau.imag))
        eta1 = -mp.pi**2 * mp.jtheta(1, 0, q, 3) / (3 * mp.jtheta(1, 0, q, 1))
        t2, t3, t4 = (mp.jtheta(k, 0, q) for k in (2, 3, 4))
        e4 = (t2**8 + t3**8 + t4**8) / 2
        e6 = (t2**4 + t3**4) * (t3**4 + t4**4) * (t4**4 - t2**4) / 2
        return tuple(complex(v) for v in (3 * eta1 / mp.pi**2, e4, e6))


def test_eisenstein_at_low_height_sums_enough_terms():
    # |q| = 0.47 at tau = 0.12i: a fixed 40 terms left E6 off by 1.4e-8; the
    # Lattice sums at tau* = i/0.12 and transports
    lat = Lattice(0.12j)
    for got, ref in zip((lat.e2(), lat.e4(), lat.e6()), _theta_eisenstein(0.12j)):
        assert abs(got - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("a, b", [(0.9, 0.3), (0.95, 0.7), (0.97, 0.5)])
def test_series_at_the_worst_reduced_nome(a, b):
    # tau = rho has the largest |q| of the fundamental domain, and z = b + a*rho
    # high in the cell makes |q/u| close to 1: the fewest terms for the most work
    rho = cmath.exp(2j * math.pi / 3.0)
    z = b + a * rho
    wp, wp1, zeta, _ = _theta_reference(rho, z, dps=60)
    lat = Lattice(rho)
    assert abs(lat.wp(z).value - wp) <= 1e-14 * abs(wp)
    assert abs(lat.wp_prime(z).value - wp1) <= 1e-14 * abs(wp1)
    assert abs(lat.zeta(z).value - zeta) <= 1e-14 * abs(zeta)
    for got, ref in zip((lat.e2(), lat.e4(), lat.e6()), _theta_eisenstein(rho)):
        assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))  # E4(rho) = 0


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: wp_anywhere(1e-300j, 0.3),
        lambda: wp_prime_anywhere(1e-300j, 0.3),
        lambda: e2_anywhere(0.5 + 1e-200j),
        lambda: e4_anywhere(0.5 + 1e-200j),
        lambda: e6_anywhere(0.5 + 1e-200j),
        lambda: e6_anywhere(0.1 + 1e-60j),
        lambda: invariants_anywhere(0.1 + 1e-30j),
    ],
    ids=["wp", "wp1", "e2", "e4", "e6", "e6-1e-60", "invariants"],
)
def test_weight_factor_underflow_is_non_finite(evaluate):
    # s^k underflows to 0 at these heights; the division must not leak a
    # ZeroDivisionError
    with pytest.raises(NonFiniteValue):
        evaluate()


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: wp_anywhere(complex(NAN, 1.0), 0.3),
        lambda: wp_anywhere(1j, NAN),
        lambda: wp_anywhere(1j, INF),
        lambda: e2_anywhere(complex(NAN, 1.0)),
        lambda: invariants_anywhere(complex(NAN, 1.0)),
        lambda: reduce_point(1j, complex(NAN, NAN)),
        lambda: lattice_distance(1j, NAN),
        lambda: half_periods(complex(NAN, 1.0)),
        # finite z, but Im(z)/Im(tau) overflows
        lambda: lattice_distance(1e-10j, 1e300j),
    ],
    ids=["wp-tau", "wp-z-nan", "wp-z-inf", "e2", "invariants", "reduce_point",
         "lattice_distance", "half_periods", "coordinate-overflow"],
)
def test_non_finite_input_is_non_finite_value(evaluate):
    # math.floor of a NaN or infinite coordinate must not leak its own
    # ValueError or OverflowError
    with pytest.raises(NonFiniteValue):
        evaluate()


def test_overflowing_tau_star_is_non_finite():
    # at subnormal Im(tau), -1/tau overflows: tau* = inf*i must not escape
    with pytest.raises(NonFiniteValue):
        reduce_tau(1e-320j)
    # with both parts subnormal, -1/tau is -inf+inf*i inside the walk
    with pytest.raises(NonFiniteValue):
        reduce_tau(1e-320 + 1e-320j)
    with pytest.raises(NonFiniteValue):
        wp_anywhere(0.5 + 1e-320j, 0.3)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: reduce_tau(complex(0.3, 1e-16)),
        lambda: e4_anywhere(complex(-0.43315903157589014, 1e-320)),
        lambda: invariants_anywhere(complex(-0.06725031038454883, 1e-200)),
        lambda: e6_anywhere(complex(999999999999999.4, 1e-200)),
        lambda: wp_prime_anywhere(complex(0.02646753591288036, 1e-300),
                                  complex(-0.4236374377100051, -1e-320)),
    ],
    ids=["reduce_tau", "e4", "invariants", "e6", "wp1"],
)
def test_reduction_that_lost_tau_is_non_finite(evaluate):
    # at tiny Im(tau) with Re(tau) not an integer the walk's rounding breaks
    # Im(tau*) |s|^2 = Im(tau); evaluated on, such a frame gives finite wrong
    # values, or overflows s^k, or divides by 0 in the series sum
    with pytest.raises(NonFiniteValue, match="loses tau"):
        evaluate()


def test_an_est_error_that_overflows_is_non_finite():
    # the values are finite here, but an est_error of inf says nothing
    with pytest.raises(NonFiniteValue, match="est_error of zeta"):
        zeta_anywhere(1e-109j, complex(0.3, 0.1))
    lat = Lattice(complex(0.1, 1e-43))
    with pytest.raises(NonFiniteValue, match="est_error of e6"):
        lat._tau_error("e6", lat.e6())


def test_tiny_purely_imaginary_tau_keeps_its_exact_walk():
    # tau = 1e-20 i reduces by one exact inversion, tau* = 1e20 i
    gamma, tau_star = reduce_tau(1e-20j)
    assert (gamma.c, gamma.d, tau_star) == (1, 0, 1e20j)
    assert e2_anywhere(1e-20j) == pytest.approx(-1e40, rel=1e-12)
