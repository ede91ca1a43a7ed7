"""The q-series pass for wp, wp', zeta through Lattice: guards, anchors,
half periods, lattice oracles."""

import math

import pytest

from wpfield import reduction
from wpfield.core import _nome
from wpfield.eisenstein import _TAIL_TARGET, _e_series, _order
from wpfield.errors import ConvergenceDomain, PoleProximity
from wpfield.reduction import Lattice, half_periods, invariants_anywhere
from wpfield.weier import _point_values, wp_lattice_oracle, zeta_lattice_oracle

from order_walk import walk_order

# Frozen from the radius-400 lattice-sum oracle (truncation error ~1e-6).
WP_I = complex(0.0, -6.875186597320904)  # wp(i; 0.25+0.25i)
ZE_I = complex(2.0964268756017965, -2.0964268756017965)  # zeta(i; 0.25+0.25i)
WP_A = complex(-2.599328085769629, -0.47147390586453364)  # wp(0.3+1.7i; 0.4+0.6i)
ZE_A = complex(1.4029267887593695, -1.0468238202589064)  # zeta(0.3+1.7i; 0.4+0.6i)


def test_wp_frozen_oracle_values():
    assert abs(Lattice(1j).wp(0.25 + 0.25j).value - WP_I) < 1e-5
    assert abs(Lattice(complex(0.3, 1.7)).wp(complex(0.4, 0.6)).value - WP_A) < 1e-5


def test_zeta_frozen_oracle_values():
    assert abs(Lattice(1j).zeta(0.25 + 0.25j).value - ZE_I) < 1e-5
    assert abs(Lattice(complex(0.3, 1.7)).zeta(complex(0.4, 0.6)).value - ZE_A) < 1e-5


def test_wp_live_oracle_cross_check():
    for tau, z in ((1j, 0.25 + 0.25j), (complex(-0.2, 1.3), complex(0.6, 0.4))):
        direct = wp_lattice_oracle(tau, z, 100)
        assert abs(direct - Lattice(tau).wp(z).value) < 1e-13


def test_zeta_live_oracle_cross_check():
    for tau, z in ((1j, 0.25 + 0.25j), (complex(-0.2, 1.3), complex(0.6, 0.4))):
        direct = zeta_lattice_oracle(tau, z, 100)
        assert abs(direct - Lattice(tau).zeta(z).value) < 1e-13


def test_ode_at_sample_point():
    tau, z = 1j, 0.25 + 0.25j
    lat = Lattice(tau)
    inv = lat.invariants()
    p = lat.wp(z).value
    pp = lat.wp_prime(z).value
    assert abs(pp * pp - (4.0 * p**3 - inv.g2 * p - inv.g3)) < 1e-10


def test_wp_is_even_and_zeta_is_odd():
    lat, z = Lattice(1j), 0.25 + 0.17j
    assert abs(lat.wp(-z).value - lat.wp(z).value) < 1e-12
    assert abs(lat.zeta(-z).value + lat.zeta(z).value) < 1e-12


def test_sine_limit_far_in_the_cusp():
    # for tau = 30i the lattice is effectively Z and wp collapses to the
    # trigonometric function pi^2/sin^2(pi z) - pi^2/3
    for x in (0.1, 0.25, 0.5, 0.75, 0.9):
        limit = math.pi**2 / math.sin(math.pi * x) ** 2 - math.pi**2 / 3.0
        assert abs(Lattice(30j).wp(x).value - limit) < 1e-10


def test_principal_part_via_oracle():
    # wp(z) ~ 1/z^2 near the origin; the q-route is pole-guarded there, so the
    # lattice sum provides the values
    for eps, tol in ((1e-2, 1e-6), (1e-3, 1e-10)):
        v = wp_lattice_oracle(1j, eps, 400)
        assert abs(v * eps * eps - 1.0) < tol


def test_wp_prime_branch_near_origin():
    # Laurent expansion: wp' = -2/z^3 + g2 z/10 + g2^2 z^5/200 + ... (g3(i) = 0);
    # fixes the sign convention of the odd function wp'
    z = 0.05
    g2 = invariants_anywhere(1j).g2.real
    expected = -2.0 / z**3 + g2 * z / 10.0 + g2**2 * z**5 / 200.0
    got = Lattice(1j).wp_prime(z).value
    assert got.real < 0
    assert abs(got - expected) < 1e-8


def test_half_periods_square_lattice():
    hp = half_periods(1j)
    g2 = invariants_anywhere(1j).g2
    assert abs(hp.e1 + hp.e2 + hp.e3) < 1e-12
    assert abs(hp.e3) < 1e-12  # the (1+tau)/2 value vanishes on the square lattice
    assert abs(hp.e1 - math.sqrt(g2.real) / 2.0) < 1e-12
    assert abs(hp.e1 + hp.e2) < 1e-12


@pytest.mark.parametrize("kernel", ["half_periods", "wp", "wp_prime", "zeta"])
def test_kernels_sum_e2_once(kernel, monkeypatch):
    # half_periods runs three passes at one tau on one E2 sum
    sums = []
    original = reduction._e_series

    def counted(*args):
        sums.append(args[0])
        return original(*args)

    monkeypatch.setattr(reduction, "_e_series", counted)
    lat = Lattice(complex(-0.2, 1.6))
    args = () if kernel == "half_periods" else (0.3,)
    getattr(lat, kernel)(*args)
    assert sums == ["e2"]


def test_half_periods_fold_re_tau_mod_one():
    # dyadic Re(tau), so the integer shift is exact: an even shift leaves the
    # half periods as they are, an odd one swaps tau/2 and (1 + tau)/2 (the
    # reduced frame places them by (p', q') mod 2)
    tau = complex(0.25, 0.5)
    base = half_periods(tau)
    assert half_periods(tau + 2) == base
    shifted = half_periods(tau + 1)
    assert (shifted.e1, shifted.e2, shifted.e3) == (base.e1, base.e3, base.e2)


@pytest.mark.parametrize("re", [1e3, 1e6, 1e9])
def test_half_periods_root_sum_at_large_re_tau(re):
    hp = half_periods(complex(re + 0.3, 0.5))
    assert abs(hp.e1 + hp.e2 + hp.e3) <= 1e-13


@pytest.mark.parametrize("tau", [0.05j, complex(0.3, 0.05), 0.01j, complex(-0.37, 0.01)])
def test_half_periods_at_low_im_tau(tau):
    # placed in the reduced frame, the half periods need no series at |q| > 0.5
    hp = half_periods(tau)
    inv = invariants_anywhere(tau)
    e = (hp.e1, hp.e2, hp.e3)
    scale = max(map(abs, e))
    assert abs(sum(e)) <= 1e-13 * scale
    sym2 = hp.e1 * hp.e2 + hp.e1 * hp.e3 + hp.e2 * hp.e3
    assert abs(-4.0 * sym2 - inv.g2) <= 1e-13 * scale**2
    assert abs(4.0 * hp.e1 * hp.e2 * hp.e3 - inv.g3) <= 1e-13 * scale**3
    for got, w in zip(e, (0.5, tau / 2.0, (1.0 + tau) / 2.0)):
        want = wp_lattice_oracle(tau, w, 400)
        assert abs(got - want) <= 1e-13 * abs(want)


def test_wp_prime_vanishes_at_half_periods():
    for w in (0.5, 0.5j + 0.5, 1j * 0.5):
        assert abs(Lattice(1j).wp_prime(w).value) < 1e-12


def test_half_period_symmetric_functions():
    tau = complex(0.2, 1.4)
    hp = half_periods(tau)
    inv = invariants_anywhere(tau)
    sym2 = hp.e1 * hp.e2 + hp.e1 * hp.e3 + hp.e2 * hp.e3
    assert abs(-4.0 * sym2 - inv.g2) < 1e-10
    assert abs(4.0 * hp.e1 * hp.e2 * hp.e3 - inv.g3) < 1e-10


def test_pole_guard():
    with pytest.raises(PoleProximity):
        Lattice(1j).wp(1e-6)
    with pytest.raises(PoleProximity):
        Lattice(1j).zeta(1.0 + 1j + 1e-7)
    # z is 1e-200 from 0: unless Re(tau) = 1e300 is reduced away, it shears
    # the guard's corner search past 0, and the sum divides by 1 - u = 0
    with pytest.raises(PoleProximity):
        Lattice(complex(1e300, 2.3655365626216405)).wp(complex(1e-300, -1e-200))


def _pass(tau, z):
    """weier._point_values at (tau, z) as a Lattice runs it once z has
    passed the pole guard, which the pass itself does not hold."""
    q = _nome(tau)
    order = _order(abs(q))
    return _point_values(tau, q, order, z, _e_series("e2", q, order))


def test_convergence_guard_far_below_the_cell():
    # the pass refuses a z outside the strip |q u| < 1, |q/u| < 1 that
    # Lattice's split keeps it in
    with pytest.raises(ConvergenceDomain):
        _pass(1j, complex(0.5, -2.2))
    with pytest.raises(ConvergenceDomain):
        _pass(1j, complex(0.5, 2.2) + 2j)
    # so far from the cell that exp(2*pi*i*z) or exp(2*pi*i*(tau - z)) overflows
    for tau, z in ((complex(0.5, 0.866), complex(1e8, 1e8)),
                   (complex(1e15, 1.0), complex(0.25, 1e8)),
                   (complex(1e15, 1.0), complex(0.25, -1e8))):
        with pytest.raises(ConvergenceDomain):
            _pass(tau, z)


def test_order_rule_bounds_every_kernel_tail():
    # The tails that est_error once re-derived on every call, copied here as
    # the reference: est_error now charges _TAIL_TARGET for each, which holds
    # when the order rule (walk_order) keeps all three below it for every
    # |q| up to 0.54 (Im tau >= 0.1, far below the reduced domain's
    # |q| <= 0.0044) and every |u q|, |r| < 1.
    def geometric(first, ratio, pole_power):
        return first / ((1.0 - first) ** pole_power * (1.0 - ratio))

    two_pi = 2.0 * math.pi
    limits = (0.0, 0.3, 0.9, 0.999999, 1.0 - 2.0**-40)
    worst = 0.0
    for q_abs in [0.54 * k / 60 for k in range(1, 61)] + [10.0**-k for k in range(1, 13)]:
        n = walk_order(q_abs)
        for uq in limits:
            u_abs = uq / q_abs
            for r_abs in limits:
                wp = two_pi**2 * (
                    geometric(q_abs ** (n + 1) * u_abs, q_abs, 2)
                    + geometric(r_abs * q_abs**n, q_abs, 2)
                    + 2.0 * geometric(q_abs ** (n + 1), q_abs, 2)
                )
                wp1 = two_pi**3 * 2.0 * (
                    geometric(q_abs ** (n + 1) * u_abs, q_abs, 3)
                    + geometric(r_abs * q_abs**n, q_abs, 3)
                )
                zeta = two_pi * (
                    geometric(q_abs ** (n + 1) * u_abs, q_abs, 1)
                    + geometric(r_abs * q_abs**n, q_abs, 1)
                )
                worst = max(worst, wp, wp1, zeta)
    assert worst <= _TAIL_TARGET
    assert worst > 0.5 * _TAIL_TARGET  # the grid reaches the bound's corner


def test_est_error_floor_and_sanity():
    res = Lattice(1j).wp(0.25 + 0.25j)
    assert res.est_error >= 1e-12
    assert res.est_error < 1e-9
    # the estimate really does bound the distance to the oracle value up to the
    # oracle's own truncation error
    assert abs(res.value - WP_I) < res.est_error + 1e-5


def test_est_error_inflates_near_pole():
    far = Lattice(1j).wp(0.5 + 0.5j).est_error
    near = Lattice(1j).wp(0.002).est_error
    assert near > far


def test_oracle_radius_validation():
    # a radius too small, or not an int, is refused before range() sees it
    for oracle in (wp_lattice_oracle, zeta_lattice_oracle):
        for radius in (10, 49, math.nan, math.inf, 50.5, 60.0):
            with pytest.raises(ValueError):
                oracle(1j, 0.25, radius)


def test_oracle_pole_guard():
    with pytest.raises(PoleProximity):
        wp_lattice_oracle(1j, 1e-9, 60)
