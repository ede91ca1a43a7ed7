"""The q-series pass for wp, wp', zeta through Lattice: guards, anchors,
half periods, lattice oracles."""

import cmath
import math
import random

import pytest

from wpfield import reduction
from wpfield.core import TWO_PI_I
from wpfield.eisenstein import _TAIL_TARGET, _e_series, _order
from wpfield.errors import ConvergenceDomain, PoleProximity
from wpfield.reduction import (HalfPeriodData, Lattice, half_periods, invariants_anywhere,
                               wp_anywhere, wp_prime_anywhere, zeta_anywhere)
from wpfield.symbolic import E4, E6, WP1, eval_expr
from wpfield.weier import _est_error, wp_lattice_oracle, zeta_lattice_oracle

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


def _count_sums(monkeypatch):
    """The kinds of the E-series reduction sums from here on, in order."""
    sums = []
    original = reduction._e_series

    def counted(*args):
        sums.append(args[0])
        return original(*args)

    monkeypatch.setattr(reduction, "_e_series", counted)
    return sums


@pytest.mark.parametrize("kernel", ["half_periods", "wp", "wp_prime", "zeta"])
def test_kernels_sum_e2_once(kernel, monkeypatch):
    # half_periods runs three passes at one tau on one E2 sum; wp' carries
    # no eta1, so it sums no E2
    sums = _count_sums(monkeypatch)
    lat = Lattice(complex(-0.2, 1.6))
    args = () if kernel == "half_periods" else (0.3,)
    getattr(lat, kernel)(*args)
    assert sums == ([] if kernel == "wp_prime" else ["e2"])


def test_wp_prime_e4_and_e6_sum_no_e2(monkeypatch):
    sums = _count_sums(monkeypatch)
    tau, z = complex(0.3, 0.4), complex(4.3, 1.9)
    eval_expr(WP1 * E4 + E6, tau, z)
    assert sorted(sums) == ["e4", "e6"]
    sums.clear()
    wp_prime_anywhere(tau, z)
    assert sums == []


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


def _ref_point_values(tau, q, order, z, e2):
    """The reference kernel: weier._point_values as it was while it took
    E2(tau) and applied eta1 to wp and zeta itself, kept verbatim but for
    what the centred cell adds: wp is even and wp' and zeta - eta1*z odd,
    so below the real axis it sums at -z and negates those two."""
    odd = z.imag < 0
    if odd:
        z = -z
    try:
        u = cmath.exp(TWO_PI_I * z)
        r = cmath.exp(TWO_PI_I * (tau - z))
    except OverflowError as exc:  # z far below or above the cell
        raise ConvergenceDomain(f"exp(2*pi*i*z) overflows at z = {z}") from exc
    if abs(q * u) >= 1.0 or abs(r) >= 1.0:
        raise ConvergenceDomain(
            "need |q*u| < 1 and |q/u| < 1; reduce z into the period cell first"
        )
    a = 1.0 / (1.0 - u)
    wa = u * a
    s1, sx, sy = -wa, wa * a, 0j
    t = sx * a
    w, v = u, r
    for _ in range(order):
        w *= q
        a = 1.0 / (1.0 - w)
        b = 1.0 / (1.0 - v)
        wa = w * a
        vb = v * b
        x = wa * a
        y = vb * b
        s1 += vb - wa
        sx += x
        sy += y
        t += x * a - y * b
        v *= q
    eta1 = (math.pi**2 / 3.0) * e2
    wp1 = TWO_PI_I**3 * (2.0 * t - sx + sy)
    zeta = TWO_PI_I * (s1 - 0.5)
    if odd:
        z, wp1, zeta = -z, -wp1, -zeta
    return TWO_PI_I**2 * (sx + sy) - eta1, wp1, zeta + eta1 * z


def _ref_evaluators(lat):
    """wp, wp_prime, zeta and half_periods of lat on the reference kernel,
    each point placed afresh and E2(tau*) summed for every pass, as the
    Lattice did before the pass left eta1 to it."""
    tau_star, q, order, s = lat._tau_star, lat._q, lat._order, lat._s

    def point(z):
        m, n, z_star, dist = lat._place(z)
        if dist < lat._guard:
            raise lat._too_near(f"z = {z}", dist)
        e2 = _e_series("e2", q, order)
        return (m, n, dist, e2) + _ref_point_values(tau_star, q, order, z_star, e2)

    def wp(z):
        _, _, dist, _, value, _, _ = point(z)
        return reduction._transport(value, s, 2, "wp", _est_error(value, dist))

    def wp_prime(z):
        _, _, dist, _, _, value, _ = point(z)
        return reduction._transport(value, s, 3, "wp'", _est_error(value, dist))

    def zeta(z):
        m, n, dist, e2, _, _, zeta = point(z)
        value = zeta
        if m or n:
            eta1 = (math.pi**2 / 3.0) * e2
            value += (m + n * tau_star) * eta1 - 2j * math.pi * n
        est = _est_error(zeta, dist) * (1.0 + abs(m) + abs(n))
        return reduction._transport(value, s, 1, "zeta", est)

    def halves():
        (a, b, c, d), values = lat._gamma, []
        for p, r in ((1, 0), (0, 1), (1, 1)):
            z_star = ((a * p - b * r) % 2 + (d * r - c * p) % 2 * tau_star) / 2.0
            dist = reduction._cell_distance(tau_star, z_star)
            if dist < lat._guard:
                raise lat._too_near(f"half period ({p} + {r}*tau)/2 of tau = {lat.tau}", dist)
            e2 = _e_series("e2", q, order)
            value = _ref_point_values(tau_star, q, order, z_star, e2)[0]
            values.append(reduction._transport(value, s, 2, "wp"))
        return HalfPeriodData(*values)

    return {"wp": wp, "wp_prime": wp_prime, "zeta": zeta, "half_periods": halves}


def _repr_outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return f"{type(exc).__name__}: {exc}"


def test_the_point_path_equals_the_reference_kernel_bit_for_bit():
    # a seeded sweep: |z| up to 60, so zeta unwinds by (m, n) != 0; points
    # near the lattice, some within the pole guard; every z asked of a held
    # Lattice for wp, wp' and zeta in a random order, twice, so all but the
    # first read the kept point; the fresh evaluators; the half periods; and
    # tau where the transports overflow
    rng = random.Random(32)
    pairs = []
    for _ in range(60):
        tau = complex(rng.uniform(-1.0, 1.0),
                      math.exp(rng.uniform(math.log(0.005), math.log(5.0))))
        zs = [cmath.rect(60.0 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi))
              for _ in range(8)]
        for _ in range(3):
            lattice_point = rng.randint(-3, 3) + rng.randint(-3, 3) * tau
            d = 10.0 ** rng.uniform(-4.0, math.log10(0.3))
            zs.append(lattice_point + cmath.rect(d, rng.uniform(0.0, 2.0 * math.pi)))
        pairs.append((tau, zs))
    pairs += [(1e-155j, [complex(-0.5, 3e-156)]), (complex(0.2, 1e-6), [1e250j]),
              (1j, [0.5, 0.5j, 0.5 + 0.5j, 0.0, 1e13 + 0.5])]
    fresh = {"wp": wp_anywhere, "wp_prime": wp_prime_anywhere, "zeta": zeta_anywhere}
    unwound = raised = 0
    for tau, zs in pairs:
        held = Lattice(tau)
        ref = _ref_evaluators(Lattice(tau))
        want = _repr_outcome(ref["half_periods"])
        assert _repr_outcome(held.half_periods) == want, tau
        assert _repr_outcome(half_periods, tau) == want, tau
        calls = [(name, z) for z in zs for name in fresh] * 2
        rng.shuffle(calls)
        for name, z in calls:
            want = _repr_outcome(ref[name], z)
            assert _repr_outcome(getattr(held, name), z) == want, (name, tau, z)
            assert _repr_outcome(fresh[name], tau, z) == want, (name, tau, z)
            raised += want.startswith(("PoleProximity", "NonFiniteValue", "ConvergenceDomain"))
            if name == "zeta" and "WValue" in want:
                unwound += held._place(z)[:2] != (0, 0)
    assert unwound > 1000 and raised > 100


def _centred_cell_sweep(seed, count):
    """(tau, z): count reduced tau (Random(seed)), each with ten points
    b + a*tau of its centred cell, |a|, |b| <= 1/2, at least 0.01 from 0."""
    rng = random.Random(seed)
    for _ in range(count):
        tau = 0.5j
        while abs(tau) < 1.0:
            tau = complex(rng.uniform(-0.5, 0.5), math.exp(rng.uniform(0.0, math.log(5.0))))
        for _ in range(10):
            z = 0j
            while abs(z) < 0.01:
                z = rng.uniform(-0.5, 0.5) + rng.uniform(-0.5, 0.5) * tau
            yield tau, z


def test_the_parity_of_wp_wp_prime_and_zeta_is_exact():
    # the pass sums below the real axis at -z and negates what is odd, and
    # the split, eta1*z, the unwinding and the transport all negate exactly,
    # so the values keep their parity bit for bit: at reduced tau, where
    # z is a point of the centred cell, and at any tau with |z| up to 60
    rng = random.Random(36)
    pairs = list(_centred_cell_sweep(36, 200))
    pairs += [(complex(rng.uniform(-1.0, 1.0), math.exp(rng.uniform(math.log(0.005), 1.6))),
               cmath.rect(60.0 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)))
              for _ in range(2000)]
    for tau, z in pairs:
        lat = Lattice(tau)
        try:
            plus = lat.wp(z), lat.wp_prime(z), lat.zeta(z)
        except PoleProximity:
            continue
        minus = lat.wp(-z), lat.wp_prime(-z), lat.zeta(-z)
        assert minus[0] == plus[0], (tau, z)
        for odd, even in zip(minus[1:], plus[1:]):
            assert (odd.value, odd.est_error) == (-even.value, even.est_error), (tau, z)


def test_the_pass_sums_inside_its_strip(monkeypatch):
    # the pass holds no convergence check: every z it is given by a split
    # (here of |z| up to 60, of points near the lattice and of cell edges)
    # or by a half period has |u| <= 1 and |q/u| <= |q|^(1/2) once it sums
    # at -z below the real axis, i.e. |Im z| <= Im(tau)/2 up to the
    # rounding of the split
    seen = []
    run = reduction._point_values

    def counted(tau, q, order, z):
        seen.append((tau, z))
        return run(tau, q, order, z)

    monkeypatch.setattr(reduction, "_point_values", counted)
    rng = random.Random(36)
    for _ in range(300):
        tau = complex(rng.uniform(-1.0, 1.0), math.exp(rng.uniform(math.log(0.005), math.log(5.0))))
        lat = Lattice(tau)
        lat.half_periods()
        rr = reduction.reduce_point(lat)
        zs = [cmath.rect(60.0 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)),
              rr.scale * (0.5 + 0.5 * rr.tau_star), rr.scale * (0.5 - 0.5 * rr.tau_star),
              rng.randint(-3, 3) + rng.randint(-3, 3) * tau + 0.01 * cmath.exp(1j * rng.random())]
        for z in zs:
            try:
                lat.wp(z)
            except PoleProximity:
                pass
    assert len(seen) > 1500
    for tau, z in seen:
        assert abs(z.imag) <= 0.5 * tau.imag * (1.0 + 1e-12), (tau, z)


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
