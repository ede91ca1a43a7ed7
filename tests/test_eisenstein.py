"""Eisenstein series: divisor sums, q-expansions, bridges, lattice oracles."""

import cmath
import math
import random
import struct

import pytest

from wpfield.eisenstein import (
    _ORDER_BOUNDS,
    _TAIL_TARGET,
    ZETA2,
    ZETA6,
    _HORNER,
    _coefficients,
    _order,
    lattice_sum_eisenstein,
    q_coefficients,
    sigma,
)
from wpfield.reduction import Lattice, invariants_anywhere
from wpfield.verify import run_identity_suite

from order_walk import walk_order

RHO = cmath.exp(1j * math.pi / 3.0)


def test_sigma_small_values():
    assert [sigma(n, 1) for n in range(1, 11)] == [1, 3, 4, 7, 6, 12, 8, 15, 13, 18]
    assert sigma(6, 3) == 1 + 8 + 27 + 216
    assert sigma(4, 5) == 1 + 32 + 1024


def test_sigma_rejects_nonpositive():
    with pytest.raises(ValueError):
        sigma(0, 1)


def test_q_coefficients_goldens():
    assert q_coefficients("e2", 5) == [1, -24, -72, -96, -168, -144]
    assert q_coefficients("e4", 3) == [1, 240, 2160, 6720]
    assert q_coefficients("e6", 3) == [1, -504, -16632, -122976]
    assert q_coefficients("e2", 0) == [1]


def test_q_coefficients_validation():
    with pytest.raises(ValueError):
        q_coefficients("e8", 3)
    for order in (-1, 2.5, 3.0, math.nan):
        with pytest.raises(ValueError):
            q_coefficients("e2", order)


def test_e2_coefficients_match_divisor_sums():
    coeffs = q_coefficients("e2", 10)
    for n in range(1, 11):
        assert coeffs[n] == -24 * sigma(n, 1)


# |q| from the lowest the series kernels accept (Im tau = 0.1) down to 1e-30.
Q_GRID = ([0.53 * k / 150 for k in range(1, 151)]
          + [0.53 * 10.0 ** (-30 * k / 150) for k in range(1, 151)])


def _e6_tail(q_abs, order):
    """504 sum_{n > order} n^6 q_abs^n by its geometric majorant."""
    ratio = q_abs * ((order + 2) / (order + 1)) ** 6
    if ratio >= 1.0:
        return math.inf
    return 504.0 * (order + 1) ** 6 * q_abs ** (order + 1) / (1.0 - ratio)


def _kernel_tail(q_abs, order):
    """The wp' tails of both kernel sums at |u q| = |r| = 1."""
    first = q_abs**order
    if first >= 1.0:
        return math.inf
    return 4.0 * (2.0 * math.pi) ** 3 * first / ((1.0 - first) ** 3 * (1.0 - q_abs))


def _walk(q_abs, *tails):
    order = 1
    while max(tail(q_abs, order) for tail in tails) > _TAIL_TARGET:
        order += 1
    return order


@pytest.mark.parametrize("tail", [_e6_tail, _kernel_tail], ids=["eisenstein", "kernel"])
def test_series_order_equals_the_walk_from_one(tail):
    # the closed-form start may skip steps of the walk over both tails but
    # never its answer, and that order bounds this tail on its own
    for q_abs in Q_GRID:
        order = walk_order(q_abs)
        assert order == _walk(q_abs, _e6_tail, _kernel_tail), q_abs
        assert order >= _walk(q_abs, tail), q_abs
        assert tail(q_abs, order) <= _TAIL_TARGET, q_abs
    assert walk_order(0.0) == 1  # q underflows high in the cusp


# The largest |q*| of the reduced domain, Im(tau*) >= sqrt(3)/2.
Q_REDUCED = math.exp(-math.pi * math.sqrt(3.0))


def _double(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def test_the_order_table_is_rebuilt_from_the_walk():
    # for each order, the largest |q| the walk sums to it or fewer, by
    # bisection over the bit patterns of the doubles in [0, 1/2], which are
    # ordered as the doubles are
    half = struct.unpack("<q", struct.pack("<d", 0.5))[0]
    bounds, lo = [], 0
    for order in range(1, 11):
        hi = half  # walk_order(_double(lo)) <= order < walk_order(_double(hi))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if walk_order(_double(mid)) <= order:
                lo = mid
            else:
                hi = mid
        bounds.append(_double(lo))
    assert tuple(bounds) == _ORDER_BOUNDS


def test_the_order_table_equals_the_walk():
    # at each bound and one ulp either side, and on seeded |q| over the
    # reduced domain, which the table covers
    assert _ORDER_BOUNDS[-1] > Q_REDUCED
    assert _order(0.0) == walk_order(0.0) == 1  # q underflows high in the cusp
    for bound in _ORDER_BOUNDS:
        for q_abs in (math.nextafter(bound, 0.0), bound, math.nextafter(bound, 1.0)):
            assert _order(q_abs) == walk_order(q_abs), q_abs
    rng = random.Random(5)
    for _ in range(50_000):
        q_abs = rng.uniform(0.0, Q_REDUCED)
        assert _order(q_abs) == walk_order(q_abs), q_abs
        q_abs = Q_REDUCED * math.exp(-rng.uniform(0.0, 700.0))  # high in the cusp
        assert _order(q_abs) == walk_order(q_abs), q_abs


def test_q_coefficients_keep_nothing_and_the_lattice_tables_stay_small():
    # only _HORNER keeps tables, built at import: three kinds at the orders
    # 0..11 that _order can give (the reduced domain needs 1..10), each the
    # float coefficients, the highest power first; nothing adds to it
    run_identity_suite(1)
    for order in range(200):
        q_coefficients("e4", order)
    assert not hasattr(_coefficients, "cache_info")
    assert _order(math.inf) == len(_ORDER_BOUNDS) + 1 == 11
    assert {kind: len(table) for kind, table in _HORNER.items()} == {"e2": 12, "e4": 12, "e6": 12}
    for kind, table in _HORNER.items():
        for order, coefficients in enumerate(table):
            assert coefficients == tuple(map(float, reversed(_coefficients(kind, order))))


def test_order_bounds_the_true_eisenstein_tails():
    # the coefficients themselves, not the n^6 majorant, summed past the order
    worst = 0.0
    for q_abs in Q_GRID:
        order = walk_order(q_abs)
        for kind in ("e2", "e4", "e6"):
            coeffs = q_coefficients(kind, 3 * order + 60)
            tail = sum(abs(c) * q_abs**n for n, c in enumerate(coeffs) if n > order)
            worst = max(worst, tail)
    assert worst <= _TAIL_TARGET


# --- classical anchors -------------------------------------------------------
# E4(i) = 3*Gamma(1/4)^8/(2*pi)^6 and g2(i) = Gamma(1/4)^8/(16*pi^2) give two
# machine-precision checks that are independent of every series in the package.


def test_e4_at_i_against_gamma_quarter():
    expected = 3.0 * math.gamma(0.25) ** 8 / (2.0 * math.pi) ** 6
    got = Lattice(1j).e4()
    assert abs(got - expected) < 1e-13
    assert abs(got.imag) < 1e-15


def test_g2_at_i_against_gamma_quarter():
    expected = math.gamma(0.25) ** 8 / (16.0 * math.pi**2)
    assert abs(invariants_anywhere(1j).g2 - expected) < 1e-10


def test_e2_at_i_fixed_point():
    assert abs(Lattice(1j).e2() - 3.0 / math.pi) < 1e-13


def test_e6_vanishes_at_i():
    assert abs(Lattice(1j).e6()) < 1e-13


def test_e4_vanishes_at_rho():
    assert abs(Lattice(RHO).e4()) < 1e-13


def test_delta_never_raises_on_fundamental_domain_samples():
    for tau in (1j, RHO + 1e-8j, complex(0.49, 2.0), complex(-0.5, 0.9)):
        inv = invariants_anywhere(tau)
        assert abs(inv.delta - (inv.g2**3 - 27.0 * inv.g3**2)) < 1e-6


def test_eta1_bridge_sign():
    # eta1 = (pi^2/3) E2; at tau = i this is exactly pi
    assert abs(invariants_anywhere(1j).eta1 - math.pi) < 1e-13


# --- lattice-sum oracle cross-checks ----------------------------------------


def test_weight2_oracle_matches_series():
    for tau in (2j, complex(0.3, 1.5)):
        oracle = lattice_sum_eisenstein(tau, 1, 50) / (2.0 * ZETA2)
        assert abs(oracle - Lattice(tau).e2()) < 1e-12


def test_weight2_oracle_survives_large_imag_tau():
    # rows with huge Im(pi*m*tau) switch to the nome form instead of overflowing
    oracle = lattice_sum_eisenstein(200j, 1, 30) / (2.0 * ZETA2)
    assert abs(oracle - 1.0) < 1e-12


def test_weight6_oracle_matches_series():
    tau = complex(0.2, 1.1)
    oracle = lattice_sum_eisenstein(tau, 3, 200) / (2.0 * ZETA6)
    assert abs(oracle - Lattice(tau).e6()) < 1e-9


def test_oracle_argument_validation():
    with pytest.raises(ValueError):
        lattice_sum_eisenstein(1j, 4, 50)
    for radius in (5, 10.5, math.nan, math.inf, 50.0):
        with pytest.raises(ValueError):
            lattice_sum_eisenstein(1j, 2, radius)
