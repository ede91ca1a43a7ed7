"""Every failure at an edge input surfaces as a WPFieldError or ValueError."""

import math
import random

from wpfield.errors import WPFieldError
from wpfield.reduction import (
    e2_anywhere,
    e4_anywhere,
    e6_anywhere,
    half_periods,
    invariants_anywhere,
    lattice_distance,
    reduce_point,
    wp_add,
    wp_anywhere,
    wp_prime_anywhere,
    zeta_anywhere,
)
from wpfield.symbolic import E2, E4, E6, TAU, WP, WP1, ZETA, Z, eval_expr, fd_check

# Parts of tau, z1 and z2: NaN, infinities, signed zeros, subnormals, and
# magnitudes where -1/tau, s^k, exp(2*pi*i*z) or a lattice coordinate
# overflows, underflows or loses every digit.
EDGE_PARTS = (0.0, math.nan, math.inf, 5e-324, 1e-320, 1e-300, 1e-200, 1e-160,
              1e-60, 1e-16, 1e-8, 1e8, 1e15, 1e200, 1e300)

EVERY_GENERATOR = Z * TAU * WP * WP1 * ZETA * E2 * E4 * E6

ENTRY_POINTS = (
    lambda tau, z1, z2: wp_anywhere(tau, z1),
    lambda tau, z1, z2: wp_prime_anywhere(tau, z1),
    lambda tau, z1, z2: zeta_anywhere(tau, z1),
    lambda tau, z1, z2: e2_anywhere(tau),
    lambda tau, z1, z2: e4_anywhere(tau),
    lambda tau, z1, z2: e6_anywhere(tau),
    lambda tau, z1, z2: invariants_anywhere(tau),
    lambda tau, z1, z2: half_periods(tau),
    lambda tau, z1, z2: reduce_point(tau, z1),
    lambda tau, z1, z2: lattice_distance(tau, z1),
    lambda tau, z1, z2: wp_add(tau, z1, z2),
    lambda tau, z1, z2: eval_expr(EVERY_GENERATOR, tau, z1),
    lambda tau, z1, z2: fd_check(WP, "z", tau, z1),
)

# (tau, z1, z2) with finite parts where |z1| or |z1 + z2| passes the largest
# double, where abs() raises OverflowError.  EDGE_PARTS stops at 1e300, so
# the seeded sweep never draws them.
HUGE_MODULI = (
    (complex(1e-300, 1e300), complex(-1.7e308, 1.7e308), complex(-1.7e308, 1.7e308)),
    (complex(1e300, 1e300), 1e-300j, complex(1.7e308, 1.7e308)),
    (1j, complex(1.7e308, -1.7e308), 0.3 + 0j),
)


def _part(rng):
    if rng.random() < 0.5:
        return rng.choice(EDGE_PARTS) * rng.choice((1.0, -1.0))
    return rng.uniform(-3.0, 3.0)


def _leaks(inputs):
    """{(entry point, exception class): (tau, z1, z2)} for each exception an
    entry point raised on inputs that is not a library error."""
    leaks = {}
    for tau, z1, z2 in inputs:
        for k, evaluate in enumerate(ENTRY_POINTS):
            try:
                evaluate(tau, z1, z2)
            except (WPFieldError, ValueError):
                pass
            except Exception as exc:  # noqa: BLE001 - any other class is the failure
                leaks.setdefault((k, type(exc).__name__), (tau, z1, z2))
    return leaks


def test_edge_inputs_raise_only_library_errors():
    # Such inputs can overflow cmath.exp in the series setup or s^k in the
    # transport, and divide by 0 in the series sums or in wp_add's slope;
    # each of these must surface as a library error.
    rng = random.Random(5)
    assert _leaks([tuple(complex(_part(rng), _part(rng)) for _ in range(3))
                   for _ in range(1800)]) == {}


def test_a_modulus_past_the_largest_double_raises_a_library_error():
    assert _leaks(HUGE_MODULI) == {}
