"""q-series evaluation of wp, wp', zeta, half periods, and lattice-sum oracles.

With q = exp(2*pi*i*tau) and u = exp(2*pi*i*z):

    wp(tau; z)  = (2*pi*i)^2 [ sum_{m in Z} u q^m / (1 - u q^m)^2
                               + 1/12 - 2 sum_{m >= 1} q^m / (1 - q^m)^2 ]
    wp'(tau; z) = (2*pi*i)^3   sum_{m in Z} u q^m (1 + u q^m) / (1 - u q^m)^3
    zeta(tau;z) = 2*pi*i [ sum_{n >= 0} -q^n u / (1 - q^n u)
                           + sum_{n >= 1} (q^n / u) / (1 - q^n / u) ]
                  + eta1 * z - pi*i

The m < 0 halves are folded onto positive powers of q (substitute v = q^|m|/u),
which keeps every stored term below 1 in magnitude; wp' picks up a minus sign on
the folded half, so no square root or branch choice ever enters.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import (
    DEFAULT_POLICY,
    TWO_PI_I,
    ensure_finite,
    _nome,
    lattice_distance,
)
from .eisenstein import (
    _TAIL_TARGET,
    _cot,
    _csc2,
    _e_series,
    _order,
    _reduced_basis,
    _series_tau,
)
from .errors import ConvergenceDomain, PoleProximity

_MACHINE = 1e-15

# Smallest est_error any evaluator claims.
_EST_FLOOR = 1e-12


@dataclass(frozen=True, slots=True)
class WValue:
    """An evaluated function value with a conservative accuracy estimate."""

    value: complex
    est_error: float


@dataclass(frozen=True, slots=True)
class HalfPeriodData:
    """wp at the three half periods 1/2, tau/2, (1+tau)/2."""

    e1: complex
    e2: complex
    e3: complex


def _series_setup(tau: complex, q: complex, order: int, z: complex,
                  pole_guard: float) -> tuple:
    """Apply the pole guard and the convergence checks to a checked tau, its
    nome q and a complex z, and return q, u, r = q/u, the lattice distance of
    z and the series order (eisenstein._order(|q|), computed once by the
    caller): the arguments of _wp_sum, _wp_prime_sum and _zeta_sum, which
    return (value, est_error).

    r is formed as exp(2*pi*i*(tau - z)), not as q/u: high in the cell both q
    and u underflow to 0 while their quotient is still a normal number.
    """
    dist = lattice_distance(tau, z)
    if dist < pole_guard:
        raise PoleProximity(
            f"z = {z} is within {dist:.3e} of the lattice (guard {pole_guard:.1e})"
        )
    try:
        u = cmath.exp(TWO_PI_I * z)
        r = cmath.exp(TWO_PI_I * (tau - z))
    except OverflowError as exc:  # z far below or above the cell
        raise ConvergenceDomain(f"exp(2*pi*i*z) overflows at z = {z}") from exc
    if abs(q * u) >= 1.0 or abs(r) >= 1.0:
        raise ConvergenceDomain(
            "need |q*u| < 1 and |q/u| < 1; reduce z into the period cell first"
        )
    return q, u, r, dist, order


def _kernel_setup(tau: complex, z: complex) -> tuple:
    """_series_setup for the public kernels, with Re(tau) folded mod 1: the
    lattice is the same, and a large Re(tau) would shear the pole guard."""
    tau = _series_tau(tau)
    tau = complex(math.remainder(tau.real, 1.0), tau.imag)
    q = _nome(tau)
    return _series_setup(tau, q, _order(abs(q)), complex(z), DEFAULT_POLICY.pole_guard_radius)


def _est_error(value: complex, dist: float) -> float:
    """The error model of the kernels: the tail left at eisenstein._order,
    at most _TAIL_TARGET, plus rounding inflated as 0.01/dist near a pole,
    floored at _EST_FLOOR."""
    rounding = _MACHINE * (1.0 + abs(value)) * max(1.0, 0.01 / max(dist, 1e-300))
    return max(_TAIL_TARGET + rounding, _EST_FLOOR)


def _wp_sum(q: complex, u: complex, r: complex, dist: float, n_terms: int) -> tuple:
    w = u
    total = w / (1.0 - w) ** 2  # m = 0
    qm = 1.0 + 0.0j
    for _ in range(1, n_terms + 1):
        v = r * qm  # q^m / u
        qm *= q
        w = u * qm
        total += w / (1.0 - w) ** 2
        total += v / (1.0 - v) ** 2
        total -= 2.0 * qm / (1.0 - qm) ** 2
    total += 1.0 / 12.0
    value = ensure_finite(TWO_PI_I**2 * total, "wp")
    return value, _est_error(value, dist)


def _wp_prime_sum(q: complex, u: complex, r: complex, dist: float, n_terms: int) -> tuple:
    w = u
    total = w * (1.0 + w) / (1.0 - w) ** 3  # m = 0
    qm = 1.0 + 0.0j
    for _ in range(1, n_terms + 1):
        v = r * qm  # q^m / u
        qm *= q
        w = u * qm
        total += w * (1.0 + w) / (1.0 - w) ** 3
        total -= v * (1.0 + v) / (1.0 - v) ** 3  # folded half flips sign
    value = ensure_finite(TWO_PI_I**3 * total, "wp'")
    return value, _est_error(value, dist)


def _zeta_sum(q: complex, u: complex, r: complex, dist: float, n_terms: int,
              z: complex, eta1: complex) -> tuple:
    """The zeta sum at z, given eta1 = (pi^2/3) E2(tau) for its eta1*z term."""
    total = -u / (1.0 - u)  # n = 0 term of the u-sum
    qm = 1.0 + 0.0j
    for _ in range(1, n_terms + 1):
        v = r * qm  # q^m / u
        qm *= q
        w = u * qm
        total -= w / (1.0 - w)
        total += v / (1.0 - v)
    value = ensure_finite(TWO_PI_I * total + eta1 * z - 1j * math.pi, "zeta")
    return value, _est_error(value, dist)


def wp_q(tau: complex, z: complex) -> WValue:
    """Weierstrass wp via the q-series; intended for reduced tau and z in the cell."""
    return WValue(*_wp_sum(*_kernel_setup(tau, z)))


def wp_prime_q(tau: complex, z: complex) -> WValue:
    """d(wp)/dz via the term-wise derivative of the wp series (branch-free)."""
    return WValue(*_wp_prime_sum(*_kernel_setup(tau, z)))


def zeta_q(tau: complex, z: complex) -> WValue:
    """Weierstrass zeta via the q-series plus the eta1*z - pi*i tail.

    eta1 comes from the same q-data as E2: eta1 = (pi^2/3) E2(tau).
    """
    series = _kernel_setup(tau, z)
    eta1 = (math.pi**2 / 3.0) * _e_series("e2", series[0], series[4])
    return WValue(*_zeta_sum(*series, z, eta1))


def half_periods(tau: complex) -> HalfPeriodData:
    """e1 = wp(1/2), e2 = wp(tau/2), e3 = wp((1+tau)/2); the roots of
    4 t^3 - g2 t - g3, so e1 + e2 + e3 = 0."""
    tau = _series_tau(tau)
    q = _nome(tau)
    order = _order(abs(q))
    guard = DEFAULT_POLICY.pole_guard_radius
    return HalfPeriodData(*(_wp_sum(*_series_setup(tau, q, order, z, guard))[0]
                            for z in (0.5 + 0j, tau / 2.0, (1.0 + tau) / 2.0)))


def _oracle_frame(tau: complex, z: complex, radius: int) -> tuple[complex, complex, complex]:
    """(omega1, tau_r, z/omega1): the oracles' own reduced basis of the lattice
    (see eisenstein._reduced_basis) and z in its frame, after checking the
    radius and, exactly in that basis, the pole guard."""
    if radius < 50:
        raise ValueError(f"radius must be >= 50, got {radius}")
    omega1, tau_r = _reduced_basis(tau)
    z_r = complex(z) / omega1
    if lattice_distance(tau_r, z_r) * abs(omega1) < DEFAULT_POLICY.pole_guard_radius:
        raise PoleProximity(f"z = {z} too close to the lattice for the oracle")
    return omega1, tau_r, z_r


def wp_lattice_oracle(tau: complex, z: complex, radius: int) -> complex:
    """Lattice sum 1/z^2 + sum' [1/(z-w)^2 - 1/w^2] over the rows
    n = -radius..radius of a reduced basis, each row in closed form:

        sum_m [1/(z - m - n*tau)^2 - 1/(m + n*tau)^2]
            = pi^2/sin^2(pi*(z - n*tau)) - pi^2/sin^2(pi*n*tau),

    and pi^2/sin^2(pi*z) - pi^2/3 for n = 0.  Rows decay like
    exp(-2*pi*|n|*Im tau_r) with Im tau_r >= sqrt(3)/2.  Cross-check only:
    it calls neither the tau reduction nor the q-series it checks."""
    omega1, tau_r, z_r = _oracle_frame(tau, z, radius)
    total = _csc2(z_r) - 1.0 / 3.0
    for n in range(1, radius + 1):
        w = n * tau_r
        total += _csc2(z_r - w) + _csc2(z_r + w) - 2.0 * _csc2(w)
    return ensure_finite(math.pi**2 * total / omega1**2, "wp oracle")


def zeta_lattice_oracle(tau: complex, z: complex, radius: int) -> complex:
    """Lattice sum 1/z + sum' [1/(z-w) + 1/w + z/w^2] over the rows
    n = -radius..radius of a reduced basis, each row in closed form:

        pi*cot(pi*(z - n*tau)) + pi*cot(pi*n*tau) + z*pi^2/sin^2(pi*n*tau),

    and pi*cot(pi*z) + z*pi^2/3 for n = 0; the rows n and -n are summed
    together, so the pi*cot(pi*n*tau) terms cancel."""
    omega1, tau_r, z_r = _oracle_frame(tau, z, radius)
    total = _cot(z_r) + z_r * math.pi / 3.0
    for n in range(1, radius + 1):
        w = n * tau_r
        total += _cot(z_r - w) + _cot(z_r + w) + 2.0 * math.pi * z_r * _csc2(w)
    return ensure_finite(math.pi * total / omega1, "zeta oracle")
