"""The q-series pass for wp, wp' and zeta, and the lattice-sum oracles.

With q = exp(2*pi*i*tau) and u = exp(2*pi*i*z):

    wp(tau; z)  = (2*pi*i)^2 sum_{m in Z} u q^m / (1 - u q^m)^2  -  eta1
    wp'(tau; z) = (2*pi*i)^3   sum_{m in Z} u q^m (1 + u q^m) / (1 - u q^m)^3
    zeta(tau;z) = 2*pi*i [ sum_{n >= 0} -q^n u / (1 - q^n u)
                           + sum_{n >= 1} (q^n / u) / (1 - q^n / u) - 1/2 ]
                  + eta1 * z

with eta1 = (pi^2/3) E2(tau), since 1/12 - 2 sum_{m >= 1} q^m / (1 - q^m)^2
= E2/12.  One loop sums the three q-sums at a point (_point_values); eta1
enters only wp and zeta, so the pass leaves it to its caller, and wp' needs
no E2 at all.  The m < 0 halves are folded onto positive powers of q
(substitute v = q^|m|/u), which keeps every stored term below 1 in
magnitude; wp' picks up a minus sign on the folded half, so no square root
or branch choice ever enters.  The pass is summed in the reduced frame only:
reduction.Lattice is its one caller.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial

from .core import DEFAULT_POLICY, TWO_PI_I, _coords, ensure_finite, require_upper_half
from .eisenstein import _TAIL_TARGET, _cot, _csc2, _csc2_bound, _reduced_basis, _rows_settled
from .errors import PoleProximity

_MACHINE = 1e-15

# Smallest est_error any evaluator claims.
_EST_FLOOR = 1e-12

# The factors of the q-sums in _point_values, formed once.
_TWO_PI_I_2 = TWO_PI_I**2
_TWO_PI_I_3 = TWO_PI_I**3


@dataclass(frozen=True, slots=True)
class WValue:
    """An evaluated function value with a conservative accuracy estimate."""

    value: complex
    est_error: float


def _point_values(tau: complex, q: complex, order: int,
                  z: complex) -> tuple[complex, complex, complex]:
    """The q-sums of (wp, wp', zeta) at a z of the centred cell of a reduced
    tau, with q its nome; the caller has held z to the pole guard.  One
    loop sums the m = 0 term, then m = 1..order: with w = u q^m, v = q^m/u,
    a = 1/(1 - w) and b = 1/(1 - v), the terms are w a and v b (zeta),
    x = w a^2 and y = v b^2 (wp), and x (2a - 1) and y (2b - 1) (wp'),
    summed as 2 sum(x a - y b) - sum(x - y).  Returned without eta1: wp' is
    complete, wp is (2*pi*i)^2 sum - eta1 and zeta is 2*pi*i (s1 - 1/2) +
    eta1*z, which the caller forms once it has E2(tau).  Each caller checks
    the values it returns.

    wp is even, and wp', zeta and eta1*z are odd, so the zeta sum is odd
    too: at Im(z) < 0 the pass sums at -z and negates the odd two, so the
    parity holds bit for bit.  Then |u| <= 1 and |q/u| <= |q|^(1/2), so no
    exponential overflows and the series converges at every z the centred
    cell holds.

    r = q/u is formed as exp(2*pi*i*(tau - z)): high in the cell both q and
    u underflow to 0 while their quotient is still a normal number.
    """
    odd = z.imag < 0.0
    if odd:
        z = -z
    u = cmath.exp(TWO_PI_I * z)
    r = cmath.exp(TWO_PI_I * (tau - z))
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
    wp = _TWO_PI_I_2 * (sx + sy)
    wp1 = _TWO_PI_I_3 * (2.0 * t - sx + sy)
    zeta = TWO_PI_I * (s1 - 0.5)
    return (wp, -wp1, -zeta) if odd else (wp, wp1, zeta)


def _est_error(value: complex, dist: float) -> float:
    """The error model of the kernels: the tail left at eisenstein._order,
    at most _TAIL_TARGET, plus rounding inflated as 0.01/dist near a pole,
    floored at _EST_FLOOR."""
    rounding = _MACHINE * (1.0 + abs(value)) * max(1.0, 0.01 / max(dist, 1e-300))
    return max(_TAIL_TARGET + rounding, _EST_FLOOR)


def _wp_row_bound(t: float) -> float:
    """A bound on wp_lattice_oracle's row at t, the largest t of its terms."""
    return 4.0 * _csc2_bound(t)


def _zeta_row_bound(z_abs: float, t: float) -> float:
    """A bound on zeta_lattice_oracle's row at t for |z_r| = z_abs."""
    return 4.0 * t / (1.0 - t) + 2.0 * math.pi * z_abs * _csc2_bound(t)


def _corner_distance(tau: complex, z: complex) -> float:
    """Distance from z to the nearest point of Z + tau*Z among the 16 around
    z's cell.  Exact only when tau is reduced: on a sheared basis the nearest
    point can lie outside that square and the answer overestimates.  The
    oracles' own guard, so they need no reduction but their basis's."""
    tau = require_upper_half(tau)
    z = complex(z)
    a, b = _coords(tau, z)
    na0 = math.floor(a)
    nb0 = math.floor(b)
    best = math.inf
    for na in (na0 - 1, na0, na0 + 1, na0 + 2):
        for nb in (nb0 - 1, nb0, nb0 + 1, nb0 + 2):
            d = abs(z - (nb + na * tau))
            if d < best:
                best = d
    return best


def _oracle_frame(tau: complex, z: complex, radius: int) -> tuple[complex, complex, complex]:
    """(omega1, tau_r, z/omega1): the oracles' own reduced basis of the lattice
    (see eisenstein._reduced_basis) and z in its frame, after checking the
    radius and, exactly in that basis, the pole guard."""
    if not (isinstance(radius, int) and radius >= 50):
        raise ValueError(f"radius must be an int >= 50, got {radius!r}")
    omega1, tau_r = _reduced_basis(tau)
    z_r = complex(z) / omega1
    if _corner_distance(tau_r, z_r) * abs(omega1) < DEFAULT_POLICY.pole_guard_radius:
        raise PoleProximity(f"z = {z} too close to the lattice for the oracle")
    return omega1, tau_r, z_r


def wp_lattice_oracle(tau: complex, z: complex, radius: int) -> complex:
    """Lattice sum 1/z^2 + sum' [1/(z-w)^2 - 1/w^2] over the rows
    n = -radius..radius of a reduced basis, each row in closed form:

        sum_m [1/(z - m - n*tau)^2 - 1/(m + n*tau)^2]
            = pi^2/sin^2(pi*(z - n*tau)) - pi^2/sin^2(pi*n*tau),

    and pi^2/sin^2(pi*z) - pi^2/3 for n = 0.  Rows decay like
    exp(-2*pi*|n|*Im tau_r) with Im tau_r >= sqrt(3)/2.  Cross-check only:
    it calls neither the tau reduction nor the q-series it checks.

    The sum stops at the first row after which no later row can change it
    (eisenstein._rows_settled): each of row n's three terms is a csc^2 at a
    height of at least n*Im tau_r - |Im z_r|; radius is the cap."""
    omega1, tau_r, z_r = _oracle_frame(tau, z, radius)
    lift = abs(z_r.imag)
    total = _csc2(z_r) - 1.0 / 3.0
    for n in range(1, radius + 1):
        w = n * tau_r
        total += _csc2(z_r - w) + _csc2(z_r + w) - 2.0 * _csc2(w)
        if _rows_settled(total, _wp_row_bound, tau_r.imag, n, lift):
            break
    return ensure_finite(math.pi**2 * total / omega1**2, "wp oracle")


def zeta_lattice_oracle(tau: complex, z: complex, radius: int) -> complex:
    """Lattice sum 1/z + sum' [1/(z-w) + 1/w + z/w^2] over the rows
    n = -radius..radius of a reduced basis, each row in closed form:

        pi*cot(pi*(z - n*tau)) + pi*cot(pi*n*tau) + z*pi^2/sin^2(pi*n*tau),

    and pi*cot(pi*z) + z*pi^2/3 for n = 0; the rows n and -n are summed
    together, so the pi*cot(pi*n*tau) terms cancel.

    The sum stops as wp_lattice_oracle's does: the two cotangents tend to
    +i and -i, and |cot(pi*a) -+ i| <= 2t/(1 - t), t = exp(-2*pi*|Im a|),
    bounds what is left of each; radius is the cap."""
    omega1, tau_r, z_r = _oracle_frame(tau, z, radius)
    lift = abs(z_r.imag)
    bound = partial(_zeta_row_bound, abs(z_r))
    total = _cot(z_r) + z_r * math.pi / 3.0
    for n in range(1, radius + 1):
        w = n * tau_r
        total += _cot(z_r - w) + _cot(z_r + w) + 2.0 * math.pi * z_r * _csc2(w)
        if _rows_settled(total, bound, tau_r.imag, n, lift):
            break
    return ensure_finite(math.pi * total / omega1, "zeta oracle")
