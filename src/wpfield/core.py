"""Scalar helpers, domain predicates, and the tolerance policy.

Conventions used throughout the package:

* ``tau`` lives in the upper half-plane, ``q = exp(2*pi*i*tau)``.
* ``z`` is the elliptic argument, ``u = exp(2*pi*i*z)``.
* The lattice attached to ``tau`` is ``Z + tau*Z``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NonFiniteValue, ZeroArgument

TWO_PI = 2.0 * math.pi
TWO_PI_I = 2j * math.pi

# Lower edge of the reduced strip: every reduced tau has Im(tau) >= sqrt(3)/2.
FUNDAMENTAL_IM_MIN = math.sqrt(3.0) / 2.0

# Matching nome-disk radius exp(-2*pi*sqrt(3)/2), about 4.33e-3.
NOME_RADIUS = math.exp(-TWO_PI * FUNDAMENTAL_IM_MIN)


@dataclass(frozen=True)
class TolerancePolicy:
    """Numeric tolerances shared by evaluation and verification.

    Attributes
    ----------
    series_tail_bound : floor for claimed series accuracy
    identity_tol      : default pass threshold for exact-identity residuals
    oracle_tol        : pass threshold when comparing against lattice-sum oracles
    fd_tol            : pass threshold for finite-difference derivative checks
    pole_guard_radius : lattice distance below which evaluation is refused
    """

    series_tail_bound: float = 1e-12
    identity_tol: float = 1e-9
    oracle_tol: float = 1e-4
    fd_tol: float = 1e-5
    pole_guard_radius: float = 1e-3

    def __post_init__(self) -> None:
        fields = (
            self.series_tail_bound,
            self.identity_tol,
            self.oracle_tol,
            self.fd_tol,
            self.pole_guard_radius,
        )
        if any(not (v > 0.0 and math.isfinite(v)) for v in fields):
            raise ValueError("all tolerances must be finite and positive")
        if not (self.series_tail_bound <= self.identity_tol <= self.oracle_tol):
            raise ValueError(
                "need series_tail_bound <= identity_tol <= oracle_tol, got "
                f"{self.series_tail_bound} / {self.identity_tol} / {self.oracle_tol}"
            )


DEFAULT_POLICY = TolerancePolicy()


class CellCoordinates(NamedTuple):
    """Real coordinates (a, b) of z = a*tau + b with respect to the lattice basis."""

    a: float
    b: float


def require_upper_half(tau: complex) -> complex:
    tau = complex(tau)
    if not tau.imag > 0.0:
        raise ValueError(f"tau must lie in the upper half-plane, got {tau!r}")
    return tau


def ensure_finite(value: complex, what: str = "value") -> complex:
    """Reject NaN/inf components; overflow anywhere is an error, not a result."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NonFiniteValue(f"{what} is not finite: {value!r}")
    return value


def in_fundamental_domain(tau: complex) -> bool:
    """True iff -1/2 <= Re(tau) < 1/2 and Im(tau) >= sqrt(3)/2."""
    tau = complex(tau)
    return -0.5 <= tau.real < 0.5 and tau.imag >= FUNDAMENTAL_IM_MIN


def coords_wrt_lattice(tau: complex, z: complex) -> CellCoordinates:
    """Solve z = a*tau + b over the reals.

    a = Im(z)/Im(tau) and b = Re(z) - a*Re(tau); exact up to rounding for any
    tau in the upper half-plane.
    """
    tau = require_upper_half(tau)
    z = complex(z)
    a = z.imag / tau.imag
    b = z.real - a * tau.real
    return CellCoordinates(a, b)


def in_cell(tau: complex, z: complex) -> bool:
    """True iff z = a*tau + b with 0 <= a < 1 and 0 <= b < 1 (half-open cell)."""
    a, b = coords_wrt_lattice(tau, z)
    return 0.0 <= a < 1.0 and 0.0 <= b < 1.0


def lattice_distance(tau: complex, z: complex) -> float:
    """Distance from z to the nearest point of Z + tau*Z.

    Exact for reduced tau; for strongly sheared bases it may overestimate, so
    callers reduce first when the answer matters.
    """
    tau = require_upper_half(tau)
    z = complex(z)
    a, b = coords_wrt_lattice(tau, z)
    na0 = math.floor(a)
    nb0 = math.floor(b)
    best = math.inf
    for na in (na0 - 1, na0, na0 + 1, na0 + 2):
        for nb in (nb0 - 1, nb0, nb0 + 1, nb0 + 2):
            d = abs(z - (nb + na * tau))
            if d < best:
                best = d
    return best


def nome(tau: complex) -> complex:
    """q = exp(2*pi*i*tau), with Re(tau) folded mod 1 first.

    The fold keeps the exponential argument small and makes nome(tau + 1)
    bit-identical to nome(tau).
    """
    tau = require_upper_half(tau)
    re = math.remainder(tau.real, 1.0)
    return cmath.exp(TWO_PI_I * complex(re, tau.imag))


def tau_from_nome(q: complex) -> complex:
    """Invert q = exp(2*pi*i*tau) with the principal log; Re into [-1/2, 1/2)."""
    q = complex(q)
    if q == 0:
        raise ZeroArgument("q must be nonzero")
    re = cmath.phase(q) / TWO_PI
    if re >= 0.5:
        re -= 1.0
    im = -math.log(abs(q)) / TWO_PI
    return complex(re, im)


def in_m_delta(q: complex, u: complex) -> bool:
    """Membership in the model domain: |q| <= exp(-pi*sqrt(3)) and z inside the
    shrunken cell, the parallelogram with corners (1+tau)/8, (3+tau)/8,
    (1+3*tau)/8, (3+3*tau)/8.

    q and u are inverted with principal logarithm branches; z is the principal
    preimage of u.
    """
    q = complex(q)
    u = complex(u)
    if q == 0:
        raise ZeroArgument("q must be nonzero")
    if u == 0:
        raise ZeroArgument("u must be nonzero")
    if abs(q) > NOME_RADIUS:
        return False
    tau = tau_from_nome(q)
    z = cmath.log(u) / TWO_PI_I
    # z = (1+tau)/8 + (b + a*tau)/4 with a, b in [0, 1] <=> lattice coordinates
    # of z - (1+tau)/8 both in [0, 1/4].
    alpha, beta = coords_wrt_lattice(tau, z - (1.0 + tau) / 8.0)
    return 0.0 <= alpha <= 0.25 and 0.0 <= beta <= 0.25
