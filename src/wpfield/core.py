"""Scalar helpers, the upper-half-plane check, and the tolerance policy.

Conventions used throughout the package:

* ``tau`` lives in the upper half-plane, ``q = exp(2*pi*i*tau)``.
* ``z`` is the elliptic argument, ``u = exp(2*pi*i*z)``.
* The lattice attached to ``tau`` is ``Z + tau*Z``.

The tolerance policy holds the three pass thresholds of the identity suite,
the only tolerances a config file can set; the pole guard is a constant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import ClassVar

from .errors import NonFiniteValue

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class TolerancePolicy:
    """Pass thresholds of the identity suite, with identity_tol <= oracle_tol.

    Attributes
    ----------
    identity_tol      : default pass threshold for exact-identity residuals
    oracle_tol        : pass threshold when comparing against lattice-sum oracles
    fd_tol            : pass threshold for finite-difference derivative checks
    pole_guard_radius : lattice distance below which evaluation is refused; a
                        class constant, not a field, so no config file or
                        constructor sets it
    """

    identity_tol: float = 1e-9
    oracle_tol: float = 1e-9
    fd_tol: float = 1e-5
    pole_guard_radius: ClassVar[float] = 1e-3

    def __post_init__(self) -> None:
        fields = (self.identity_tol, self.oracle_tol, self.fd_tol)
        if any(not (v > 0.0 and math.isfinite(v)) for v in fields):
            raise ValueError("all tolerances must be finite and positive")
        if not self.identity_tol <= self.oracle_tol:
            raise ValueError(
                "need identity_tol <= oracle_tol, got "
                f"{self.identity_tol} / {self.oracle_tol}"
            )


DEFAULT_POLICY = TolerancePolicy()


def require_upper_half(tau: complex) -> complex:
    """tau as a complex: ValueError unless Im(tau) > 0, NonFiniteValue if a
    component is NaN or infinite."""
    tau = complex(tau)
    if not tau.imag > 0.0:
        raise ValueError(f"tau must lie in the upper half-plane, got {tau!r}")
    if not cmath.isfinite(tau):
        raise NonFiniteValue(f"tau is not finite: {tau!r}")
    return tau


def ensure_finite(value: complex, what: str = "value") -> complex:
    """Reject NaN/inf components; overflow anywhere is an error, not a result."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NonFiniteValue(f"{what} is not finite: {value!r}")
    return value


def _coords(tau: complex, z: complex) -> tuple[float, float]:
    """(a, b) with z = a*tau + b over the reals, for a tau already checked and
    a complex z: a = Im(z)/Im(tau) and b = Re(z) - a*Re(tau), exact up to
    rounding.  NonFiniteValue if a or b is NaN or infinite, as for a
    non-finite z."""
    a = z.imag / tau.imag
    b = z.real - a * tau.real
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteValue(f"lattice coordinates of z = {z!r} are not finite")
    return a, b


def _nome(tau: complex) -> complex:
    """q = exp(2*pi*i*tau) for a tau already checked, with Re(tau) folded
    mod 1 first.  The fold keeps the exponential argument small and makes
    _nome(tau + 1) bit-identical to _nome(tau)."""
    re = math.remainder(tau.real, 1.0)
    return cmath.exp(TWO_PI_I * complex(re, tau.imag))
