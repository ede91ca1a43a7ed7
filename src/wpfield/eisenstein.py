"""Eisenstein series E2, E4, E6, lattice invariants, and lattice-sum oracles.

The fast route is the normalized q-expansion

    E2 = 1 - 24 sum sigma_1(n) q^n
    E4 = 1 + 240 sum sigma_3(n) q^n
    E6 = 1 - 504 sum sigma_5(n) q^n

each summed on its own by Horner's rule, with its integer coefficients taken
from the one table _Q_SERIES.  The slow route is a direct sum over lattice
points, kept deliberately independent so the two can cross-check each other.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import TWO_PI_I, ensure_finite, nome, require_upper_half
from .errors import ConvergenceDomain

# Below this height |q| > 0.53 and the E-series would need about 120 terms;
# callers reduce tau first.
MIN_IM_TAU = 0.1

# Every q-series stops at the first order whose tail bound is below this, a
# tenth of an ulp of 1.
_TAIL_TARGET = 1e-17

ZETA2 = math.pi**2 / 6.0
ZETA4 = math.pi**4 / 90.0
ZETA6 = math.pi**6 / 945.0


def sigma(n: int, k: int) -> int:
    """Divisor power sum sigma_k(n) by direct divisor enumeration."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
    return total


def _power_series_tail(q_abs: float, order: int, degree: int, scale: float) -> float:
    """Bound scale * sum_{n > order} n**degree * q_abs**n by a geometric majorant."""
    if not 0.0 <= q_abs < 1.0:
        return math.inf
    ratio = q_abs * ((order + 2) / (order + 1)) ** degree
    if ratio >= 1.0:
        return math.inf
    first = scale * (order + 1) ** degree * q_abs ** (order + 1)
    return first / (1.0 - ratio)


def _sigma_tail(q_abs: float, order: int) -> float:
    """Tail of the E6 series past q^order; it bounds all three (sigma_5(n) <= n^6)."""
    return _power_series_tail(q_abs, order, 6, 504.0)


def _series_order(q_abs: float, tail: Callable[[float, int], float]) -> int:
    """The smallest order N >= 1 with tail(q_abs, N) <= _TAIL_TARGET, where
    tail(q_abs, N) bounds what a q-series drops by stopping after q^N.

    Every tail given here is at least q_abs^(N+1), so no N below
    log(_TAIL_TARGET)/log(q_abs) - 1 can pass; the walk starts there."""
    order = 1
    if q_abs > 0.0:
        order = max(1, math.ceil(math.log(_TAIL_TARGET) / math.log(q_abs)) - 1)
    while tail(q_abs, order) > _TAIL_TARGET:
        order += 1
    return order


@dataclass(frozen=True)
class EisensteinValues:
    e2: complex
    e4: complex
    e6: complex


@dataclass(frozen=True)
class LatticeInvariants:
    g2: complex
    g3: complex
    delta: complex
    eta1: complex


def _series_tau(tau: complex) -> complex:
    """tau as a complex, checked to be high enough for the q-expansions."""
    tau = require_upper_half(tau)
    if tau.imag < MIN_IM_TAU:
        raise ConvergenceDomain(
            f"Im(tau) = {tau.imag} is below {MIN_IM_TAU}; reduce tau first"
        )
    return tau


def _e_series(kind: str, q: complex, order: int | None = None) -> complex:
    """E2, E4 or E6 (kind "e2", "e4", "e6") from its q-expansion to q^order,
    by Horner's rule; the order defaults to the one the tail bound needs."""
    if order is None:
        order = _series_order(abs(q), _sigma_tail)
    acc = 0j
    for c in reversed(_coefficients(kind, order)):
        acc = acc * q + c
    return ensure_finite(acc, kind.upper())


def eisenstein_at(tau: complex) -> EisensteinValues:
    """Normalized E2, E4, E6 at tau via the divisor-sum q-expansions.

    Accepts any Im(tau) >= 0.1, summing as many terms as |q| needs (10 at
    most once tau is reduced).
    """
    q = nome(_series_tau(tau))
    order = _series_order(abs(q), _sigma_tail)
    return EisensteinValues(*(_e_series(kind, q, order) for kind in ("e2", "e4", "e6")))


def delta_eta_product(tau: complex) -> complex:
    """Discriminant delta = (2*pi)^12 q prod_{n >= 1} (1 - q^n)^24.

    Unlike g2^3 - 27 g3^2, which cancels to rounding noise once |q| is small,
    the product keeps full relative accuracy at every height.
    """
    tau = _series_tau(tau)
    q = nome(tau)
    prod = 1.0 + 0.0j
    qn = 1.0 + 0.0j
    for _ in range(_series_order(abs(q), _sigma_tail)):
        qn *= q
        prod *= 1.0 - qn
    return ensure_finite((2.0 * math.pi) ** 12 * q * prod**24, "delta")


def _lattice_points(tau: complex, radius: int) -> np.ndarray:
    """The nonzero lattice points m + n*tau with max(|m|, |n|) <= radius."""
    ms = np.arange(-radius, radius + 1)
    m_grid, n_grid = np.meshgrid(ms, ms, indexing="ij")
    mask = (m_grid != 0) | (n_grid != 0)
    return m_grid[mask] + n_grid[mask] * complex(tau)


def lattice_sum_eisenstein(tau: complex, k: int, radius: int) -> complex:
    """Slow oracle: sum of omega^(-2k) over nonzero lattice points of Z + tau*Z.

    Equals 2*zeta(2k)*E_{2k} for every k.  For k = 1 the sum is only
    conditionally convergent, so the row-by-row order is mandatory; each row is
    summed in closed form,

        sum' omega^(-2) = 2*zeta(2) + 2 * sum_{m >= 1} pi^2 / sin^2(pi*m*tau).

    For k = 2, 3 the absolutely convergent double sum over max(|m|, |n|) <=
    radius is returned; what it leaves out decays like O(radius^(1-2k)).
    """
    tau = require_upper_half(tau)
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2, or 3, got {k}")
    if radius < 10:
        raise ValueError(f"radius must be >= 10, got {radius}")
    if k == 1:
        total = complex(ZETA2)
        for m in range(1, radius + 1):
            w = math.pi * m * tau
            if abs(w.imag) < 300.0:
                total += (math.pi / cmath.sin(w)) ** 2
            else:
                # identical closed form, written in the nome to dodge sinh overflow
                qm = cmath.exp(TWO_PI_I * m * tau)
                total += -4.0 * math.pi**2 * qm / (1.0 - qm) ** 2
        return ensure_finite(2.0 * total, "weight-2 oracle")
    total = np.sum(_lattice_points(tau, radius) ** (-2 * k))
    return ensure_finite(complex(total), "eisenstein oracle")


_Q_SERIES = {
    "e2": (-24, 1),
    "e4": (240, 3),
    "e6": (-504, 5),
}


@lru_cache(maxsize=None)
def _coefficients(kind: str, order: int) -> tuple[int, ...]:
    scale, power = _Q_SERIES[kind]
    return (1,) + tuple(scale * sigma(n, power) for n in range(1, order + 1))


def q_coefficients(kind: str, order: int) -> list[int]:
    """Integer q-expansion coefficients [c_0, ..., c_order] of E2, E4, or E6."""
    key = kind.lower()
    if key not in _Q_SERIES:
        raise ValueError(f"kind must be one of {sorted(_Q_SERIES)}, got {kind!r}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return list(_coefficients(key, order))
