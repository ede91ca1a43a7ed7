"""Eisenstein series E2, E4, E6, lattice invariants, and lattice-sum oracles.

The fast route is the normalized q-expansion

    E2 = 1 - 24 sum sigma_1(n) q^n
    E4 = 1 + 240 sum sigma_3(n) q^n
    E6 = 1 - 504 sum sigma_5(n) q^n

each summed on its own by Horner's rule at the reduced nome of a
reduction.Lattice, with its coefficients read from _HORNER, built at import
from the one table _Q_SERIES for every order the order rule can give.  The
slow route is a sum over the rows of the lattice, each row in closed form,
kept deliberately independent so the two can cross-check each other: it
reduces the lattice basis itself and never touches the q-series.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial

from .core import ensure_finite, require_upper_half
from .errors import NonFiniteValue

# Every q-series stops at the first order whose tail bound is below this, a
# tenth of an ulp of 1.
_TAIL_TARGET = 1e-17

ZETA2 = math.pi**2 / 6.0
ZETA4 = math.pi**4 / 90.0
ZETA6 = math.pi**6 / 945.0

# The factor (2*pi)^12 of the eta product, formed once.
_TWO_PI_12 = (2.0 * math.pi) ** 12


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


# _ORDER_BOUNDS[N - 1] is the largest |q| that the order rule sums to order
# N or fewer, for N = 1..10: these cover the reduced domain, where a
# Lattice's |q*| <= 0.0043334.  The rule is the smallest N at which the E6
# tail and the wp' kernel tail are both at most _TAIL_TARGET; walk_order in
# tests/order_walk.py states it as a walk over N, and tests/test_eisenstein.py
# rebuilds these bounds from that walk.
_ORDER_BOUNDS = (1.0078604510374843e-20, 1.0039225323381793e-10, 2.160064750954656e-07,
                 1.0019568368651162e-05, 8.671505378290265e-05, 0.0002890395999997156,
                 0.0007241006599708073, 0.0014946636463133037, 0.002688744813645039,
                 0.004370646190337254)


def _order(q_abs: float) -> int:
    """The one series order at a reduced nome modulus q_abs: the count of
    _ORDER_BOUNDS below q_abs, plus one."""
    return bisect_left(_ORDER_BOUNDS, q_abs) + 1


@dataclass(frozen=True, slots=True)
class LatticeInvariants:
    g2: complex
    g3: complex
    delta: complex
    eta1: complex


def _e_series(kind: str, q: complex, order: int) -> complex:
    """E2, E4 or E6 (kind "e2", "e4", "e6") from its q-expansion to q^order,
    by Horner's rule, for an order _order gives."""
    acc = 0j
    for c in _HORNER[kind][order]:
        acc = acc * q + c
    if not cmath.isfinite(acc):
        raise NonFiniteValue(f"{kind.upper()} is not finite: {acc!r}")
    return acc


def _delta_eta_product(q: complex, order: int) -> complex:
    """Discriminant delta = (2*pi)^12 q prod_{n = 1..order} (1 - q^n)^24.

    Unlike g2^3 - 27 g3^2, which cancels to rounding noise once |q| is small,
    the product keeps full relative accuracy at every height.
    """
    prod = 1.0 + 0.0j
    qn = 1.0 + 0.0j
    for _ in range(order):
        qn *= q
        prod *= 1.0 - qn
    return ensure_finite(_TWO_PI_12 * q * prod**24, "delta")


# Past this |Im(pi*a)| a row is written in the nome exp(2*pi*i*a) (or its
# inverse) instead of through sin(pi*a), which overflows at 710.
_ROW_IM_MAX = 300.0


def _csc2(a: complex) -> complex:
    """csc^2(pi*a), so that sum_m (a + m)^-2 = pi^2 * _csc2(a)."""
    w = math.pi * a
    if abs(w.imag) < _ROW_IM_MAX:
        return 1.0 / cmath.sin(w) ** 2
    x = cmath.exp(2j * (w if w.imag > 0.0 else -w))  # |x| < e^-600
    return -4.0 * x / (1.0 - x) ** 2


def _cot(a: complex) -> complex:
    """cot(pi*a), so that the symmetric sum_m (a + m)^-1 = pi * _cot(a).
    cmath.tan tends to +-i at large |Im a| without overflowing."""
    return 1.0 / cmath.tan(math.pi * a)


def _row_sum(a: complex, k: int) -> complex:
    """sum_m (a + m)^(-2k) for k = 1, 2, 3, in closed form.

    The even derivatives of csc^2 are polynomials in csc^2, so with
    s = csc^2(pi*a) the row is pi^(2k) times s, s^2 - 2s/3 or
    s^3 - s^2 + 2s/15."""
    s = _csc2(a)
    if k == 1:
        poly = s
    elif k == 2:
        poly = s * (s - 2.0 / 3.0)
    else:
        poly = s * (s * (s - 1.0) + 2.0 / 15.0)
    return math.pi ** (2 * k) * poly


def _csc2_bound(t: float) -> float:
    """4t/(1 - t)^2 >= |csc^2(pi*a)| for t = exp(-2*pi*|Im a|) < 1, since
    |sin(pi*a)| >= (e^(pi*|Im a|) - e^(-pi*|Im a|))/2."""
    return 4.0 * t / (1.0 - t) ** 2


def _row_bound(k: int, t: float) -> float:
    """A bound on |_row_sum(a, k)| at t = exp(-2*pi*|Im a|) < 1: the row's
    polynomial in csc^2 with each coefficient replaced by its modulus."""
    s = _csc2_bound(t)
    if k == 1:
        poly = s
    elif k == 2:
        poly = s * (s + 2.0 / 3.0)
    else:
        poly = s * (s * (s + 1.0) + 2.0 / 15.0)
    return math.pi ** (2 * k) * poly


def _rows_settled(total: complex, row_bound, y: float, n: int, lift: float = 0.0) -> bool:
    """True once no row after row n can change the double total.

    Row k of an oracle is at most row_bound(t_k), t_k = exp(-2*pi*(k*y - lift))
    (y the height of the basis, lift the |Im| of the point), for a row_bound
    with row_bound(t)/t nondecreasing; so the rows after n sum to at most the
    geometric majorant row_bound(t_{n+1}) / (1 - exp(-2*pi*y)).  Once that is
    below a quarter ulp of each component of total, every later row rounds
    away when it is added, with a factor of 2 to spare for the rounding of
    the row itself.  A component that is 0 (or not finite) never settles, so
    its sum runs to the radius.  The bound is the rows' own: it uses neither
    the series order rule nor any q-series.
    """
    re, im = abs(total.real), abs(total.imag)
    x = (n + 1) * y - lift
    if not (0.0 < re < math.inf and 0.0 < im < math.inf and x > 0.0):
        return False
    t = math.exp(-2.0 * math.pi * x)
    ratio = -math.expm1(-2.0 * math.pi * y)
    return t < 1.0 and row_bound(t) < 0.25 * math.ulp(min(re, im)) * ratio


def _reduced_basis(tau: complex) -> tuple[complex, complex]:
    """(omega1, tau_r) with Z + tau*Z = omega1 * (Z + tau_r*Z), where tau_r
    is Lagrange-reduced: |Re tau_r| <= 1/2 and |tau_r| >= 1, so
    Im tau_r >= sqrt(3)/2.

    Lagrange's algorithm runs on the integer coefficients of the basis
    omega1 = c*tau + d, omega2 = a*tau + b, forming each vector afresh from
    tau; a swap also negates, which keeps the orientation.  This is a second
    implementation of the reduction, apart from the SL(2,Z) walk in
    reduction.py, so that the lattice-sum oracles stay independent of it.
    """
    tau = require_upper_half(tau)
    a, b, c, d = 1, 0, 0, 1
    while True:
        omega1 = c * tau + d
        ratio = ensure_finite((a * tau + b) / omega1, "reduced basis")
        k = round(ratio.real)
        a, b = a - k * c, b - k * d
        omega2 = a * tau + b
        if abs(omega2) >= abs(omega1):
            return omega1, ensure_finite(omega2 / omega1, "reduced tau")
        a, b, c, d = -c, -d, a, b


def lattice_sum_eisenstein(tau: complex, k: int, radius: int) -> complex:
    """Slow oracle: sum of omega^(-2k) over nonzero lattice points of Z + tau*Z.

    Equals 2*zeta(2k)*E_{2k} for every k.  The sum runs over the rows
    n = -radius..radius of a basis (omega1, omega1*tau_r), each row in closed
    form (_row_sum):

        sum' omega^(-2k) = omega1^(-2k) [2*zeta(2k) + 2 sum_{n=1..radius}
                                         sum_m (m + n*tau_r)^(-2k)].

    For k = 2, 3 the sum converges absolutely, so the basis is the reduced
    one (_reduced_basis) and the rows decay like exp(-2*pi*n*Im tau_r), with
    Im tau_r >= sqrt(3)/2.  For k = 1 the sum converges only conditionally
    and the row order of the basis (1, tau) is what defines it, so omega1 = 1
    and tau_r = tau.  The sum stops at the first row after which no later row
    can change it (_rows_settled); radius is the cap.
    """
    tau = require_upper_half(tau)
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2, or 3, got {k}")
    if not (isinstance(radius, int) and radius >= 10):
        raise ValueError(f"radius must be an int >= 10, got {radius!r}")
    omega1, tau_r = (1.0, tau) if k == 1 else _reduced_basis(tau)
    total = complex((ZETA2, ZETA4, ZETA6)[k - 1])
    bound = partial(_row_bound, k)
    for n in range(1, radius + 1):
        total += _row_sum(n * tau_r, k)
        if _rows_settled(total, bound, tau_r.imag, n):
            break
    return ensure_finite(2.0 * total / omega1 ** (2 * k), "eisenstein oracle")


_Q_SERIES = {
    "e2": (-24, 1),
    "e4": (240, 3),
    "e6": (-504, 5),
}


def _coefficients(kind: str, order: int) -> tuple[int, ...]:
    scale, power = _Q_SERIES[kind]
    return (1,) + tuple(scale * sigma(n, power) for n in range(1, order + 1))


def _horner(kind: str) -> tuple[tuple[float, ...], ...]:
    """For each order _order gives (at most len(_ORDER_BOUNDS) + 1),
    _coefficients(kind, order) as floats, the highest power first."""
    full = tuple(map(float, _coefficients(kind, len(_ORDER_BOUNDS) + 1)))
    return tuple(full[order::-1] for order in range(len(full)))


# _HORNER[kind][order]: the coefficients _e_series sums, built at import.
_HORNER = {kind: _horner(kind) for kind in _Q_SERIES}


def q_coefficients(kind: str, order: int) -> list[int]:
    """Integer q-expansion coefficients [c_0, ..., c_order] of E2, E4, or E6."""
    key = kind.lower()
    if key not in _Q_SERIES:
        raise ValueError(f"kind must be one of {sorted(_Q_SERIES)}, got {kind!r}")
    if not (isinstance(order, int) and order >= 0):
        raise ValueError(f"order must be an int >= 0, got {order!r}")
    return list(_coefficients(key, order))
