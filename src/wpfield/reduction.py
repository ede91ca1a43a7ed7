"""SL(2,Z) reduction of tau, cell reduction of z, and evaluate-anywhere wrappers.

Reduction moves (tau, z) into the region where the q-series converge fast, and
the value is transported back with the weight of the function:

    wp(tau; z)  = s^-2 wp(tau*; z/s)        s = c*tau + d, tau* = (a*tau+b)/s
    wp'(tau; z) = s^-3 wp'(tau*; z/s)
    zeta(tau;z) = s^-1 [zeta(tau*; z*) + m*eta1(tau*) + n*eta2(tau*)]

where z/s = z* + m + n*tau*, eta1 = (pi^2/3) E2(tau*) and, by Legendre's
relation, eta2 = tau* eta1 - 2*pi*i.  Every entry point reduces tau once, in
_frame, and every evaluator is one pipeline, frame -> sum -> transport:
_at_point splits z/s once, checks the point once (the pole guard scaled by
1/|s| into the reduced frame, and the convergence checks) and sums wp, wp'
and zeta in one pass at (tau*, z*), with E2(tau*).  A Lattice holds one
frame and its E2(tau*) for evaluating many z at one tau.  E2 inverts the
quasimodular law

    G2(gamma tau) = s^2 G2(tau) - pi*i*c*s,      G2 = zeta(2) E2,

and E4, E6 transport with weights 4 and 6.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

from .core import (
    DEFAULT_POLICY,
    _coords,
    _nome,
    ensure_finite,
    require_upper_half,
)
from .eisenstein import ZETA2, LatticeInvariants, _delta_eta_product, _e_series, _order
from .errors import (
    ConvergenceDomain,
    DegenerateConfiguration,
    NearSingular,
    NonFiniteValue,
    NonTermination,
)
from .weier import WValue, _est_error, _point_values

_MAX_REDUCTION_STEPS = 10_000
_CIRCLE_EPS = 1e-12

# Largest relative miss of the exact Im(tau*) |s|^2 = Im(tau) that reduce_tau
# accepts; the walk's rounding misses it by about 2e-16/Im(tau).
_TAU_STAR_MISMATCH = 1e-6

_ULP = 2.0**-52  # relative spacing of doubles: the rounding of z/s in its split


@dataclass(frozen=True, slots=True)
class UnimodularMatrix:
    """Integer matrix (a b; c d) with determinant one, acting by Mobius maps."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant must be 1: {self}")

    @classmethod
    def identity(cls) -> "UnimodularMatrix":
        return cls(1, 0, 0, 1)

    @classmethod
    def inversion(cls) -> "UnimodularMatrix":
        """S: tau -> -1/tau."""
        return cls(0, -1, 1, 0)

    @classmethod
    def translation(cls, k: int) -> "UnimodularMatrix":
        """T^k: tau -> tau + k."""
        return cls(1, k, 0, 1)

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "UnimodularMatrix":
        return UnimodularMatrix(self.d, -self.b, -self.c, self.a)

    def mobius(self, tau: complex) -> complex:
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def scale(self, tau: complex) -> complex:
        """The transport factor c*tau + d."""
        return self.c * tau + self.d


@dataclass(frozen=True, slots=True)
class ReductionResult:
    gamma: UnimodularMatrix
    tau_star: complex
    m: int
    n: int
    z_star: complex | None
    scale: complex


def reduce_tau(tau: complex) -> tuple[UnimodularMatrix, complex]:
    """Reduce tau into the fundamental domain |tau| >= 1, -1/2 <= Re < 1/2.

    Boundary tie-break: points with |tau| = 1 and Re(tau) > 0 get one more
    inversion, so the canonical representative has Re <= 0 on the unit circle.
    Returns (gamma, tau*) with tau* = gamma(tau); raises NonFiniteValue when
    tau* overflows or has lost tau (see _TAU_STAR_MISMATCH).  gamma = (a b;
    c d) is kept as four integers.
    """
    cur = tau = require_upper_half(tau)
    a, b, c, d = 1, 0, 0, 1
    try:
        for _ in range(_MAX_REDUCTION_STEPS):
            k = math.floor(cur.real + 0.5)
            if k != 0:
                cur = cur - k
                a, b = a - k * c, b - k * d  # T^-k gamma
            norm2 = cur.real * cur.real + cur.imag * cur.imag
            if norm2 < 1.0 - _CIRCLE_EPS:
                cur = -1.0 / cur
                a, b, c, d = -c, -d, a, b  # S gamma
                continue
            if norm2 <= 1.0 + _CIRCLE_EPS and cur.real > _CIRCLE_EPS:
                cur = -1.0 / cur
                a, b, c, d = -c, -d, a, b
            # at subnormal Im(tau) an inversion overflows to an infinite tau*
            cur = ensure_finite(cur, "tau*")
            # |s| sqrt(Im tau* / Im tau) is 1; |s|^2 would underflow at tiny Im(tau)
            ratio = abs(c * tau + d) * math.sqrt(cur.imag) / math.sqrt(tau.imag)
            if abs(ratio * ratio - 1.0) > _TAU_STAR_MISMATCH:
                raise NonFiniteValue(f"reducing {tau!r} loses tau: Im(tau*) |s|^2 != Im(tau)")
            return UnimodularMatrix(a, b, c, d), cur
    except OverflowError as exc:
        # when both parts of tau are subnormal, -1/tau is -inf+inf*i and the
        # next floor(inf) raises before the check at the return
        raise NonFiniteValue(f"tau* is not finite: reducing {tau!r} overflows") from exc
    raise NonTermination(f"tau reduction did not settle after {_MAX_REDUCTION_STEPS} steps")


def reduce_z(tau: complex, z: complex) -> tuple[int, int, complex]:
    """Split z = z* + m + n*tau with z* in the half-open period cell.

    Returns (m, n, z*): m strips integer multiples of 1, n of tau.
    """
    return _reduce_z(require_upper_half(tau), complex(z))


def _reduce_z(tau: complex, z: complex) -> tuple[int, int, complex]:
    """reduce_z for a tau already checked and a complex z."""
    a, b = _coords(tau, z)
    n = math.floor(a)
    m = math.floor(b)
    return m, n, z - m - n * tau


# tau reduced: gamma, s = c*tau + d, tau* = gamma(tau), q* and the series
# order at |q*|; with a point added (_at_point), also z/s = z* + m + n*tau*,
# the lattice distance of z*, and wp, wp', zeta and E2 at (tau*, z*).  A
# Lattice's frame holds E2(tau*) without a point.
_Frame = namedtuple("_Frame", "gamma s tau_star q order m n z_star dist wp wp1 zeta e2",
                    defaults=(None,) * 8)


def _frame(tau: complex, z: complex | None = None) -> _Frame:
    """The one reduction of tau that every entry point makes, with q* and the
    one order (eisenstein._order) to which every q-series at q* is summed:
    the kernels, each E-series and the eta product.  Given z, the frame with
    z added (_at_point)."""
    gamma, tau_star = reduce_tau(tau)
    q = _nome(tau_star)
    f = _Frame(gamma, gamma.scale(tau), tau_star, q, _order(abs(q)))
    return f if z is None else _at_point(f, z)


def _lattice_frame(tau: complex) -> _Frame:
    """_frame(tau) holding E2(tau*) too, for evaluating many points at tau."""
    f = _frame(tau)
    return f._replace(e2=_e_series("e2", f.q, f.order))


def _cell_distance(tau_star: complex, z_star: complex) -> float:
    """core.lattice_distance(tau*, z*) for z* in its cell: tau* is reduced, so
    the nearest lattice point is a corner, written as nb + na*tau* there.  A
    z* that the split of a huge z/s rounded out of its cell is 0 from it."""
    a = z_star.imag / tau_star.imag
    if not (-0.5 < a < 1.5 and -0.5 < z_star.real - a * tau_star.real < 1.5):
        return 0.0
    return min(abs(z_star), abs(z_star - 1), abs(z_star - tau_star),
               abs(z_star - (1 + tau_star)))


def _place(f: _Frame, z: complex) -> tuple[int, int, complex, float, float]:
    """(m, n, z*, dist, guard): the one split z/s = z* + m + n*tau* in the
    frame f, the lattice distance of z* and the pole guard scaled by 1/|s|
    as distances are.  ConvergenceDomain when z has lost its place in its
    cell."""
    w = complex(z) / f.s
    m, n, z_star = _reduce_z(f.tau_star, w)
    dist = _cell_distance(f.tau_star, z_star)
    guard = DEFAULT_POLICY.pole_guard_radius / abs(f.s)
    # the pole guard refuses a z* split out of its cell (dist 0); one the split
    # kept in its cell has still lost its place there once the rounding of z/s
    # reaches the guard, i.e. once |z| >= 1e-3 * 2^52 whatever s is
    if dist >= guard and abs(w) * _ULP >= guard:
        raise ConvergenceDomain(
            f"z/s = {w!r} is too large to place in its cell: its rounding, "
            f"{abs(w) * _ULP:.1e}, reaches the pole guard {guard:.1e}"
        )
    return m, n, z_star, dist, guard


def _at_point(f: _Frame, z: complex) -> _Frame:
    """The frame f with z added: one split of z/s (_place) and one
    weier._point_values pass, given the frame's E2(tau*) if it holds one."""
    m, n, z_star, dist, guard = _place(f, z)
    e2 = _e_series("e2", f.q, f.order) if f.e2 is None else f.e2
    values = _point_values(f.tau_star, f.q, f.order, z_star, dist, guard, e2)
    return _Frame(*f[:5], m, n, z_star, dist, *values, e2)


def _distance(f: _Frame, z: complex) -> float:
    """lattice_distance_anywhere in the frame f."""
    return _place(f, z)[3] * abs(f.s)


def reduce_point(tau: complex, z: complex | None = None) -> ReductionResult:
    """Full reduction: tau into the fundamental domain, then z/s into the cell."""
    f = _frame(tau)
    if z is None:
        return ReductionResult(f.gamma, f.tau_star, 0, 0, None, f.s)
    m, n, z_star = _place(f, z)[:3]
    return ReductionResult(f.gamma, f.tau_star, m, n, z_star, f.s)


def lattice_distance_anywhere(tau: complex, z: complex) -> float:
    """Distance from z to Z + tau*Z, computed in the reduced frame where the
    nearest-corner search is exact, then scaled back."""
    return _distance(_frame(tau), z)


def _divide_by_sk(value: complex, s: complex, weight: int, what: str) -> complex:
    """value / s^k; at tiny Im(tau) s^k underflows to 0 or the quotient overflows."""
    sk = s**weight
    if sk == 0:
        raise NonFiniteValue(f"{what}: s^{weight} underflows to 0 at s = {s!r}")
    return ensure_finite(value / sk, what)


def _transport(value: complex, est_error: float, s: complex, weight: int, what: str) -> WValue:
    """A weight-k value and its error from the reduced frame: both divide by s^k."""
    value = _divide_by_sk(value, s, weight, what)
    return WValue(value=value, est_error=est_error / abs(s**weight))


def _wp_at(f: _Frame) -> WValue:
    return _transport(f.wp, _est_error(f.wp, f.dist), f.s, 2, "wp")


def _wp_prime_at(f: _Frame) -> WValue:
    return _transport(f.wp1, _est_error(f.wp1, f.dist), f.s, 3, "wp'")


def _zeta_at(f: _Frame) -> WValue:
    """zeta from the frame, unwound by eta1 = (pi^2/3) E2(tau*) and
    eta2 = tau*eta1 - 2*pi*i."""
    value = f.zeta
    if f.m or f.n:
        eta1 = (math.pi**2 / 3.0) * f.e2
        value += (f.m + f.n * f.tau_star) * eta1 - 2j * math.pi * f.n
    est = _est_error(f.zeta, f.dist) * (1.0 + abs(f.m) + abs(f.n))
    return _transport(value, est, f.s, 1, "zeta")


def _e2_at(f: _Frame) -> complex:
    """E2 from E2(tau*), read off the frame if it holds it (a point pass or a
    Lattice), by inverting G2(gamma tau) = s^2 G2(tau) - pi*i*c*s."""
    e2_star = _e_series("e2", f.q, f.order) if f.e2 is None else f.e2
    return _divide_by_sk(ZETA2 * e2_star + 1j * math.pi * f.gamma.c * f.s, f.s, 2, "E2") / ZETA2


def _modular_at(f: _Frame, kind: str, weight: int) -> complex:
    """E4 or E6 (kind "e4", "e6") from the frame, by weight-k transport."""
    return _divide_by_sk(_e_series(kind, f.q, f.order), f.s, weight, kind.upper())


def wp_anywhere(tau: complex, z: complex) -> WValue:
    """wp at any tau in the upper half-plane and any non-lattice z (weight 2)."""
    return _wp_at(_frame(tau, z))


def wp_prime_anywhere(tau: complex, z: complex) -> WValue:
    """d(wp)/dz at any tau, z (weight 3)."""
    return _wp_prime_at(_frame(tau, z))


def zeta_anywhere(tau: complex, z: complex) -> WValue:
    """zeta at any tau, z: closed-form quasi-period unwinding, weight-1 transport."""
    return _zeta_at(_frame(tau, z))


def e2_anywhere(tau: complex) -> complex:
    """E2 at any tau by inverting the quasimodular transformation law."""
    return _e2_at(_frame(tau))


def e4_anywhere(tau: complex) -> complex:
    """E4 at any tau (weight-4 modular transport)."""
    return _modular_at(_frame(tau), "e4", 4)


def e6_anywhere(tau: complex) -> complex:
    """E6 at any tau (weight-6 modular transport)."""
    return _modular_at(_frame(tau), "e6", 6)


def invariants_anywhere(tau: complex) -> LatticeInvariants:
    """g2, g3, delta, eta1 at any tau from one reduction, E2, E4, E6 and the eta
    product at q* to one order, and transport with weights 4, 6, 12 and the E2 law.

    delta is the eta product at tau* (weight 12), not g2^3 - 27 g3^2, which
    cancels badly once |q*| is small."""
    return _invariants_at(_frame(tau))


def _invariants_at(f: _Frame) -> LatticeInvariants:
    e4, e6 = (_e_series(kind, f.q, f.order) for kind in ("e4", "e6"))
    g2 = (4.0 * math.pi**4 / 3.0) * _divide_by_sk(e4, f.s, 4, "E4")
    g3 = (8.0 * math.pi**6 / 27.0) * _divide_by_sk(e6, f.s, 6, "E6")
    delta = _divide_by_sk(_delta_eta_product(f.q, f.order), f.s, 12, "delta")
    eta1 = (math.pi**2 / 3.0) * _e2_at(f)
    return LatticeInvariants(g2=g2, g3=g3, delta=delta, eta1=eta1)


@dataclass(frozen=True, slots=True, init=False)
class Lattice:
    """The lattice Z + tau*Z with its reduction made once: gamma, tau*, q*,
    the series order and E2(tau*), summed once, serve every evaluation.

    The methods equal the matching evaluators bit for bit, exceptions
    included: wp, wp_prime and zeta (WValue) are wp_anywhere(tau, z),
    wp_prime_anywhere(tau, z) and zeta_anywhere(tau, z); e2, e4, e6 and
    invariants are e2_anywhere(tau) ... invariants_anywhere(tau); distance(z)
    is lattice_distance_anywhere(tau, z).  Each point costs one split of
    z/s and one series pass; nothing is cached between points.  Lattice(tau)
    raises what the evaluators raise for that tau.
    """

    tau: complex
    _f: _Frame = field(repr=False, compare=False)

    def __init__(self, tau: complex) -> None:
        f = _lattice_frame(tau)
        object.__setattr__(self, "tau", complex(tau))
        object.__setattr__(self, "_f", f)

    def wp(self, z: complex) -> WValue:
        return _wp_at(_at_point(self._f, z))

    def wp_prime(self, z: complex) -> WValue:
        return _wp_prime_at(_at_point(self._f, z))

    def zeta(self, z: complex) -> WValue:
        return _zeta_at(_at_point(self._f, z))

    def e2(self) -> complex:
        return _e2_at(self._f)

    def e4(self) -> complex:
        return _modular_at(self._f, "e4", 4)

    def e6(self) -> complex:
        return _modular_at(self._f, "e6", 6)

    def invariants(self) -> LatticeInvariants:
        return _invariants_at(self._f)

    def distance(self, z: complex) -> float:
        return _distance(self._f, z)


def wp_add(tau: complex, z1: complex, z2: complex) -> complex:
    """wp(z1 + z2) from values at z1 and z2 via the algebraic addition formula.

    Generic branch:  wp(z1+z2) = ((wp'(z1)-wp'(z2))/(wp(z1)-wp(z2)))^2 / 4
                                 - wp(z1) - wp(z2)
    Duplication (z1 = z2 mod lattice):
                     wp(2 z1)  = (wp''(z1) / (2 wp'(z1)))^2 - 2 wp(z1)
    with wp'' = 6 wp^2 - g2/2, taken where wp(z1) and wp(z2) agree to 1e-8
    relative at equivalent points.  Raises DegenerateConfiguration when
    z1 + z2 lies on the lattice (the result would be the pole), and
    NearSingular when the slope would cancel or divide by 0: high in a tall
    reduced cell wp can be flat to many digits, so wp(z1) and wp(z2) agree
    to 1e-8 at points that are not equivalent, or |wp'(z1)| is within its
    own est_error at a z1 that is not a half period.
    """
    f = _lattice_frame(tau)
    if _distance(f, z1 + z2) < DEFAULT_POLICY.pole_guard_radius:
        raise DegenerateConfiguration("z1 + z2 is on (or nearly on) the lattice")
    f1 = _at_point(f, z1)
    p1 = _wp_at(f1).value
    f2 = _at_point(f, z2)
    p2 = _wp_at(f2).value
    if abs(p1 - p2) < 1e-8 * max(1.0, abs(p1)):
        if _distance(f, z1 - z2) >= 1e-6:
            raise NearSingular("wp(z1) and wp(z2) agree to 1e-8 at points that are not equivalent")
        w1 = _wp_prime_at(f1)
        pp = w1.value
        if abs(pp) <= w1.est_error:  # rounding noise: dividing by it gives noise
            raise NearSingular(f"|wp'(z1)| = {abs(pp):.1e} is within its error {w1.est_error:.1e}")
        g2 = (4.0 * math.pi**4 / 3.0) * _modular_at(f, "e4", 4)
        second = 6.0 * p1 * p1 - 0.5 * g2
        return ensure_finite((second / (2.0 * pp)) ** 2 - 2.0 * p1, "wp_add")
    pp1 = _wp_prime_at(f1).value
    pp2 = _wp_prime_at(f2).value
    slope = (pp1 - pp2) / (p1 - p2)
    return ensure_finite(0.25 * slope * slope - p1 - p2, "wp_add")
