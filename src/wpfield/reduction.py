"""SL(2,Z) reduction of tau, cell reduction of z, and evaluate-anywhere wrappers.

Reduction moves (tau, z) into the region where the q-series converge fast, and
the value is transported back with the weight of the function:

    wp(tau; z)  = s^-2 wp(tau*; z/s)        s = c*tau + d, tau* = (a*tau+b)/s
    wp'(tau; z) = s^-3 wp'(tau*; z/s)
    zeta(tau;z) = s^-1 [zeta(tau*; z*) + m*eta1(tau*) + n*eta2(tau*)]

where z/s = z* + m + n*tau*, eta1 = (pi^2/3) E2(tau*) and, by Legendre's
relation, eta2 = tau* eta1 - 2*pi*i.  A Lattice is the one frame: it reduces
tau once, and every evaluator is Lattice(tau).method, one pipeline reduce ->
sum -> transport.  A point is split once (z/s into its cell), checked once
(the pole guard scaled by 1/|s| into the reduced frame, and the convergence
checks), and wp, wp' and zeta are summed in one pass at (tau*, z*) with
E2(tau*), which the Lattice sums once.  E2 inverts the quasimodular law

    G2(gamma tau) = s^2 G2(tau) - pi*i*c*s,      G2 = zeta(2) E2,

and E4, E6 transport with weights 4 and 6.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .core import (
    DEFAULT_POLICY,
    _coords,
    _nome,
    ensure_finite,
    require_upper_half,
)
from .eisenstein import (_TAIL_TARGET, ZETA2, LatticeInvariants, _delta_eta_product,
                         _e_series, _order)
from .errors import (ConvergenceDomain, DegenerateConfiguration, NearSingular, NonFiniteValue,
                     NonTermination, PoleProximity)
from .weier import _EST_FLOOR, WValue, _est_error, _point_values

_MAX_REDUCTION_STEPS = 10_000
_CIRCLE_EPS = 1e-12

# Largest relative miss of the exact Im(tau*) |s|^2 = Im(tau) that reduce_tau
# accepts; the walk's rounding misses it by about 2e-16/Im(tau).
_TAU_STAR_MISMATCH = 1e-6

_ULP = 2.0**-52  # relative spacing of doubles: the rounding of z/s in its split

# How many placed points a Lattice keeps: the three-term zeta identity reads
# wp and zeta at three points.
_POINTS_KEPT = 4

# For each function of tau alone but delta: its weight k, its factor over
# E_k, and on the reduced domain the bound on |E_k'| from Ramanujan's system
# and the sum of |term| over E_k's q-series (both taken at the bottom of the
# domain, where |q| = exp(-pi*sqrt(3)) is largest).
_EISENSTEIN_ERROR = {
    "e2": (2, 1.0, 0.7, 1.2),
    "e4": (4, 1.0, 6.1, 2.1),
    "e6": (6, 1.0, 10.0, 3.6),
    "g2": (4, 4.0 * math.pi**4 / 3.0, 6.1, 2.1),
    "g3": (6, 8.0 * math.pi**6 / 27.0, 10.0, 3.6),
}


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
class HalfPeriodData:
    """wp at the three half periods 1/2, tau/2, (1+tau)/2."""

    e1: complex
    e2: complex
    e3: complex


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
    """Split z = z* + m + n*tau with z* in the half-open period cell: both
    lattice coordinates (a, b) of z*, z* = a*tau + b, lie in [0, 1).

    Returns (m, n, z*): m strips integer multiples of 1, n of tau.
    """
    return _reduce_z(require_upper_half(tau), complex(z))


def _reduce_z(tau: complex, z: complex) -> tuple[int, int, complex]:
    """reduce_z for a tau already checked and a complex z.

    A coordinate just below an integer can round the subtraction onto the
    far edge of the cell (a or b = 1): such a z* moves to the near edge.
    There, and where z is within a rounding of the near edge, the
    subtraction can round b just below 0, so b is pinned at 0."""
    a, b = _coords(tau, z)
    n = math.floor(a)
    m = math.floor(b)
    z_star = z - m - n * tau
    if z_star.imag >= tau.imag:
        n, z_star = n + 1, z_star - tau
    shear = z_star.imag / tau.imag * tau.real
    if z_star.real - shear >= 1.0:
        m, z_star = m + 1, z_star - 1.0
    if z_star.real < shear:
        z_star = complex(shear, z_star.imag)
    return m, n, z_star


def _cell_distance(tau_star: complex, z_star: complex) -> float:
    """The distance from z* in its cell to Z + tau*Z: tau* is reduced, so the
    nearest lattice point is a corner, written as nb + na*tau* there, and
    this is the oracles' corner search (weier._corner_distance) bit for
    bit.  A z* that the split of a huge z/s rounded out of its cell is 0
    from it."""
    a = z_star.imag / tau_star.imag
    if not (-0.5 < a < 1.5 and -0.5 < z_star.real - a * tau_star.real < 1.5):
        return 0.0
    return min(abs(z_star), abs(z_star - 1), abs(z_star - tau_star),
               abs(z_star - (1 + tau_star)))


def _sk(s: complex, weight: int, what: str) -> complex:
    """s^k, which underflows to 0 at tiny Im(tau)."""
    sk = s**weight
    if sk == 0:
        raise NonFiniteValue(f"{what}: s^{weight} underflows to 0 at s = {s!r}")
    return sk


def _divide_by_sk(value: complex, s: complex, weight: int, what: str) -> complex:
    """value / s^k, where s^k can underflow (_sk) or the quotient overflow."""
    return ensure_finite(value / _sk(s, weight, what), what)


def _transport(value: complex, est_error: float, s: complex, weight: int, what: str) -> WValue:
    """A weight-k value and its error from the reduced frame: both divide by
    s^k, formed once, and the error can overflow where the value does not."""
    sk = _sk(s, weight, what)
    value = ensure_finite(value / sk, what)
    est_error /= abs(sk)
    if est_error == math.inf:  # est_error >= 0 and s^k != 0: never NaN
        raise NonFiniteValue(f"est_error of {what} is not finite: {est_error!r}")
    return WValue(value, est_error)


# A point in a Lattice: z/s = z* + m + n*tau*, the lattice distance of z*, and
# wp, wp' and zeta at (tau*, z*) from one series pass.
_Point = namedtuple("_Point", "m n z_star dist wp wp1 zeta")


class Lattice:
    """The lattice Z + tau*Z with its reduction made once: gamma, s = c*tau + d,
    tau* = gamma(tau), q* and the one order (eisenstein._order) to which every
    q-series at q* is summed (the kernels, each E-series and the eta product).
    E2(tau*) is summed once, when a point or E2 first needs it.

    Every evaluator is Lattice(tau).method: wp, wp_prime and zeta (WValue)
    are wp_anywhere(tau, z), wp_prime_anywhere(tau, z) and
    zeta_anywhere(tau, z); e2, e4, e6, invariants and half_periods are
    e2_anywhere(tau) ... half_periods(tau); distance(z) is
    lattice_distance(tau, z).  Each point costs one split of z/s and one
    series pass, which serves wp, wp_prime and zeta there: a Lattice keeps
    the last four points it placed, so wp, wp_prime and zeta at one z cost
    one pass between them.  A point that raises is not kept, and nothing
    is kept across Lattices: Lattice(tau).wp(z) always places z afresh.
    Lattice(tau) raises what the evaluators raise for that tau.  Lattices
    are equal when their tau are.
    """

    __slots__ = ("_tau", "_gamma", "_s", "_tau_star", "_q", "_order", "_e2", "_points")

    def __init__(self, tau: complex) -> None:
        gamma, tau_star = reduce_tau(tau)
        q = _nome(tau_star)
        self._tau = complex(tau)
        self._gamma = gamma
        self._s = gamma.scale(tau)
        self._tau_star = tau_star
        self._q = q
        self._order = _order(abs(q))
        self._e2 = None
        self._points = ()  # ((key, _Point), ...), the newest first

    @property
    def tau(self) -> complex:
        return self._tau

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Lattice:
            return NotImplemented
        return self._tau == other._tau

    def __hash__(self) -> int:
        return hash(self._tau)

    def __repr__(self) -> str:
        return f"Lattice(tau={self._tau!r})"

    def _e2_star(self) -> complex:
        """E2(tau*), summed on first use."""
        if self._e2 is None:
            self._e2 = _e_series("e2", self._q, self._order)
        return self._e2

    def _place(self, z: complex) -> tuple[int, int, complex, float, float]:
        """(m, n, z*, dist, guard): the one split z/s = z* + m + n*tau*, the
        lattice distance of z* and the pole guard scaled by 1/|s| as
        distances are.  ConvergenceDomain when z has lost its place in its
        cell."""
        w = complex(z) / self._s
        m, n, z_star = _reduce_z(self._tau_star, w)
        dist = _cell_distance(self._tau_star, z_star)
        guard = DEFAULT_POLICY.pole_guard_radius / abs(self._s)
        # the pole guard refuses a z* split out of its cell (dist 0); one the
        # split kept in its cell has still lost its place there once the
        # rounding of z/s reaches the guard, i.e. once |z| >= 1e-3 * 2^52
        # whatever s is
        if dist >= guard and abs(w) * _ULP >= guard:
            raise ConvergenceDomain(
                f"z/s = {w!r} is too large to place in its cell: its rounding, "
                f"{abs(w) * _ULP:.1e}, reaches the pole guard {guard:.1e}"
            )
        return m, n, z_star, dist, guard

    def _too_near(self, what: str, dist: float) -> PoleProximity:
        """The error for what, at reduced-frame distance dist within the guard."""
        return PoleProximity(f"{what} is within {dist * abs(self._s):.3e} of the lattice "
                             f"(guard {DEFAULT_POLICY.pole_guard_radius:.1e})")

    def _point(self, z: complex) -> _Point:
        """The point kept from placing the same z, or _fresh_point(z), kept."""
        w = complex(z)
        key = w
        if not (w.real and w.imag):
            # 0.0 == -0.0, but the sign of a zero part of z can show in the
            # sign of a zero part of the values
            key = (w, math.copysign(1.0, w.real), math.copysign(1.0, w.imag))
        for kept, point in self._points:
            if kept == key:
                return point
        point = self._fresh_point(z)
        # one assignment of a new tuple: a race between threads can only
        # drop a point, never keep a wrong one
        self._points = ((key, point),) + self._points[:_POINTS_KEPT - 1]
        return point

    def _fresh_point(self, z: complex) -> _Point:
        """z placed in its cell (_place), the pole guard and one _point_values
        pass, not kept: for a Lattice that meets each z once, where keeping
        the point would cost a little on every call and never pay."""
        m, n, z_star, dist, guard = self._place(z)
        if dist < guard:
            raise self._too_near(f"z = {z}", dist)
        values = _point_values(self._tau_star, self._q, self._order, z_star, self._e2_star())
        return _Point(m, n, z_star, dist, *values)

    def wp(self, z: complex) -> WValue:
        """wp (weight 2)."""
        return self._wp(self._point(z))

    def wp_prime(self, z: complex) -> WValue:
        """d(wp)/dz (weight 3)."""
        return self._wp_prime(self._point(z))

    def zeta(self, z: complex) -> WValue:
        """zeta: closed-form quasi-period unwinding, weight-1 transport."""
        return self._zeta(self._point(z))

    # The transports of one point's values, so that eval_expr reads wp, wp'
    # and zeta off one series pass.

    def _wp(self, p: _Point) -> WValue:
        return _transport(p.wp, _est_error(p.wp, p.dist), self._s, 2, "wp")

    def _wp_prime(self, p: _Point) -> WValue:
        return _transport(p.wp1, _est_error(p.wp1, p.dist), self._s, 3, "wp'")

    def _zeta(self, p: _Point) -> WValue:
        """Unwound by eta1 = (pi^2/3) E2(tau*) and eta2 = tau*eta1 - 2*pi*i."""
        value = p.zeta
        if p.m or p.n:
            eta1 = (math.pi**2 / 3.0) * self._e2  # summed by _point
            value += (p.m + p.n * self._tau_star) * eta1 - 2j * math.pi * p.n
        est = _est_error(p.zeta, p.dist) * (1.0 + abs(p.m) + abs(p.n))
        return _transport(value, est, self._s, 1, "zeta")

    def e2(self) -> complex:
        """E2 by inverting G2(gamma tau) = s^2 G2(tau) - pi*i*c*s."""
        s = self._s
        g2 = ZETA2 * self._e2_star() + 1j * math.pi * self._gamma.c * s
        return _divide_by_sk(g2, s, 2, "E2") / ZETA2

    def e4(self) -> complex:
        """E4 (weight-4 modular transport)."""
        return _divide_by_sk(_e_series("e4", self._q, self._order), self._s, 4, "E4")

    def e6(self) -> complex:
        """E6 (weight-6 modular transport)."""
        return _divide_by_sk(_e_series("e6", self._q, self._order), self._s, 6, "E6")

    def invariants(self) -> LatticeInvariants:
        """g2, g3, delta, eta1 from E2, E4, E6 and the eta product at q*,
        transported with weights 4, 6, 12 and the E2 law.

        delta is the eta product at tau* (weight 12), not g2^3 - 27 g3^2,
        which cancels badly once |q*| is small."""
        g2 = (4.0 * math.pi**4 / 3.0) * self.e4()
        g3 = (8.0 * math.pi**6 / 27.0) * self.e6()
        delta = _divide_by_sk(_delta_eta_product(self._q, self._order), self._s, 12, "delta")
        eta1 = (math.pi**2 / 3.0) * self.e2()
        return LatticeInvariants(g2=g2, g3=g3, delta=delta, eta1=eta1)

    def half_periods(self) -> HalfPeriodData:
        """e1 = wp(1/2), e2 = wp(tau/2), e3 = wp((1+tau)/2): the roots of
        4 t^3 - g2 t - g3, so e1 + e2 + e3 = 0.

        Each is placed in the reduced frame, not split from z/s (which at
        Re(tau) = 1e9 costs the root sum four digits): (p + q*tau)/2 is
        s (p' + q'*tau*)/2 with (p', q') = (a*p - b*q, d*q - c*p) mod 2, a
        half period of the reduced cell.  One pass at each, on one E2 sum."""
        gamma, tau_star = self._gamma, self._tau_star
        guard = DEFAULT_POLICY.pole_guard_radius / abs(self._s)
        values = []
        for p, q in ((1, 0), (0, 1), (1, 1)):
            z_star = ((gamma.a * p - gamma.b * q) % 2
                      + (gamma.d * q - gamma.c * p) % 2 * tau_star) / 2.0
            dist = _cell_distance(tau_star, z_star)
            if dist < guard:
                raise self._too_near(f"half period ({p} + {q}*tau)/2 of tau = {self._tau}", dist)
            wp = _point_values(tau_star, self._q, self._order, z_star, self._e2_star())[0]
            values.append(_divide_by_sk(wp, self._s, 2, "wp"))
        return HalfPeriodData(*values)

    def distance(self, z: complex) -> float:
        """Distance from z to the lattice, found in the reduced frame where
        the nearest-corner search is exact, then scaled back."""
        return self._place(z)[3] * abs(self._s)

    def _tau_error(self, fn: str, value: complex) -> float:
        """est_error of value, this lattice's fn (e2, e4, e6, g2, g3 or delta):
        the rounding of tau* and of the s^k transport, floored at _EST_FLOOR."""
        tau, tau_star, scale, c = self._tau, self._tau_star, abs(self._s), self._gamma.c
        if fn == "delta":
            # Rounding relative to |delta|: in the eta product and the s^12
            # division (64), and in tau* through d(delta)/d(tau) =
            # 2*pi*i*E2*delta with 2*pi*|E2| <= 8 on the reduced domain,
            # where tau*'s own rounding is amplified by d(tau*)/d(tau) = 1/s^2.
            conditioning = 64.0 + 8.0 * (abs(tau_star) + abs(tau) / scale**2)
            est = abs(value) * _ULP * conditioning
        else:
            weight, factor, slope, terms = _EISENSTEIN_ERROR[fn]
            # E_k(tau*) carries the series tail, the rounding of its terms and
            # tau*'s rounding through |E_k'| <= slope.  Translations by
            # integers are exact, so with no inversion tau* rounds only in the
            # nome (|tau*|); the first inversion rounds at |tau|, which
            # d(tau*)/d(tau) = 1/s^2 carries to tau*.  The transport rounds
            # relative to its terms, k times through s = c*tau + d, which is
            # itself off by eps*(1 + |c*tau|/|s|).
            tau_star_error = abs(tau_star) + (abs(tau) / scale**2 if c else 0.0)
            reduced = _TAIL_TARGET + _ULP * (terms + slope * tau_star_error)
            transport = abs(value)
            if fn == "e2":
                transport += 6.0 * abs(c) / (math.pi * scale)
            s_error = 1.0 + abs(c * tau) / scale
            est = factor * reduced / scale**weight + _ULP * weight * s_error * transport
        return max(ensure_finite(est, f"est_error of {fn}"), _EST_FLOOR)


def reduce_point(tau: complex, z: complex | None = None) -> ReductionResult:
    """Full reduction: tau into the fundamental domain, then z/s into the cell."""
    lat = Lattice(tau)
    m, n, z_star = (0, 0, None) if z is None else lat._place(z)[:3]
    return ReductionResult(lat._gamma, lat._tau_star, m, n, z_star, lat._s)


def lattice_distance(tau: complex, z: complex) -> float:
    """Distance from z to Z + tau*Z at any tau (Lattice.distance), exact
    since it is read in the reduced frame.  From |z| = 1e-3 * 2^52, about
    4.5e12, the rounding of z reaches the pole guard, and a z not within
    the guard of the lattice raises ConvergenceDomain, as the evaluators do."""
    return Lattice(tau).distance(z)


# The point evaluators are Lattice(tau).wp(z) and so on, but their Lattice
# places one point, so they keep none.

def wp_anywhere(tau: complex, z: complex) -> WValue:
    """wp at any tau in the upper half-plane and any non-lattice z (weight 2)."""
    lat = Lattice(tau)
    return lat._wp(lat._fresh_point(z))


def wp_prime_anywhere(tau: complex, z: complex) -> WValue:
    """d(wp)/dz at any tau, z (weight 3)."""
    lat = Lattice(tau)
    return lat._wp_prime(lat._fresh_point(z))


def zeta_anywhere(tau: complex, z: complex) -> WValue:
    """zeta at any tau, z: closed-form quasi-period unwinding, weight-1 transport."""
    lat = Lattice(tau)
    return lat._zeta(lat._fresh_point(z))


def e2_anywhere(tau: complex) -> complex:
    """E2 at any tau by inverting the quasimodular transformation law."""
    return Lattice(tau).e2()


def e4_anywhere(tau: complex) -> complex:
    """E4 at any tau (weight-4 modular transport)."""
    return Lattice(tau).e4()


def e6_anywhere(tau: complex) -> complex:
    """E6 at any tau (weight-6 modular transport)."""
    return Lattice(tau).e6()


def invariants_anywhere(tau: complex) -> LatticeInvariants:
    """g2, g3, delta, eta1 at any tau from one reduction (Lattice.invariants)."""
    return Lattice(tau).invariants()


def half_periods(tau: complex) -> HalfPeriodData:
    """wp at 1/2, tau/2 and (1+tau)/2 at any tau (Lattice.half_periods)."""
    return Lattice(tau).half_periods()


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
    return _wp_add(Lattice(tau), z1, z2)


def _wp_add(lat: Lattice, z1: complex, z2: complex) -> complex:
    """wp_add in the Lattice lat."""
    if lat.distance(z1 + z2) < DEFAULT_POLICY.pole_guard_radius:
        raise DegenerateConfiguration("z1 + z2 is on (or nearly on) the lattice")
    point1 = lat._point(z1)
    p1 = lat._wp(point1).value
    point2 = lat._point(z2)
    p2 = lat._wp(point2).value
    if abs(p1 - p2) < 1e-8 * max(1.0, abs(p1)):
        if lat.distance(z1 - z2) >= 1e-6:
            raise NearSingular("wp(z1) and wp(z2) agree to 1e-8 at points that are not equivalent")
        w1 = lat._wp_prime(point1)
        pp = w1.value
        if abs(pp) <= w1.est_error:  # rounding noise: dividing by it gives noise
            raise NearSingular(f"|wp'(z1)| = {abs(pp):.1e} is within its error {w1.est_error:.1e}")
        g2 = (4.0 * math.pi**4 / 3.0) * lat.e4()
        second = 6.0 * p1 * p1 - 0.5 * g2
        return ensure_finite((second / (2.0 * pp)) ** 2 - 2.0 * p1, "wp_add")
    pp1 = lat._wp_prime(point1).value
    pp2 = lat._wp_prime(point2).value
    slope = (pp1 - pp2) / (p1 - p2)
    return ensure_finite(0.25 * slope * slope - p1 - p2, "wp_add")
