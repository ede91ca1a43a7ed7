"""SL(2,Z) reduction of tau, cell reduction of z, and evaluate-anywhere wrappers.

Reduction moves (tau, z) into the region where the q-series converge fast, and
the value is transported back with the weight of the function:

    wp(tau; z)  = s^-2 wp(tau*; z/s)        s = c*tau + d, tau* = (a*tau+b)/s
    wp'(tau; z) = s^-3 wp'(tau*; z/s)
    zeta(tau;z) = s^-1 [zeta(tau*; z*) + m*eta1(tau*) + n*eta2(tau*)]

where z/s = z* + m + n*tau*, eta1 = (pi^2/3) E2(tau*) and, by Legendre's
relation, eta2 = tau* eta1 - 2*pi*i.  A Lattice is the one frame: it reduces
tau once, and every evaluator is Lattice(tau).method, one pipeline reduce ->
sum -> transport.  A point is split once (z/s to its nearest lattice point,
so z* lies in the centred cell), checked once (the pole guard scaled by
1/|s| into the reduced frame), and wp, wp' and zeta are summed in one pass
at (tau*, z*).  Only
wp and zeta carry eta1, so only they need E2(tau*), which the Lattice sums
once; wp' needs none.  The functions of tau alone (E2, E4, E6, the
invariants and the half periods), which callers ask for together at one
tau, and symbolic.eval_expr share the Lattice of the last tau asked
(_tau_lattice); each point evaluator builds its own.  E2 inverts the
quasimodular law

    G2(gamma tau) = s^2 G2(tau) - pi*i*c*s,      G2 = zeta(2) E2,

and E4, E6 transport with weights 4 and 6.
"""

from __future__ import annotations

import cmath
import math
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

# eta1 = (pi^2/3) E2(tau*), the quasi-period that wp and zeta carry, and
# g2 = (4 pi^4/3) E4, g3 = (8 pi^6/27) E6.
_ETA1_PER_E2 = math.pi**2 / 3.0
_G2_PER_E4 = 4.0 * math.pi**4 / 3.0
_G3_PER_E6 = 8.0 * math.pi**6 / 27.0

# How many placed points a Lattice keeps: fd_check in z evaluates a value
# point and four stencil points, and fd_check in tau starts at that point.
_POINTS_KEPT = 5

# For each function of tau alone but delta: its weight k, its factor over
# E_k, and on the reduced domain the bound on |E_k'| from Ramanujan's system
# and the sum of |term| over E_k's q-series (both taken at the bottom of the
# domain, where |q| = exp(-pi*sqrt(3)) is largest).
_EISENSTEIN_ERROR = {
    "e2": (2, 1.0, 0.7, 1.2),
    "e4": (4, 1.0, 6.1, 2.1),
    "e6": (6, 1.0, 10.0, 3.6),
    "g2": (4, _G2_PER_E4, 6.1, 2.1),
    "g3": (6, _G3_PER_E6, 10.0, 3.6),
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
    """tau* = gamma(tau) with s = c*tau + d, and z/s = z* + m + n*tau*
    split to its nearest lattice point, z* in the centred cell (None
    without z)."""

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
    tau* overflows or has lost tau (see _TAU_STAR_MISMATCH).
    """
    a, b, c, d, tau_star = _walk(tau)
    return UnimodularMatrix(a, b, c, d), tau_star


def _walk(tau: complex) -> tuple[int, int, int, int, complex]:
    """reduce_tau's SL(2,Z) walk, returning (a, b, c, d, tau*): gamma = (a b;
    c d) stays four integers, so a Lattice builds no UnimodularMatrix."""
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
            if not cmath.isfinite(cur):
                raise NonFiniteValue(f"tau* is not finite: {cur!r}")
            # |s| sqrt(Im tau* / Im tau) is 1; |s|^2 would underflow at tiny Im(tau)
            ratio = abs(c * tau + d) * math.sqrt(cur.imag) / math.sqrt(tau.imag)
            if abs(ratio * ratio - 1.0) > _TAU_STAR_MISMATCH:
                raise NonFiniteValue(f"reducing {tau!r} loses tau: Im(tau*) |s|^2 != Im(tau)")
            return a, b, c, d, cur
    except OverflowError as exc:
        # when both parts of tau are subnormal, -1/tau is -inf+inf*i and the
        # next floor(inf) raises before the check at the return
        raise NonFiniteValue(f"tau* is not finite: reducing {tau!r} overflows") from exc
    raise NonTermination(f"tau reduction did not settle after {_MAX_REDUCTION_STEPS} steps")


def _cell_distance(tau_star: complex, z_star: complex) -> float:
    """The distance from z* to Z + tau*Z, z* = a*tau* + b split to its
    nearest lattice point: tau* is reduced, so the nearest lattice point is
    a corner of the quarter cell that holds z*, and of -z* when Im(z*) < 0
    (0, 1, tau*, 1 + tau*, with 1 as -1 when b < 0).  This is the oracles'
    corner search (weier._corner_distance) bit for bit.  A z* outside the
    box |a|, |b| < 1, which only a z/s that has lost its place rounds to,
    is 0 from it."""
    if z_star.imag < 0.0:
        z_star = -z_star
    a = z_star.imag / tau_star.imag
    b = z_star.real - a * tau_star.real
    if not (a < 1.0 and -1.0 < b < 1.0):
        return 0.0
    one = 1.0 if b >= 0.0 else -1.0
    return min(abs(z_star), abs(z_star - one), abs(z_star - tau_star),
               abs(z_star - (one + tau_star)))


def _key(w: complex) -> complex | tuple:
    """w as a key of what is kept for it: 0.0 == -0.0, but the sign of a
    zero part of z can show in the sign of a zero part of the values, so a
    zero part keys with its sign, and what is kept for z or tau answers
    only a z or tau equal to it bit for bit."""
    if w.real and w.imag:
        return w
    return (w, math.copysign(1.0, w.real), math.copysign(1.0, w.imag))


def _transport(value: complex, s: complex, weight: int, what: str,
               est_error: float | None = None) -> complex | WValue:
    """value / s^k, a weight-k value carried back from the reduced frame,
    and given its est_error the WValue whose error divides by |s^k| too.
    s^k underflows to 0 at tiny Im(tau); the quotient can overflow, and so
    can the error where the value does not."""
    sk = s**weight
    if sk == 0:
        raise NonFiniteValue(f"{what}: s^{weight} underflows to 0 at s = {s!r}")
    value /= sk
    if not cmath.isfinite(value):
        raise NonFiniteValue(f"{what} is not finite: {value!r}")
    if est_error is None:
        return value
    est_error /= abs(sk)
    if est_error == math.inf:  # est_error >= 0 and s^k != 0: never NaN
        raise NonFiniteValue(f"est_error of {what} is not finite: {est_error!r}")
    return WValue(value, est_error)


class Lattice:
    """The lattice Z + tau*Z with its reduction made once: gamma (four ints
    from the walk), s = c*tau + d and |s|, the pole guard scaled by 1/|s|
    into the reduced frame, tau* = gamma(tau), q* and the one order
    (eisenstein._order, a table lookup) to which every q-series at q* is
    summed (the kernels, each E-series and the eta product).  E2(tau*),
    E4(tau*) and E6(tau*) are each summed once, when first needed: E2 by
    wp, zeta, E2, the invariants or a half period, E4 and E6 by themselves
    or the invariants; wp_prime sums none.

    Every evaluator is Lattice(tau).method: wp, wp_prime and zeta (WValue)
    are wp_anywhere(tau, z), wp_prime_anywhere(tau, z) and
    zeta_anywhere(tau, z); e2, e4, e6, invariants and half_periods are
    e2_anywhere(tau) ... half_periods(tau); distance(z) is
    lattice_distance(tau, z).  Each point costs one split of z/s and one
    series pass, which serves wp, wp_prime and zeta there: a Lattice keeps
    the last five points it placed, so wp, wp_prime and zeta at one z cost
    one pass between them.  A point that raises is not kept, and no point
    is kept across Lattices: Lattice(tau).wp(z) always places z afresh.
    The functions of tau alone and symbolic.eval_expr share the Lattice of
    the last tau asked, so e2_anywhere, e4_anywhere, e6_anywhere and
    invariants_anywhere at one tau reduce it once and sum each series once
    between them, and so do the five evaluations of fd_check in z.
    Lattice(tau) raises what the evaluators raise for that tau.  Lattices
    are equal when their tau are.
    """

    __slots__ = ("_tau", "_gamma", "_s", "_s_abs", "_guard", "_tau_star", "_q", "_order", "_e2",
                 "_e4", "_e6", "_points")

    def __init__(self, tau: complex) -> None:
        a, b, c, d, tau_star = _walk(tau)
        tau = complex(tau)
        s = c * tau + d
        q = _nome(tau_star)
        self._tau = tau
        self._gamma = (a, b, c, d)
        self._s = s
        self._s_abs = s_abs = abs(s)
        self._guard = DEFAULT_POLICY.pole_guard_radius / s_abs
        self._tau_star = tau_star
        self._q = q
        self._order = _order(abs(q))
        self._e2 = self._e4 = self._e6 = None
        self._points = ()  # ((key, point), ...), the newest first

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

    def _place(self, z: complex) -> tuple[int, int, complex, float]:
        """(m, n, z*, dist): the one split z/s = z* + m + n*tau* at the
        lattice point m + n*tau* nearest in coordinates, so z* = a*tau* + b
        has |a|, |b| <= 1/2 up to the rounding of the subtraction, and the
        lattice distance of z*.  ConvergenceDomain when z has lost its place
        in its cell: when the rounding of z/s reaches the pole guard."""
        w = complex(z) / self._s
        tau_star = self._tau_star
        a, b = _coords(tau_star, w)
        guard = self._guard
        # the rounding of z/s reaches the guard once |z| >= 1e-3 * 2^52
        # whatever s is (w scaled first: abs cannot overflow at |w| > 1.8e308)
        if abs(w * _ULP) >= guard:
            raise ConvergenceDomain(
                f"z/s = {w!r} is too large to place in its cell: its rounding, "
                f"{abs(w * _ULP):.1e}, reaches the pole guard {guard:.1e}"
            )
        n = round(a)
        m = round(b)
        z_star = w - m - n * tau_star
        return m, n, z_star, _cell_distance(tau_star, z_star)

    def _too_near(self, what: str, dist: float) -> PoleProximity:
        """The error for what, at reduced-frame distance dist within the guard."""
        return PoleProximity(f"{what} is within {dist * self._s_abs:.3e} of the lattice "
                             f"(guard {DEFAULT_POLICY.pole_guard_radius:.1e})")

    def _point(self, z: complex) -> tuple:
        """The point kept from placing the same z, or _fresh_point(z), kept."""
        key = _key(complex(z))
        for kept, point in self._points:
            if kept == key:
                return point
        point = self._fresh_point(z)
        # one assignment of a new tuple: a race between threads can only
        # drop a point, never keep a wrong one
        self._points = ((key, point),) + self._points[:_POINTS_KEPT - 1]
        return point

    def _fresh_point(self, z: complex) -> tuple:
        """z placed in its cell (_place), the pole guard and one _point_values
        pass, not kept: for a Lattice that meets each z once, where keeping
        the point would cost a little on every call and never pay.

        A point is one plain tuple (m, n, z*, dist, wp, wp', zeta): the split
        z/s = z* + m + n*tau*, the lattice distance of z*, and the q-sums of
        the pass at (tau*, z*), with wp and zeta still without eta1, which
        _wp and _zeta apply."""
        placed = self._place(z)
        if placed[3] < self._guard:
            raise self._too_near(f"z = {z}", placed[3])
        return placed + _point_values(self._tau_star, self._q, self._order, placed[2])

    def wp(self, z: complex) -> WValue:
        """wp (weight 2)."""
        return self._wp(self._point(z))

    def wp_prime(self, z: complex) -> WValue:
        """d(wp)/dz (weight 3)."""
        return self._wp_prime(self._point(z))

    def zeta(self, z: complex) -> WValue:
        """zeta: closed-form quasi-period unwinding, weight-1 transport."""
        return self._zeta(self._point(z))

    # The transports of one point's values, for callers that place the point
    # themselves: the point evaluators, half_periods and _wp_add.

    def _wp(self, p: tuple) -> WValue:
        """wp = the q-sum - eta1."""
        wp = p[4] - _ETA1_PER_E2 * self._e2_star()
        return _transport(wp, self._s, 2, "wp", _est_error(wp, p[3]))

    def _wp_prime(self, p: tuple) -> WValue:
        return _transport(p[5], self._s, 3, "wp'", _est_error(p[5], p[3]))

    def _zeta(self, p: tuple) -> WValue:
        """zeta = the q-sum + eta1*z*, unwound by eta1 = (pi^2/3) E2(tau*)
        and eta2 = tau*eta1 - 2*pi*i."""
        m, n, z_star, dist, _, _, zeta = p
        eta1 = _ETA1_PER_E2 * self._e2_star()
        value = zeta = zeta + eta1 * z_star
        if m or n:
            value += (m + n * self._tau_star) * eta1 - 2j * math.pi * n
        est = _est_error(zeta, dist) * (1.0 + abs(m) + abs(n))
        return _transport(value, self._s, 1, "zeta", est)

    def e2(self) -> complex:
        """E2 by inverting G2(gamma tau) = s^2 G2(tau) - pi*i*c*s."""
        s = self._s
        g2 = ZETA2 * self._e2_star() + 1j * math.pi * self._gamma[2] * s
        return _transport(g2, s, 2, "E2") / ZETA2

    def e4(self) -> complex:
        """E4 (weight-4 modular transport), E4(tau*) summed on first use."""
        if self._e4 is None:
            self._e4 = _e_series("e4", self._q, self._order)
        return _transport(self._e4, self._s, 4, "E4")

    def e6(self) -> complex:
        """E6 (weight-6 modular transport), E6(tau*) summed on first use."""
        if self._e6 is None:
            self._e6 = _e_series("e6", self._q, self._order)
        return _transport(self._e6, self._s, 6, "E6")

    def invariants(self) -> LatticeInvariants:
        """g2, g3, delta, eta1 from E2, E4, E6 and the eta product at q*,
        transported with weights 4, 6, 12 and the E2 law.

        delta is the eta product at tau* (weight 12), not g2^3 - 27 g3^2,
        which cancels badly once |q*| is small."""
        g2 = _G2_PER_E4 * self.e4()
        g3 = _G3_PER_E6 * self.e6()
        delta = _transport(_delta_eta_product(self._q, self._order), self._s, 12, "delta")
        eta1 = _ETA1_PER_E2 * self.e2()
        return LatticeInvariants(g2=g2, g3=g3, delta=delta, eta1=eta1)

    def half_periods(self) -> HalfPeriodData:
        """e1 = wp(1/2), e2 = wp(tau/2), e3 = wp((1+tau)/2): the roots of
        4 t^3 - g2 t - g3, so e1 + e2 + e3 = 0.

        Each is placed in the reduced frame, not split from z/s (which at
        Re(tau) = 1e9 costs the root sum four digits): (p + q*tau)/2 is
        s (p' + q'*tau*)/2 with (p', q') = (a*p - b*q, d*q - c*p) mod 2, a
        half period of the reduced cell.  One pass at each, on one E2 sum."""
        (a, b, c, d), tau_star = self._gamma, self._tau_star
        values = []
        for p, q in ((1, 0), (0, 1), (1, 1)):
            z_star = ((a * p - b * q) % 2 + (d * q - c * p) % 2 * tau_star) / 2.0
            dist = _cell_distance(tau_star, z_star)
            if dist < self._guard:
                raise self._too_near(f"half period ({p} + {q}*tau)/2 of tau = {self._tau}", dist)
            point = (0, 0, z_star, dist) + _point_values(tau_star, self._q, self._order, z_star)
            values.append(self._wp(point).value)
        return HalfPeriodData(*values)

    def distance(self, z: complex) -> float:
        """Distance from z to the lattice, found in the reduced frame where
        the nearest-corner search is exact, then scaled back."""
        return self._place(z)[3] * self._s_abs

    def _tau_error(self, fn: str, value: complex) -> float:
        """est_error of value, this lattice's fn (e2, e4, e6, g2, g3 or delta):
        the rounding of tau* and of the s^k transport, floored at _EST_FLOOR."""
        tau, tau_star, scale, c = self._tau, self._tau_star, self._s_abs, self._gamma[2]
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


def reduce_point(tau: complex | Lattice, z: complex | None = None) -> ReductionResult:
    """Full reduction: tau into the fundamental domain, then z/s into the cell.
    tau may be a Lattice the caller holds, whose reduction is read, not redone."""
    lat = tau if isinstance(tau, Lattice) else Lattice(tau)
    m, n, z_star = (0, 0, None) if z is None else lat._place(z)[:3]
    return ReductionResult(UnimodularMatrix(*lat._gamma), lat._tau_star, m, n, z_star, lat._s)


def lattice_distance(tau: complex, z: complex) -> float:
    """Distance from z to Z + tau*Z at any tau (Lattice.distance), exact
    since it is read in the reduced frame, off the corners of the quarter
    cell that holds z*.  From |z| = 1e-3 * 2^52, about 4.5e12, the rounding
    of z reaches the pole guard, and every such z raises ConvergenceDomain,
    as the evaluators do, however near the lattice it is."""
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


# The functions of tau alone and symbolic.eval_expr read the Lattice of the
# last tau asked, with its key: E2, E4, E6 and the invariants are asked
# together at one tau, as are fd_check's five points in z.  A point evaluator
# meets a new tau almost every call, so it keeps its own Lattice.
_last_tau = (None, None)


def _tau_lattice(tau: complex) -> Lattice:
    """Lattice(tau), the last one built here when its tau is tau."""
    global _last_tau
    key = _key(complex(tau))
    kept, lat = _last_tau
    if kept == key:
        return lat
    lat = Lattice(tau)
    # one assignment of a new tuple, after a Lattice that did not raise: a
    # race between threads can only miss, never read a wrong Lattice
    _last_tau = (key, lat)
    return lat


def e2_anywhere(tau: complex) -> complex:
    """E2 at any tau by inverting the quasimodular transformation law."""
    return _tau_lattice(tau).e2()


def e4_anywhere(tau: complex) -> complex:
    """E4 at any tau (weight-4 modular transport)."""
    return _tau_lattice(tau).e4()


def e6_anywhere(tau: complex) -> complex:
    """E6 at any tau (weight-6 modular transport)."""
    return _tau_lattice(tau).e6()


def invariants_anywhere(tau: complex) -> LatticeInvariants:
    """g2, g3, delta, eta1 at any tau from one reduction (Lattice.invariants)."""
    return _tau_lattice(tau).invariants()


def half_periods(tau: complex) -> HalfPeriodData:
    """wp at 1/2, tau/2 and (1+tau)/2 at any tau (Lattice.half_periods)."""
    return _tau_lattice(tau).half_periods()


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
        g2 = _G2_PER_E4 * lat.e4()
        second = 6.0 * p1 * p1 - 0.5 * g2
        return ensure_finite((second / (2.0 * pp)) ** 2 - 2.0 * p1, "wp_add")
    pp1 = lat._wp_prime(point1).value
    pp2 = lat._wp_prime(point2).value
    slope = (pp1 - pp2) / (p1 - p2)
    return ensure_finite(0.25 * slope * slope - p1 - p2, "wp_add")
