"""Exact rational-function calculus over the elliptic generator set.

An Expr is a quotient of polynomials in the generators

    z, tau, wp, wp1, zeta, E2, E4, E6, pi

with Gaussian-rational coefficients (pi is carried as a formal symbol, so every
coefficient stays exact).  Both polynomials are stored with Gaussian-integer
coefficients (a, b) = a + b i, in the one form of the quotient whose
denominator has a positive integer leading coefficient and whose components
have gcd 1; arithmetic and differentiation run on ints alone.  Each monomial
is packed into one int, a 32-bit field per generator with z in the highest
field and pi in the lowest, so a product of monomials is one integer add and
int order is the order of the exponent tuples.  An exponent is at most
2**31 - 1; the top bit of each field is a guard, and a product that sets one
raises ValueError.  Printing and eval_expr read one compiled list of each
side's terms, every monomial unpacked once into its (generator, exponent)
pairs; an Expr makes it on first use and keeps it.  Expr.num and Expr.den
read the quotient back with exponent tuples as keys and that leading
coefficient scaled to 1, as (Fraction, Fraction) pairs.  The set is closed
under d/dz and d/dtau:

    d/dz:   wp -> wp1,  wp1 -> 6 wp^2 - g2/2,  zeta -> -wp
    d/dtau: E2k by Ramanujan's system; wp and zeta by the theta heat
            equation d/dtau theta1 = theta1''/(4 pi i), which with
            eta1 = (pi^2/3) E2 and zeta~ = zeta - eta1 z reads

              4 pi i (d/dtau wp + d/dtau eta1)     = wp'' - 2 (wp + eta1)^2
                                                     + 2 zeta~ wp1
              4 pi i (d/dtau zeta - z d/dtau eta1) = -wp1 - 2 zeta~ (wp + eta1)

            (the only denominator is pi, so the rules stay small and well
            conditioned at every height); and d/dtau wp1 = d/dz (d/dtau wp).

g2, g3, delta are abbreviations: g2 = (4 pi^4/3) E4, g3 = (8 pi^6/27) E6,
delta = g2^3 - 27 g3^2.  The classical route through d/dg2 and d/dg3 gives the
same rules divided by delta, which cancels badly in double precision.

parse_expr reads the printed text back.  The values on its stack are
polynomial pairs (num, den), formed by the products and sums Expr arithmetic
takes and canonicalized once, at the end, and a sum over integer
denominators adds into one numerator in place, so parse time is linear in
the text.  Every product it forms passes the checks of a power step
(_POWER_BUDGET term products, _POWER_BITS coefficient bits), and its integer
literals are ASCII digits.
"""

from __future__ import annotations

import math
import re
import struct
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import itemgetter, or_

from .core import ensure_finite, require_upper_half
from .errors import NearSingular, NonFiniteValue
from .reduction import _tau_lattice

GEN_NAMES = ("z", "tau", "wp", "wp1", "zeta", "E2", "E4", "E6", "pi")
NGEN = len(GEN_NAMES)
_GEN_INDEX = {name: k for k, name in enumerate(GEN_NAMES)}
_PI = _GEN_INDEX["pi"]

# A monomial z^e0 tau^e1 ... pi^e8 is the int with e_k in the 32-bit field at
# _SHIFT[k]: z highest, pi lowest, so int order is the tuple order.  Exponents
# stay below the guard bit at the top of each field, so the sum of two packed
# monomials is their product, carries no bit into the next field, and sets a
# guard bit exactly when an exponent passes _MAX_EXPONENT.
_FIELD = 32
_SHIFT = tuple(_FIELD * (NGEN - 1 - k) for k in range(NGEN))
_MAX_EXPONENT = (1 << (_FIELD - 1)) - 1
_GUARD = sum(1 << (s + _FIELD - 1) for s in _SHIFT)
_MASK = (1 << _FIELD) - 1
_EXPONENTS = struct.Struct(f">{NGEN}I")  # the fields, as big-endian 32-bit ints
_UNIT_MONO = 0

_SINGULAR_FLOOR = 1e-12

# The most term products (len(p) * len(q)) one multiplication inside a power
# may take.  The parser accepts any integer exponent, and (pi-E4)^-2112
# multiplied out in full did not finish within 5 s.
_POWER_BUDGET = 50_000

# The most bits the largest coefficients of its two operands may have between
# them: 4300 digits, what str(int) prints.  3^100000000 did not end in 114 s.
_POWER_BITS = int(4300 * math.log2(10))

# ---------------------------------------------------------------------------
# Polynomials: dicts mapping packed monomials to Gaussian-integer coefficients
# (a, b) = a + b i.  No stored coefficient is zero, and no function here
# changes a polynomial it is given, so polynomials may be shared: _UNIT_DEN,
# and the operand _p_mul returns when the other one is the unit polynomial.

_UNIT_DEN = {_UNIT_MONO: (1, 0)}


def _pack(exponents) -> int:
    """The packed monomial of an exponent tuple; ValueError unless it has one
    int in [0, _MAX_EXPONENT] per generator."""
    if len(exponents) != NGEN or not all(
            isinstance(e, int) and 0 <= e <= _MAX_EXPONENT for e in exponents):
        raise ValueError(f"exponents must be {NGEN} ints in [0, {_MAX_EXPONENT}], "
                         f"got {exponents!r}")
    return int.from_bytes(_EXPONENTS.pack(*exponents), "big")


def _unpack(mono: int) -> tuple:
    return _EXPONENTS.unpack(mono.to_bytes(_EXPONENTS.size, "big"))


def _overflow(mono: int) -> ValueError:
    return ValueError(f"exponent above {_MAX_EXPONENT} in a product: {_unpack(mono)}")


def _p_add(p, q):
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono)
        if s is None:
            out[mono] = c
            continue
        re, im = s[0] + c[0], s[1] + c[1]
        if re or im:
            out[mono] = (re, im)
        else:
            del out[mono]
    return out


def _p_neg(p):
    return {mono: (-a, -b) for mono, (a, b) in p.items()}


def _p_mul(p, q):
    if len(p) == 1:
        p, q = q, p
    if len(q) == 1:  # scale and shift p, keeping p's order as the loop below does
        ((m2, (a2, b2)),) = q.items()
        if m2 == _UNIT_MONO:
            if (a2, b2) == (1, 0):
                return p
            return {m1: (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2) for m1, (a1, b1) in p.items()}
        out = {m1 + m2: (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2) for m1, (a1, b1) in p.items()}
        for mono in out:
            if mono & _GUARD:
                raise _overflow(mono)
        return out
    out: dict = {}
    for m1, (a1, b1) in p.items():
        for m2, (a2, b2) in q.items():
            mono = m1 + m2
            if mono & _GUARD:
                raise _overflow(mono)
            re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            s = out.get(mono)
            if s is not None:
                re += s[0]
                im += s[1]
                if not (re or im):
                    del out[mono]
                    continue
            out[mono] = (re, im)
    return out


def _compile(poly: dict) -> tuple:
    """poly's terms in dict order as (mono, a, b, factors): factors are the
    (generator, exponent) pairs of mono in generator order, zero exponents
    left out.  Each monomial is unpacked here, once."""
    unpack, size = _EXPONENTS.unpack, _EXPONENTS.size
    return tuple([
        (mono, a, b, tuple([(k, e) for k, e in enumerate(unpack(mono.to_bytes(size, "big"))) if e]))
        for mono, (a, b) in poly.items()])


def _p_eval(terms: tuple, n: int, vals) -> complex:
    """The compiled polynomial terms / n at the generator values.  Int true
    division rounds correctly, so each coefficient is the double nearest to
    its exact value; each term multiplies it by its powers in generator
    order, and each distinct power is one v**e per call.  A power built by
    repeated products would round differently, and would overflow to inf
    where ** raises OverflowError."""
    powers: dict = {}
    total = 0j
    for _, a, b, factors in terms:
        term = complex(a / n, b / n)
        for f in factors:
            v = powers.get(f)
            if v is None:
                k, e = f
                v = powers[f] = vals[k] ** e
            term *= v
        total += term
    return total


def _canonical(num: dict, den: dict) -> tuple[dict, dict]:
    """The one representative of {(c num, c den) : c in Q(i)*} whose
    denominator has a positive integer leading coefficient and whose
    components have gcd 1.  num and den are Gaussian-integer, den nonzero."""
    if not num:
        return {}, _UNIT_DEN
    a, b = den[max(den)]
    if b or a < 0:  # times conj(lead): the lead becomes a^2 + b^2 > 0
        num = {m: (x * a + y * b, y * a - x * b) for m, (x, y) in num.items()}
        den = {m: (x * a + y * b, y * a - x * b) for m, (x, y) in den.items()}
    g = math.gcd(*[x for c in den.values() for x in c])
    if g != 1:
        g = math.gcd(g, *[x for c in num.values() for x in c])
    if g != 1:
        num = {m: (x // g, y // g) for m, (x, y) in num.items()}
        den = {m: (x // g, y // g) for m, (x, y) in den.items()}
    return num, den


def _cleared(poly: dict, scale: int) -> dict:
    """A Gaussian-rational polynomial keyed by exponent tuples times scale, a
    common denominator, keyed by packed monomials."""
    return {
        _pack(m): (re.numerator * (scale // re.denominator),
                   im.numerator * (scale // im.denominator))
        for m, (re, im) in poly.items()
        if re or im
    }


def _view(poly: dict, n: int) -> dict:
    return {_unpack(m): (Fraction(a, n), Fraction(b, n)) for m, (a, b) in poly.items()}


class Expr:
    """A quotient of generator polynomials with exact coefficients, held in a
    canonical form.

    Both sides carry Gaussian-integer coefficients.  Of all the pairs
    (c num, c den), c a nonzero Gaussian rational, the one kept has a positive
    integer as the denominator's leading coefficient (the one at its largest
    exponent tuple) and gcd 1 over the components of both sides.  There is no
    polynomial gcd, so equality and hashing are structural on this form.
    `num` and `den` read it back with the leading coefficient scaled to 1, as
    (Fraction, Fraction) pairs.

    A derivative also records its denominator as c F^k: F is the denominator
    of the expression first differentiated and c a polynomial in pi alone.
    The next derivative divides by c F^(k+1), not by (c F^k)^2.  Negation,
    and a product or quotient with an Expr in pi alone, keep the record.
    Every other Expr has den itself as F and k = 1.  That includes a sum and
    a parsed one, so the derivative of a parsed-back derivative takes the
    full quotient rule: without a polynomial gcd, F cannot be found again.
    The record takes no part in ==, hash or the printed text, and neither
    does _terms: both sides' terms as _compile gives them, made when printing
    or eval_expr first needs them.
    """

    __slots__ = ("_num", "_den", "_base", "_terms")

    def __init__(self, num: dict, den: dict) -> None:
        """num, den: dicts from exponent tuples to (re, im) pairs of ints or
        Fractions.  A tuple holds one exponent per generator, each an int in
        [0, 2**31 - 1]; any other raises ValueError.  The denominators of
        the coefficients are cleared here, once."""
        scale = math.lcm(*(x.denominator for p in (num, den) for c in p.values() for x in c))
        num, den = _cleared(num, scale), _cleared(den, scale)
        if not den:
            raise ZeroDivisionError("zero denominator polynomial")
        self._num, self._den = _canonical(num, den)
        self._base = self._terms = None

    @classmethod
    def _new(cls, num: dict, den: dict, base: tuple[dict, int] | None = None) -> "Expr":
        """From Gaussian-integer polynomials, den nonzero.  base is (F, k) when
        den is a polynomial in pi alone times F^k; a zero Expr carries none."""
        e = object.__new__(cls)
        e._num, e._den = _canonical(num, den)
        e._base = base if e._num else None
        e._terms = None
        return e

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, re: Fraction | int, im: Fraction | int = 0) -> "Expr":
        unit = (0,) * NGEN
        return cls({unit: (Fraction(re), Fraction(im))}, {unit: (1, 0)})

    @classmethod
    def generator(cls, name: str) -> "Expr":
        return cls._new({1 << _SHIFT[_GEN_INDEX[name]]: (1, 0)}, _UNIT_DEN)

    # -- the lead-1 view ------------------------------------------------------

    def _lead(self) -> int:
        return self._den[max(self._den)][0]

    def _compiled(self) -> tuple:
        """(numerator terms, denominator terms), compiled on first use.  The
        slot takes one finished tuple, so threads that race here can only
        compile it twice."""
        terms = self._terms
        if terms is None:
            terms = self._terms = (_compile(self._num), _compile(self._den))
        return terms

    @property
    def num(self) -> dict:
        """The numerator over the denominator's leading coefficient."""
        return _view(self._num, self._lead())

    @property
    def den(self) -> dict:
        """The denominator, its leading coefficient (Fraction(1), Fraction(0))."""
        return _view(self._den, self._lead())

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def used_generators(self) -> set[int]:
        mono = reduce(or_, self._den, reduce(or_, self._num, 0))
        return {k for k, shift in enumerate(_SHIFT) if mono >> shift & _MASK}

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Expr":
        if isinstance(x, Expr):
            return x
        if isinstance(x, (int, Fraction)):
            return Expr.constant(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        num = _p_add(_p_mul(self._num, other._den), _p_mul(other._num, self._den))
        return Expr._new(num, _p_mul(self._den, other._den))

    __radd__ = __add__

    def __neg__(self):
        return Expr._new(_p_neg(self._num), self._den, self._base)

    def __sub__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Expr._new(_p_mul(self._num, other._num), _p_mul(self._den, other._den),
                         _kept_base(self, other) or _kept_base(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero expression")
        return Expr._new(_p_mul(self._num, other._den), _p_mul(self._den, other._num),
                         _kept_base(self, other))

    def __rtruediv__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = _power_product(result, base)
            n >>= 1
            if n:
                base = _power_product(base, base)
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            other = Expr._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash(
            (
                frozenset(self._num.items()),
                frozenset(self._den.items()),
            )
        )

    def __str__(self) -> str:
        return expr_to_text(self)

    def __repr__(self) -> str:
        return f"Expr[{expr_to_text(self)}]"


def _kept_base(a: Expr, b: Expr) -> tuple[dict, int] | None:
    """a's record of c F^k, which a * b and a / b keep when b is in pi
    alone: the product's denominator is then c' F^k."""
    return a._base if a._base and b.used_generators() <= {_PI} else None


def _bits(num: dict, den: dict) -> int:
    """The bit length of the largest coefficient component of num and den."""
    return max(map(int.bit_length, chain(*num.values(), *den.values())))


def _check_budget(what: str, products: int, bits: int) -> None:
    """ValueError when one side of a product would take more than
    _POWER_BUDGET term products, or the operands' largest coefficient
    components have more than _POWER_BITS between them."""
    if products > _POWER_BUDGET:
        raise ValueError(f"{what} too large: one product would take {products} term "
                         f"products, above {_POWER_BUDGET}")
    if bits > _POWER_BITS:
        raise ValueError(f"{what} too large: its coefficients have {bits} bits, "
                         f"above {_POWER_BITS}")


def _term_products(p: dict, q: dict) -> int:
    """The term products of p * q that count against _POWER_BUDGET: none when
    a side is one term, which only scales and shifts the other."""
    return len(p) * len(q) if len(p) > 1 < len(q) else 0


def _power_product(a: Expr, b: Expr) -> Expr:
    """a * b inside Expr.__pow__, under _check_budget."""
    _check_budget("power", max(_term_products(a._num, b._num), _term_products(a._den, b._den)),
                  _bits(a._num, a._den) + _bits(b._num, b._den))
    return a * b


Z = Expr.generator("z")
TAU = Expr.generator("tau")
WP = Expr.generator("wp")
WP1 = Expr.generator("wp1")
ZETA = Expr.generator("zeta")
E2 = Expr.generator("E2")
E4 = Expr.generator("E4")
E6 = Expr.generator("E6")
PI = Expr.generator("pi")
I = Expr.constant(0, 1)
ZERO = Expr.constant(0)
ONE = Expr.constant(1)


def rational(p: int, q: int = 1) -> Expr:
    return Expr.constant(Fraction(p, q))


def g2_expr() -> Expr:
    """g2 = (4 pi^4 / 3) E4."""
    return rational(4, 3) * PI**4 * E4


def g3_expr() -> Expr:
    """g3 = (8 pi^6 / 27) E6."""
    return rational(8, 27) * PI**6 * E6


def delta_expr() -> Expr:
    """delta = g2^3 - 27 g3^2, nonzero on the upper half-plane."""
    g2 = g2_expr()
    g3 = g3_expr()
    return g2**3 - 27 * g3**2


# ---------------------------------------------------------------------------
# Derivative rule tables.


def build_rule_table() -> dict[str, tuple[Expr, ...]]:
    """Derivative of each generator with respect to z and tau.

    Returned fresh so callers (e.g. mutation tests) may alter entries without
    touching the cached default table.
    """
    wp2 = 6 * WP**2 - g2_expr() / 2  # wp'', from differentiating the cubic ODE
    z_rules = (
        ONE,  # z
        ZERO,  # tau
        WP1,  # wp
        wp2,  # wp1
        -WP,  # zeta
        ZERO,  # E2
        ZERO,  # E4
        ZERO,  # E6
        ZERO,  # pi
    )

    # Ramanujan, with d/dtau = 2*pi*i q d/dq
    de2 = rational(1, 6) * I * PI * (E2**2 - E4)
    de4 = rational(2, 3) * I * PI * (E2 * E4 - E6)
    de6 = I * PI * (E2 * E6 - E4**2)

    # Heat equation d/dtau theta1 = theta1''/(4 pi i), written for wp and zeta
    # with eta1 = (pi^2/3) E2 and zeta~ = zeta - eta1 z.
    eta1 = rational(1, 3) * PI**2 * E2
    deta1 = rational(1, 3) * PI**2 * de2
    zeta_t = ZETA - eta1 * Z
    wp_e = WP + eta1
    over_4pi_i = ONE / (4 * I * PI)
    dwp = (wp2 - 2 * wp_e**2 + 2 * zeta_t * WP1) * over_4pi_i - deta1
    dzeta = (-WP1 - 2 * zeta_t * wp_e) * over_4pi_i + Z * deta1

    table: dict[str, tuple[Expr, ...]] = {"z": z_rules}
    dwp1 = _differentiate_with(dwp, z_rules)  # d/dtau wp1 = d/dz (d/dtau wp)
    table["tau"] = (ZERO, ONE, dwp, dwp1, dzeta, de2, de4, de6, ZERO)
    return table


_DEFAULT_RULES: dict[str, tuple[Expr, ...]] | None = None


def default_rule_table() -> dict[str, tuple[Expr, ...]]:
    global _DEFAULT_RULES
    if _DEFAULT_RULES is None:
        _DEFAULT_RULES = build_rule_table()
    return _DEFAULT_RULES


def _diff_poly(poly: dict, gen_rules: tuple[Expr, ...]) -> tuple[dict, dict]:
    """sum_i (dP/dg_i) * rule_i as a pair (num, den) of Gaussian-integer
    polynomials, each partial formed as a polynomial first, so a rule's
    denominator enters the sum once per generator, not per monomial.  The
    pair is Expr arithmetic's sum up to a common scalar, with den reset to 1
    where the sum cancels, as _canonical resets it.  A generator that no
    monomial holds is skipped: the fields of the monomials' OR are the ORs
    of their exponents, since an OR never carries between fields."""
    acc, acc_den = {}, _UNIT_DEN
    held = reduce(or_, poly, 0)
    for gi, rule in enumerate(gen_rules):
        shift = _SHIFT[gi]
        if not (rule._num and held >> shift & _MASK):
            continue
        one = 1 << shift
        partial = {}  # lowering g_i is one-to-one, so no two terms collide
        for mono, (a, b) in poly.items():
            e = mono >> shift & _MASK
            if e:
                partial[mono - one] = (a * e, b * e)
        term = _p_mul(partial, rule._num)
        if not acc:
            acc, acc_den = term, rule._den
            continue
        acc = _p_add(_p_mul(acc, rule._den), _p_mul(term, acc_den))
        acc_den = _p_mul(acc_den, rule._den) if acc else _UNIT_DEN
    return acc, acc_den


def _keeps_constants(gen_rules: tuple[Expr, ...]) -> bool:
    """pi's rule is zero and every rule denominator is a polynomial in pi
    alone, so a polynomial in pi stays constant and so does a product of
    rule denominators."""
    return not gen_rules[_PI]._num and not any(
        mono >> _FIELD for r in gen_rules for mono in r._den)  # a field above pi's


def _differentiate_with(e: Expr, gen_rules: tuple[Expr, ...]) -> Expr:
    """The quotient rule on the pairs of _diff_poly, canonicalized once; each
    product is taken in the order Expr arithmetic takes it, so the terms keep
    its order and eval_expr sums them the same way.

    With e = N/(c F^k) and c' = 0 the rule reads (N'F - k N F')/(c F^(k+1)),
    and the result records (F, k+1).  That needs a table that keeps
    constants; under any other, F is e's denominator and k = 1, the full
    quotient rule, and the result records nothing."""
    keeps = _keeps_constants(gen_rules)
    base = e._base if keeps else None
    f, k = base or (e._den, 1)
    dn, dn_den = _diff_poly(e._num, gen_rules)
    df, df_den = _diff_poly(f, gen_rules)
    if not df:  # constant denominator: no quotient rule, no new factor F
        return Expr._new(dn, _p_mul(dn_den, e._den), base)
    ndf = _p_mul(_p_mul(e._num, df), {_UNIT_MONO: (k, 0)})
    num = _p_add(_p_mul(_p_mul(dn, f), df_den), _p_neg(_p_mul(ndf, dn_den)))
    den = _p_mul(_p_mul(dn_den, df_den), _p_mul(e._den, f))
    return Expr._new(num, den, (f, k + 1) if keeps else None)


def _rules_for(table: dict, var: str) -> tuple[Expr, ...]:
    """table[var] if it is NGEN Expr rules, one per generator; else ValueError."""
    gen_rules = table.get(var) if isinstance(table, dict) else None
    if not (isinstance(gen_rules, (tuple, list)) and len(gen_rules) == NGEN
            and all(isinstance(r, Expr) for r in gen_rules)):
        raise ValueError(f"rules[{var!r}] must be {NGEN} Expr rules, one per generator")
    return gen_rules


def differentiate(e: Expr, var: str, rules: dict[str, tuple[Expr, ...]] | None = None) -> Expr:
    """Exact derivative of e with respect to 'z' or 'tau'; closed over Expr.
    ValueError for any other var, or a rules table without NGEN Expr rules
    for var."""
    if var not in ("z", "tau"):
        raise ValueError(f"var must be 'z' or 'tau', got {var!r}")
    table = rules if rules is not None else default_rule_table()
    return _differentiate_with(e, _rules_for(table, var))


# ---------------------------------------------------------------------------
# Numeric evaluation and the finite-difference referee.


def eval_expr(
    e: Expr,
    tau: complex,
    z: complex | None = None,
) -> complex:
    """Evaluate an Expr by binding the generators to the anywhere-evaluators'
    values, read off the shared Lattice of tau (reduction._tau_lattice):
    one kept q-series pass at z serves wp, wp1 and zeta, and E2, E4 and E6
    are summed once per tau if used.

    z may be omitted for expressions that do not mention z, wp, wp1, or zeta.
    Raises ValueError unless Im(tau) > 0, whatever generators e uses,
    NearSingular if the denominator lands below 1e-12 in magnitude and
    NonFiniteValue if the value overflows.
    """
    used = e.used_generators()
    vals: list[complex] = [0j] * NGEN
    needs_z = used & {0, 2, 3, 4}
    if needs_z and z is None:
        raise ValueError("expression depends on z but no z was supplied")
    vals[1] = require_upper_half(tau)
    vals[8] = complex(math.pi)
    if 0 in used:
        vals[0] = complex(z)  # type: ignore[arg-type]
    if used & {2, 3, 4, 5, 6, 7}:
        lat = _tau_lattice(vals[1])
    if 2 in used:
        vals[2] = lat.wp(z).value
    if 3 in used:
        vals[3] = lat.wp_prime(z).value
    if 4 in used:
        vals[4] = lat.zeta(z).value
    if 5 in used:
        vals[5] = lat.e2()
    if 6 in used:
        vals[6] = lat.e4()
    if 7 in used:
        vals[7] = lat.e6()
    n = e._lead()
    num_terms, den_terms = e._compiled()
    try:
        den = _p_eval(den_terms, n, vals)
        num = _p_eval(num_terms, n, vals)
    except OverflowError as exc:  # complex ** overflows by raising
        raise NonFiniteValue(f"expression overflows at tau = {tau}, z = {z}") from exc
    if abs(den) < _SINGULAR_FLOOR:
        raise NearSingular(f"denominator magnitude {abs(den):.3e} below {_SINGULAR_FLOOR}")
    return ensure_finite(num / den, "expression")


def fd_check(
    e: Expr,
    var: str,
    tau: complex,
    z: complex | None = None,
    h: float = 1e-4,
    rules: dict[str, tuple[Expr, ...]] | None = None,
) -> float:
    """Relative residual between the symbolic derivative and a Richardson
    finite difference with step h: |fd - sym| / max(1, |sym|).  Both are
    eval_expr, so in z all five evaluations share one Lattice of tau."""
    if not 1e-6 <= h <= 1e-3:
        raise ValueError(f"h must lie in [1e-6, 1e-3], got {h}")
    if var == "z":
        if z is None:
            raise ValueError("z must be given to difference in z")
        f = lambda offset: eval_expr(e, tau, z + offset)
    else:
        f = lambda offset: eval_expr(e, tau + offset, z)
    sym = eval_expr(differentiate(e, var, rules), tau, z)

    def central(step: float) -> complex:
        return (f(step) - f(-step)) / (2.0 * step)

    fd = (4.0 * central(h / 2.0) - central(h)) / 3.0
    return abs(fd - sym) / max(1.0, abs(sym))


# ---------------------------------------------------------------------------
# Text serialization: fully parenthesized infix, exact rationals, pi and I
# as literal tokens.  parse(expr_to_text(e)) == e on normalized forms.


def _frac_text(p: int, n: int) -> str:
    g = math.gcd(p, n)
    p, n = p // g, n // g
    if n == 1:
        return str(p)
    return f"({p}/{n})"


def _coef_text(a: int, b: int, n: int) -> str:
    if b == 0:
        return _frac_text(a, n)
    if a == 0:
        return "I" if b == n else f"({_frac_text(b, n)}*I)"
    return f"({_frac_text(a, n)}+({_frac_text(b, n)}*I))"


def _left_nested(parts: list[str], op: str) -> str:
    """((p0 op p1) op p2)..., joined once rather than rebuilt per part."""
    if len(parts) == 1:
        return parts[0]
    return "(" * (len(parts) - 1) + parts[0] + op + f"){op}".join(parts[1:]) + ")"


class _PowerText(dict):
    """The text of a generator power (k, e), name or (name^e), made in advance
    up to e = 16; a higher power's is formed on each miss and not kept."""

    def __missing__(self, factor: tuple) -> str:
        return f"({GEN_NAMES[factor[0]]}^{factor[1]})"


_POWER_TEXT = _PowerText({(k, e): name if e == 1 else f"({name}^{e})"
                          for k, name in enumerate(GEN_NAMES) for e in range(1, 17)})


def _poly_text(terms: tuple, n: int) -> str:
    """The compiled polynomial terms / n, the highest monomial first, each
    coefficient in lowest terms and each term left-nested over '*'; a
    coefficient 1 is left out of a term with generators."""
    if not terms:
        return "0"
    power = _POWER_TEXT.__getitem__
    texts = []
    for _, a, b, factors in sorted(terms, key=itemgetter(0), reverse=True):
        negative = a < 0 or (a == 0 and b < 0)
        if negative:
            a, b = -a, -b
        k = len(factors)
        if not k:
            body = _coef_text(a, b, n)
        elif b or a != n:
            body = "(" * k + _coef_text(a, b, n) + "*" + ")*".join(map(power, factors)) + ")"
        elif k == 1:
            body = power(factors[0])
        else:
            body = "(" * (k - 1) + power(factors[0]) + "*" + ")*".join(map(power, factors[1:])) + ")"
        texts.append(f"-({body})" if negative else body)
    return _left_nested(texts, "+")


def expr_to_text(e: Expr) -> str:
    n = e._lead()
    num_terms, den_terms = e._compiled()
    num_s = _poly_text(num_terms, n)
    if e._den == {_UNIT_MONO: (n, 0)}:  # the denominator is 1
        return num_s
    return f"({num_s}/{_poly_text(den_terms, n)})"


# The parser's values are raw quotients (num, den, bits, own).  num and den
# are Gaussian-integer polynomials formed by the products and sums Expr
# arithmetic takes, but never canonicalized: each pair is a nonzero scalar
# multiple of the Expr that arithmetic would hold at that point, with the same
# keys in the same order, so one _canonical at the end gives that Expr.  A
# numerator that cancels to zero takes _UNIT_DEN as its denominator, as
# _canonical gives it.  bits bounds the bit length of every coefficient
# component of num and den.  own is True when num was made by the parser and
# nothing else holds it, so a sum may add into it in place.
_TOKEN = re.compile(r"[0-9]+|\w+|\S", re.ASCII)
_ATOMS = {name: ({1 << _SHIFT[k]: (1, 0)}, _UNIT_DEN, 1, False) for k, name in enumerate(GEN_NAMES)}
_ATOMS["I"] = ({_UNIT_MONO: (0, 1)}, _UNIT_DEN, 1, False)
_RAW_ZERO = ({}, _UNIT_DEN, 1, False)
_RAW_ONE = ({_UNIT_MONO: (1, 0)}, _UNIT_DEN, 1, False)


def _is_int(tok: str) -> bool:
    """An INT of the grammar: ASCII digits only, where str.isdigit also takes
    the other scripts' digits and superscripts."""
    return tok.isdigit() and tok.isascii()


def _int_den(den: dict) -> int:
    """d when den is the constant polynomial d, a positive integer; else 0."""
    if len(den) == 1:
        c = den.get(_UNIT_MONO)
        if c is not None and not c[1] and c[0] > 0:
            return c[0]
    return 0


def _raw_sum(a: tuple, b: tuple, negate: bool) -> tuple:
    """a + b, or a - b when negate.  Over two positive integer denominators
    the numerators fold by their lcm, b's terms added into a's numerator,
    in place when the parser owns it and the lcm is a's denominator;
    Expr.__add__ would give the same keys in the same order.  Any other pair
    is canonicalized first, so a common scalar its pairs carry does not
    multiply up from sum to sum, and cross-multiplies as Expr.__add__ does."""
    an, ad, abits, own = a
    bn, bd, bbits, _ = b
    da = 1 if ad is _UNIT_DEN else _int_den(ad)
    db = 1 if bd is _UNIT_DEN else _int_den(bd)
    if da and db:
        lcm = da if da == db else math.lcm(da, db)
        fa, fb = lcm // da, lcm // db
        if fa == 1:
            num = an if own else dict(an)
        else:
            num = {mono: (x * fa, y * fa) for mono, (x, y) in an.items()}
        if negate:
            fb = -fb
        for mono, (x, y) in bn.items():
            x, y = x * fb, y * fb
            s = num.get(mono)
            if s is not None:
                x += s[0]
                y += s[1]
                if not (x or y):
                    del num[mono]
                    continue
            num[mono] = (x, y)
        den = ad if fa == 1 else {_UNIT_MONO: (lcm, 0)}
        bits = max(abits + fa.bit_length(), bbits + fb.bit_length()) + 1
    else:
        (an, ad), (bn, bd) = _canonical(an, ad), _canonical(bn, bd)
        products = len(an) * len(bd) + len(bn) * len(ad) + len(ad) * len(bd)
        num = _p_add(_p_mul(an, bd), _p_mul(_p_neg(bn) if negate else bn, ad))
        den = _p_mul(ad, bd)
        bits = _bits(an, ad) + _bits(bn, bd) + 1 + products.bit_length()
    return (num, den, bits, True) if num else _RAW_ZERO


def _raw_product(a: tuple, b: tuple, divide: bool) -> tuple:
    """a * b, or a / b when divide, as Expr.__mul__ and Expr.__truediv__ form
    it, refused as a power step is.  The bit check is judged on canonical
    operands: the raw ones may carry a common scalar that canonical form
    drops, so they are canonicalized, and checked again, only when the bound
    and then the exact count on the raw ones fail."""
    an, ad, abits, _ = a
    bn, bd, bbits, _ = b
    if divide:
        if not bn:
            raise ZeroDivisionError("division by zero expression")
        products = max(_term_products(an, bd), _term_products(ad, bn))
    else:
        products = max(_term_products(an, bn), _term_products(ad, bd))
    bits = abits + bbits
    if bits > _POWER_BITS:
        bits = _bits(an, ad) + _bits(bn, bd)
        if bits > _POWER_BITS:
            (an, ad), (bn, bd) = _canonical(an, ad), _canonical(bn, bd)
            bits = _bits(an, ad) + _bits(bn, bd)
    _check_budget("product", products, bits)
    if divide:
        bn, bd = bd, bn
    num = _p_mul(an, bn)
    den = _p_mul(ad, bd)
    if not num:
        return _RAW_ZERO
    return num, den, bits + 1 + products.bit_length(), num is not an and num is not bn


def _raw_power(atom: tuple, exponent: int, gen: int | None) -> tuple:
    """atom ** exponent.  A bare generator (gen, its index) is one shifted
    monomial; any other atom is canonicalized and raised by Expr.__pow__,
    with its checks."""
    if gen is None:
        e = Expr._new(atom[0], atom[1]) ** exponent
        return e._num, e._den, _bits(e._num, e._den), False
    if not exponent:
        return _RAW_ONE
    if abs(exponent) > _MAX_EXPONENT:
        raise _overflow((_MAX_EXPONENT + 1) << _SHIFT[gen])
    mono = {abs(exponent) << _SHIFT[gen]: (1, 0)}
    return (mono, _UNIT_DEN, 1, True) if exponent > 0 else (_RAW_ONE[0], mono, 1, False)


# The operator stack holds (precedence, function, flag) entries: the binary
# operators, _SIGN for a pending unary minus, which binds looser than '^' and
# tighter than '*', and two entries that bind nothing, _OPEN for '(' and
# _BOTTOM under them all.
_BINARY = {"+": (0, _raw_sum, False), "-": (0, _raw_sum, True),
           "*": (1, _raw_product, False), "/": (1, _raw_product, True)}
_SIGN = (2, None, None)
_OPEN = (-1, None, None)
_BOTTOM = (-2, None, None)


def _reduce(values: list, ops: list, prec: int) -> None:
    """Apply the stacked operators that bind at least as tightly as prec."""
    while ops[-1][0] >= prec:
        op = ops.pop()
        if op is _SIGN:
            num, den, bits, _ = values[-1]
            values[-1] = (_p_neg(num), den, bits, True)
        else:
            rhs = values.pop()
            values[-1] = op[1](values[-1], rhs, op[2])


def _parse(text: str) -> tuple:
    """One pass over the tokens with a value stack and an operator stack, for

        expr  := term (('+' | '-') term)*
        term  := unary (('*' | '/') unary)*
        unary := ('+' | '-')* atom ('^' '-'? INT)?
        atom  := INT | NAME | '(' expr ')'

    INT is ASCII digits.  Binary operators are left-associative.  A sign binds
    looser than '^' and tighter than '*', so -wp^2 is -(wp^2) and -wp*zeta is
    (-wp)*zeta.  Nothing recurses, so the nesting depth is unbounded.  The
    result is a raw quotient."""
    values: list[tuple] = []
    ops: list[tuple] = [_BOTTOM]
    operand = True  # an atom, a sign or '(' comes next
    base = None  # the token of the atom a '^' would raise, None once raised
    tokens = _TOKEN.findall(text)
    k, n = 0, len(tokens)
    while k < n:
        tok = tokens[k]
        k += 1
        if operand:
            if tok == "(":
                ops.append(_OPEN)
            elif tok == "-":
                if ops[-1] is _SIGN:  # two signs cancel
                    ops.pop()
                else:
                    ops.append(_SIGN)
            elif tok != "+":
                atom = _ATOMS.get(tok)
                if atom is None:
                    if not _is_int(tok):
                        raise ValueError(f"unexpected {tok!r} at token {k}")
                    v = int(tok)
                    atom = (({_UNIT_MONO: (v, 0)}, _UNIT_DEN, v.bit_length(), True) if v
                            else _RAW_ZERO)
                values.append(atom)
                operand = False
                base = tok
        elif tok in _BINARY:
            op = _BINARY[tok]
            _reduce(values, ops, op[0])
            ops.append(op)
            operand = True
        elif tok == ")":
            _reduce(values, ops, 0)
            if ops.pop() is not _OPEN:
                raise ValueError(f"unmatched ')' at token {k}")
            base = tok
        elif tok == "^" and base:
            sign = 1
            if k < n and tokens[k] == "-":
                sign, k = -1, k + 1
            if k >= n or not _is_int(tokens[k]):
                raise ValueError("exponent must be an integer literal")
            values[-1] = _raw_power(values[-1], sign * int(tokens[k]), _GEN_INDEX.get(base))
            k += 1
            base = None
        else:
            raise ValueError(f"unexpected {tok!r} at token {k}")
    if operand:
        raise ValueError("unexpected end of expression")
    _reduce(values, ops, 0)
    if len(ops) > 1:
        raise ValueError("expected ')'")
    return values[0]


def parse_expr(text: str) -> Expr:
    """Parse the textual expression language back into a normalized Expr.

    Malformed text, a division by an expression that is zero, and a power or
    product whose expansion would pass _POWER_BUDGET or _POWER_BITS raise
    ValueError."""
    try:
        num, den, _, _ = _parse(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"division by zero in {text!r}") from exc
    return Expr._new(num, den)
