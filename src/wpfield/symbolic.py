"""Exact rational-function calculus over the elliptic generator set.

An Expr is a quotient of polynomials in the generators

    z, tau, wp, wp1, zeta, E2, E4, E6, pi

with Gaussian-rational coefficients (pi is carried as a formal symbol, so every
coefficient stays exact).  The set is closed under d/dz and d/dtau:

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
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import ensure_finite
from .errors import NearSingular, NonFiniteValue
from .reduction import (
    e2_anywhere,
    e4_anywhere,
    e6_anywhere,
    wp_anywhere,
    wp_prime_anywhere,
    zeta_anywhere,
)

GEN_NAMES = ("z", "tau", "wp", "wp1", "zeta", "E2", "E4", "E6", "pi")
NGEN = len(GEN_NAMES)
_GEN_INDEX = {name: k for k, name in enumerate(GEN_NAMES)}
_UNIT_MONO = (0,) * NGEN

_SINGULAR_FLOOR = 1e-12

# ---------------------------------------------------------------------------
# Gaussian-rational coefficients as (real, imag) Fraction pairs.

_C_ZERO = (Fraction(0), Fraction(0))
_C_ONE = (Fraction(1), Fraction(0))


def _c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _c_neg(a):
    return (-a[0], -a[1])


def _c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _c_inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    if n == 0:
        raise ZeroDivisionError("zero coefficient")
    return (a[0] / n, -a[1] / n)


def _c_is_zero(a) -> bool:
    return a[0] == 0 and a[1] == 0


# ---------------------------------------------------------------------------
# Polynomials: dict mapping exponent tuples to coefficients.


def _p_add(p, q):
    out = dict(p)
    for mono, c in q.items():
        s = _c_add(out.get(mono, _C_ZERO), c)
        if _c_is_zero(s):
            out.pop(mono, None)
        else:
            out[mono] = s
    return out


def _p_neg(p):
    return {mono: _c_neg(c) for mono, c in p.items()}


def _p_mul(p, q):
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            s = _c_add(out.get(mono, _C_ZERO), _c_mul(c1, c2))
            if _c_is_zero(s):
                out.pop(mono, None)
            else:
                out[mono] = s
    return out


def _p_scale(p, c):
    if _c_is_zero(c):
        return {}
    return {mono: _c_mul(coef, c) for mono, coef in p.items()}


def _p_eval(p, vals) -> complex:
    total = 0j
    for mono, (re, im) in p.items():
        term = complex(float(re), float(im))
        for v, e in zip(vals, mono):
            if e:
                term *= v**e
        total += term
    return total


class Expr:
    """A normalized quotient of generator polynomials with exact coefficients.

    Normalization is light: zero terms dropped, and both sides divided by the
    denominator's leading coefficient (no polynomial gcd).  Equality is
    structural on the normalized form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: dict) -> None:
        num = {m: c for m, c in num.items() if not _c_is_zero(c)}
        den = {m: c for m, c in den.items() if not _c_is_zero(c)}
        if not den:
            raise ZeroDivisionError("zero denominator polynomial")
        if not num:
            self.num = {}
            self.den = {_UNIT_MONO: _C_ONE}
            return
        lead = den[max(den)]
        if lead != _C_ONE:
            inv = _c_inv(lead)
            num = _p_scale(num, inv)
            den = _p_scale(den, inv)
            den[max(den)] = _C_ONE  # exact by construction; re-pin against drift
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, re: Fraction | int, im: Fraction | int = 0) -> "Expr":
        c = (Fraction(re), Fraction(im))
        return cls({_UNIT_MONO: c}, {_UNIT_MONO: _C_ONE})

    @classmethod
    def generator(cls, name: str) -> "Expr":
        idx = _GEN_INDEX[name]
        mono = tuple(1 if k == idx else 0 for k in range(NGEN))
        return cls({mono: _C_ONE}, {_UNIT_MONO: _C_ONE})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def used_generators(self) -> set[int]:
        used: set[int] = set()
        for poly in (self.num, self.den):
            for mono in poly:
                for k, e in enumerate(mono):
                    if e:
                        used.add(k)
        return used

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Expr":
        if isinstance(x, Expr):
            return x
        if isinstance(x, (int, Fraction)):
            return Expr.constant(Fraction(x))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        num = _p_add(_p_mul(self.num, other.den), _p_mul(other.num, self.den))
        return Expr(num, _p_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return Expr(_p_neg(self.num), self.den)

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
        return Expr(_p_mul(self.num, other.num), _p_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero expression")
        return Expr(_p_mul(self.num, other.den), _p_mul(self.den, other.num))

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
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            other = Expr._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(
            (
                frozenset(self.num.items()),
                frozenset(self.den.items()),
            )
        )

    def __str__(self) -> str:
        return expr_to_text(self)

    def __repr__(self) -> str:
        return f"Expr[{expr_to_text(self)}]"


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


def _diff_poly(poly: dict, gen_rules: tuple[Expr, ...]) -> Expr:
    """sum_i (dP/dg_i) * rule_i, each partial formed as a polynomial first, so
    a rule's denominator enters the sum once per generator, not per monomial."""
    total = ZERO
    for gi, rule in enumerate(gen_rules):
        if rule.is_zero():
            continue
        partial = {}  # lowering g_i is one-to-one, so no two terms collide
        for mono, coef in poly.items():
            e = mono[gi]
            if e:
                lowered = mono[:gi] + (e - 1,) + mono[gi + 1 :]
                partial[lowered] = _c_mul(coef, (Fraction(e), Fraction(0)))
        if partial:
            total = total + Expr(partial, {_UNIT_MONO: _C_ONE}) * rule
    return total


def _differentiate_with(e: Expr, gen_rules: tuple[Expr, ...]) -> Expr:
    dn = _diff_poly(e.num, gen_rules)
    dd = _diff_poly(e.den, gen_rules)
    den_e = Expr(e.den, {_UNIT_MONO: _C_ONE})
    if dd.is_zero():  # constant denominator: no quotient rule, no squaring
        return dn / den_e
    num_e = Expr(e.num, {_UNIT_MONO: _C_ONE})
    return (dn * den_e - num_e * dd) / (den_e * den_e)


def differentiate(e: Expr, var: str, rules: dict[str, tuple[Expr, ...]] | None = None) -> Expr:
    """Exact derivative of e with respect to 'z' or 'tau'; closed over Expr."""
    if var not in ("z", "tau"):
        raise ValueError(f"var must be 'z' or 'tau', got {var!r}")
    table = rules if rules is not None else default_rule_table()
    return _differentiate_with(e, table[var])


# ---------------------------------------------------------------------------
# Numeric evaluation and the finite-difference referee.


def eval_expr(
    e: Expr,
    tau: complex,
    z: complex | None = None,
) -> complex:
    """Evaluate an Expr by binding the generators to the anywhere-evaluators.

    z may be omitted for expressions that do not mention z, wp, wp1, or zeta.
    Raises NearSingular if the denominator lands below 1e-12 in magnitude and
    NonFiniteValue if the value overflows.
    """
    used = e.used_generators()
    vals: list[complex] = [0j] * NGEN
    needs_z = used & {0, 2, 3, 4}
    if needs_z and z is None:
        raise ValueError("expression depends on z but no z was supplied")
    vals[1] = complex(tau)
    vals[8] = complex(math.pi)
    if 0 in used:
        vals[0] = complex(z)  # type: ignore[arg-type]
    if 2 in used:
        vals[2] = wp_anywhere(tau, z).value
    if 3 in used:
        vals[3] = wp_prime_anywhere(tau, z).value
    if 4 in used:
        vals[4] = zeta_anywhere(tau, z).value
    if 5 in used:
        vals[5] = e2_anywhere(tau)
    if 6 in used:
        vals[6] = e4_anywhere(tau)
    if 7 in used:
        vals[7] = e6_anywhere(tau)
    try:
        den = _p_eval(e.den, vals)
        num = _p_eval(e.num, vals)
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
    finite difference with step h: |fd - sym| / max(1, |sym|)."""
    if not 1e-6 <= h <= 1e-3:
        raise ValueError(f"h must lie in [1e-6, 1e-3], got {h}")
    sym = eval_expr(differentiate(e, var, rules), tau, z)

    if var == "z":
        if z is None:
            raise ValueError("z must be given to difference in z")
        f = lambda offset: eval_expr(e, tau, z + offset)
    else:
        f = lambda offset: eval_expr(e, tau + offset, z)

    def central(step: float) -> complex:
        return (f(step) - f(-step)) / (2.0 * step)

    fd = (4.0 * central(h / 2.0) - central(h)) / 3.0
    return abs(fd - sym) / max(1.0, abs(sym))


# ---------------------------------------------------------------------------
# Text serialization: fully parenthesized infix, exact rationals, pi and I
# as literal tokens.  parse(expr_to_text(e)) == e on normalized forms.


def _frac_text(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"({f.numerator}/{f.denominator})"


def _coef_factors(re: Fraction, im: Fraction, have_gens: bool) -> list[str]:
    if im == 0:
        if re == 1 and have_gens:
            return []
        return [_frac_text(re)]
    if re == 0:
        if im == 1:
            return ["I"]
        return [f"({_frac_text(im)}*I)"]
    return [f"({_frac_text(re)}+({_frac_text(im)}*I))"]


def _term_text(mono: tuple, coef) -> str:
    re, im = coef
    negative = re < 0 or (re == 0 and im < 0)
    if negative:
        re, im = -re, -im
    factors = _coef_factors(re, im, any(mono))
    for gi, e in enumerate(mono):
        if e == 0:
            continue
        name = GEN_NAMES[gi]
        factors.append(name if e == 1 else f"({name}^{e})")
    if not factors:
        body = "1"
    else:
        body = factors[0]
        for f in factors[1:]:
            body = f"({body}*{f})"
    return f"-({body})" if negative else body


def _poly_text(poly: dict) -> str:
    if not poly:
        return "0"
    terms = [_term_text(m, poly[m]) for m in sorted(poly, reverse=True)]
    out = terms[0]
    for t in terms[1:]:
        out = f"({out}+{t})"
    return out


def expr_to_text(e: Expr) -> str:
    num_s = _poly_text(e.num)
    if e.den == {_UNIT_MONO: _C_ONE}:
        return num_s
    return f"({num_s}/{_poly_text(e.den)})"


class _Tokenizer:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def next(self) -> tuple[str, str] | None:
        t = self.text
        n = len(t)
        while self.pos < n and t[self.pos].isspace():
            self.pos += 1
        if self.pos >= n:
            return None
        ch = t[self.pos]
        if ch in "+-*/^()":
            self.pos += 1
            return ("op", ch)
        if ch.isdigit():
            start = self.pos
            while self.pos < n and t[self.pos].isdigit():
                self.pos += 1
            return ("int", t[start : self.pos])
        if ch.isalpha():
            start = self.pos
            while self.pos < n and (t[self.pos].isalnum() or t[self.pos] == "_"):
                self.pos += 1
            return ("name", t[start : self.pos])
        raise ValueError(f"unexpected character {ch!r} at {self.pos}")


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*;
    term := unary (('*'|'/') unary)*; unary := ('-'|'+') unary | power;
    power := atom ('^' exponent)?; atom := INT | NAME | '(' expr ')'."""

    def __init__(self, text: str) -> None:
        tok = _Tokenizer(text)
        self.tokens: list[tuple[str, str]] = []
        while True:
            t = tok.next()
            if t is None:
                break
            self.tokens.append(t)
        self.k = 0

    def _peek(self) -> tuple[str, str] | None:
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def _take(self) -> tuple[str, str]:
        t = self._peek()
        if t is None:
            raise ValueError("unexpected end of expression")
        self.k += 1
        return t

    def parse(self) -> Expr:
        e = self._expr()
        if self._peek() is not None:
            raise ValueError(f"trailing input at token {self.k}")
        return e

    def _expr(self) -> Expr:
        e = self._term()
        while True:
            t = self._peek()
            if t == ("op", "+"):
                self._take()
                e = e + self._term()
            elif t == ("op", "-"):
                self._take()
                e = e - self._term()
            else:
                return e

    def _term(self) -> Expr:
        e = self._unary()
        while True:
            t = self._peek()
            if t == ("op", "*"):
                self._take()
                e = e * self._unary()
            elif t == ("op", "/"):
                self._take()
                e = e / self._unary()
            else:
                return e

    def _unary(self) -> Expr:
        t = self._peek()
        if t == ("op", "-"):
            self._take()
            return -self._unary()
        if t == ("op", "+"):
            self._take()
            return self._unary()
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        if self._peek() == ("op", "^"):
            self._take()
            sign = 1
            if self._peek() == ("op", "-"):
                self._take()
                sign = -1
            kind, text = self._take()
            if kind != "int":
                raise ValueError("exponent must be an integer literal")
            return base ** (sign * int(text))
        return base

    def _atom(self) -> Expr:
        kind, text = self._take()
        if kind == "int":
            return Expr.constant(int(text))
        if kind == "name":
            if text == "I":
                return I
            if text in _GEN_INDEX:
                return Expr.generator(text)
            raise ValueError(f"unknown symbol {text!r}")
        if (kind, text) == ("op", "("):
            e = self._expr()
            closing = self._take()
            if closing != ("op", ")"):
                raise ValueError("expected ')'")
            return e
        raise ValueError(f"unexpected token {text!r}")


def parse_expr(text: str) -> Expr:
    """Parse the textual expression language back into a normalized Expr."""
    return _Parser(text).parse()
