"""Exact symbolic layer: arithmetic, derivative closure, serialization."""

import hashlib
import math
import operator
import random
import re
import sys
import threading
import time
from fractions import Fraction

import pytest

from wpfield import symbolic
from wpfield.errors import NearSingular, NonFiniteValue, WPFieldError
from wpfield.reduction import invariants_anywhere
from wpfield.symbolic import (
    E2,
    E4,
    E6,
    GEN_NAMES,
    I,
    ONE,
    PI,
    TAU,
    WP,
    WP1,
    Z,
    ZERO,
    ZETA,
    Expr,
    build_rule_table,
    default_rule_table,
    delta_expr,
    differentiate,
    eval_expr,
    expr_to_text,
    fd_check,
    g2_expr,
    g3_expr,
    parse_expr,
    rational,
)
from wpfield.verify import run_identity_suite

TAU0 = complex(0.13, 1.21)
Z0 = complex(0.31, 0.42)


# --- arithmetic and normalization --------------------------------------------


def test_square_expands():
    assert (Z + ONE) ** 2 == Z * Z + rational(2) * Z + ONE


def test_power_takes_no_unused_square(monkeypatch):
    # square-and-multiply: one product per set bit after the first, one
    # square per bit after the first, and no square past the last bit
    calls = []
    product = symbolic._power_product

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(symbolic, "_power_product", counted)
    base = Z + WP
    for n in range(1, 10):
        calls.clear()
        want = base
        for _ in range(n - 1):
            want = want * base
        assert base**n == want
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1")


def test_power_past_the_budget_is_refused():
    # (pi-E4)^-2112 in full did not finish within 5 s; the squaring of the
    # 257-term (pi-E4)^256 would pass the budget
    with pytest.raises(ValueError, match="power too large"):
        (PI - E4) ** 2112
    with pytest.raises(ValueError, match="power too large"):
        parse_expr("--+(pi-E4)^-2112")
    assert len(((PI - E4) ** 200)._num) == 201


def test_power_with_huge_coefficients_is_refused():
    # the term budget passes a constant: 3^10000000 took 5.1 s to square out,
    # and 3^100000000 did not finish in 114 s
    for text in ("3^10000000", "3^100000000"):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="power too large"):
            parse_expr(text)
        assert time.perf_counter() - t0 < 1.0, text
    # a power of 4295 digits, within the 4300 that str(int) prints, parses
    assert len(expr_to_text(parse_expr("3^9000"))) == 4295


def test_power_zero_and_negative():
    assert WP**0 == ONE
    assert WP**-1 == ONE / WP
    # quotients are kept as-is (no gcd cancellation), so compare by difference
    assert ((WP**-2) * WP * WP - ONE).is_zero()


def test_subtraction_cancels():
    e = WP * WP1 - WP1 * WP
    assert e.is_zero()


def test_division_normalizes_leading_coefficient():
    a = (rational(2) * WP) / (rational(4) * WP1)
    b = WP / (rational(2) * WP1)
    assert a == b


def test_no_gcd_cancellation_but_numeric_agreement():
    # normalization is light: quotients are not reduced to lowest terms
    quot = (WP * WP - ONE) / (WP - ONE)
    plain = WP + ONE
    assert quot != plain
    diff = eval_expr(quot, TAU0, Z0) - eval_expr(plain, TAU0, Z0)
    assert abs(diff) < 1e-12


def test_structural_hash():
    assert len({Z + ONE, ONE + Z, Z + ONE}) == 1


def test_complex_rational_coefficients():
    e = (ONE + I) * (ONE - I)
    assert e == rational(2)


# --- packed monomials ----------------------------------------------------------


def test_packed_monomials_round_trip_in_tuple_order():
    rng = random.Random("packed monomials")
    top = symbolic._MAX_EXPONENT
    tuples = [tuple(rng.choice((0, 0, 1, 2, rng.randrange(top + 1), top)) for _ in GEN_NAMES)
              for _ in range(2000)]
    packed = [symbolic._pack(t) for t in tuples]
    assert [symbolic._unpack(m) for m in packed] == tuples
    assert sorted(packed) == [symbolic._pack(t) for t in sorted(tuples)]
    # a product is one add, and sets a guard bit exactly when it passes the cap
    for (a, ma), (b, mb) in zip(zip(tuples, packed), zip(tuples[1:], packed[1:])):
        exponents = tuple(x + y for x, y in zip(a, b))
        if max(exponents) <= top:
            assert not (ma + mb) & symbolic._GUARD
            assert ma + mb == symbolic._pack(exponents)
        else:
            assert (ma + mb) & symbolic._GUARD


def test_exponents_are_capped_at_2_to_the_31_minus_1():
    top = parse_expr("wp^2147483647")
    assert expr_to_text(top) == "(wp^2147483647)"
    assert parse_expr(expr_to_text(top)) == top
    assert differentiate(top, "z") == 2147483647 * WP**2147483646 * WP1
    for text in ("wp^2147483648", "(wp^2147483647)*wp", "wp^-2147483648"):
        with pytest.raises(ValueError, match="exponent above 2147483647"):
            parse_expr(text)
    unit = (0,) * len(GEN_NAMES)
    for bad in ((0, 0, -1, 0, 0, 0, 0, 0, 0), (0, 0, 2**31, 0, 0, 0, 0, 0, 0), (0, 0, 1)):
        with pytest.raises(ValueError, match="exponents must be"):
            Expr({bad: (1, 0)}, {unit: (1, 0)})
        with pytest.raises(ValueError, match="exponents must be"):
            Expr({unit: (1, 0)}, {bad: (1, 0)})


# --- canonical form -------------------------------------------------------------

_SCALARS = [rational(2, 3), ONE + I, -I, rational(7, 5) + rational(3, 4) * I]
_QUOTIENTS = [
    (WP * ZETA + 3 * E2, E4**2 + rational(1, 3)),
    (Z * E6 + 2 * ZETA, Z**2 + rational(1, 2)),
    (WP1, I * WP + 2),
    (PI * E2 - TAU, (ONE + I) * WP1**2 - rational(5, 7) * E6),
]


@pytest.mark.parametrize("c", _SCALARS, ids=str)
@pytest.mark.parametrize("a, b", _QUOTIENTS, ids=str)
def test_common_scalar_cancels(a, b, c):
    assert (c * a) / (c * b) == a / b
    assert hash((c * a) / (c * b)) == hash(a / b)


@pytest.mark.parametrize("a, b", _QUOTIENTS, ids=str)
def test_num_den_view_round_trips(a, b):
    e = a / b
    assert Expr(e.num, e.den) == e
    assert Expr(a.num, ONE.den) == a
    lead = e.den[max(e.den)]
    assert lead == (Fraction(1), Fraction(0))
    assert all(type(x) is Fraction for c in (*e.num.values(), *e.den.values()) for x in c)


def test_reflected_arithmetic_with_numbers():
    assert 1 - WP == ONE - WP
    assert 2 / WP == rational(2) / WP
    # no polynomial gcd: (2/wp)*wp is wp*2/wp, structurally not 2
    assert (2 / WP) * WP != 2
    assert ((2 / WP) * WP - 2).is_zero()


def test_comparison_with_other_types():
    assert ONE == 1
    assert WP != "wp"


@pytest.mark.parametrize(
    "op",
    [lambda: WP + 0.5, lambda: WP**0.5, lambda: "x" / WP],
    ids=["add float", "float power", "str over expr"],
)
def test_arithmetic_with_other_types_is_a_type_error(op):
    with pytest.raises(TypeError):
        op()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Expr({}, {})
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        (WP - WP) ** -1
    for text in ("1/0", "(wp-wp)^-1", "wp/(E4-E4)"):
        with pytest.raises(ValueError):
            parse_expr(text)


# --- differentiation ----------------------------------------------------------


def test_zeta_z_derivative_prints_exactly():
    assert expr_to_text(differentiate(ZETA, "z")) == "-(wp)"


def test_basic_z_rules():
    assert differentiate(Z, "z") == ONE
    assert differentiate(TAU, "z").is_zero()
    assert differentiate(WP, "z") == WP1
    assert differentiate(E4, "z").is_zero()
    assert differentiate(PI, "z").is_zero()


def test_wp1_z_rule_is_second_derivative():
    got = differentiate(WP1, "z")
    want = rational(6) * WP * WP - g2_expr() / rational(2)
    assert got == want


def test_ode_is_differentially_closed_in_z():
    ode = WP1**2 - (rational(4) * WP**3 - g2_expr() * WP - g3_expr())
    assert differentiate(ode, "z").is_zero()


def test_ode_tau_derivative_vanishes_numerically():
    # the full tau-derivative of the ODE defect need not normalize to the zero
    # polynomial, but it must vanish at every point of the surface
    ode = WP1**2 - (rational(4) * WP**3 - g2_expr() * WP - g3_expr())
    d = differentiate(ode, "tau")
    assert abs(eval_expr(d, TAU0, Z0)) < 1e-6
    assert abs(eval_expr(ode, TAU0, Z0)) < 1e-8


def test_mixed_partials_commute():
    dz_dt = differentiate(differentiate(WP, "tau"), "z")
    dt_dz = differentiate(differentiate(WP, "z"), "tau")
    assert dz_dt == dt_dz
    num = eval_expr(dz_dt, TAU0, Z0) - eval_expr(dt_dz, TAU0, Z0)
    assert abs(num) < 1e-12


def test_product_and_quotient_rules():
    e = (WP * ZETA) / E4
    d = differentiate(e, "z")
    # compare exactly by cross-multiplied difference rather than by structure
    want = (WP1 * ZETA - WP * WP) / E4
    assert (d - want).is_zero()


def _full_quotient_rule(e, var):
    """(num' den - num den') / den^2, also when den' = 0."""
    num, den = Expr(e.num, ONE.den), Expr(e.den, ONE.den)
    return (differentiate(num, var) * den - num * differentiate(den, var)) / (den * den)


def test_constant_denominator_is_not_squared():
    e = parse_expr("(((wp*zeta)+(3*E2))/((E4^2)+(1/3)))")
    d1 = differentiate(e, "z")
    d2 = differentiate(d1, "z")
    full1 = _full_quotient_rule(e, "z")
    full2 = _full_quotient_rule(full1, "z")
    assert (d1 - full1).is_zero() and (d2 - full2).is_zero()
    assert (len(full1.den), len(full2.den)) == (3, 5)
    assert (len(d1.den), len(d2.den)) == (2, 2)
    # d/dtau wp1 = d/dz (d/dtau wp), whose denominator is pi
    assert Expr(default_rule_table()["tau"][3].den, ONE.den) == PI


@pytest.mark.parametrize("var", ["z", "tau"])
@pytest.mark.parametrize(
    "gen", [Z, TAU, WP, WP1, ZETA, E2, E4, E6], ids=lambda e: expr_to_text(e)
)
def test_fd_certificate_every_generator(gen, var):
    assert fd_check(gen, var, TAU0, Z0) < 1e-5


def test_fd_certificate_composite():
    e = (WP1 * ZETA + rational(3) * E2) / (WP + rational(5, 7))
    assert fd_check(e, "z", TAU0, Z0) < 1e-5
    assert fd_check(e, "tau", TAU0, Z0) < 1e-5


def _malformed_rule_tables():
    """(table, var, e): no var key, no tau key, 7 tau rules (E6's and pi's
    dropped), 10 z rules, and the z rules not in a mapping."""
    full = build_rule_table()
    return [
        ({"tau": full["tau"]}, "z", WP),
        ({"z": full["z"]}, "tau", E2),
        ({**full, "tau": full["tau"][:7]}, "tau", E6 * WP),
        ({**full, "z": (*full["z"], ONE)}, "z", WP),
        (list(full["z"]), "z", WP),
    ]


@pytest.mark.parametrize("table, var, e", _malformed_rule_tables(),
                         ids=["no-z", "no-tau", "7-tau-rules", "10-z-rules", "not-a-dict"])
def test_a_malformed_rule_table_is_refused(table, var, e):
    with pytest.raises(ValueError, match=f"rules\\['{var}'\\]"):
        differentiate(e, var, table)
    with pytest.raises(ValueError):
        run_identity_suite(3, rules=table, only=["ramanujan_fd"])


def test_fd_step_validation():
    with pytest.raises(ValueError):
        fd_check(WP, "z", TAU0, Z0, h=1e-2)
    with pytest.raises(ValueError):
        fd_check(WP, "z", 1j)  # a z difference needs z
    with pytest.raises(ValueError):
        differentiate(WP, "x")


def _classical_tau_rules():
    """d/dtau of wp, wp1 and zeta by the chain rule through g2 and g3, with the
    classical parameter derivatives (each divided by delta)."""
    g2, g3, delta = g2_expr(), g3_expr(), delta_expr()
    de4 = rational(2, 3) * I * PI * (E2 * E4 - E6)
    de6 = I * PI * (E2 * E6 - E4**2)
    dg2 = rational(4, 3) * PI**4 * de4
    dg3 = rational(8, 27) * PI**6 * de6
    wp_g2 = (
        (rational(-9, 2) * g3 * ZETA + rational(1, 4) * g2**2 * Z) * WP1
        - 9 * g3 * WP**2
        + rational(1, 2) * g2**2 * WP
        + rational(3, 2) * g2 * g3
    ) / delta
    wp_g3 = (
        (3 * g2 * ZETA - rational(9, 2) * g3 * Z) * WP1
        + 6 * g2 * WP**2
        - 9 * g3 * WP
        - g2**2
    ) / delta
    zeta_g2 = (
        rational(1, 2) * ZETA * (9 * g3 * WP + rational(1, 2) * g2**2)
        - rational(1, 2) * g2 * Z * (rational(1, 2) * g2 * WP + rational(3, 4) * g3)
        + rational(9, 4) * g3 * WP1
    ) / delta
    zeta_g3 = (
        -3 * ZETA * (g2 * WP + rational(3, 2) * g3)
        + rational(1, 2) * Z * (9 * g3 * WP + rational(1, 2) * g2**2)
        - rational(3, 2) * g2 * WP1
    ) / delta
    dwp = wp_g2 * dg2 + wp_g3 * dg3
    return dwp, differentiate(dwp, "z"), zeta_g2 * dg2 + zeta_g3 * dg3


def test_heat_rules_equal_classical_chain_rule():
    new = default_rule_table()["tau"][2:5]  # wp, wp1, zeta
    for got, want in zip(new, _classical_tau_rules()):
        assert (got - want).is_zero()


def test_heat_rules_are_small_and_delta_free():
    for rule in default_rule_table()["tau"][2:5]:
        assert rule.used_generators() <= {0, 2, 3, 4, 5, 6, 8}  # no E6 from delta
        assert len(rule.den) == 1 and len(rule.num) <= 6
    assert len(differentiate(differentiate(WP * ZETA, "tau"), "tau").num) < 100


def test_rule_denominators_enter_once_per_generator():
    # summing one Expr per monomial multiplied the denominator by each rule's
    # pi once per term (Expr has no gcd): pi^15 here
    d2 = differentiate(differentiate(WP * ZETA, "tau"), "tau")
    pi = GEN_NAMES.index("pi")
    assert max(mono[pi] for mono in d2.den) <= 5


@pytest.mark.parametrize("im", [0.9, 2.0, 5.0, 8.0])
@pytest.mark.parametrize("gen", [WP, WP1, ZETA], ids=lambda e: expr_to_text(e))
def test_tau_derivatives_hold_at_every_height(gen, im):
    tau = complex(0.13, im)
    z = 0.31 + 0.35 * tau
    assert fd_check(gen, "tau", tau, z) <= 1e-9
    assert fd_check(differentiate(gen, "tau"), "tau", tau, z) <= 1e-9


# --- invariants expressions ---------------------------------------------------


def test_invariant_expressions_match_numeric_bridges():
    inv = invariants_anywhere(1j)
    assert abs(eval_expr(g2_expr(), 1j) - inv.g2) < 1e-10
    assert abs(eval_expr(g3_expr(), 1j) - inv.g3) < 1e-10
    # the float formula, not inv.delta: that is the eta product, which keeps
    # its own digits (pinned in test_reduction.py) and differs here by 2e-8
    assert abs(eval_expr(delta_expr(), 1j) - (inv.g2**3 - 27 * inv.g3**2)) < 1e-9


def test_delta_equals_g2_cubed_at_i():
    # g3 vanishes on the square lattice, so delta(i) = g2(i)^3
    g2_val = eval_expr(g2_expr(), 1j)
    assert abs(eval_expr(delta_expr(), 1j) - g2_val**3) < 1e-9


# --- evaluation guards --------------------------------------------------------


def test_eval_requires_z_only_when_needed():
    assert abs(eval_expr(E2, 1j) - 3.0 / math.pi) < 1e-13
    assert abs(eval_expr(PI * I, 1j) - math.pi * 1j) < 1e-16
    with pytest.raises(ValueError):
        eval_expr(WP, 1j)


def test_tau_is_checked_without_a_lattice_generator():
    # an expression in z, tau and pi alone makes no Lattice, and tau outside
    # the upper half-plane is refused all the same, as E2 refuses it
    for e in (TAU, E2):
        with pytest.raises(ValueError):
            eval_expr(e, -1j)
    with pytest.raises(ValueError):
        fd_check(TAU**2, "tau", -1j)
    with pytest.raises((WPFieldError, ValueError)):
        eval_expr(Z * TAU, complex(0.0, math.nan), 0.5)


def test_near_singular_denominator():
    with pytest.raises(NearSingular):
        eval_expr(ONE / E6, 1j)  # E6(i) = 0


def test_overflow_is_a_wpfield_error():
    # |wp'| ~ 2/z^3 = 2e6 next to the pole, and (2e6)^60 overflows a double
    with pytest.raises(NonFiniteValue):
        eval_expr(WP1**60, 1j, 0.01)


# --- serialization ------------------------------------------------------------


@pytest.mark.parametrize(
    "expr",
    [
        WP,
        -WP,
        ZERO,
        ONE,
        rational(-7, 3) * WP + I * ZETA,
        (WP1**2 - rational(4) * WP**3) / (E4 * E6 + rational(1, 2)),
        differentiate(WP, "tau"),
        differentiate(ZETA, "tau"),
        PI**3 * E2 - Z * TAU,
    ],
)
def test_round_trip(expr):
    assert parse_expr(expr_to_text(expr)) == expr


def test_parse_simple_forms():
    assert parse_expr("wp") == WP
    assert parse_expr("(wp+wp1)") == WP + WP1
    assert parse_expr("(3/4)") == rational(3, 4)
    assert parse_expr("wp^-2") == WP**-2
    assert parse_expr("-(wp)") == -WP
    assert parse_expr("(I*pi)") == I * PI
    # any number of signs before an atom; a sign binds looser than '^'
    assert parse_expr("--wp") == WP
    assert parse_expr("+-wp") == -WP
    assert parse_expr("wp*-zeta") == WP * -ZETA
    assert parse_expr("((wp))^-3") == WP**-3


def test_parse_rejects_garbage():
    bad_inputs = (
        "wp+", "(wp", "q", "wp^x", "2.5", "",
        # one integer exponent per atom, optionally negated, nothing else
        "wp^2^3", "wp^+2", "wp^(2)", "wp**2", "wp^--2",
        # atoms need an operator between them, parentheses a body
        "wp wp", "()", "wp)", "2wp",
        # INT is ASCII digits: no other decimal digits, as exponent or literal
        "wp^\u0662", "\u0663*wp",
    )
    for bad in bad_inputs:
        with pytest.raises(ValueError):
            parse_expr(bad)


def _parsed_back(e):
    return parse_expr(expr_to_text(e))


def test_deep_derivative_text_parses_back():
    # d/dtau d/dtau d/dz of a catalogue expression, each step taken on the
    # parsed-back text and so by the full quotient rule: 1209 numerator
    # terms, printed with parentheses nested 1217 deep, past any recursion
    # limit
    e = parse_expr("(E6*zeta+3*E6)/(wp1^2+1/3)")
    d = differentiate(_parsed_back(differentiate(_parsed_back(differentiate(e, "tau")), "tau")),
                      "z")
    text = expr_to_text(d)
    assert len(d._num) == 1209
    depth = 0
    deepest = max((depth := depth + (ch == "(") - (ch == ")")) for ch in text)
    assert deepest == 1217
    assert parse_expr(text) == d
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ffd6c3ed31e71ab8e2dc7f8a992ac43146a42ff792fd609b804b7566285f8000")


# --- the parser against Expr arithmetic -----------------------------------------

# The parser as it was when every operator formed a canonical Expr: the
# reference that parse_expr, which canonicalizes once, must match.
_REF_TOKEN = re.compile(r"\d+|\w+|\S")
_REF_ATOMS = dict(zip(GEN_NAMES, (Z, TAU, WP, WP1, ZETA, E2, E4, E6, PI)), I=I)
_REF_BINARY = {"+": (0, operator.add), "-": (0, operator.sub),
               "*": (1, operator.mul), "/": (1, operator.truediv)}


def _ref_reduce(values, ops, prec):
    while ops and ops[-1] in _REF_BINARY and _REF_BINARY[ops[-1]][0] >= prec:
        rhs = values.pop()
        values[-1] = _REF_BINARY[ops.pop()][1](values[-1], rhs)


def _ref_parse(text):
    tokens = _REF_TOKEN.findall(text)
    values, ops = [], []
    k, n = 0, len(tokens)
    operand = True
    while k < n:
        tok = tokens[k]
        k += 1
        if operand:
            if tok in ("-", "("):
                ops.append("~" if tok == "-" else tok)
                continue
            if tok == "+":
                continue
            if tok in _REF_ATOMS:
                atom = _REF_ATOMS[tok]
            elif tok.isdecimal():
                atom = rational(int(tok))
            else:
                raise ValueError(f"unexpected {tok!r}")
        elif tok in _REF_BINARY:
            _ref_reduce(values, ops, _REF_BINARY[tok][0])
            ops.append(tok)
            operand = True
            continue
        elif tok == ")":
            _ref_reduce(values, ops, 0)
            if not ops:
                raise ValueError("unmatched ')'")
            ops.pop()
            atom = values.pop()
        else:
            raise ValueError(f"unexpected {tok!r}")
        if k < n and tokens[k] == "^":
            k += 1
            sign = 1
            if k < n and tokens[k] == "-":
                sign, k = -1, k + 1
            if k >= n or not tokens[k].isdecimal():
                raise ValueError("exponent must be an integer literal")
            atom = atom ** (sign * int(tokens[k]))
            k += 1
        while ops and ops[-1] == "~":
            ops.pop()
            atom = -atom
        values.append(atom)
        operand = False
    if operand:
        raise ValueError("unexpected end of expression")
    _ref_reduce(values, ops, 0)
    if ops:
        raise ValueError("expected ')'")
    return values[0]


def _ref_parse_expr(text):
    try:
        return _ref_parse(text)
    except ZeroDivisionError as exc:
        raise ValueError("division by zero") from exc


def _draw_text(rng, depth):
    """A text of the grammar: signs, parentheses, I, pi, rationals, powers
    -3..4, sums that cancel and divisions by zero."""
    r = rng.random()
    if depth == 0 or r < 0.25:
        return rng.choice([*GEN_NAMES, "I", "pi", "0", "1", "2", "3", "12",
                           f"({rng.randrange(-9, 10)}/{rng.randrange(0, 7)})"])
    sub = lambda: _draw_text(rng, depth - 1)
    if r < 0.35:
        return f"({_draw_text(rng, min(depth - 1, 1))})^{rng.randrange(-3, 5)}"
    if r < 0.45:
        return rng.choice(["-", "+", "--", "-+"]) + f"({sub()})"
    if r < 0.55:
        x = sub()
        return rng.choice([f"({x}-{x})", f"(({x})+{sub()}-({x}))", f"({x}+-({x}))",
                           f"({sub()}/({x}-{x}))", f"(({x}-{x})^-1)"])
    return f"({sub()}{rng.choice('+-*/')}{sub()})"


def _corpus(seed, count):
    """count drawn texts, every tenth one corrupted by a deleted or
    inserted character, and the handpicked cases."""
    rng = random.Random(seed)
    texts = ["(wp-wp)/wp+1", "(1/wp-1/wp)+1", "1/0", "(wp-wp)^-1", "wp/(E4-E4)", "(1+I)*wp/(1+I)",
             "(((1+I)*wp+1+I)/2)^2", "-(wp)^2", "--wp^-3*-zeta", "(3/4)-(3/4)+(1/5)"]
    for k in range(count):
        text = _draw_text(rng, rng.randrange(1, 5))
        if k % 10 == 9:
            at = rng.randrange(len(text))
            text = text[:at] + rng.choice(["", "(", ")", "+", "*", "^", "2"]) + text[at + 1:]
        texts.append(text)
    return texts


def test_parse_equals_expr_arithmetic_on_a_seeded_corpus():
    refused = 0
    for text in _corpus("parse-differential", 2000):
        try:
            want = _ref_parse_expr(text)
        except ValueError:
            with pytest.raises(ValueError):
                parse_expr(text)
            refused += 1
            continue
        got = parse_expr(text)
        assert got == want, text
        # the same terms in the same order, so eval_expr sums them alike
        assert (list(got._num), list(got._den)) == (list(want._num), list(want._den)), text
        assert expr_to_text(got) == expr_to_text(want), text
    assert 200 < refused < 1000


def test_a_value_that_cancels_takes_the_unit_denominator():
    # a zero product, then a zero sum: with the denominator kept, each would
    # read wp/wp or wp^2/wp^2, which no polynomial gcd reduces to 1
    assert parse_expr("(wp-wp)/wp+1") == ONE
    assert parse_expr("(1/wp-1/wp)+1") == ONE


def test_parse_time_is_linear_in_the_terms():
    # printed sums of n and 2n terms like ((1/2)*(wp^2)); at quadratic cost,
    # one copy of the running sum per term, the ratio reads about 3 at these
    # sizes, and linear parsing about 2
    def text(n):
        num = {(0, 0, k % 40, k // 40, 0, 0, 0, 0, 0): (Fraction(k % 7 + 1, 6), 0)
               for k in range(n)}
        return expr_to_text(Expr(num, ONE.den))

    texts = text(4000), text(8000)
    assert len(parse_expr(texts[1])._num) == 8000
    best = [math.inf, math.inf]
    # alternated, so a slow spell of the machine hits both; CPU time, so time
    # spent waiting on another process counts in neither
    for _ in range(5):
        for k, t in enumerate(texts):
            t0 = time.process_time()
            parse_expr(t)
            best[k] = min(best[k], time.process_time() - t0)
    assert best[1] / best[0] <= 2.5


def test_a_product_past_the_budget_is_refused():
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        parse_expr("*".join(["3^9000"] * 200))
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(ValueError, match="product too large: one product would take"):
        parse_expr("(pi-E4)^200*(pi-E4)^250")
    assert parse_expr("3^9000*wp") == rational(3**9000) * WP
    # the bits are judged on canonical operands: the left one is wp, though
    # the parser's pair for it carries 3^4000 on both sides
    assert parse_expr("(3^4000*wp/3^4000)*3^5100") == rational(3**5100) * WP


def test_a_sum_drops_the_common_scalar_its_operands_carry():
    # each term is a pair carrying 3^4000 on both sides; a sum that
    # cross-multiplied the raw pairs would grow it to 3^(4000 n)
    text = "+".join(["(3^4000/(3^4000*wp))"] * 300)
    t0 = time.perf_counter()
    got = parse_expr(text)
    assert time.perf_counter() - t0 < 1.0
    assert got == _ref_parse_expr(text)


def test_a_long_quotient_over_one_term_parses_back():
    # dividing 50001 numerator terms by one term takes 50001 term products,
    # past _POWER_BUDGET, but only scales and shifts them: not refused
    num = {(k % 250 << symbolic._SHIFT[2]) + (k // 250 << symbolic._SHIFT[3]): (1, 0)
           for k in range(50001)}
    e = symbolic.Expr._new(num, ZETA._num)
    assert len(e._num) > symbolic._POWER_BUDGET
    text = expr_to_text(e)
    got = parse_expr(text)
    assert got == e
    assert expr_to_text(got) == text


# --- the one-pass derivative against Expr arithmetic ------------------------------


def _reference_derivative(e, gen_rules, base=None):
    """The derivative by Expr arithmetic on the num/den views: one Expr per
    generator, summed, then the quotient rule on Exprs.  base is (F, k),
    F an Expr, where e's denominator is a constant times F^k; the rule then
    reads (N'F - k N F')/(den F).  Without it F is the denominator and
    k = 1."""

    def d_poly(poly):
        total = ZERO
        for gi, rule in enumerate(gen_rules):
            partial = {m[:gi] + (m[gi] - 1,) + m[gi + 1 :]: (a * m[gi], b * m[gi])
                       for m, (a, b) in poly.items() if m[gi]}
            if partial and not rule.is_zero():
                total = total + Expr(partial, ONE.den) * rule
        return total

    num, den = Expr(e.num, ONE.den), Expr(e.den, ONE.den)
    f, k = base or (den, 1)
    dn, df = d_poly(e.num), d_poly(f.num)
    if df.is_zero():
        return dn / den
    return (dn * f - k * num * df) / (den * f)


def _record(e):
    """e's record (F, k) of its denominator as c F^k, F as an Expr, or None."""
    if e._base is None:
        return None
    f, k = e._base
    return Expr._new(f, ONE._den), k


def _assert_same_derivative(e, var, rules, full=False):
    """differentiate against _reference_derivative, in lowest terms unless
    full."""
    got = differentiate(e, var, rules)
    want = _reference_derivative(e, rules[var], None if full else _record(e))
    assert got == want
    assert expr_to_text(got) == expr_to_text(want)
    # the same terms in the same order, so eval_expr sums them alike
    assert (list(got._num), list(got._den)) == (list(want._num), list(want._den))
    return got


def _grammar_expressions(seed, count):
    """(a*b + k*c)/(d^2 + 1/k), the identity suite's composite grammar."""
    rng = random.Random(seed)
    pieces = (WP, WP1, ZETA, E2, E4, E6, Z, TAU)
    out = []
    for _ in range(count):
        a, b, c, d = (rng.choice(pieces) for _ in range(4))
        k = rng.randrange(2, 5)
        out.append((a * b + k * c) / (d * d + rational(1, k)))
    return out


def _mutated_rule_tables():
    """The three corrupted tables of the mutation tests."""
    ramanujan, zeta_sign, wp_term = build_rule_table(), build_rule_table(), build_rule_table()
    ramanujan["tau"] = tuple(rational(12, 13) * r if k == 5 else r
                             for k, r in enumerate(ramanujan["tau"]))
    zeta_sign["z"] = tuple(WP if k == 4 else r for k, r in enumerate(zeta_sign["z"]))
    # 1/7 WP on top of the rule's 18 pi: a denominator, 126 pi, no rule has
    wp_term["tau"] = tuple(r + rational(1, 7) * WP if k == 2 else r
                           for k, r in enumerate(wp_term["tau"]))
    return [ramanujan, zeta_sign, wp_term]


# d/dz rules under which the terms of wp and wp1 cancel: the running sum of
# dP/dg_i * rule_i is zero after wp1 and starts again at zeta.  Unlike the
# real rules, whose denominators are monomials, these have sums as
# denominators, so the order of every product's operands shows.
_HANDMADE_RULES = {"z": (ONE, ZERO, ONE / (3 * PI + E6), -ONE / (3 * PI + E6),
                         E2 / (E4 + 6), ZERO, ZERO, ZERO, ZERO)}
_HANDMADE_EXPRESSIONS = [
    WP + WP1 + ZETA * E4,  # the sum restarts after cancelling
    ZETA * E4 / (WP + WP1 + 1),  # the denominator's derivative cancels to 0
    (WP + WP1) / (ZETA + 2),  # the numerator's derivative cancels to 0
    (WP + WP1 + Z * ZETA) / (WP + WP1 + ZETA**2),
    # no cancelling, but every product has two sums as its operands
    (WP * ZETA + WP1 * Z + ZETA**2 * E4) / (WP**2 + ZETA * WP1 + E6),
]


@pytest.mark.parametrize("e", _grammar_expressions("differential", 10), ids=str)
def test_differentiate_matches_expr_arithmetic(e):
    rules = default_rule_table()
    _assert_same_derivative(e, "z", rules)
    d_tau = _assert_same_derivative(e, "tau", rules)
    _assert_same_derivative(d_tau, "z", rules)
    d_tau_tau = _assert_same_derivative(d_tau, "tau", rules)
    _assert_same_derivative(d_tau_tau, "z", rules)


def _tables_without_lowest_terms():
    """Tables under which a denominator c F^k may not stay c F^k: rule
    denominators that depend on z (wp' z/z for d/dz wp, -wp (z+1)/(z+1) for
    d/dz zeta), and a pi that is not constant in tau."""
    z_den, pi_moves = build_rule_table(), build_rule_table()
    z_den["z"] = (*z_den["z"][:2], WP1 * Z / Z, z_den["z"][3], -WP * (Z + 1) / (Z + 1),
                  *z_den["z"][5:])
    pi_moves["tau"] = (*pi_moves["tau"][:8], ONE)
    return {"z": z_den, "tau": pi_moves}


def test_negation_and_pi_scaling_keep_the_record():
    d = differentiate(parse_expr("(E6*zeta+3*E6)/(wp1^2+1/3)"), "tau")
    want = differentiate(d, "z")
    assert (len(want._num), len(want._den)) == (84, 4)
    for scaled, c in ((-d, -1), (2 * d, 2), (d * 2, 2), (PI * d, PI), (d / PI, ONE / PI)):
        got = differentiate(scaled, "z")
        assert (len(got._num), len(got._den)) == (84, 4)
        assert got == c * want
    # a sum keeps no record: d + E2 takes the full rule, as its text does
    total = d + E2
    full = differentiate(total, "z")
    assert full == differentiate(_parsed_back(total), "z")
    assert (len(full._num), len(full._den)) == (122, 5)
    # nor does a product with anything but pi
    assert differentiate(d * WP, "z") == differentiate(_parsed_back(d * WP), "z")


@pytest.mark.parametrize("var", ["z", "tau"], ids=["z-dependent denominator", "pi moves"])
def test_other_tables_fall_back_to_the_full_quotient_rule(var):
    table = _tables_without_lowest_terms()[var]
    for text in ("(E6*zeta+3*E6)/(wp1^2+1/3)", "(E2*E2+3*E4)/(zeta^2+1/3)",
                 "(zeta*E4+4*wp1)/(E6^2+1/4)"):
        d_tau = differentiate(parse_expr(text), "tau")
        assert d_tau._base is not None
        got = _assert_same_derivative(d_tau, var, table, full=True)
        # no record kept: the next derivative takes the full rule again
        assert got._base is None
        assert differentiate(got, "z") == differentiate(_parsed_back(got), "z")
        if var == "z":  # the same rules as the default table's, unreduced
            assert (got - differentiate(d_tau, "z")).is_zero()


def test_a_rule_tuple_is_decided_once_and_a_rule_list_on_every_call():
    # a tuple of Expr never changes, so whether it keeps constants is decided
    # once (for the last two tuples asked about: a table's z and tau rules);
    # a list can change between calls
    table = build_rule_table()
    d = differentiate(parse_expr("(E6*zeta+3*E6)/(wp1^2+1/3)"), "tau", table)
    differentiate(d, "z", table)
    kept = {id(rules) for rules, _ in symbolic._KEEPS}
    assert kept == {id(table["z"]), id(table["tau"])}
    rules = list(table["tau"])
    assert differentiate(d, "tau", {"tau": rules})._base is not None
    rules[-1] = ONE  # pi's rule: pi is no longer constant in tau
    assert differentiate(d, "tau", {"tau": rules})._base is None
    assert differentiate(d, "tau", {"tau": tuple(rules)})._base is None


@pytest.mark.parametrize("table", range(3), ids=["ramanujan", "zeta_sign", "wp_term"])
def test_differentiate_matches_expr_arithmetic_on_mutated_rules(table):
    rules = _mutated_rule_tables()[table]
    for e in [*_grammar_expressions("mutated", 4), WP, ZETA, E2 * WP]:
        _assert_same_derivative(e, "z", rules)
        _assert_same_derivative(e, "tau", rules)


@pytest.mark.parametrize("e", _HANDMADE_EXPRESSIONS, ids=str)
def test_differentiate_matches_expr_arithmetic_on_a_handmade_table(e):
    d = _assert_same_derivative(e, "z", _HANDMADE_RULES)
    assert not d.is_zero()


def test_differentiate_canonicalizes_once(monkeypatch):
    default_rule_table()  # built (with its own canonicalizations) before counting
    exprs = [*_grammar_expressions("canonical", 6), E4, ZERO, WP1 / E6]
    derivatives = [(e, var) for e in exprs for var in ("z", "tau")]
    want = [differentiate(e, var) for e, var in derivatives]
    canonical = symbolic._canonical
    calls = []

    def counted(num, den):
        calls.append(1)
        return canonical(num, den)

    monkeypatch.setattr(symbolic, "_canonical", counted)
    for (e, var), d in zip(derivatives, want):
        calls.clear()
        assert differentiate(e, var) == d
        assert len(calls) <= 1
    calls.clear()
    differentiate(_HANDMADE_EXPRESSIONS[3], "z", _HANDMADE_RULES)
    assert len(calls) <= 1


def test_used_generators_reads_both_sides():
    assert ZERO.used_generators() == set()
    assert rational(3, 4).used_generators() == set()
    assert (ONE / PI).used_generators() == {8}
    assert ((WP * ZETA + Z) / (E4**2 + TAU)).used_generators() == {0, 1, 2, 4, 6}


# --- goldens --------------------------------------------------------------------

# sha256 of expr_to_text of each expression of perfbench's symbolic catalogue
# differentiated by z, by tau and by tau then z: how coefficients are stored
# must not change what is printed.  The tau-z entries of the three
# denominators F that depend on both z and tau are over c F^3 (see Expr).
CATALOGUE_DERIVATIVE_SHA256 = {
    "(E2*E2+3*E4)/(zeta^2+1/3)": (
        "467c2333a101a40b6479adda60c256538bb9a81d3c05cedfbf37deca2dda0c53",
        "dd556b77ea00be12884da7f35d93baab13bbd29570bf82ccbaf4df3e8b4bf23d",
        "6f8f0b6c85c664dd775f1c2ea674e79a94d8beee369ccb2b8946d77f00b76e51",
    ),
    "(z*zeta+3*z)/(tau^2+1/3)": (
        "e28801fb356ac14c7b5c720652ffa786f5d90402026d83b97da838f1579dca9a",
        "33a6a946d58dfaa8822d04a57ddc1997a286b583b53f50511eec7705b7e819b8",
        "f683d3e4eab49f8442806e3564b0816d3b22a8cd9f29e552f8211c265b26f48d",
    ),
    "(zeta*E4+4*wp1)/(E6^2+1/4)": (
        "68871685fcb4d52e325ca11e402f5a1492f2c4891212ef1f715d502ecdb93e72",
        "c754fc6717bf327ccd7f6ec31d0d2444944f918b76a3e7f4b5cc47da631c43c4",
        "586eb2444f3e2ebc58feb0c1cef852c0c9ca11ef09343576bbb1961794877e58",
    ),
    "(z*E4+2*E2)/(wp^2+1/2)": (
        "b775a2205fab41f8ebe69efa4c785e8800ab616547335479b105d786da2aabea",
        "72d1b847cfaf0d39d2f264fbf2afadf4eb3e110a2d6f6850784f8cc1367c03fc",
        "1ca6819f8b6d7a07d72d7e26432f8ca678850c90f30e18d5c938ade653401bc8",
    ),
    "(z*wp+3*tau)/(E4^2+1/3)": (
        "be09e16d77e178cd9543f260a4ffac267d075b37374b7672451a72991de7272f",
        "61c28862b72fbb7973726cabf634f28cd8f191c44e729dd18255e9d95dcf4573",
        "1084830685631f0a016c56298cf4ef87bb1e97ad351a5e8c123fc7a34309a3df",
    ),
    "(E4*E6+4*E4)/(E2^2+1/4)": (
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "de9580d789c098bc2df6e5a03ef460193a205364765d14b77230aab1a5d647bc",
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    ),
    "(E6*z+2*zeta)/(z^2+1/2)": (
        "8a3eeacbfb3d9ee977a7aed8e7e6a757ecb1b442017af2b715d4c0736d9aeef6",
        "11799cdfab0ef45b44b520a1da66dafbcd92719864f024855fb564cf26e30898",
        "9133202882a2ec3046d74c59fa05ddab605315fd7ba5fc0e0e44a3a64c0fa05e",
    ),
    "(E6*zeta+3*E6)/(wp1^2+1/3)": (
        "9fcbb524c551c71c3c8bcf3d121da04c6506a6523f539a0264b382a0cae3738c",
        "aeb949a395da8dbd0b605cdd1d7e691c89c0e4cbdedd1911e2ec7df448a773db",
        "1dc77db80d5bb2feee8105f714539b2487a754c122ff835f0c79727e0620c488",
    ),
}


def test_deep_derivative_prints_the_recorded_text():
    # d/dtau d/dtau d/dz over c F^4, F = wp1^2 + 1/3: 519 numerator terms
    # and 5 denominator terms, where the full rule of
    # test_deep_derivative_text_parses_back gives 1209 over c F^8, 9 terms
    e = parse_expr("(E6*zeta+3*E6)/(wp1^2+1/3)")
    d = differentiate(differentiate(differentiate(e, "tau"), "tau"), "z")
    assert (len(d._num), len(d._den)) == (519, 5)
    assert hashlib.sha256(expr_to_text(d).encode()).hexdigest() == (
        "bfe8bf84e097397d420bf35322a58c5b904fcebde1363527cfa0af1e5a4f89fc")


def test_grammar_derivatives_print_and_evaluate_the_recorded_values():
    # the z, tau, tau-z and tau-tau derivatives of 16 grammar expressions:
    # how monomials are stored must change neither the text nor the value
    digest, terms = hashlib.sha256(), 0
    for e in _grammar_expressions("packed", 16):
        d_tau = differentiate(e, "tau")
        for d in (differentiate(e, "z"), d_tau, differentiate(d_tau, "z"),
                  differentiate(d_tau, "tau")):
            digest.update(f"{expr_to_text(d)}\n{eval_expr(d, TAU0, Z0)!r}\n".encode())
            terms += len(d.num)
    assert terms == 2429
    assert digest.hexdigest() == (
        "dfa1595d50ec2b66f3e80357d9ba722f186aa12e9610d361686017cb376a8c72")


def test_catalogue_derivatives_equal_the_full_quotient_rule():
    # each step of the full rule is taken on the parsed-back text, which
    # carries no record of F
    lowest_terms = full_terms = 0
    for text in CATALOGUE_DERIVATIVE_SHA256:
        e = parse_expr(text)
        for order in (("z",), ("tau",), ("tau", "z"), ("tau", "tau"), ("tau", "tau", "z")):
            new = old = e
            for var in order:
                new = differentiate(new, var)
                old = differentiate(_parsed_back(old), var)
            assert (new - old).is_zero(), (text, order)
            lowest_terms += len(new._num)
            full_terms += len(old._num)
    assert (lowest_terms, full_terms) == (2520, 4406)


def test_catalogue_derivatives_print_the_recorded_text():
    for text, want in CATALOGUE_DERIVATIVE_SHA256.items():
        e = parse_expr(text)
        d_tau = differentiate(e, "tau")
        got = tuple(
            hashlib.sha256(expr_to_text(d).encode()).hexdigest()
            for d in (differentiate(e, "z"), d_tau, differentiate(d_tau, "z"))
        )
        assert got == want, text


# --- compiled terms against the packed loop ----------------------------------

# The evaluation loop as it was before an Expr compiled its terms: the
# reference that eval_expr, on the compiled terms, must match bit for bit.


def _ref_p_eval(p, n, vals):
    """p / n at the generator values, each packed monomial unpacked and each
    power v**e taken in generator order, on every call."""
    unpack, size = symbolic._EXPONENTS.unpack, symbolic._EXPONENTS.size
    total = 0j
    for mono, (a, b) in p.items():
        term = complex(a / n, b / n)
        for v, e in zip(vals, unpack(mono.to_bytes(size, "big"))):
            if e:
                term *= v**e
        total += term
    return total


def _ref_eval(e, tau, z):
    """eval_expr with _ref_p_eval on the packed polynomials."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symbolic, "_p_eval", _ref_p_eval)
        mp.setattr(Expr, "_compiled", lambda self: (self._num, self._den))
        return eval_expr(e, tau, z)


def _outcome(f, *args):
    """repr of f(*args), signed zeros included, or the name of the exception
    it raises."""
    try:
        return repr(f(*args))
    except Exception as exc:
        return type(exc).__name__


def _compiled_corpus():
    """The catalogue expressions and their derivatives up to d/dtau d/dtau
    d/dz, and powers at and either side of exponent 100, where complex **
    turns from binary powering to exp and log."""
    out = []
    for text in CATALOGUE_DERIVATIVE_SHA256:
        e = parse_expr(text)
        d_tau = differentiate(e, "tau")
        d_tau_tau = differentiate(d_tau, "tau")
        out += [e, differentiate(e, "z"), d_tau, differentiate(d_tau, "z"), d_tau_tau,
                differentiate(d_tau_tau, "z")]
    for k in (99, 100, 101, 150):
        out += [WP**k, rational(-3, 7) * PI**k * E4 - I * E2**k, (Z**k + TAU) / (E6**k + 2),
                (WP1 * ZETA) ** k / (TAU**k - I * Z), Z**k * TAU**(k - 98) + PI]
    return out


def test_compiled_evaluation_is_bit_identical_to_the_packed_loop():
    rng = random.Random("compiled")
    corpus = _compiled_corpus()
    for e in corpus:
        for _ in range(2):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 1.2))
            z = complex(rng.choice((-0.0, 0.0, rng.uniform(-0.5, 0.5))), rng.uniform(0.1, 0.6))
            assert _outcome(eval_expr, e, tau, z) == _outcome(_ref_eval, e, tau, z), (e, tau, z)
    # _p_eval on its own at seeded values: signed zeros, and parts large
    # enough that a power overflows, which both forms raise as OverflowError
    parts = (-0.0, 0.0, 1.0, -2.5, 0.75, 1e3, -1e120)
    outcomes = set()
    for e in corpus:
        n = e._lead()
        num_terms, den_terms = e._compiled()
        for _ in range(4):
            vals = [complex(rng.choice(parts), rng.choice(parts)) for _ in GEN_NAMES]
            for terms, poly in ((num_terms, e._num), (den_terms, e._den)):
                got = _outcome(symbolic._p_eval, terms, n, vals)
                assert got == _outcome(_ref_p_eval, poly, n, vals), (e, vals)
                outcomes.add(got == "OverflowError")
    assert outcomes == {True, False}


@pytest.mark.parametrize("k", [60, 99, 100, 101, 150])
def test_an_overflowing_power_raises_nonfinite_in_both_forms(k):
    # |wp'| ~ 2/z^3 = 2e6 next to the pole: binary powering up to k = 100,
    # exp and log above it, and both overflow by raising
    e = WP1**k + ZETA
    for f in (eval_expr, _ref_eval):
        with pytest.raises(NonFiniteValue):
            f(e, 1j, 0.01)


class _CountingStruct:
    """A stand-in for symbolic._EXPONENTS that counts its unpacks."""

    def __init__(self, inner):
        self.inner, self.size, self.unpacks = inner, inner.size, 0

    def unpack(self, data):
        self.unpacks += 1
        return self.inner.unpack(data)


def test_the_terms_are_compiled_once_and_change_no_identity(monkeypatch):
    e = parse_expr("(E6*zeta+3*E6)/(wp1^2+1/3)")
    d = differentiate(differentiate(differentiate(e, "tau"), "tau"), "z")
    twin = Expr._new(d._num, d._den)  # the same Expr, never compiled below
    assert d._terms is None and twin._terms is None
    before = (hash(d), d == twin, twin == d)
    spy = _CountingStruct(symbolic._EXPONENTS)
    monkeypatch.setattr(symbolic, "_EXPONENTS", spy)
    text = expr_to_text(d)
    values = [eval_expr(d, TAU0, Z0) for _ in range(2)]
    assert spy.unpacks == len(d._num) + len(d._den) == 524  # one per monomial
    assert d._terms is not None and twin._terms is None
    assert (hash(d), d == twin, twin == d) == before == (hash(twin), True, True)
    assert expr_to_text(twin) == text == expr_to_text(d)
    assert repr(values[0]) == repr(values[1]) == repr(_ref_eval(twin, TAU0, Z0))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bfe8bf84e097397d420bf35322a58c5b904fcebde1363527cfa0af1e5a4f89fc")


def test_threads_that_race_to_compile_print_and_evaluate_alike():
    # the slot takes one finished tuple: racing threads may each compile,
    # and every one reads a whole list
    e = parse_expr("(E6*zeta+3*E6)/(wp1^2+1/3)")
    want = differentiate(differentiate(e, "tau"), "z")
    want_text, want_value = expr_to_text(want), repr(eval_expr(want, TAU0, Z0))
    results = []

    def work(d):
        results.append((expr_to_text(d), repr(eval_expr(d, TAU0, Z0))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            d = Expr._new(want._num, want._den)
            threads = [threading.Thread(target=work, args=(d,)) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [(want_text, want_value)] * 30


class _NoFraction:
    def __new__(cls, *args, **kwargs):
        raise AssertionError("Fraction built on the differentiation path")


def test_differentiation_does_no_fraction_arithmetic(monkeypatch):
    e = parse_expr("(E6*zeta+3*E6)/(wp1^2+1/3)")
    default_rule_table()
    want = differentiate(differentiate(e, "tau"), "z")

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic on the differentiation path")

    monkeypatch.setattr(symbolic, "Fraction", _NoFraction)
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__"):
        monkeypatch.setattr(Fraction, op, forbidden)
    got = differentiate(differentiate(e, "tau"), "z")
    assert got == want
    expr_to_text(got)
    eval_expr(got, TAU0, Z0)


# --- mutation sensitivity -----------------------------------------------------


def test_corrupted_ramanujan_rule_detected():
    bad = build_rule_table()
    bad["tau"] = tuple(
        rational(12, 13) * r if k == 5 else r for k, r in enumerate(bad["tau"])
    )
    residual = fd_check(E2, "tau", TAU0, rules=bad)
    assert residual > 1e-3
    # sanity: the pristine table stays correct
    assert fd_check(E2, "tau", TAU0) < 1e-5


def test_corrupted_zeta_sign_detected():
    bad = build_rule_table()
    bad["z"] = tuple(WP if k == 4 else r for k, r in enumerate(bad["z"]))
    assert fd_check(ZETA, "z", TAU0, Z0, rules=bad) > 1e-2


def test_corrupted_wp_tau_rule_detected():
    bad = build_rule_table()
    bad["tau"] = tuple(
        r + rational(1, 7) * WP if k == 2 else r for k, r in enumerate(bad["tau"])
    )
    assert fd_check(WP, "tau", TAU0, Z0, rules=bad) > 1e-3
