"""Seeded identity-verification suite with JSON/CSV reporting.

Every case compares two independent routes to the same quantity (series vs
lattice sum, symbolic derivative vs finite difference, functional equation vs
direct evaluation) and records max/mean residuals against its tolerance.  The
suite never aborts on a failing case; failures land in the report.  Same seed
and tolerances give a byte-identical report apart from the timestamp.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
import random
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from functools import partial

from .core import TolerancePolicy
from .eisenstein import (
    ZETA2,
    ZETA4,
    ZETA6,
    lattice_sum_eisenstein,
    q_coefficients,
)
from .errors import WPFieldError
from .reduction import (
    Lattice,
    UnimodularMatrix,
    _cell_distance,
    _wp_add,
    e2_anywhere,
    e4_anywhere,
    e6_anywhere,
    reduce_point,
    reduce_tau,
    zeta_anywhere,
)
from .symbolic import (
    E2,
    E4,
    E6,
    TAU,
    WP,
    WP1,
    Z,
    ZETA,
    Expr,
    _rules_for,
    default_rule_table,
    eval_expr,
    fd_check,
    rational,
)
from .weier import wp_lattice_oracle, zeta_lattice_oracle

ORACLE_RADIUS = 50

_RE_GRID = (-0.4, -0.2, 0.0, 0.2, 0.4)
_IM_GRID = (0.9, 1.2, 2.0, 5.0)


@dataclass(frozen=True)
class IdentityCase:
    name: str
    sample_count: int
    max_residual: float
    mean_residual: float
    tolerance: float
    passed: bool
    notes: str = ""


@dataclass(frozen=True)
class IdentityReport:
    seed: int
    timestamp: str
    policy: TolerancePolicy
    resolved: dict[str, object]
    cases: tuple[IdentityCase, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def case(self, name: str) -> IdentityCase:
        for c in self.cases:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "timestamp": self.timestamp,
            "policy": asdict(self.policy),
            "resolved": dict(self.resolved),
            "all_passed": self.all_passed,
            # a case that raised has infinite residuals, which JSON cannot hold
            "cases": [
                {k: None if isinstance(v, float) and not math.isfinite(v) else v
                 for k, v in asdict(c).items()}
                for c in self.cases
            ],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["name", "sample_count", "max_residual", "mean_residual",
             "tolerance", "passed", "notes"]
        )
        for c in self.cases:
            writer.writerow(
                [c.name, c.sample_count, repr(c.max_residual), repr(c.mean_residual),
                 repr(c.tolerance), c.passed, c.notes]
            )
        return buf.getvalue()

    def to_text(self) -> str:
        lines = []
        for c in self.cases:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{status} {c.name}: max={c.max_residual:.3e} "
                f"mean={c.mean_residual:.3e} tol={c.tolerance:.1e} "
                f"n={c.sample_count}" + (f" [{c.notes}]" if c.notes else "")
            )
        lines.append(f"resolved: {self.resolved}")
        lines.append("ALL PASSED" if self.all_passed else "FAILURES PRESENT")
        return "\n".join(lines)


@dataclass
class _Ctx:
    seed: int
    rules: dict
    resolved: dict = field(default_factory=dict)

    def rng(self, name: str) -> random.Random:
        return random.Random(f"{self.seed}/{name}")


# ---------------------------------------------------------------------------
# Deterministic sampling helpers.


def _tau_samples(rng: random.Random, count: int) -> list[complex]:
    """Reduced tau points spread over the fundamental domain bulk and edge.

    The walk over the grid starts at a random cell, so single draws reach
    every height, not only the first row."""
    out: list[complex] = []
    k = rng.randrange(len(_RE_GRID) * len(_IM_GRID)) if count else 0
    while len(out) < count:
        re = _RE_GRID[k % len(_RE_GRID)] + rng.uniform(-0.05, 0.05)
        im = _IM_GRID[(k // len(_RE_GRID)) % len(_IM_GRID)] * (1.0 + rng.uniform(-0.05, 0.05))
        k += 1
        _, tau_star = reduce_tau(complex(re, im))
        out.append(tau_star)
    return out


def _low_tau_samples(rng: random.Random, count: int) -> list[complex]:
    """tau with Im in [0.2, 0.8]; every one of these needs an inversion step."""
    return [
        complex(rng.uniform(-0.45, 0.45), rng.uniform(0.2, 0.8)) for _ in range(count)
    ]


def _cell_point(rng: random.Random, tau: complex, min_dist: float = 0.05) -> complex:
    """A point of the cell of a reduced tau, at least min_dist from the
    lattice (its distance read off the cell's corners)."""
    for _ in range(1000):
        a = rng.uniform(0.02, 0.98)
        b = rng.uniform(0.02, 0.98)
        z = b + a * tau
        if _cell_distance(tau, z) >= min_dist:
            return z
    raise WPFieldError("could not sample a cell point away from the lattice")


# ---------------------------------------------------------------------------
# Identities take a Lattice and the points drawn for it and yield (lhs, rhs)
# pairs, residual |lhs - rhs|, or the tuples their case reads; one run by
# _drawn rejects its draw by yielding none.  The *_jobs generators feed _fd.


def _on_grid(rng: random.Random, count: int, identity, points: int = 0, min_dist: float = 0.05):
    """identity's pairs at each of count grid taus and its points there."""
    pairs = []
    for tau in _tau_samples(rng, count):
        zs = [_cell_point(rng, tau, min_dist) for _ in range(points)]
        pairs += identity(Lattice(tau), zs)
    return pairs


def _drawn(rng: random.Random, count: int, identity, points: int, min_dist: float):
    """identity's pairs at fresh single-tau draws until count are accepted."""
    pairs, accepted = [], 0
    while accepted < count:
        tau = _tau_samples(rng, 1)[0]
        zs = [_cell_point(rng, tau, min_dist) for _ in range(points)]
        drawn = list(identity(Lattice(tau), zs))
        pairs += drawn
        accepted += bool(drawn)
    return pairs


def _transported(rng: random.Random, count: int, identity, low: int, min_dist: float):
    """identity's pairs at count grid taus, then low taus with Im in [0.2, 0.8],
    each at one point of its reduced cell carried back by s."""
    pairs = []
    for tau in _tau_samples(rng, count) + _low_tau_samples(rng, low):
        lat = Lattice(tau)
        rr = reduce_point(lat)
        pairs += identity(lat, [_cell_point(rng, rr.tau_star, min_dist) * rr.scale])
    return pairs


def _case(key: str, sample, count: int, identity, notes: str = "", **where):
    """A runner: |lhs - rhs| of identity's pairs under sample on stream key."""
    def run(ctx: _Ctx):
        pairs = sample(ctx.rng(key), count, identity, **where)
        return [abs(lhs - rhs) for lhs, rhs in pairs], notes
    return run


def _fd(key: str, jobs, notes: str = ""):
    """A runner: fd_check of each (expr, var, tau, z) that jobs draws on stream key."""
    def run(ctx: _Ctx):
        return [fd_check(e, var, tau, z, rules=ctx.rules)
                for e, var, tau, z in jobs(ctx.rng(key))], notes
    return run


def _ode(lat: Lattice, zs):
    """wp'^2 = 4 wp^3 - g2 wp - g3."""
    inv = lat.invariants()
    for z in zs:
        p = lat.wp(z).value
        pp = lat.wp_prime(z).value
        yield pp * pp, 4 * p**3 - inv.g2 * p - inv.g3


def _legendre(lat: Lattice, zs):
    eta1 = 2.0 * lat.zeta(0.5).value
    eta2 = 2.0 * lat.zeta(lat.tau / 2.0).value
    yield eta1 * lat.tau - eta2, 2j * math.pi


def _quasi_periodicity(lat: Lattice, zs):
    """zeta(z + 1) = zeta(z) + eta1 and zeta(z + tau) = zeta(z) + eta2."""
    (z,) = zs
    base = lat.zeta(z).value
    eta1 = 2.0 * lat.zeta(0.5).value
    eta2 = 2.0 * lat.zeta(lat.tau / 2.0).value
    yield lat.zeta(z + 1.0).value - base, eta1
    yield lat.zeta(z + lat.tau).value - base, eta2


def _quasimodular(lat: Lattice, zs):
    """G2(gamma tau) = s^2 G2(tau) - pi*i*c*s for gamma in S, T S, S T^-1."""
    tau = lat.tau
    g2_tau = ZETA2 * lat.e2()
    inversion, translation = UnimodularMatrix.inversion(), UnimodularMatrix.translation
    for gamma in (inversion, translation(1) @ inversion, inversion @ translation(-1)):
        s = gamma.scale(tau)
        yield ZETA2 * e2_anywhere(gamma.mobius(tau)), s * s * g2_tau - 1j * math.pi * gamma.c * s


def _root_sum(lat: Lattice, zs):
    hp = lat.half_periods()
    yield hp.e1 + hp.e2 + hp.e3, 0.0


def _half_period_invariants(lat: Lattice, zs):
    hp = lat.half_periods()
    inv = lat.invariants()
    sym2 = hp.e1 * hp.e2 + hp.e1 * hp.e3 + hp.e2 * hp.e3
    yield -4.0 * sym2, inv.g2
    yield 4.0 * hp.e1 * hp.e2 * hp.e3, inv.g3


def _addition(lat: Lattice, zs):
    """wp_add against wp(z1 + z2), off the lattice and at a well-conditioned slope."""
    z1, z2 = zs
    if lat.distance(z1 + z2) < 0.05 or lat.distance(z1 - z2) < 0.05:
        return
    if abs(lat.wp(z1).value - lat.wp(z2).value) < 0.5:
        return
    yield _wp_add(lat, z1, z2), lat.wp(z1 + z2).value


def _three_term(lat: Lattice, zs):
    """([zeta(x) + zeta(y) + zeta(w)]^2, wp(x) + wp(y) + wp(w)), x + y + w = 0."""
    x, y = zs
    w = -x - y
    if lat.distance(w) < 0.05:
        return
    s = lat.zeta(x).value + lat.zeta(y).value + lat.zeta(w).value
    yield s * s, lat.wp(x).value + lat.wp(y).value + lat.wp(w).value


def _duplication(lat: Lattice, zs):
    """(wp_add(z, z), wp(2z), wp(z)), 2z off the lattice and wp'(z) off its zeros."""
    (z,) = zs
    if lat.distance(2 * z) < 0.08 or abs(lat.wp_prime(z).value) < 1.0:
        return
    yield _wp_add(lat, z, z), lat.wp(2 * z).value, lat.wp(z).value


def _oracle_wp(lat: Lattice, zs):
    (z,) = zs
    yield wp_lattice_oracle(lat.tau, z, ORACLE_RADIUS), lat.wp(z).value


def _oracle_zeta(lat: Lattice, zs):
    (z,) = zs
    yield zeta_lattice_oracle(lat.tau, z, ORACLE_RADIUS), lat.zeta(z).value


def _s_law(lat: Lattice, zs):
    """(the wp oracle, wp at (tau*, z*) in the Lattice of tau*, s)."""
    (z,) = zs
    direct = wp_lattice_oracle(lat.tau, z, ORACLE_RADIUS)
    rr = reduce_point(lat, z)
    yield direct, Lattice(rr.tau_star).wp(rr.z_star).value, rr.scale


def _closure_jobs(rng: random.Random):
    for e in (Z, TAU, WP, WP1, ZETA, E2, E4, E6):
        for var in ("z", "tau"):
            tau = _tau_samples(rng, 1)[0]
            yield e, var, tau, _cell_point(rng, tau, min_dist=0.12)


def _composite_jobs(rng: random.Random):
    pieces = (WP, WP1, ZETA, E2, E4, E6, Z, TAU)
    built = 0
    while built < 5:
        a, b, c, d = (rng.choice(pieces) for _ in range(4))
        k = rng.randrange(2, 5)
        denom = d * d + rational(1, k)
        expr = (a * b + rational(k) * c) / denom
        tau = _tau_samples(rng, 1)[0]
        z = _cell_point(rng, tau, min_dist=0.12)
        if abs(eval_expr(denom, tau, z)) < 0.05:
            continue  # keep the quotient well conditioned at the sample point
        for var in ("z", "tau"):
            yield expr, var, tau, z
        built += 1


def _ramanujan_jobs(rng: random.Random):
    for tau in _tau_samples(rng, 3):
        for e in (E2, E4, E6):
            yield e, "tau", tau, None


# ---------------------------------------------------------------------------
# Case bodies.  Each returns (residuals, notes).


def _case_e2_fixed_point(ctx: _Ctx):
    return [abs(e2_anywhere(1j) - 3.0 / math.pi)], "E2(i) = 3/pi"


def _case_eta1_anchor(ctx: _Ctx):
    eta1 = 2.0 * zeta_anywhere(1j, 0.5).value
    return [abs(eta1 - math.pi)], "eta1(i) = pi"


def _case_duplication_formula(ctx: _Ctx):
    """|wp_add(z, z) - wp(2z)|, and which bracket sign fits: wp_add's (+) or -."""
    triples = [*_duplication(Lattice(1j), [0.3]),
               *_drawn(ctx.rng("duplication"), 5, _duplication, 1, 0.1)]
    residuals = [abs(add - direct) for add, direct, _ in triples]
    minus_err = max(abs(-add - 4.0 * p - direct) for add, direct, p in triples)
    ctx.resolved["duplication_sign"] = sign = "plus" if max(residuals) < minus_err else "minus"
    return residuals, f"sign resolved: bracket enters with {sign}"


def _case_zeta_three_term(ctx: _Ctx):
    """The residuals of [sum zeta]^2 - sum wp = 0, the identity; which form
    fits better, minus or plus, is reported, not chosen."""
    pairs = _drawn(ctx.rng("threeterm"), 30, _three_term, 2, 0.08)
    minus_res = [abs(l - r) for l, r in pairs]
    plus_max = max(abs(l + r) for l, r in pairs)
    if max(minus_res) < plus_max:
        ctx.resolved["three_term_sign"] = "minus"
        notes = f"[sum zeta]^2 - sum wp = 0 selected; rejected variant max residual {plus_max:.3e}"
    else:
        ctx.resolved["three_term_sign"] = "plus"
        notes = f"[sum zeta]^2 - sum wp = 0 checked; the plus form fits better ({plus_max:.3e})"
    return minus_res, notes


def _case_sine_limit(ctx: _Ctx):
    residuals = []
    lat = Lattice(30j)
    for x in (0.1, 0.25, 0.5, 0.75, 0.9):
        limit = math.pi**2 / math.sin(math.pi * x) ** 2 - math.pi**2 / 3.0
        residuals.append(abs(lat.wp(x).value - limit))
    return residuals, "tau = 30i against pi^2/sin^2(pi z) - pi^2/3"


def _case_e2_q_coefficients(ctx: _Ctx):
    coeffs = q_coefficients("e2", 10)
    mismatches = 0.0
    sig = [1, 3, 4, 7, 6, 12, 8, 15, 13, 18]  # sigma_1(1..10) by hand
    for n in range(1, 11):
        if coeffs[n] != -24 * sig[n - 1]:
            mismatches += 1.0
    if coeffs[0] != 1:
        mismatches += 1.0
    # oracle confirmation: partial sum against the conditionally convergent route
    tau = 2j
    q = cmath.exp(2j * math.pi * tau)
    partial = sum(coeffs[n] * q**n for n in range(11))
    oracle = lattice_sum_eisenstein(tau, 1, 60) / (2.0 * ZETA2)
    residuals = [mismatches, abs(partial - oracle)]
    return residuals, "integers -24*sigma1(n) for n<=10 plus lattice-sum confirmation"


def _case_oracle_modular(key: str, k: int, zeta_2k: float, evaluate, ctx: _Ctx):
    """The lattice sum of omega^(-2k) over 2 zeta(2k) against E_2k anywhere."""
    rng = ctx.rng(key)
    taus = _tau_samples(rng, 10) + _low_tau_samples(rng, 5)
    residuals = []
    for tau in taus:
        oracle = lattice_sum_eisenstein(tau, k, ORACLE_RADIUS) / (2.0 * zeta_2k)
        residuals.append(abs(oracle - evaluate(tau)) / max(1.0, abs(oracle)))
    return residuals, f"radius {ORACLE_RADIUS}, normalized comparison"


def _case_s_law_exponent(ctx: _Ctx):
    triples = _transported(ctx.rng("slaw"), 0, _s_law, 6, 0.1)
    errs = {k: [abs(direct - inner / s**k) for direct, inner, s in triples] for k in (1, 2)}
    ctx.resolved["s_law_exponent"] = winner = 2 if max(errs[2]) < max(errs[1]) else 1
    return errs[2], (f"transport weight {winner} selected; weight-1 max residual "
                     f"{max(errs[1]):.3e}, weight-2 {max(errs[2]):.3e}")


_ORACLE_NOTES = f"radius {ORACLE_RADIUS}, 10 points with Im(tau) < 1"

_CASE_TABLE: tuple[tuple[str, object, object], ...] = (
    # (name, runner, tolerance: a float, or the name of a policy attribute)
    ("addition_formula", _case("addition", _drawn, 50, _addition, points=2, min_dist=0.08),
     1e-7),
    ("derivative_closure_fd", _fd("closure", _closure_jobs,
                                  "all generator/variable pairs, h=1e-4 Richardson"), "fd_tol"),
    ("derivative_composite_fd", _fd("composite", _composite_jobs,
                                    "5 seeded composite expressions, both variables"), "fd_tol"),
    ("duplication_formula", _case_duplication_formula, 1e-7),
    ("e2_fixed_point", _case_e2_fixed_point, 1e-10),
    ("e2_q_coefficients", _case_e2_q_coefficients, 1e-8),
    ("eta1_anchor", _case_eta1_anchor, "identity_tol"),
    ("half_period_invariants", _case("halfinv", _on_grid, 10, _half_period_invariants,
                                     "g2 = -4 sum(ei ej), g3 = 4 e1 e2 e3"), "identity_tol"),
    ("half_period_root_sum", _case("rootsum", _on_grid, 10, _root_sum), 1e-10),
    ("legendre_relation", _case("legendre", _on_grid, 20, _legendre, "eta1*tau - eta2 = 2*pi*i"),
     "identity_tol"),
    # distance >= 0.15 keeps |4 wp^3| small enough that plain double rounding
    # stays well under the absolute tolerance
    ("ode_residual", _case("ode", _on_grid, 20, _ode, points=5, min_dist=0.15), 1e-8),
    ("oracle_e4", partial(_case_oracle_modular, "oracle_e4", 2, ZETA4, e4_anywhere),
     "oracle_tol"),
    ("oracle_e6", partial(_case_oracle_modular, "oracle_e6", 3, ZETA6, e6_anywhere),
     "oracle_tol"),
    ("oracle_wp", _case("oracle_wp", _transported, 20, _oracle_wp, _ORACLE_NOTES,
                        low=10, min_dist=0.1), "oracle_tol"),
    ("oracle_zeta", _case("oracle_zeta", _transported, 20, _oracle_zeta, _ORACLE_NOTES,
                          low=10, min_dist=0.1), "oracle_tol"),
    ("quasimodular_law", _case("quasimodular", _on_grid, 20, _quasimodular,
                               "gamma in {S, TS, ST^-1}"), "identity_tol"),
    ("ramanujan_fd", _fd("ramanujan", _ramanujan_jobs), "fd_tol"),
    ("s_law_exponent", _case_s_law_exponent, "oracle_tol"),
    ("sine_limit", _case_sine_limit, 1e-10),
    ("zeta_quasi_periodicity", _case("quasiperiod", _on_grid, 20, _quasi_periodicity, points=1),
     "identity_tol"),
    ("zeta_three_term", _case_zeta_three_term, 1e-8),
)


def case_names() -> tuple[str, ...]:
    return tuple(name for name, _, _ in _CASE_TABLE)


def run_identity_suite(
    seed: int = 42,
    policy: TolerancePolicy | None = None,
    rules: dict | None = None,
    only: list[str] | None = None,
    case_tolerances: dict[str, float] | None = None,
) -> IdentityReport:
    """Run the identity suite and collect an IdentityReport.

    only: optional non-empty subset of case names.  case_tolerances: per-case
    overrides (config file `tol.<case>` entries end up here), each finite and
    positive like the policy's fields; these or a malformed rules table raise
    ValueError before any case runs.
    """
    policy = policy or TolerancePolicy()
    ctx = _Ctx(seed=seed, rules=rules if rules is not None else default_rule_table())
    for var in ("z", "tau"):
        _rules_for(ctx.rules, var)
    known = set(case_names())
    if only is not None:
        unknown = set(only) - known
        if unknown:
            raise ValueError(f"unknown case names: {sorted(unknown)}")
        if not only:
            raise ValueError("no cases selected")
    overrides = dict(case_tolerances or {})
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(f"unknown case tolerance overrides: {sorted(unknown)}")
    bad = {name: tol for name, tol in overrides.items() if not (tol > 0.0 and math.isfinite(tol))}
    if bad:
        raise ValueError(f"case tolerance overrides must be finite and positive: {bad}")

    cases: list[IdentityCase] = []
    for name, runner, tol_entry in _CASE_TABLE:
        if only is not None and name not in only:
            continue
        tol = overrides.get(
            name, getattr(policy, tol_entry) if isinstance(tol_entry, str) else tol_entry
        )
        try:
            residuals, notes = runner(ctx)
            worst, mean = max(residuals), sum(residuals) / len(residuals)
        except WPFieldError as exc:
            residuals, notes = [], f"{type(exc).__name__}: {exc}"
            worst = mean = math.inf
        cases.append(
            IdentityCase(
                name=name,
                sample_count=len(residuals),
                max_residual=worst,
                mean_residual=mean,
                tolerance=tol,
                passed=worst <= tol,
                notes=notes,
            )
        )
    return IdentityReport(
        seed=seed,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        policy=policy,
        resolved=dict(ctx.resolved),
        cases=tuple(cases),
    )


# ---------------------------------------------------------------------------
# Tolerance config files: `key = value` lines, '#' comments.


_POLICY_KEYS = {f.name for f in fields(TolerancePolicy)}


def load_tolerance_config(path: str) -> tuple[TolerancePolicy, dict[str, float]]:
    """Parse a tolerance file into (policy, per-case overrides).

    Recognized keys: the three TolerancePolicy fields, plus `tol.<case_name>`
    entries overriding a single case's pass threshold.  A key given twice is
    refused: one of its values would take no effect.
    """
    policy_kwargs: dict[str, float] = {}
    case_overrides: dict[str, float] = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in first_line:
                raise ValueError(
                    f"{path}:{lineno}: duplicate key {key!r}, first given on line {first_line[key]}")
            first_line[key] = lineno
            try:
                parsed = float(value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad float {value.strip()!r}") from exc
            if key in _POLICY_KEYS:
                policy_kwargs[key] = parsed
            elif key.startswith("tol."):
                case_overrides[key[4:]] = parsed
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return TolerancePolicy(**policy_kwargs), case_overrides
