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
    eisenstein_at,
    lattice_sum_eisenstein,
    q_coefficients,
)
from .errors import WPFieldError
from .reduction import (
    Lattice,
    _cell_distance,
    _wp_add,
    e2_anywhere,
    e4_anywhere,
    e6_anywhere,
    invariants_anywhere,
    reduce_point,
    reduce_tau,
    wp_anywhere,
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
    default_rule_table,
    eval_expr,
    fd_check,
    rational,
)
from .weier import (
    half_periods,
    wp_lattice_oracle,
    wp_q,
    zeta_lattice_oracle,
    zeta_q,
)

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
    policy: TolerancePolicy
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
    k = rng.randrange(len(_RE_GRID) * len(_IM_GRID))
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
# Case bodies.  Each returns (residuals, notes).


def _case_ode_residual(ctx: _Ctx):
    rng = ctx.rng("ode")
    residuals = []
    for tau in _tau_samples(rng, 20):
        lat = Lattice(tau)
        inv = lat.invariants()
        for _ in range(5):
            # distance >= 0.15 keeps |4 wp^3| small enough that plain double
            # rounding stays well under the absolute tolerance
            z = _cell_point(rng, tau, min_dist=0.15)
            p = lat.wp(z).value
            pp = lat.wp_prime(z).value
            residuals.append(abs(pp * pp - (4 * p**3 - inv.g2 * p - inv.g3)))
    return residuals, ""


def _case_derivative_closure_fd(ctx: _Ctx):
    rng = ctx.rng("closure")
    gens = (Z, TAU, WP, WP1, ZETA, E2, E4, E6)
    residuals = []
    for e in gens:
        for var in ("z", "tau"):
            tau = _tau_samples(rng, 1)[0]
            z = _cell_point(rng, tau, min_dist=0.12)
            residuals.append(fd_check(e, var, tau, z, rules=ctx.rules))
    return residuals, "all generator/variable pairs, h=1e-4 Richardson"


def _case_derivative_composite_fd(ctx: _Ctx):
    rng = ctx.rng("composite")
    pieces = (WP, WP1, ZETA, E2, E4, E6, Z, TAU)
    residuals = []
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
            residuals.append(fd_check(expr, var, tau, z, rules=ctx.rules))
        built += 1
    return residuals, "5 seeded composite expressions, both variables"


def _case_ramanujan_fd(ctx: _Ctx):
    rng = ctx.rng("ramanujan")
    residuals = []
    for tau in _tau_samples(rng, 3):
        for e in (E2, E4, E6):
            residuals.append(fd_check(e, "tau", tau, rules=ctx.rules))
    return residuals, ""


def _case_quasimodular_law(ctx: _Ctx):
    rng = ctx.rng("quasimodular")
    gammas = ((0, -1, 1, 0), (1, -1, 1, 0), (0, -1, 1, -1))  # S, T S, S T^-1
    residuals = []
    for tau in _tau_samples(rng, 20):
        g2_tau = ZETA2 * eisenstein_at(tau).e2
        for a, b, c, d in gammas:
            moved = (a * tau + b) / (c * tau + d)
            s = c * tau + d
            lhs = ZETA2 * e2_anywhere(moved)
            rhs = s * s * g2_tau - 1j * math.pi * c * s
            residuals.append(abs(lhs - rhs))
    return residuals, "gamma in {S, TS, ST^-1}"


def _case_e2_fixed_point(ctx: _Ctx):
    return [abs(e2_anywhere(1j) - 3.0 / math.pi)], "E2(i) = 3/pi"


def _case_legendre(ctx: _Ctx):
    rng = ctx.rng("legendre")
    residuals = []
    for tau in _tau_samples(rng, 20):
        eta1 = 2.0 * zeta_q(tau, 0.5).value
        eta2 = 2.0 * zeta_q(tau, tau / 2.0).value
        residuals.append(abs(eta1 * tau - eta2 - 2j * math.pi))
    return residuals, "eta1*tau - eta2 = 2*pi*i"


def _case_eta1_anchor(ctx: _Ctx):
    eta1 = 2.0 * zeta_q(1j, 0.5).value
    return [abs(eta1 - math.pi)], "eta1(i) = pi"


def _case_zeta_quasi_periodicity(ctx: _Ctx):
    rng = ctx.rng("quasiperiod")
    residuals = []
    for tau in _tau_samples(rng, 20):
        lat = Lattice(tau)
        z = _cell_point(rng, tau)
        base = lat.zeta(z).value
        eta1 = 2.0 * lat.zeta(0.5).value
        eta2 = 2.0 * lat.zeta(tau / 2.0).value
        residuals.append(abs(lat.zeta(z + 1.0).value - base - eta1))
        residuals.append(abs(lat.zeta(z + tau).value - base - eta2))
    return residuals, ""


def _case_addition_formula(ctx: _Ctx):
    rng = ctx.rng("addition")
    residuals = []
    count = 0
    while count < 50:
        tau = _tau_samples(rng, 1)[0]
        lat = Lattice(tau)
        z1 = _cell_point(rng, tau, min_dist=0.08)
        z2 = _cell_point(rng, tau, min_dist=0.08)
        if lat.distance(z1 + z2) < 0.05:
            continue
        if lat.distance(z1 - z2) < 0.05:
            continue
        p1 = lat.wp(z1).value
        p2 = lat.wp(z2).value
        if abs(p1 - p2) < 0.5:  # keep the slope quotient well conditioned
            continue
        residuals.append(abs(_wp_add(lat, z1, z2) - lat.wp(z1 + z2).value))
        count += 1
    return residuals, ""


def _case_duplication_formula(ctx: _Ctx):
    rng = ctx.rng("duplication")
    points = [(Lattice(1j), 0.3)]
    while len(points) < 6:
        lat = Lattice(_tau_samples(rng, 1)[0])
        z = _cell_point(rng, lat.tau, min_dist=0.1)
        if lat.distance(2 * z) < 0.08:
            continue
        pp = lat.wp_prime(z).value
        if abs(pp) < 1.0:  # stay away from wp' zeros at the half periods
            continue
        points.append((lat, z))
    residuals = []
    plus_err = minus_err = 0.0
    for lat, z in points:
        direct = lat.wp(2 * z).value
        residuals.append(abs(_wp_add(lat, z, z) - direct))
        p = lat.wp(z).value
        pp = lat.wp_prime(z).value
        second = 6.0 * p * p - 0.5 * lat.invariants().g2
        bracket = (second / (2.0 * pp)) ** 2
        plus_err = max(plus_err, abs(bracket - 2.0 * p - direct))
        minus_err = max(minus_err, abs(-bracket - 2.0 * p - direct))
    ctx.resolved["duplication_sign"] = "plus" if plus_err < minus_err else "minus"
    notes = f"sign resolved: bracket enters with {ctx.resolved['duplication_sign']}"
    return residuals, notes


def _case_zeta_three_term(ctx: _Ctx):
    rng = ctx.rng("threeterm")
    minus_res = []
    plus_res = []
    count = 0
    while count < 30:
        tau = _tau_samples(rng, 1)[0]
        lat = Lattice(tau)
        x = _cell_point(rng, tau, min_dist=0.08)
        y = _cell_point(rng, tau, min_dist=0.08)
        w = -x - y
        if lat.distance(w) < 0.05:
            continue
        s = lat.zeta(x).value + lat.zeta(y).value + lat.zeta(w).value
        p = lat.wp(x).value + lat.wp(y).value + lat.wp(w).value
        minus_res.append(abs(s * s - p))
        plus_res.append(abs(s * s + p))
        count += 1
    minus_wins = max(minus_res) < max(plus_res)
    ctx.resolved["three_term_sign"] = "minus" if minus_wins else "plus"
    chosen = minus_res if minus_wins else plus_res
    notes = (
        f"[sum zeta]^2 {'-' if minus_wins else '+'} sum wp = 0 selected; "
        f"rejected variant max residual {max(plus_res if minus_wins else minus_res):.3e}"
    )
    return chosen, notes


def _case_half_period_root_sum(ctx: _Ctx):
    rng = ctx.rng("rootsum")
    residuals = []
    for tau in _tau_samples(rng, 10):
        hp = half_periods(tau)
        residuals.append(abs(hp.e1 + hp.e2 + hp.e3))
    return residuals, ""


def _case_half_period_invariants(ctx: _Ctx):
    rng = ctx.rng("halfinv")
    residuals = []
    for tau in _tau_samples(rng, 10):
        hp = half_periods(tau)
        inv = invariants_anywhere(tau)
        sym2 = hp.e1 * hp.e2 + hp.e1 * hp.e3 + hp.e2 * hp.e3
        residuals.append(abs(-4.0 * sym2 - inv.g2))
        residuals.append(abs(4.0 * hp.e1 * hp.e2 * hp.e3 - inv.g3))
    return residuals, "g2 = -4 sum(ei ej), g3 = 4 e1 e2 e3"


def _case_sine_limit(ctx: _Ctx):
    residuals = []
    tau = 30j
    for x in (0.1, 0.25, 0.5, 0.75, 0.9):
        limit = math.pi**2 / math.sin(math.pi * x) ** 2 - math.pi**2 / 3.0
        residuals.append(abs(wp_q(tau, x).value - limit))
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


def _case_oracle_point(key: str, oracle, evaluate, ctx: _Ctx):
    """A lattice-sum oracle of (tau, z) against its anywhere evaluator."""
    rng = ctx.rng(key)
    taus = _tau_samples(rng, 20) + _low_tau_samples(rng, 10)
    residuals = []
    for tau in taus:
        rr = reduce_point(tau, 0)
        z = _cell_point(rng, rr.tau_star, min_dist=0.1) * rr.scale
        direct = oracle(tau, z, ORACLE_RADIUS)
        residuals.append(abs(direct - evaluate(tau, z).value))
    return residuals, f"radius {ORACLE_RADIUS}, 10 points with Im(tau) < 1"


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
    rng = ctx.rng("slaw")
    errs = {1: [], 2: []}
    for tau in _low_tau_samples(rng, 6):
        rr = reduce_point(tau, 0)
        z = _cell_point(rng, rr.tau_star, min_dist=0.1) * rr.scale
        direct = wp_lattice_oracle(tau, z, ORACLE_RADIUS)
        inner = wp_q(rr.tau_star, reduce_point(tau, z).z_star).value
        for exponent in (1, 2):
            errs[exponent].append(abs(direct - inner / rr.scale**exponent))
    winner = 2 if max(errs[2]) < max(errs[1]) else 1
    ctx.resolved["s_law_exponent"] = winner
    notes = (
        f"transport weight {winner} selected; "
        f"weight-1 max residual {max(errs[1]):.3e}, weight-2 {max(errs[2]):.3e}"
    )
    return errs[2], notes


_CASE_TABLE: tuple[tuple[str, object, object], ...] = (
    # (name, runner, tolerance: a float, or the name of a policy attribute)
    ("addition_formula", _case_addition_formula, 1e-7),
    ("derivative_closure_fd", _case_derivative_closure_fd, "fd_tol"),
    ("derivative_composite_fd", _case_derivative_composite_fd, "fd_tol"),
    ("duplication_formula", _case_duplication_formula, 1e-7),
    ("e2_fixed_point", _case_e2_fixed_point, 1e-10),
    ("e2_q_coefficients", _case_e2_q_coefficients, 1e-8),
    ("eta1_anchor", _case_eta1_anchor, "identity_tol"),
    ("half_period_invariants", _case_half_period_invariants, "identity_tol"),
    ("half_period_root_sum", _case_half_period_root_sum, 1e-10),
    ("legendre_relation", _case_legendre, "identity_tol"),
    ("ode_residual", _case_ode_residual, 1e-8),
    ("oracle_e4", partial(_case_oracle_modular, "oracle_e4", 2, ZETA4, e4_anywhere),
     "oracle_tol"),
    ("oracle_e6", partial(_case_oracle_modular, "oracle_e6", 3, ZETA6, e6_anywhere),
     "oracle_tol"),
    ("oracle_wp", partial(_case_oracle_point, "oracle_wp", wp_lattice_oracle, wp_anywhere),
     "oracle_tol"),
    ("oracle_zeta", partial(_case_oracle_point, "oracle_zeta", zeta_lattice_oracle,
                            zeta_anywhere), "oracle_tol"),
    ("quasimodular_law", _case_quasimodular_law, "identity_tol"),
    ("ramanujan_fd", _case_ramanujan_fd, "fd_tol"),
    ("s_law_exponent", _case_s_law_exponent, "oracle_tol"),
    ("sine_limit", _case_sine_limit, 1e-10),
    ("zeta_quasi_periodicity", _case_zeta_quasi_periodicity, "identity_tol"),
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

    only: optional subset of case names.  case_tolerances: per-case overrides
    (config file `tol.<case>` entries end up here), each finite and positive
    like the policy's fields; anything else raises ValueError.
    """
    policy = policy or TolerancePolicy()
    ctx = _Ctx(seed=seed, policy=policy, rules=rules or default_rule_table())
    known = set(case_names())
    if only is not None:
        unknown = set(only) - known
        if unknown:
            raise ValueError(f"unknown case names: {sorted(unknown)}")
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
    entries overriding a single case's pass threshold.
    """
    policy_kwargs: dict[str, float] = {}
    case_overrides: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
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
