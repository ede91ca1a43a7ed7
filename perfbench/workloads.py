"""Seeded inputs, closed-loop runners and output checks for the four workloads.

Every workload runs one process and one thread in a closed loop: each call
starts when the previous one returns.  Only wpfield's public API is called,
so the benchmark keeps working while the package is rewritten underneath it.
Each runner returns an ``Outcome``: per-operation latencies, the operations of
the seed's list, and those that failed, with their messages.  An operation
fails if it raised any exception, returned a non-finite value, or failed its
check; it counts once however many passes it fails in.  ``wrong`` counts only
the last two, the answers that were delivered and are not correct.
"""

from __future__ import annotations

import cmath
import contextlib
import gc
import math
import random
import statistics
import time
from array import array
from dataclasses import dataclass, field

import wpfield as W
from refclock import RefClock

# Fixed relative accuracy an evaluator output must meet against the mpmath
# reference.  The worst error seen on the evaluators is ~1e-10 (wp'), and a
# perturbation of 1e-6 must fail, so the check sits between the two.
EVAL_REL_TOL = 1e-8
# Relative residual of wp'^2 = 4 wp^3 - g2 wp - g3 (scaled by its largest
# term) allowed on every evaluated point; rounding gives ~1e-15.
ODE_REL_TOL = 1e-10
# Symbolic outputs against Richardson finite differences of the input
# expression: |value - fd| <= SYMBOLIC_TOL * max(1, |fd|), the suite's fd_tol.
SYMBOLIC_TOL = 1e-5
FD_STEP = 1e-3

# Points closer than this to the lattice are redrawn.  The evaluators refuse
# points inside pole_guard_radius by design; the factor 2 keeps rounding in
# the two distance computations from disagreeing about points on the edge.
POLE_REDRAW = 2.0 * W.DEFAULT_POLICY.pole_guard_radius

GRID_TAUS = 16  # tau strata per eval_grid seed
GRID_ZS = 250  # z points per tau
SCATTER_POINTS = 1600  # (tau, z) per eval_scatter seed; a pass takes ~1.5 s
REF_POINTS = 32  # points per run checked against the mpmath reference

# The identity suite's composite grammar (derivative_composite_fd): the
# expression (a*b + k*c)/(d^2 + 1/k), with a, b, c and d drawn from the eight
# pieces and k from 2..4, at points where |d^2 + 1/k| >= DENOM_MIN.
PIECES = ("wp", "wp1", "zeta", "E2", "E4", "E6", "z", "tau")
DENOM_MIN = 0.05
CATALOGUE_SEED = "perfbench/catalogue"


def _draw_catalogue() -> tuple[tuple[str, str, int], ...]:
    """Eight expressions (text, d, k) drawn once from the grammar with a fixed
    seed, so every benchmark seed does the same symbolic work: a job's cost
    depends on the expression far more than on the point (1 ms to 2 s).  d
    takes each piece once, the grammar's proportions exactly; a, b, c and k
    are drawn as the suite draws them."""
    rng = random.Random(CATALOGUE_SEED)
    ds = list(PIECES)
    rng.shuffle(ds)
    out = []
    for d in ds:
        a, b, c = (rng.choice(PIECES) for _ in range(3))
        k = rng.randrange(2, 5)
        out.append((f"({a}*{b}+{k}*{c})/({d}^2+1/{k})", d, k))
    return tuple(out)


CATALOGUE = _draw_catalogue()
# The variables a job differentiates by, in order.
DERIVATIVES = {
    "z": ("z",),
    "tau": ("tau",),
    "ztau": ("z", "tau"),
    "tauz": ("tau", "z"),
    "tautau": ("tau", "tau"),
}
# Im(tau) ranges of the timed symbolic jobs.  Jobs involving d/dtau stay
# below 1.2: above it the error of today's 1/delta tau-rules in double
# precision grows fast with Im(tau) (~1e-6 relative at 1.3, no correct digit
# by 4), a documented defect that the defect probe reports instead.
TAU_JOB_IM_MAX = 1.2
Z_JOB_IM_MAX = 8.0


@dataclass
class Outcome:
    # each operation of a pass: its median latency over the passes, in ns, on
    # the reference-speed clock (see refclock.py), and the same on the wall clock
    latencies_ns: array = field(default_factory=lambda: array("d"))
    wall_ns: array = field(default_factory=lambda: array("d"))
    labels: list = field(default_factory=list)  # the function each operation calls
    passes: int = 0
    ops: int = 0  # operations run, over all passes
    # each failed operation of the seed's list -> whether it delivered a wrong
    # value (False: it raised and delivered nothing)
    bad: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    # lines describing what was checked, printed with the result
    checks: list = field(default_factory=list)
    # numbers the per-layer report uses (est_error ratios, terms, ...)
    extra: dict = field(default_factory=dict)
    # kernel kind -> ref over its typical reading in the run, for raw span times
    ref_scales: dict = field(default_factory=dict)
    absorbed: int = 0  # operations of other outcomes merged in by absorb()

    @property
    def attempted(self) -> int:
        """Operations in the seed's list.  Passes repeat the same operations,
        so neither this nor `failed` depends on how many passes fit."""
        return self.ops // max(1, self.passes) + self.absorbed

    @property
    def failed(self) -> int:
        return len(self.bad)

    @property
    def wrong(self) -> int:
        return sum(self.bad.values())

    def fail(self, op: str, what: str, wrong: bool = True) -> None:
        """Count operation `op` as failed, once however often it fails;
        wrong=False for an operation that raised."""
        self.bad[op] = self.bad.get(op, False) or wrong
        if len(self.failures) < 20 and what not in self.failures:
            self.failures.append(what)

    def absorb(self, other: "Outcome") -> None:
        """Count another run's operations, failures and checks with these."""
        self.absorbed += other.attempted
        for op, wrong in other.bad.items():
            self.bad[op] = self.bad.get(op, False) or wrong
        self.failures += [f for f in other.failures if f not in self.failures][:20]
        self.checks = list(dict.fromkeys(self.checks + other.checks))


def op_name(fn: str, *args) -> str:
    """The name of one operation, e.g. wp_anywhere((0.1+1j), (0.3+0.2j))."""
    return f"{fn}({', '.join(map(repr, args))})"


class _Passes:
    """Repeats a fixed list of operations in passes until a deadline.

    Each operation's latency is taken on the wall clock and on the
    reference-speed clock of the kind of work it does (`kind`, see
    refclock.py), and its median over the passes is reported.  As in timeit,
    the garbage collector is off while an operation runs: otherwise a
    collection lands on whichever operation crosses the allocation threshold,
    which depends on the order of the seed's operations, not on their cost.
    Every pass after the first must return exactly what the first returned.
    """

    def __init__(self, out: Outcome, seconds: float, kind: str = "float") -> None:
        self.out = out
        self.first: list = []
        self.ref: list[array] = []  # one array of latencies per pass
        self.wall: list[array] = []
        self.kind = kind
        self.clocks: dict[str, RefClock] = {}  # made on first use
        self.pending: dict[str, list[tuple[int, int]]] = {}
        self.i = 0
        self.deadline = time.perf_counter() + seconds

    def more(self) -> bool:
        """Start a pass if the deadline allows (the first pass always runs)."""
        out = self.out
        if out.passes and time.perf_counter() >= self.deadline:
            out.latencies_ns = array("d", (statistics.median(op) for op in zip(*self.ref)))
            out.wall_ns = array("d", (statistics.median(op) for op in zip(*self.wall)))
            out.ref_scales = {k: c.typical_scale() for k, c in self.clocks.items()}
            return False
        self.i = 0
        for times in (self.ref, self.wall):
            times.append(array("d", times[0]) if times else array("d"))
        return True

    def done(self) -> None:
        for kind in self.clocks:
            self._flush(kind)
        self.out.passes += 1

    @property
    def first_pass(self) -> bool:
        return self.out.passes == 0

    def timed(self, label: str, op: str, fn, *args, what: str | None = None,
              kind: str | None = None):
        """Call fn(*args) as (part of) operation `op`, record its latency, and
        return its result (None if it raised: every exception fails the
        operation).  `what` names the call in messages, `op` by default;
        `kind` is the kernel whose clock times it, the loop's by default."""
        what = what or op
        kind = kind or self.kind
        if kind not in self.clocks:
            self.clocks[kind] = RefClock(kind)
            self.pending[kind] = []
        elif self.clocks[kind].due():
            # a fresh reading before the call, not one from long before it
            self._flush(kind)
        gc.disable()
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args)
        except Exception as exc:
            result = None
            self.out.fail(op, f"{what}: {type(exc).__name__}: {exc}", wrong=False)
        finally:
            t1 = time.perf_counter_ns()
            gc.enable()
        self.pending[kind].append((self.i, t1 - t0))
        self._check_repeat(result, label, op, what)
        if self.clocks[kind].due():
            self._flush(kind)
        return result

    def _check_repeat(self, value, label: str, op: str, what: str) -> None:
        i = self.i
        self.i += 1
        if self.first_pass:
            self.ref[0].append(0.0)
            self.wall[0].append(0.0)
            self.out.labels.append(label)
            self.first.append(value)
        elif value != self.first[i]:
            self.out.fail(op, f"{what}: pass {self.out.passes + 1} returned {value!r}, "
                              f"pass 1 returned {self.first[i]!r}")

    def _flush(self, kind: str) -> None:
        scale = self.clocks[kind].scale()
        ref, wall = self.ref[-1], self.wall[-1]
        for i, d in self.pending[kind]:
            ref[i] = d * scale
            wall[i] = d
        self.pending[kind].clear()


# ---------------------------------------------------------------------------
# Geometry the benchmark computes itself, so inputs depend on the seed alone.


def lattice_distance(tau: complex, z: complex) -> float:
    """Distance from z to Z + tau*Z, via a Lagrange-reduced basis."""
    w1, w2 = 1.0 + 0j, complex(tau)
    while True:
        if abs(w2) < abs(w1):
            w1, w2 = w2, w1
        k = round((w2 * w1.conjugate()).real / abs(w1) ** 2)
        if k == 0:
            break
        w2 -= k * w1
    # z = a*w1 + b*w2 in real coordinates
    det = (w1.conjugate() * w2).imag
    a = (z.real * w2.imag - z.imag * w2.real) / det
    b = (w1.real * z.imag - w1.imag * z.real) / det
    ia, ib = math.floor(a), math.floor(b)
    return min(abs(z - i * w1 - j * w2)
               for i in range(ia - 1, ia + 3) for j in range(ib - 1, ib + 3))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _disk_point(rng: random.Random, tau: complex, radius: float = 60.0) -> complex:
    while True:
        z = cmath.rect(radius * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi))
        if lattice_distance(tau, z) >= POLE_REDRAW:
            return z


def _cell_point(rng: random.Random, tau: complex, min_dist: float = 0.12) -> complex:
    while True:
        z = rng.uniform(0.02, 0.98) + rng.uniform(0.02, 0.98) * tau
        if lattice_distance(tau, z) >= min_dist:
            return z


# ---------------------------------------------------------------------------
# Inputs.


def grid_inputs(seed: int) -> list[tuple[complex, list[complex]]]:
    """GRID_TAUS tau, Im(tau) log-uniform over [0.01, 5] (one per stratum),
    each with GRID_ZS points z in |z| <= 60."""
    rng = random.Random(f"eval_grid/{seed}")
    lo, hi = math.log(0.01), math.log(5.0)
    out = []
    for k in range(GRID_TAUS):
        im = math.exp(lo + (k + rng.random()) * (hi - lo) / GRID_TAUS)
        tau = complex(rng.uniform(-0.5, 0.5), im)
        out.append((tau, [_disk_point(rng, tau) for _ in range(GRID_ZS)]))
    rng.shuffle(out)
    return out


def scatter_inputs(seed: int) -> list[tuple[complex, complex]]:
    """SCATTER_POINTS fresh (tau, z): Im(tau) log-uniform over [0.005, 5],
    |z| <= 60."""
    rng = random.Random(f"eval_scatter/{seed}")
    out = []
    for _ in range(SCATTER_POINTS):
        tau = complex(rng.uniform(-0.5, 0.5), _log_uniform(rng, 0.005, 5.0))
        out.append((tau, _disk_point(rng, tau)))
    return out


def _fd_tau(rng: random.Random, im_max: float) -> complex:
    return complex(rng.uniform(-0.5, 0.5), _log_uniform(rng, 1.0, im_max))


def _denominator(d: str, k: int, tau: complex, z: complex) -> complex:
    """d^2 + 1/k at (tau, z), with d's value from the mpmath reference, so
    that inputs depend on the seed alone."""
    if d in ("z", "tau"):
        v = z if d == "z" else tau
    else:
        from reference import reference
        v = reference(tau, z)[d]
    return v * v + 1.0 / k


def symbolic_jobs(seed: int) -> list[tuple[str, str, complex, complex]]:
    """The seed's symbolic jobs (text, kind, tau, z): each catalogue
    expression as a z job, a tau job and a tau-z job, plus the E2 tau-tau
    control, in a seeded order at seeded points of the fundamental domain.
    A point where the expression's denominator is below DENOM_MIN is
    redrawn, as the suite does, to keep the quotient well conditioned.

    Mixed jobs differentiate by tau first.  The z-tau order, the same
    derivative, is wrong on the wp' denominator (by up to 2.6e-3 at 6 of 30
    points with Im(tau) in [1, 1.2]), so it is in the defect probe."""
    rng = random.Random(f"symbolic/{seed}")
    jobs = [(text, kind, d, k) for text, d, k in CATALOGUE for kind in ("z", "tau", "tauz")]
    jobs.append(("E2", "tautau", None, 0))
    rng.shuffle(jobs)
    out = []
    for text, kind, d, k in jobs:
        while True:
            tau = _fd_tau(rng, Z_JOB_IM_MAX if kind in ("z", "tautau") else TAU_JOB_IM_MAX)
            z = _cell_point(rng, tau)
            if d is None or abs(_denominator(d, k, tau, z)) >= DENOM_MIN:
                break
        out.append((text, kind, tau, z))
    return out


# ---------------------------------------------------------------------------
# eval_grid and eval_scatter.


def _finite(v: complex) -> bool:
    return math.isfinite(v.real) and math.isfinite(v.imag)


def _ode_residual(p: complex, pp: complex, g2: complex, g3: complex) -> float:
    terms = (abs(pp * pp), abs(4.0 * p**3), abs(g2 * p), abs(g3))
    return abs(pp * pp - (4.0 * p**3 - g2 * p - g3)) / max(terms)


TAU_FNS = ("e2_anywhere", "e4_anywhere", "e6_anywhere", "invariants_anywhere")
POINT_FNS = ("wp_anywhere", "wp_prime_anywhere", "zeta_anywhere")


def _tau_calls(loop: _Passes, api, tau: complex, mark):
    """E2, E4, E6 and the invariants at tau.  Returns (E2, E4, E6, g2, g3,
    eta1, delta), or None if a call failed."""
    vals = []
    for name in TAU_FNS:
        if mark:
            mark()
        loop.out.ops += 1
        vals.append(loop.timed(name, op_name(name, tau), getattr(api, name), tau))
    if None in vals:
        return None
    inv = vals.pop()
    vals += [inv.g2, inv.g3, inv.eta1, inv.delta]
    if not loop.first_pass:
        return vals
    # E2, E4, E6 come from their own calls, the rest from invariants_anywhere
    bad = {TAU_FNS[min(k, 3)] for k, v in enumerate(vals) if not _finite(v)}
    for name in bad:
        loop.out.fail(op_name(name, tau), f"non-finite value from {op_name(name, tau)}")
    return None if bad else vals


def _point_calls(loop: _Passes, api, tau: complex, z: complex, inv_vals, mark):
    """wp, wp' and zeta at (tau, z).  The first pass checks that they are
    finite and, when the invariants are known, the cubic ODE."""
    res = []
    for name in POINT_FNS:
        if mark:
            mark()
        loop.out.ops += 1
        res.append(loop.timed(name, op_name(name, tau, z), getattr(api, name), tau, z))
    if None in res or not loop.first_pass:
        return None
    bad = [name for name, r in zip(POINT_FNS, res) if not _finite(r.value)]
    for name in bad:
        loop.out.fail(op_name(name, tau, z), f"non-finite value from {op_name(name, tau, z)}")
    if bad:
        return None
    if inv_vals is not None:
        r = _ode_residual(res[0].value, res[1].value, inv_vals[3], inv_vals[4])
        if r > ODE_REL_TOL:
            # the residual cannot tell which value is wrong; it fails the
            # wp' call, whose square it checks
            loop.out.fail(op_name("wp_prime_anywhere", tau, z),
                          f"ODE residual {r:.2e} at tau={tau!r}, z={z!r}")
    return res


def _run_eval(blocks, seconds: float, api, mark) -> tuple[Outcome, list]:
    """Passes over blocks (tau, [z, ...]): the tau calls once per block, the
    point calls for every z.  Returns the outcome and the reference samples
    (tau, z, tau values, point values) of the first pass."""
    out = Outcome()
    loop = _Passes(out, seconds)
    per_block = max(1, REF_POINTS // len(blocks))
    samples = []
    while loop.more():
        for tau, zs in blocks:
            inv_vals = _tau_calls(loop, api, tau, mark)
            for j, z in enumerate(zs):
                res = _point_calls(loop, api, tau, z, inv_vals, mark)
                if res and inv_vals and j < per_block and len(samples) < REF_POINTS:
                    samples.append((tau, z, inv_vals, res))
        loop.done()
    out.checks.append(
        f"every point: finite values and wp'^2 = 4wp^3 - g2 wp - g3 within {ODE_REL_TOL:g} "
        f"(relative to the largest term); passes 2+ bit-identical to pass 1")
    return out, samples


def run_eval_grid(seed: int, seconds: float, api=W, mark=None) -> tuple[Outcome, list]:
    return _run_eval(grid_inputs(seed), seconds, api, mark)


def run_eval_scatter(seed: int, seconds: float, api=W, mark=None) -> tuple[Outcome, list]:
    return _run_eval([(tau, [z]) for tau, z in scatter_inputs(seed)], seconds, api, mark)


# The evaluator each checked value comes from.
SOURCE = {"E2": "e2_anywhere", "E4": "e4_anywhere", "E6": "e6_anywhere",
          "g2": "invariants_anywhere", "g3": "invariants_anywhere",
          "eta1": "invariants_anywhere", "wp": "wp_anywhere",
          "wp1": "wp_prime_anywhere", "zeta": "zeta_anywhere"}


def check_eval_samples(out: Outcome, samples: list) -> None:
    """Compare sampled outputs with the mpmath reference at the fixed relative
    accuracy, and record how the claimed est_error and delta hold up."""
    from reference import reference

    ratios = []
    violations = 0
    delta_bad = set()
    for tau, z, inv_vals, res in samples:
        ref = reference(tau, z)
        e2, e4, e6, g2, g3, eta1, delta = inv_vals
        got = {"E2": e2, "E4": e4, "E6": e6, "g2": g2, "g3": g3, "eta1": eta1,
               "wp": res[0].value, "wp1": res[1].value, "zeta": res[2].value}
        for key, value in got.items():
            err = abs(value - ref[key])
            if not err <= EVAL_REL_TOL * abs(ref[key]):
                op = (op_name(SOURCE[key], tau, z) if SOURCE[key] in POINT_FNS
                      else op_name(SOURCE[key], tau))
                out.fail(op, f"{key} rel err {err / abs(ref[key]):.2e} at tau={tau!r}, z={z!r}")
        for key, wv in zip(("wp", "wp1", "zeta"), res):
            ratio = abs(wv.value - ref[key]) / wv.est_error
            ratios.append(ratio)
            violations += ratio > 1.0
        # The invariants' delta is g2^3 - 27 g3^2 in double precision, which
        # cancels at large Im(tau*): a known defect, recorded rather than failed.
        if not abs(delta - ref["delta"]) <= EVAL_REL_TOL * abs(ref["delta"]):
            delta_bad.add(tau)
    n = len(samples)
    n_tau = len({s[0] for s in samples})
    out.checks.append(
        f"{n} sampled points: wp, wp', zeta, E2, E4, E6, g2, g3, eta1 within "
        f"{EVAL_REL_TOL:g} relative of the mpmath theta reference")
    ratios.sort()
    out.extra["est_error_violation_frac"] = violations / len(ratios) if ratios else 0.0
    out.extra["est_error_ratio_p50"] = ratios[len(ratios) // 2] if ratios else 0.0
    out.extra["delta_bad_frac"] = len(delta_bad) / n_tau if n_tau else 0.0
    out.checks.append(
        f"known defects, recorded and not failed: est_error exceeded on "
        f"{violations}/{len(ratios)} sampled values; invariants_anywhere delta off by "
        f"more than {EVAL_REL_TOL:g} relative at {len(delta_bad)}/{n_tau} sampled tau")



# ---------------------------------------------------------------------------
# symbolic


def _fd_reference(f, kind: str, tau: complex, z: complex) -> complex:
    """Richardson-extrapolated central differences of f(tau, z)."""
    h = FD_STEP
    if kind in ("z", "tau"):
        def step(s):
            if kind == "z":
                return (f(tau, z + s) - f(tau, z - s)) / (2.0 * s)
            return (f(tau + s, z) - f(tau - s, z)) / (2.0 * s)
    elif kind == "tautau":
        def step(s):
            return (f(tau + s, z) - 2.0 * f(tau, z) + f(tau - s, z)) / (s * s)
    else:  # mixed partials commute, so ztau and tauz share one stencil
        def step(s):
            return (f(tau + s, z + s) - f(tau + s, z - s)
                    - f(tau - s, z + s) + f(tau - s, z - s)) / (4.0 * s * s)
    return (4.0 * step(h / 2.0) - step(h)) / 3.0


def symbolic_job(api, text: str, kind: str, tau: complex, z: complex, rules=None):
    """parse -> differentiate (once or twice) -> text -> evaluate.  Returns the
    value and the derivative expression."""
    e = api.parse_expr(text)
    for var in DERIVATIVES[kind]:
        e = api.differentiate(e, var) if rules is None else api.differentiate(e, var, rules)
    api.expr_to_text(e)
    return api.eval_expr(e, tau, z), e


def check_symbolic(api, text: str, kind: str, tau: complex, z: complex, value) -> str | None:
    """None if value matches finite differences of the input expression."""
    if not _finite(value):
        return f"non-finite {kind} derivative of {text} at tau={tau!r}"
    e = api.parse_expr(text)
    ref = _fd_reference(lambda t, w: api.eval_expr(e, t, w), kind, tau, z)
    err = abs(value - ref) / max(1.0, abs(ref))
    if err > SYMBOLIC_TOL:
        return f"{kind} derivative of {text} off by {err:.2e} at tau={tau!r}, z={z!r}"
    return None


def run_symbolic(seed: int, seconds: float, api=W, mark=None) -> Outcome:
    """Passes over the seed's jobs until `seconds` have passed.  The first pass
    checks every value against finite differences."""
    out = Outcome()
    loop = _Passes(out, seconds, kind="fraction")
    jobs = symbolic_jobs(seed)
    terms = []
    while loop.more():
        for text, kind, tau, z in jobs:
            if mark:
                mark()
            out.ops += 1
            op = f"{kind} job on {text} at tau={tau!r}, z={z!r}"
            result = loop.timed(f"{kind} job", op, symbolic_job, api, text, kind, tau, z)
            if result is None or not loop.first_pass:
                continue
            value, deriv = result
            terms.append(len(getattr(deriv, "num", ())))
            problem = check_symbolic(api, text, kind, tau, z, value)
            if problem:
                out.fail(op, problem)
        loop.done()
    out.extra["terms_out"] = terms
    out.checks.append(
        f"every job: finite value within {SYMBOLIC_TOL:g} (relative, floor 1) of Richardson "
        f"differences of the input expression, step {FD_STEP:g}; passes 2+ identical")
    return out


def symbolic_defect_probe(seed: int, api=W) -> list[str]:
    """Untimed jobs on the known weak spots of the tau-rules: tau-tau jobs on
    wp, wp' and zeta and first-order tau jobs, at Im(tau) in [1.2, 8], and
    z-tau jobs on the catalogue at the timed jobs' Im(tau) in [1, 1.2].
    Returns one line per job; these are reported, not timed."""
    rng = random.Random(f"symbolic-probe/{seed}")
    high = (TAU_JOB_IM_MAX, Z_JOB_IM_MAX)
    jobs = [(g, "tautau", None, 0, high) for g in ("wp", "wp1", "zeta")]
    jobs += [(text, "tau", None, 0, high) for text, _, _ in CATALOGUE]
    jobs += [(text, "ztau", d, k, (1.0, TAU_JOB_IM_MAX)) for text, d, k in CATALOGUE]
    lines = []
    for text, kind, d, k, (lo, hi) in jobs:
        while True:
            tau = complex(rng.uniform(-0.5, 0.5), _log_uniform(rng, lo, hi))
            z = _cell_point(rng, tau)
            if d is None or abs(_denominator(d, k, tau, z)) >= DENOM_MIN:
                break
        t0 = time.perf_counter()
        try:
            value, _ = symbolic_job(api, text, kind, tau, z)
            problem = check_symbolic(api, text, kind, tau, z, value)
            status = "ok" if problem is None else "wrong: " + problem
        except Exception as exc:
            status = f"raised {type(exc).__name__}: {exc}"
        lines.append(f"{kind} {text} Im(tau)={tau.imag:.2f} "
                     f"({time.perf_counter() - t0:.2f} s): {status}")
    return lines


# ---------------------------------------------------------------------------
# verify_suite


def check_cases(cases, names) -> str | None:
    found = {c.name for c in cases}
    if found != set(names) or len(cases) != len(names):
        return f"report cases differ from case_names(): {sorted(set(names) ^ found)}"
    bad = [c.name for c in cases if not c.passed or c.sample_count < 1]
    if bad:
        return f"failing or empty cases: {bad}"
    return None


# The cases that spend their time in the NumPy lattice-sum oracles (radius
# 400): about 95% of the suite.  They are timed on the numpy clock, the rest
# on the float clock (see refclock.py).
NUMPY_CASES = frozenset(("oracle_e4", "oracle_e6", "oracle_wp", "oracle_zeta", "s_law_exponent"))


def run_verify_suite(seed: int, seconds: float, api=W, mark=None, span=None) -> Outcome:
    """Passes of the identity suite for `seed` until `seconds` have passed.
    A pass runs the suite's cases one run_identity_suite(seed, only=[case])
    call each (inside span("verify.<case>") when given), which is the work
    of one full run_identity_suite(seed) with each case timed on its own."""
    out = Outcome()
    loop = _Passes(out, seconds)
    names = api.case_names()
    op = op_name("run_identity_suite", seed)

    def cases(name):  # the report minus its timestamp, so passes compare equal
        return api.run_identity_suite(seed, only=[name]).cases

    while loop.more():
        if mark:
            mark()
        out.ops += 1
        found, raised = [], False
        for name in names:
            with span(f"verify.{name}") if span else contextlib.nullcontext():
                result = loop.timed(name, op, cases, name,
                                    what=f"run_identity_suite({seed}, only=[{name!r}])",
                                    kind="numpy" if name in NUMPY_CASES else "float")
            raised |= result is None
            found += result or []
        problem = None if raised else check_cases(found, names)
        if problem:
            out.fail(op, problem)
        loop.done()
    out.checks.append(
        f"every suite: all {len(names)} cases of case_names() present, passed, non-empty")
    return out
