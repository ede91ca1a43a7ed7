"""Command line front end: eval, reduce, diff, verify, series.

All outputs are machine readable (JSON on stdout; errors as JSON on stderr).
Exit codes: 0 success, 1 verification failures, 2 malformed arguments (from
argparse), 3 evaluation errors such as pole proximity.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .core import TolerancePolicy
from .eisenstein import _TAIL_TARGET, q_coefficients
from .errors import WPFieldError
from .reduction import Lattice, reduce_point
from .symbolic import differentiate, expr_to_text, parse_expr
from .verify import load_tolerance_config, run_identity_suite
from .weier import _EST_FLOOR

TOL_FILE_ENV = "WPFIELD_TOL_FILE"

_EVAL_FUNCTIONS = ("wp", "wp1", "zeta", "e2", "e4", "e6", "g2", "g3", "delta")
_NEEDS_Z = frozenset({"wp", "wp1", "zeta"})

# For each function of tau alone: its weight k, its factor over E_k, and on
# the reduced domain the bound on |E_k'| from Ramanujan's system and the sum
# of |term| over E_k's q-series (both taken at the bottom of the domain,
# where |q| = exp(-pi*sqrt(3)) is largest).
_EISENSTEIN_ERROR = {
    "e2": (2, 1.0, 0.7, 1.2),
    "e4": (4, 1.0, 6.1, 2.1),
    "e6": (6, 1.0, 10.0, 3.6),
    "g2": (4, 4.0 * math.pi**4 / 3.0, 6.1, 2.1),
    "g3": (6, 8.0 * math.pi**6 / 27.0, 10.0, 3.6),
}


def _parse_complex(text: str) -> complex:
    """Parse 'RE,IM' (or a bare real part) into a complex number."""
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"expected RE,IM but got {text!r}")


def _pair(value: complex) -> list[float]:
    return [value.real, value.imag]


def _print_json(obj) -> None:
    print(json.dumps(obj))


def _cmd_eval(args) -> int:
    tau, z, fn = args.tau, args.z, args.fn
    lat = Lattice(tau)
    if fn in _NEEDS_Z:
        res = {"wp": lat.wp, "wp1": lat.wp_prime, "zeta": lat.zeta}[fn](z)
        value, est = res.value, res.est_error
    else:
        if fn in ("e2", "e4", "e6"):
            value = getattr(lat, fn)()
        else:
            value = getattr(lat.invariants(), fn)
        gamma, tau_star, scale = lat._gamma, lat._tau_star, abs(lat._s)
        eps = sys.float_info.epsilon
        if fn == "delta":
            # Rounding relative to |delta|: in the eta product and the s^12
            # division (64), and in tau* through d(delta)/d(tau) =
            # 2*pi*i*E2*delta with 2*pi*|E2| <= 8 on the reduced domain,
            # where tau*'s own rounding is amplified by d(tau*)/d(tau) = 1/s^2.
            conditioning = 64.0 + 8.0 * (abs(tau_star) + abs(tau) / scale**2)
            est = abs(value) * eps * conditioning
        else:
            weight, factor, slope, terms = _EISENSTEIN_ERROR[fn]
            # E_k(tau*) carries the series tail, the rounding of its terms and
            # tau*'s rounding through |E_k'| <= slope.  Translations by
            # integers are exact, so with no inversion tau* rounds only in the
            # nome (|tau*|); the first inversion rounds at |tau|, which
            # d(tau*)/d(tau) = 1/s^2 carries to tau*.  The transport rounds
            # relative to its terms, k times through s = c*tau + d, which is
            # itself off by eps*(1 + |c*tau|/|s|).
            tau_star_error = abs(tau_star) + (abs(tau) / scale**2 if gamma.c else 0.0)
            reduced = _TAIL_TARGET + eps * (terms + slope * tau_star_error)
            transport = abs(value)
            if fn == "e2":
                transport += 6.0 * abs(gamma.c) / (math.pi * scale)
            s_error = 1.0 + abs(gamma.c * tau) / scale
            est = factor * reduced / scale**weight + eps * weight * s_error * transport
        est = max(est, _EST_FLOOR)
    out = {"fn": fn, "tau": _pair(tau), "re": value.real, "im": value.imag, "est_error": est}
    if z is not None:
        out["z"] = _pair(z)
    _print_json(out)
    return 0


def _cmd_reduce(args) -> int:
    tau, z = args.tau, args.z
    rr = reduce_point(tau, z)
    out = {
        "gamma": {"a": rr.gamma.a, "b": rr.gamma.b, "c": rr.gamma.c, "d": rr.gamma.d},
        "tau_star": _pair(rr.tau_star),
        "m": rr.m,
        "n": rr.n,
        "z_star": _pair(rr.z_star) if rr.z_star is not None else None,
        "scale": _pair(rr.scale),
    }
    _print_json(out)
    return 0


def _cmd_diff(args) -> int:
    expr = parse_expr(args.expr)
    print(expr_to_text(differentiate(expr, args.var)))
    return 0


def _cmd_verify(args) -> int:
    tol_file = args.tol_file or os.environ.get(TOL_FILE_ENV)
    if tol_file:
        policy, overrides = load_tolerance_config(tol_file)
    else:
        policy, overrides = TolerancePolicy(), {}
    only = args.cases.split(",") if args.cases else None
    report = run_identity_suite(
        seed=args.seed, policy=policy, only=only, case_tolerances=overrides
    )
    if args.json:
        _print_json(report.to_json_dict())
    elif args.csv:
        sys.stdout.write(report.to_csv())
    else:
        print(report.to_text())
    return 0 if report.all_passed else 1


def _cmd_series(args) -> int:
    fn, order = args.fn, args.order
    if order < 0:
        raise WPFieldError(f"order must be >= 0, got {order}")
    _print_json({"fn": fn, "order": order, "coefficients": q_coefficients(fn, order)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpfield",
        description="Weierstrass field evaluator, reducer, differentiator, verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a field function at (tau, z)")
    p_eval.add_argument("--fn", required=True, choices=_EVAL_FUNCTIONS)
    p_eval.add_argument(
        "--tau", required=True, type=_parse_complex, help="tau as RE,IM with IM > 0"
    )
    p_eval.add_argument(
        "--z", type=_parse_complex, help="z as RE,IM (required for wp, wp1, zeta)"
    )
    p_eval.set_defaults(run=_cmd_eval)

    p_red = sub.add_parser("reduce", help="reduce tau (and optionally z) to the base domain")
    p_red.add_argument(
        "--tau", required=True, type=_parse_complex, help="tau as RE,IM with IM > 0"
    )
    p_red.add_argument("--z", type=_parse_complex, help="z as RE,IM")
    p_red.set_defaults(run=_cmd_reduce)

    p_diff = sub.add_parser("diff", help="differentiate an expression symbolically")
    p_diff.add_argument("--expr", required=True, help="expression in the text serialization")
    p_diff.add_argument("--var", required=True, choices=("z", "tau"))
    p_diff.set_defaults(run=_cmd_diff)

    p_ver = sub.add_parser("verify", help="run the seeded identity suite")
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument(
        "--tol-file", help=f"tolerance config path (default: ${TOL_FILE_ENV} if set)"
    )
    p_ver.add_argument("--cases", help="comma-separated case-name subset")
    fmt = p_ver.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit the report as JSON")
    fmt.add_argument("--csv", action="store_true", help="emit the report as CSV")
    p_ver.set_defaults(run=_cmd_verify)

    p_ser = sub.add_parser("series", help="print the integer q-coefficients of E2, E4 or E6")
    p_ser.add_argument("--fn", required=True, choices=("e2", "e4", "e6"))
    p_ser.add_argument("--order", type=int, required=True)
    p_ser.set_defaults(run=_cmd_series)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval" and args.fn in _NEEDS_Z and args.z is None:
        parser.error(f"--z is required for --fn {args.fn}")
    try:
        return args.run(args)
    except WPFieldError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    except ValueError as exc:
        json.dump({"error": "ValueError", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
