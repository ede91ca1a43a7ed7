"""Command line front end: eval, reduce, diff, verify, series.

All outputs are machine readable (JSON on stdout; errors as JSON on stderr).
Exit codes: 0 success, 1 verification failures, 2 malformed arguments (from
argparse), 3 evaluation errors such as pole proximity.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import TolerancePolicy, ensure_finite
from .eisenstein import q_coefficients
from .errors import WPFieldError
from .reduction import Lattice, reduce_point
from .symbolic import differentiate, expr_to_text, parse_expr
from .verify import load_tolerance_config, run_identity_suite

TOL_FILE_ENV = "WPFIELD_TOL_FILE"

_EVAL_FUNCTIONS = ("wp", "wp1", "zeta", "e2", "e4", "e6", "g2", "g3", "delta")
_NEEDS_Z = frozenset({"wp", "wp1", "zeta"})
# series' divisor sums cost more than linearly in the order, and no
# evaluator sums more than 119 terms
_MAX_SERIES_ORDER = 10_000


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
    print(json.dumps(obj, allow_nan=False))


def _cmd_eval(args) -> int:
    tau, z, fn = args.tau, args.z, args.fn
    lat = Lattice(tau)
    if fn in _NEEDS_Z:
        res = {"wp": lat.wp, "wp1": lat.wp_prime, "zeta": lat.zeta}[fn](z)
        value, est = res.value, res.est_error
    else:
        value = getattr(lat, fn)() if fn in ("e2", "e4", "e6") else getattr(lat.invariants(), fn)
        est = lat._tau_error(fn, value)
    ensure_finite(est, f"est_error of {fn}")  # it can overflow where the value does not
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
    if not 0 <= order <= _MAX_SERIES_ORDER:
        raise WPFieldError(f"order must be in [0, {_MAX_SERIES_ORDER}], got {order}")
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
