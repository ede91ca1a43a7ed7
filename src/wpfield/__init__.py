"""Weierstrass field toolkit: wp, wp', zeta, Eisenstein series, invariants.

Evaluation works anywhere on the upper half plane times the z-plane: the pair
(tau, z) is moved to the modular fundamental domain and the base lattice cell,
the q-expansions are summed there, and the value is transported back by the
exact covariance weights.  A symbolic layer differentiates rational
combinations of the field generators in closed form, and a seeded verification
suite cross-checks every identity against slow lattice-sum oracles.

Each public name loads its module on first use (PEP 562), so a caller of the
evaluators never loads the symbolic layer or the suite.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name and the module that defines it, in the order of __all__.
_EXPORTS = {
    "DEFAULT_POLICY": "core",
    "ConvergenceDomain": "errors",
    "DegenerateConfiguration": "errors",
    "E2": "symbolic",
    "E4": "symbolic",
    "E6": "symbolic",
    "Expr": "symbolic",
    "HalfPeriodData": "reduction",
    "I": "symbolic",
    "IdentityCase": "verify",
    "IdentityReport": "verify",
    "Lattice": "reduction",
    "LatticeInvariants": "eisenstein",
    "NearSingular": "errors",
    "NonFiniteValue": "errors",
    "NonTermination": "errors",
    "ONE": "symbolic",
    "PI": "symbolic",
    "PoleProximity": "errors",
    "ReductionResult": "reduction",
    "TAU": "symbolic",
    "TolerancePolicy": "core",
    "UnimodularMatrix": "reduction",
    "WP": "symbolic",
    "WP1": "symbolic",
    "WPFieldError": "errors",
    "WValue": "weier",
    "Z": "symbolic",
    "ZERO": "symbolic",
    "ZETA": "symbolic",
    "build_rule_table": "symbolic",
    "case_names": "verify",
    "default_rule_table": "symbolic",
    "delta_expr": "symbolic",
    "differentiate": "symbolic",
    "e2_anywhere": "reduction",
    "e4_anywhere": "reduction",
    "e6_anywhere": "reduction",
    "eval_expr": "symbolic",
    "expr_to_text": "symbolic",
    "fd_check": "symbolic",
    "g2_expr": "symbolic",
    "g3_expr": "symbolic",
    "half_periods": "reduction",
    "invariants_anywhere": "reduction",
    "lattice_distance": "reduction",
    "lattice_sum_eisenstein": "eisenstein",
    "load_tolerance_config": "verify",
    "parse_expr": "symbolic",
    "q_coefficients": "eisenstein",
    "rational": "symbolic",
    "reduce_point": "reduction",
    "reduce_tau": "reduction",
    "run_identity_suite": "verify",
    "sigma": "eisenstein",
    "wp_add": "reduction",
    "wp_anywhere": "reduction",
    "wp_lattice_oracle": "weier",
    "wp_prime_anywhere": "reduction",
    "zeta_anywhere": "reduction",
    "zeta_lattice_oracle": "weier",
}
__all__ = list(_EXPORTS)

# the modules that a bare `import wpfield` resolves as attributes of the package
_SUBMODULES = frozenset(_EXPORTS.values())


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")  # importing binds it here
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys() | _SUBMODULES)
