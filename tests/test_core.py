"""Tests for the tolerance policy, lattice geometry, and nome plumbing."""

import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wpfield
from wpfield import lattice_distance
from wpfield.core import DEFAULT_POLICY, TolerancePolicy, _coords, _nome


def test_policy_defaults_are_ordered():
    policy = TolerancePolicy()
    assert policy.identity_tol <= policy.oracle_tol
    assert policy.pole_guard_radius > 0


def _fresh(code: str) -> str:
    """What code prints, run in a fresh interpreter that imports wpfield from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_does_not_load_numpy():
    # NumPy is a test-only dependency: no module of the package imports it
    assert _fresh("import wpfield; print('numpy' in sys.modules)").strip() == "False"


def test_policy_rejects_bad_ordering():
    with pytest.raises(ValueError):
        TolerancePolicy(identity_tol=1e-3, oracle_tol=1e-4)


def test_pole_guard_is_a_constant_not_a_setting():
    assert DEFAULT_POLICY.pole_guard_radius == 1e-3
    with pytest.raises(TypeError):
        TolerancePolicy(pole_guard_radius=1e-2)


def test_policy_rejects_nonpositive():
    with pytest.raises(ValueError):
        TolerancePolicy(fd_tol=0.0)
    with pytest.raises(ValueError):
        TolerancePolicy(oracle_tol=-1.0)


def test_coords_round_trip():
    tau = complex(0.3, 1.7)
    a, b = 0.62, -1.25
    z = b + a * tau
    got_a, got_b = _coords(tau, z)
    assert abs(got_a - a) < 1e-12
    assert abs(got_b - b) < 1e-12


def test_lattice_distance_on_lattice_points():
    tau = complex(0.1, 1.2)
    for m, n in ((0, 0), (3, -2), (-1, 5)):
        assert lattice_distance(tau, m + n * tau) < 1e-12


def test_lattice_distance_center_of_square_cell():
    # for the square lattice the deep point of the cell is its center
    d = lattice_distance(1j, 0.5 + 0.5j)
    assert abs(d - math.sqrt(0.5)) < 1e-12


@given(
    st.floats(-3.0, 3.0),
    st.floats(0.5, 3.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_lattice_distance_never_exceeds_direct(re, im, zr, zi):
    tau = complex(re, im)
    z = complex(zr, zi)
    d = lattice_distance(tau, z)
    assert d <= abs(z) + 1e-12
    assert d <= abs(z - tau) + 1e-12
    assert d <= abs(z - 1) + 1e-12


def test_nome_basics():
    assert abs(_nome(1j) - math.exp(-2.0 * math.pi)) < 1e-16
    # tau + 1 folds to the bit-identical nome when Re(tau) + 1 is exact ...
    dyadic = complex(0.25, 1.9)
    assert _nome(dyadic + 1.0) == _nome(dyadic)
    # ... and to one ulp of rounding in the +1 itself otherwise
    tau = complex(0.37, 1.9)
    assert abs(_nome(tau + 1.0) - _nome(tau)) <= 1e-15 * abs(_nome(tau))


def test_every_exported_name_resolves():
    # a function deleted from the package must leave __all__ with it
    assert [name for name in wpfield.__all__ if not hasattr(wpfield, name)] == []


_LAYERS = "print([m for m in ('wpfield.symbolic', 'wpfield.verify') if m in sys.modules])"
_CLI = "from wpfield.cli import main; main({!r})"


@pytest.mark.parametrize("code, layers", [
    ("import wpfield; wpfield.wp_anywhere(0.1+1.3j, 0.25+0.4j)", []),
    (_CLI.format(["eval", "--fn", "wp", "--tau", "0.1,1.3", "--z", "0.25,0.4"]), []),
    (_CLI.format(["reduce", "--tau", "0.1,1.3", "--z", "0.25,0.4"]), []),
    (_CLI.format(["series", "--fn", "e2", "--order", "5"]), []),
    (_CLI.format(["diff", "--expr", "zeta", "--var", "z"]), ["wpfield.symbolic"]),
], ids=["wp_anywhere", "eval", "reduce", "series", "diff"])
def test_an_evaluation_loads_neither_symbolic_nor_verify(code, layers):
    # each layer loads on first use: the evaluators and the CLI commands
    # that evaluate never import the symbolic layer or the suite
    assert _fresh(f"{code}\n{_LAYERS}").splitlines()[-1] == repr(layers)


def test_a_star_import_binds_every_exported_name():
    out = _fresh("import wpfield\n"
                 "print(sorted(set(wpfield.__all__) - set(dir(wpfield))))\n"
                 "names = {}\n"
                 "exec('from wpfield import *', names)\n"
                 "print([name for name in wpfield.__all__ if name not in names])")
    assert out.splitlines() == ["[]", "[]"]


def test_each_exported_name_is_the_object_its_module_defines():
    # and bound in the package once read; a class or function is named after
    # the module that defines it, not one that imports it
    out = _fresh("import importlib, inspect, wpfield\n"
                 "for name in wpfield.__all__:\n"
                 "    value = getattr(wpfield, name)\n"
                 "    module = importlib.import_module(f'wpfield.{wpfield._EXPORTS[name]}')\n"
                 "    if value is not getattr(module, name) or name not in vars(wpfield) or (\n"
                 "            (inspect.isclass(value) or inspect.isfunction(value))\n"
                 "            and value.__module__ != module.__name__):\n"
                 "        print(name)")
    assert out == ""


def test_a_bare_import_resolves_the_submodules():
    # as when the package imported every module: wpfield.reduction works
    # without an import of its own
    layers = ("core", "eisenstein", "errors", "reduction", "symbolic", "verify", "weier")
    out = _fresh("import importlib, wpfield\n"
                 f"print([m for m in {layers!r}\n"
                 "       if getattr(wpfield, m) is not importlib.import_module(f'wpfield.{m}')])")
    assert out.strip() == "[]"


def test_an_unknown_name_raises_attribute_error():
    out = _fresh("import wpfield\n"
                 "try:\n"
                 "    wpfield.no_such_name\n"
                 "except AttributeError as exc:\n"
                 "    print(exc)")
    assert out.strip() == "module 'wpfield' has no attribute 'no_such_name'"
