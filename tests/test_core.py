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


def test_import_does_not_load_numpy():
    # NumPy is a test-only dependency: no module of the package imports it
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import wpfield; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
