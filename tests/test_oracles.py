"""Row-summed lattice-sum oracles: exact against the evaluators, independent
of the reduction and the q-series, and anchored to a brute-force sum."""

import sys

import pytest

from wpfield.core import lattice_distance
from wpfield.eisenstein import ZETA4, ZETA6, eisenstein_at, lattice_sum_eisenstein
from wpfield.errors import PoleProximity
from wpfield.reduction import e4_anywhere, e6_anywhere, wp_anywhere, zeta_anywhere
from wpfield.weier import wp_lattice_oracle, zeta_lattice_oracle

# A reduced tau, one with Im(tau) < 0.3, and one that needs a long reduction.
POINTS = (
    (complex(-0.2, 1.3), complex(0.6, 0.4)),
    (complex(0.23, 0.27), complex(0.31, 0.12)),
    (complex(0.31, 0.02), complex(0.37, 0.011)),
)

# What the oracles must never call: the SL(2,Z) walk, the reduced frame, the
# series order rule and the q-series they check.
CHECKED_CODE = ("reduce_tau", "reduce_point", "wp_q", "wp_prime_q", "zeta_q",
                "eisenstein_at", "_e_series", "_frame", "_at_point", "_point_values",
                "_cell_distance", "_delta_eta_product", "_order")


def _oracles(tau, z):
    return (
        wp_lattice_oracle(tau, z, 50),
        zeta_lattice_oracle(tau, z, 50),
        lattice_sum_eisenstein(tau, 2, 50) / (2.0 * ZETA4),
        lattice_sum_eisenstein(tau, 3, 50) / (2.0 * ZETA6),
    )


def test_oracles_equal_the_evaluators_without_calling_them(monkeypatch):
    expected = [
        (wp_anywhere(tau, z).value, zeta_anywhere(tau, z).value, e4_anywhere(tau),
         e6_anywhere(tau))
        for tau, z in POINTS
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("a lattice-sum oracle called the code it checks")

    refused = set()
    for modname, module in list(sys.modules.items()):
        if modname == "wpfield" or modname.startswith("wpfield."):
            for name in CHECKED_CODE:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
                    refused.add(name)
    assert refused == set(CHECKED_CODE)  # a renamed function would go unchecked
    for (tau, z), want in zip(POINTS, expected):
        for got, value in zip(_oracles(tau, z), want):
            assert abs(got - value) <= 1e-13 * abs(value)


def test_row_oracles_match_the_brute_force_sum():
    # The one independent anchor: the plain double sum over
    # max(|m|, |n|) <= R, built here and nowhere in the package.  Its
    # truncation shrinks like 1/R^2 (1/R^4 for E6), since the square is
    # symmetric under w -> -w, so doubling R must cut its distance to the row
    # oracle by more than 3.
    np = pytest.importorskip("numpy")

    def brute_force(tau, z, radius):
        ms = np.arange(-radius, radius + 1)
        m, n = np.meshgrid(ms, ms, indexing="ij")
        mask = (m != 0) | (n != 0)
        w = m[mask] + n[mask] * tau
        return (
            complex(np.sum((z - w) ** -2 - w ** -2)) + 1.0 / z**2,
            complex(np.sum(1.0 / (z - w) + 1.0 / w + z / w**2)) + 1.0 / z,
            complex(np.sum(w ** -4)) / (2.0 * ZETA4),
            complex(np.sum(w ** -6)) / (2.0 * ZETA6),
        )

    for tau, z in POINTS[:2]:
        rows = _oracles(tau, z)
        far = brute_force(tau, z, 400)
        near = brute_force(tau, z, 200)
        for row, b400, b200 in zip(rows, far, near):
            assert abs(b400 - row) <= abs(row) / 400**2
            assert abs(b400 - row) < abs(b200 - row) / 3.0
    # the row oracle itself is exact: E4(i) to rounding
    e4 = eisenstein_at(1j).e4
    assert abs(lattice_sum_eisenstein(1j, 2, 50) / (2.0 * ZETA4) - e4) < 1e-14 * abs(e4)


@pytest.mark.parametrize("oracle", [wp_lattice_oracle, zeta_lattice_oracle])
def test_oracle_pole_guard_is_exact_on_a_sheared_basis(oracle):
    # z is 5e-4 from the lattice point 0, but at Im(tau) = 1e-4 its
    # coordinates are (5, -1.5), so the 4x4 corner search of
    # core.lattice_distance misses 0 and overestimates by 200x
    tau, z = complex(0.3, 1e-4), 5e-4j
    assert lattice_distance(tau, z) > 0.05
    with pytest.raises(PoleProximity):
        oracle(tau, z, 50)
