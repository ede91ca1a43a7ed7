"""Row-summed lattice-sum oracles: exact against the evaluators, independent
of the reduction and the q-series, and anchored to a brute-force sum."""

import cmath
import math
import random
import sys

import pytest

from wpfield import eisenstein, lattice_distance, verify, weier
from wpfield.core import ensure_finite
from wpfield.eisenstein import (
    ZETA2,
    ZETA4,
    ZETA6,
    _cot,
    _csc2,
    _reduced_basis,
    _row_bound,
    _row_sum,
    lattice_sum_eisenstein,
)
from wpfield.errors import PoleProximity
from wpfield.reduction import e4_anywhere, e6_anywhere, wp_anywhere, zeta_anywhere
from wpfield.symbolic import default_rule_table
from wpfield.weier import _corner_distance, _oracle_frame, wp_lattice_oracle, zeta_lattice_oracle

# A reduced tau, one with Im(tau) < 0.3, and one that needs a long reduction.
POINTS = (
    (complex(-0.2, 1.3), complex(0.6, 0.4)),
    (complex(0.23, 0.27), complex(0.31, 0.12)),
    (complex(0.31, 0.02), complex(0.37, 0.011)),
)

# What the oracles must never call: the SL(2,Z) walk, the reduced frame, the
# series order rule and the q-series they check.
CHECKED_CODE = ("reduce_tau", "reduce_point", "_e_series", "_point_values", "_cell_distance",
                "_delta_eta_product", "_order", "Lattice")


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
    e4 = e4_anywhere(1j)
    assert abs(lattice_sum_eisenstein(1j, 2, 50) / (2.0 * ZETA4) - e4) < 1e-14 * abs(e4)


@pytest.mark.parametrize("oracle", [wp_lattice_oracle, zeta_lattice_oracle])
def test_oracle_pole_guard_is_exact_on_a_sheared_basis(oracle):
    # z is 5e-4 from the lattice point 0, but at Im(tau) = 1e-4 its
    # coordinates are (5, -1.5), so the 4x4 corner search in the basis
    # (1, tau) misses 0 and overestimates by 200x; the oracles search their
    # reduced basis, and lattice_distance the reduced frame
    tau, z = complex(0.3, 1e-4), 5e-4j
    assert _corner_distance(tau, z) > 0.05
    assert abs(lattice_distance(tau, z) - 5e-4) <= 4.0 * 2.0**-52 * 5e-4
    with pytest.raises(PoleProximity):
        oracle(tau, z, 50)


# The oracles summed over every row up to the radius, as they did before they
# learnt to stop: the reference for the stop rule.  The row primitives are
# bound here at import, so counting the package's calls does not count these.


def _full_wp(tau, z, radius):
    omega1, tau_r, z_r = _oracle_frame(tau, z, radius)
    total = _csc2(z_r) - 1.0 / 3.0
    for n in range(1, radius + 1):
        w = n * tau_r
        total += _csc2(z_r - w) + _csc2(z_r + w) - 2.0 * _csc2(w)
    return ensure_finite(math.pi**2 * total / omega1**2, "wp oracle")


def _full_zeta(tau, z, radius):
    omega1, tau_r, z_r = _oracle_frame(tau, z, radius)
    total = _cot(z_r) + z_r * math.pi / 3.0
    for n in range(1, radius + 1):
        w = n * tau_r
        total += _cot(z_r - w) + _cot(z_r + w) + 2.0 * math.pi * z_r * _csc2(w)
    return ensure_finite(math.pi * total / omega1, "zeta oracle")


def _full_eisenstein(tau, k, radius):
    omega1, tau_r = (1.0, tau) if k == 1 else _reduced_basis(tau)
    total = complex((ZETA2, ZETA4, ZETA6)[k - 1])
    for n in range(1, radius + 1):
        total += _row_sum(n * tau_r, k)
    return ensure_finite(2.0 * total / omega1 ** (2 * k), "eisenstein oracle")


class _Rows:
    """Counts the rows each oracle call sums, from its calls of the row
    primitives: three csc^2 per wp row, two cot per zeta row, one _row_sum
    per Eisenstein row, after the n = 0 term."""

    def __init__(self, monkeypatch):
        self.counts = {"csc2": 0, "cot": 0, "row": 0}
        for module, name, key in ((weier, "_csc2", "csc2"), (weier, "_cot", "cot"),
                                  (eisenstein, "_row_sum", "row")):
            monkeypatch.setattr(module, name, self._counted(getattr(module, name), key))

    def _counted(self, fn, key):
        def counted(*args):
            self.counts[key] += 1
            return fn(*args)
        return counted

    def call(self, oracle, *args):
        """(value, rows) of one oracle call."""
        for key in self.counts:
            self.counts[key] = 0
        value = oracle(*args)
        c = self.counts
        if oracle is wp_lattice_oracle:
            return value, (c["csc2"] - 1) // 3
        if oracle is zeta_lattice_oracle:
            return value, (c["cot"] - 1) // 2
        return value, c["row"]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PoleProximity as exc:
        return str(exc)


def _oracle_sweep():
    """Im(tau) log-uniform in [0.005, 5], Re(tau) in [-1, 1], z up to two
    cells away from the cell of the oracles' reduced basis."""
    rng = random.Random(20261019)
    out = []
    for _ in range(150):
        im = math.exp(rng.uniform(math.log(0.005), math.log(5.0)))
        tau = complex(rng.uniform(-1.0, 1.0), im)
        omega1, tau_r = _reduced_basis(tau)
        z = omega1 * (rng.uniform(-2.0, 3.0) + rng.uniform(-2.0, 3.0) * tau_r)
        out.append((tau, z))
    return out


def test_oracles_equal_the_full_radius_sums(monkeypatch):
    rows = _Rows(monkeypatch)
    taken = {wp_lattice_oracle: [], zeta_lattice_oracle: [], lattice_sum_eisenstein: []}
    for tau, z in _oracle_sweep():
        for oracle, full in ((wp_lattice_oracle, _full_wp), (zeta_lattice_oracle, _full_zeta)):
            want = _outcome(full, tau, z, 50)
            got = _outcome(rows.call, oracle, tau, z, 50)
            if isinstance(want, str):  # the pole guard, before any row
                assert got == want
                continue
            value, n = got
            assert repr(value) == repr(want), (oracle.__name__, tau, z)
            taken[oracle].append(n)
        for k, radius in ((1, 50), (2, 50), (3, 50), (2, 10)):
            value, n = rows.call(lattice_sum_eisenstein, tau, k, radius)
            assert repr(value) == repr(_full_eisenstein(tau, k, radius)), (tau, k, radius)
            taken[lattice_sum_eisenstein].append(n)
    # the stop is no dead code: on this sweep the point oracles always stop
    # before their radius, and the Eisenstein sums stop wherever Im tau_r is
    # not small (with k = 1 it is Im tau, down to 0.005)
    assert max(taken[wp_lattice_oracle] + taken[zeta_lattice_oracle]) < 12
    assert min(taken[lattice_sum_eisenstein]) < 12


@pytest.mark.parametrize("im", [0.005, 0.3, 1.0, 2.5])
def test_a_zero_component_takes_the_full_radius(monkeypatch, im):
    # at tau = iy and real z every row is real (wp, E4, E6) or imaginary
    # (zeta): the zero component of the sum never settles
    rows = _Rows(monkeypatch)
    tau = complex(0.0, im)
    for z in (0.3, 0.71):
        for oracle, full in ((wp_lattice_oracle, _full_wp), (zeta_lattice_oracle, _full_zeta)):
            value, n = rows.call(oracle, tau, z, 50)
            assert repr(value) == repr(full(tau, z, 50))
            assert n == 50
    for k in (1, 2, 3):
        value, n = rows.call(lattice_sum_eisenstein, tau, k, 50)
        assert repr(value) == repr(_full_eisenstein(tau, k, 50))
        assert n == 50


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_suite_oracle_samples_stop_within_twelve_rows(monkeypatch, seed):
    # every sample of the suite's oracle cases and of s_law_exponent sums at
    # most 12 rows, to the double the full radius gives
    rows = _Rows(monkeypatch)
    seen = []

    def recorded(oracle, full):
        def call(*args):
            value, n = rows.call(oracle, *args)
            assert repr(value) == repr(full(*args)), args
            seen.append(n)
            return value
        return call

    monkeypatch.setattr(verify, "wp_lattice_oracle", recorded(wp_lattice_oracle, _full_wp))
    monkeypatch.setattr(verify, "zeta_lattice_oracle", recorded(zeta_lattice_oracle, _full_zeta))
    monkeypatch.setattr(verify, "lattice_sum_eisenstein",
                        recorded(lattice_sum_eisenstein, _full_eisenstein))
    ctx = verify._Ctx(seed=seed, rules=default_rule_table())
    runners = {name: runner for name, runner, _ in verify._CASE_TABLE}
    for name in ("oracle_wp", "oracle_zeta", "oracle_e4", "oracle_e6", "s_law_exponent"):
        runners[name](ctx)
    assert len(seen) == 30 + 30 + 15 + 15 + 6
    assert max(seen) <= 12


def _row_sweep():
    """300 seeded (tau, z), Im tau log-uniform in [0.005, 5], |z| <= 3, then
    tau = iy with z = 1/2, where the wp majorant is exact to 1e-9."""
    rng = random.Random(20261020)
    for _ in range(300):
        im = math.exp(rng.uniform(math.log(0.005), math.log(5.0)))
        tau = complex(rng.uniform(-1.0, 1.0), im)
        yield tau, cmath.rect(3.0 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi))
    for im in (0.9, 2.0):
        yield complex(0.0, im), 0.5


def test_every_oracle_row_is_within_its_majorant():
    # Row n of each oracle, computed here as the oracle computes it, against
    # the majorant its stop rule uses at t = exp(-2*pi*(n*Im tau_r - lift)),
    # on rows 1..12 where 1e-12 < t < 1.  The csc^2 majorant is exact at
    # Re a = 1/2, so the k = 1 rows reach it to rounding.
    worst = {}
    for tau, z in _row_sweep():
        rows = []  # (family, row, its majorant as a function of t, t)
        try:
            _, tau_r, z_r = _oracle_frame(tau, z, 50)
        except PoleProximity:
            pass
        else:
            lift = abs(z_r.imag)
            for n in range(1, 13):
                w = n * tau_r
                # rows below the point's height are not bounded (t >= 1)
                t = math.exp(-2.0 * math.pi * max(n * tau_r.imag - lift, 0.0))
                wp_row = _csc2(z_r - w) + _csc2(z_r + w) - 2.0 * _csc2(w)
                zeta_row = _cot(z_r - w) + _cot(z_r + w) + 2.0 * math.pi * z_r * _csc2(w)
                rows.append(("wp", wp_row, weier._wp_row_bound, t))
                rows.append(("zeta", zeta_row,
                             lambda t, a=abs(z_r): weier._zeta_row_bound(a, t), t))
        for k in (1, 2, 3):
            tau_k = tau if k == 1 else _reduced_basis(tau)[1]
            for n in range(1, 13):
                t = math.exp(-2.0 * math.pi * n * tau_k.imag)
                rows.append((f"k={k}", _row_sum(n * tau_k, k),
                             lambda t, k=k: _row_bound(k, t), t))
        for family, row, bound, t in rows:
            if 1e-12 < t < 1.0:
                ratio = abs(row) / bound(t)
                assert ratio <= 1.0 + 1e-12, (family, tau, z, t, ratio)
                worst[family] = max(worst.get(family, 0.0), ratio)
    # every family is checked, and near the edge of its majorant
    assert sorted(worst) == ["k=1", "k=2", "k=3", "wp", "zeta"]
    assert min(worst.values()) > 0.7, worst
