"""Durations on a reference-speed clock.

The CPU speed of a shared machine drifts by up to 1.8x within seconds as
other tenants come and go, and every wall-clock timing drifts with it.  A
fixed kernel, timed next to the measured work, tracks that speed: a
measured duration d is reported as d * ref / k, where k is the kernel's time
around it and ref the kernel's typical time on the 2-vCPU machine this was
written on, so normalised durations read as wall times at that machine's
typical speed.

The normalisation is exact only for work that slows in proportion to the
kernel, and different kinds of work do not slow alike: on that machine the
wall time of the NumPy lattice-sum oracles moved with the pure-Python
kernel's time with elasticity 0.6-1.0 depending on the hour, and the
largest symbolic jobs (0.6-1.3 s, big dicts of Fractions) with 0.65-0.8.  So
there is one kernel per kind of work, and each timed call is put on the
clock of the work it does:

* ``float``: a pure-Python complex-arithmetic loop shaped like the q-series
  (the evaluators).  A busy loop in another process raised the wall time of a
  run of wp_anywhere calls by 20% and the normalised time by 1%.
* ``fraction``: products of Gaussian-rational polynomials held as dicts of
  Fraction pairs, shaped like the symbolic layer's arithmetic.
* ``numpy``: a lattice sum over the 641,600 points of a radius-400 lattice,
  shaped like the identity suite's oracles.

Even so a kernel only tracks code of its own kind: work that a later version
moves between kinds (say, the evaluators into NumPy batches) is normalised by
a kernel that slows differently, and its reference-speed time is biased by
up to about 15% at the speeds seen (k from 0.7x to 1.2x its typical value).
Every timed metric is therefore also printed on the wall clock.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction


def _float_kernel() -> complex:
    # the shape of the q-series loops: complex powers, quotients, appends
    acc = 0j
    q, u = 0.01 + 0.02j, 0.3 + 0.1j
    terms = []
    for k in range(300):
        w = u * q ** (k % 7)
        acc += w / (1.0 - w) ** 2
        terms.append(acc)
    return acc


_POLY_A = {(i, j): (Fraction(i + 1, j + 2), Fraction(j, i + 5)) for i in range(4) for j in range(3)}
_POLY_B = {(i, j): (Fraction(j + 1, i + 3), Fraction(i + 2, 7)) for i in range(3) for j in range(2)}


def _fraction_kernel() -> int:
    # the shape of symbolic._p_mul: monomial keys, Gaussian-rational coefficients
    out = {}
    for (i, j), (xr, xi) in _POLY_A.items():
        for (k, l), (yr, yi) in _POLY_B.items():
            key = (i + k, j + l)
            r, m = out.get(key, (0, 0))
            out[key] = (r + xr * yr - xi * yi, m + xr * yi + xi * yr)
    return len(out)


def _numpy_kernel() -> complex:
    # the shape of weier.wp_lattice_oracle at the suite's radius 400.  The
    # lattice is built on every call, as the oracle builds it, so the kernel
    # holds no memory between calls and leaves peak_rss_mb to the workload.
    import numpy as np

    ms = np.arange(-400, 401)
    m, n = np.meshgrid(ms, ms, indexing="ij")
    keep = (m != 0) | (n != 0)
    w = m[keep] + n[keep] * (0.1 + 1.1j)
    return complex(np.sum((0.3 + 0.2j - w) ** (-2) - w ** (-2)))


# kind -> (kernel, timings per reading, measured work in ns between two
# readings, the kernel's typical time in ns).  A reading is the best of its
# timings, so one interrupt cannot skew it.  The float kernel's typical time
# is its median over about 1500 timings spread across a day on the machine
# described above.  The fraction kernel's is 150 us times the median ratio of
# its readings to the float kernel's, over about 500 interleaved ones.  The
# same ratio gave the numpy kernel 49 ms, but in twenty runs of each workload
# the suite then read 14% above its wall time where the float-timed workloads
# read 3% above theirs, so its value is the one that makes the two agree.
KERNELS = {
    "float": (_float_kernel, 3, 20_000_000, 150_000),
    "fraction": (_fraction_kernel, 2, 50_000_000, 1_300_000),
    "numpy": (_numpy_kernel, 1, 20_000_000, 44_300_000),
}


def kernel_ns(kind: str = "float") -> int:
    fn, repeats, _, _ = KERNELS[kind]
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        d = time.perf_counter_ns() - t0
        best = d if best is None else min(best, d)
    return best


class RefClock:
    """Hands out the factor ref / k for the work done since the last kernel
    reading, with k the mean of the readings before and after it."""

    def __init__(self, kind: str = "float") -> None:
        self.kind = kind
        _, _, self.interval, self.ref = KERNELS[kind]
        self.k = kernel_ns(kind)
        self.kernels = [self.k]
        self.last = time.perf_counter_ns()

    def due(self) -> bool:
        return time.perf_counter_ns() - self.last >= self.interval

    def scale(self) -> float:
        k = kernel_ns(self.kind)
        factor = 2.0 * self.ref / (self.k + k)
        self.k = k
        self.kernels.append(k)
        self.last = time.perf_counter_ns()
        return factor

    def typical_scale(self) -> float:
        """ref over the median reading: for durations measured without
        readings of their own (spans of the traced run)."""
        return self.ref / statistics.median(self.kernels)


def measure(fn, *args, kind: str = "float", **kwargs) -> tuple[float, float]:
    """Reference-speed and wall-clock seconds of one call of fn."""
    clock = RefClock(kind)
    t0 = time.perf_counter_ns()
    fn(*args, **kwargs)
    d = time.perf_counter_ns() - t0
    return d * clock.scale() / 1e9, d / 1e9
