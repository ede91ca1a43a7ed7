"""Independent high-precision reference values from Jacobi theta functions.

Nothing here calls wpfield.  For the lattice Z + tau*Z, with nome
q = exp(pi*i*tau) in mpmath's convention and x = pi*z:

    zeta(z) = eta1*z + pi*th1'(x)/th1(x)          eta1 = -pi^2 th1'''(0) / (3 th1'(0))
    wp(z)   = -zeta'(z),  wp'(z) = -zeta''(z)     (log-derivatives of th1)
    E2 = 3*eta1/pi^2,  E4 = (th2^8 + th3^8 + th4^8)/2,
    E6 = (th2^4 + th3^4)(th3^4 + th4^4)(th4^4 - th2^4)/2
    delta = (2*pi)^12 (th2*th3*th4/2)^8                 (eta^3 = th2*th3*th4/2)

Theta series at small Im(tau) and large |z| cancel heavily, so every value is
computed at two working precisions and the precision is doubled until they
agree; a value that never settles raises instead of returning a guess.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp

AGREE = 1e-14  # relative agreement required between the two precisions
START_DPS = 30
MAX_DPS = 480


def _point_values(tau: complex, z: complex | None) -> list[complex]:
    tau_m = mp.mpc(tau.real, tau.imag)
    q = mp.exp(1j * mp.pi * tau_m)
    eta1 = -mp.pi**2 * mp.jtheta(1, 0, q, 3) / (3 * mp.jtheta(1, 0, q, 1))
    t2, t3, t4 = (mp.jtheta(k, 0, q) for k in (2, 3, 4))
    e4 = (t2**8 + t3**8 + t4**8) / 2
    e6 = (t2**4 + t3**4) * (t3**4 + t4**4) * (t4**4 - t2**4) / 2
    delta = (2 * mp.pi) ** 12 * (t2 * t3 * t4 / 2) ** 8
    out = [3 * eta1 / mp.pi**2, e4, e6, eta1, delta]
    if z is not None:
        z_m = mp.mpc(z.real, z.imag)
        x = mp.pi * z_m
        th = [mp.jtheta(1, x, q, k) for k in range(4)]
        l1, l2, l3 = th[1] / th[0], th[2] / th[0], th[3] / th[0]
        zeta = eta1 * z_m + mp.pi * l1
        wp = -eta1 - mp.pi**2 * (l2 - l1 * l1)
        wp1 = -mp.pi**3 * (l3 - 3 * l2 * l1 + 2 * l1**3)
        out += [wp, wp1, zeta]
    return [complex(v) for v in out]


def _agree(a: list[complex], b: list[complex]) -> bool:
    return all(abs(x - y) <= AGREE * abs(y) for x, y in zip(a, b))


@functools.lru_cache(maxsize=512)
def reference(tau: complex, z: complex | None = None) -> dict[str, complex]:
    """Reference values at (tau, z): E2, E4, E6, eta1, g2, g3, delta, and,
    when z is given, wp, wp1 and zeta."""
    dps = START_DPS
    with mp.workdps(dps):
        prev = _point_values(tau, z)
    while True:
        dps *= 2
        if dps > MAX_DPS:
            raise ArithmeticError(f"reference did not settle at tau={tau!r}, z={z!r}")
        with mp.workdps(dps):
            cur = _point_values(tau, z)
        if _agree(prev, cur):
            break
        prev = cur
    out = dict(zip(("E2", "E4", "E6", "eta1", "delta", "wp", "wp1", "zeta"), cur))
    out["g2"] = (4.0 * math.pi**4 / 3.0) * out["E4"]
    out["g3"] = (8.0 * math.pi**6 / 27.0) * out["E6"]
    return out
