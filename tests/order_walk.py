"""The series-order rule as a walk over N, the reference that
eisenstein._ORDER_BOUNDS is rebuilt from and checked against.  No
evaluation runs it; tests/test_eisenstein.py and tests/test_weier.py import
it."""

import math

from wpfield.eisenstein import _TAIL_TARGET

# The kernels' tail at order N is at least KERNEL_SCALE |q|^N (see
# walk_order), so no N below LOG_START / log|q| can pass.
KERNEL_SCALE = 4.0 * (2.0 * math.pi) ** 3
LOG_START = math.log(_TAIL_TARGET / KERNEL_SCALE)


def walk_order(q_abs: float) -> int:
    """The one series order at nome modulus q_abs < 1: the smallest N >= 1 at
    which both tail bounds are at most _TAIL_TARGET.

    The E6 tail 504 sum_{n > N} n^6 |q|^n, by its geometric majorant, bounds
    E2, E4 and the eta product too, since sigma_5(n) <= n^6.  The kernel tail
    is the wp' tail of the u q^m and q^m/u sums with |u q| and |r| at their
    limit 1, 2 (2 pi)^3 sum_{j >= 0} t_j/(1 - t_j)^3, t_j = |q|^(N + j), each;
    it bounds the wp and zeta tails too.  The walk starts at
    ceil(LOG_START / log|q|), which never overshoots.
    """
    if q_abs == 0.0:  # q underflows high in the cusp
        return 1
    order = max(1, math.ceil(LOG_START / math.log(q_abs)))
    while True:
        qn, n = q_abs**order, order + 1.0
        # both tails with their denominators multiplied out; these are
        # positive, as 6/order < -log(q_abs) from the start on
        if (504.0 * n**6 * qn * q_abs <= _TAIL_TARGET * (1.0 - q_abs * ((n + 1.0) / n) ** 6)
                and KERNEL_SCALE * qn <= _TAIL_TARGET * (1.0 - qn) ** 3 * (1.0 - q_abs)):
            return order
        order += 1
