"""Per-job cost of the symbolic catalogue against a sample of the suite grammar.

    python3 perfbench/catalogue_cost.py

Run from the repository root.  The `symbolic` workload times a fixed
catalogue of eight expressions (workloads.CATALOGUE); this prints, for z, tau
and tau-z jobs, the cost (fraction clock, see refclock.py) and the size of the
derivative for the catalogue and for 40 expressions drawn from the identity
suite's composite grammar with a fixed seed, at points drawn as the workload
draws them.  It takes about a minute.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path.cwd() / "src"), str(Path(__file__).resolve().parent)]

import wpfield as W  # noqa: E402

import workloads as WL  # noqa: E402
from refclock import RefClock  # noqa: E402

SAMPLE = 40


def _cost(text: str, kind: str, tau: complex, z: complex) -> tuple[float, int]:
    clock = RefClock("fraction")
    t0 = time.perf_counter_ns()
    _, deriv = WL.symbolic_job(W, text, kind, tau, z)
    d = time.perf_counter_ns() - t0
    return d * clock.scale() / 1e6, len(deriv.num)


def main() -> int:
    W.default_rule_table()
    rng = random.Random("perfbench/grammar-sample")
    sample = []
    for _ in range(SAMPLE):
        a, b, c, d = (rng.choice(WL.PIECES) for _ in range(4))
        k = rng.randrange(2, 5)
        sample.append((f"({a}*{b}+{k}*{c})/({d}^2+1/{k})", d, k))
    for name, exprs in (("catalogue", WL.CATALOGUE), (f"grammar sample of {SAMPLE}", sample)):
        points = random.Random("perfbench/catalogue-cost")
        for kind in ("z", "tau", "tauz"):
            im_max = WL.Z_JOB_IM_MAX if kind == "z" else WL.TAU_JOB_IM_MAX
            costs, terms = [], []
            for text, d, k in exprs:
                while True:
                    tau = WL._fd_tau(points, im_max)
                    z = WL._cell_point(points, tau)
                    if abs(WL._denominator(d, k, tau, z)) >= WL.DENOM_MIN:
                        break
                ms, n = _cost(text, kind, tau, z)
                costs.append(ms)
                terms.append(n)
            print(f"{name:22s} {kind:5s} ms mean {statistics.fmean(costs):8.2f} "
                  f"median {statistics.median(costs):8.2f} max {max(costs):8.1f}  "
                  f"terms mean {statistics.fmean(terms):7.1f} max {max(terms)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
