"""Spans around wpfield's public functions, for the traced run.

Each traced function is replaced, in every wpfield module that binds it, by a
wrapper that records (name, start, end, parent, op).  Module globals are
looked up at call time, so calls between the package's own functions are
traced too: ``wpfield.reduction.wp_q`` is the call from ``wp_anywhere`` into
the q-series, ``wpfield.weier.eisenstein_at`` the call from ``zeta_q``.
Spans stay in memory and are written out when the run ends.  A function a
later version of the package no longer has is skipped, and its counters read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# The public functions of each layer (module of src/wpfield) that get spans.
TRACED = {
    "core": ("lattice_distance", "nome"),
    "eisenstein": ("eisenstein_at", "invariants_at", "lattice_sum_eisenstein"),
    "weier": ("wp_q", "wp_prime_q", "zeta_q", "half_periods",
              "wp_lattice_oracle", "zeta_lattice_oracle"),
    "reduction": ("reduce_tau", "reduce_z", "reduce_point", "wp_anywhere",
                  "wp_prime_anywhere", "zeta_anywhere", "e2_anywhere", "e4_anywhere",
                  "e6_anywhere", "invariants_anywhere", "lattice_distance_anywhere",
                  "wp_add"),
    "symbolic": ("parse_expr", "differentiate", "expr_to_text", "eval_expr",
                 "fd_check", "build_rule_table", "default_rule_table"),
    "verify": ("run_identity_suite",),
}
ORACLES = ("weier.wp_lattice_oracle", "weier.zeta_lattice_oracle",
           "eisenstein.lattice_sum_eisenstein")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _oracle_points(args, kwargs, result):
    radius = _arg(args, kwargs, 2, "radius")
    return (2 * radius + 1) ** 2 - 1


def _eisenstein_points(args, kwargs, result):
    radius = _arg(args, kwargs, 2, "radius")
    # k = 1 sums each of `radius` rows in closed form
    return radius if _arg(args, kwargs, 1, "k") == 1 else (2 * radius + 1) ** 2 - 1


def _cell_shift(args, kwargs, result):
    if getattr(result, "z_star", None) is None:
        return None
    return (getattr(result, "m", 0), getattr(result, "n", 0))


# What a span records beyond its times: the tau of an Eisenstein call, the
# lattice points an oracle sums, the cell shift (m, n) of a reduction.
EXTRA = {
    "eisenstein.eisenstein_at": lambda a, k, r: complex(_arg(a, k, 0, "tau")),
    "weier.wp_lattice_oracle": _oracle_points,
    "weier.zeta_lattice_oracle": _oracle_points,
    "eisenstein.lattice_sum_eisenstein": _eisenstein_points,
    "reduction.reduce_point": _cell_shift,
}


class Tracer:
    """Spans in parallel arrays: name id, start, end, parent index, op id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.t0 = array("q")
        self.t1 = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self.extras: dict[int, object] = {}
        self.stack: list[int] = []
        self.op = 0
        self._restore: list = []

    def __len__(self) -> int:
        return len(self.t0)

    def mark(self) -> None:
        """Start a new operation: later spans carry the next op id."""
        self.op += 1

    def _open(self, name: str) -> int:
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.t0)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.op)
        self.t1.append(0)
        self.stack.append(idx)
        self.t0.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name, fn):
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if extra is not None:
                self.extras[idx] = extra(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one suite case."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def install(self) -> None:
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules.get(f"wpfield.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "wpfield" and not modname.startswith("wpfield."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.t0)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.t0[i]},{self.t1[i]},"
                         f"{self.parent[i]},{self.op_id[i]}\n")


class Profile:
    """Counts, durations and self times of the spans tracer[start:end]."""

    def __init__(self, tracer: Tracer, start: int, end: int) -> None:
        self.tracer = tracer
        self.start, self.end = start, end
        child = [0] * (end - start)
        for i in range(start, end):
            p = tracer.parent[i]
            if p >= start:
                child[p - start] += tracer.t1[i] - tracer.t0[i]
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.extras = defaultdict(list)
        self.extra_ops = defaultdict(list)  # op id of each entry of extras
        self.busy_ns = 0  # time inside top-level spans: the operations' own time
        for i in range(start, end):
            name = tracer.names[tracer.name_id[i]]
            dur = tracer.t1[i] - tracer.t0[i]
            if tracer.parent[i] < start:
                self.busy_ns += dur
            self.calls[name] += 1
            self.self_ns[name] += dur - child[i - start]
            self.total_ns[name] += dur
            if i in tracer.extras:
                self.extras[name].append(tracer.extras[i])
                self.extra_ops[name].append(tracer.op_id[i])

    def layer_self_ns(self, layer: str) -> int:
        return sum(v for k, v in self.self_ns.items() if k.startswith(layer + "."))

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of `name` made, directly or not, inside a call of `ancestor`."""
        tr = self.tracer
        want, anc = tr._ids.get(name), tr._ids.get(ancestor)
        count = 0
        for i in range(self.start, self.end):
            if tr.name_id[i] != want:
                continue
            p = tr.parent[i]
            while p >= self.start:
                if tr.name_id[p] == anc:
                    count += 1
                    break
                p = tr.parent[p]
        return count
