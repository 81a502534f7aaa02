"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` replaces module attributes of the package in this process
with timing wrappers and `Tracer.restore` puts the originals back; no file
of the package changes. A function is wrapped in every module namespace
that holds it, because `from .linalg3 import sym3_eigen_jacobi` makes
`spinbounds.incompat.sym3_eigen_jacobi` a separate name that a patch of
`spinbounds.linalg3` alone would miss.

Spans are kept in memory (parallel lists, one entry per call) and written
out by the caller at the end of the run. Calls are single-threaded and
properly nested, so a span's children are disjoint sub-intervals of it and
its self time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

ROOT = "op"


@dataclass(frozen=True)
class Layer:
    group: str  # metric prefix, e.g. "incompat.closed_form"
    module: str  # package module that defines (or, if `here`, looks up) attr
    attr: str  # function name, or "Class.method"
    here: bool = False  # wrap only the name in `module`, around what is there
    count: Callable | None = None  # adds count(result) to counter group+".count"


def _points(result) -> int:
    return result.points_evaluated


LAYERS = (
    Layer("incompat.validate", "incompat", "validate_directions"),
    Layer("incompat.moment_matrix", "incompat", "moment_matrix"),
    Layer("incompat.closed_form", "incompat", "cubic_coefficients"),
    Layer("incompat.closed_form", "incompat", "lambda_max_from_traces"),
    Layer("linalg3.jacobi", "linalg3", "sym3_eigen_jacobi"),
    Layer("incompat.optimal_bloch", "incompat", "optimal_bloch"),
    Layer("incompat.incompatibility", "incompat", "incompatibility"),
    Layer("incompat.from_angles", "incompat", "incompatibility_from_angles"),
    Layer("states.construct", "states", "TwoQubitState.__post_init__"),
    Layer("states.construct", "states", "werner"),
    Layer("states.construct", "states", "product_state"),
    Layer("linalg3.psd_check", "linalg3", "hermitian_psd_check"),
    Layer("states.joint_observable", "states", "joint_observable"),
    Layer("states.operator_variance", "states", "operator_variance"),
    Layer("criteria.conditional_stats", "criteria", "conditional_stats"),
    Layer("criteria.bound", "criteria", "incompatibility", here=True),
    Layer("oracle.sphere_grid_min", "oracle", "sphere_grid_min", count=_points),
    Layer("oracle.mixed_sample_floor", "oracle", "mixed_sample_floor"),
    Layer("cli.main", "cli", "main"),
    Layer("cli.parse_input", "cli", "parse_angle"),
    Layer("cli.parse_input", "cli", "load_directions"),
    Layer("cli.parse_input", "cli", "load_state"),
    Layer("cli.parse_input", "cli", "load_settings"),
    Layer("cli.command", "cli", "cmd_incompat"),
    Layer("cli.command", "cli", "cmd_table"),
    Layer("cli.command", "cli", "cmd_verify"),
    Layer("cli.command", "cli", "cmd_witness"),
    Layer("cli.command", "cli", "cmd_steer"),
)

# Groups reported as calls_per_op and self_us_per_op; criteria.bound is
# reported as its total (inclusive) time instead, since its self time is
# only the wrapper around incompat.incompatibility.
SELF_GROUPS = tuple(dict.fromkeys(l.group for l in LAYERS if l.group != "criteria.bound"))


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every metric `Tracer.layer_metrics` returns."""
    names = []
    for group in SELF_GROUPS:
        names += [(f"{group}.calls_per_op", "count"), (f"{group}.self_us_per_op", "us")]
    names += [("criteria.bound_us_per_op", "us"), ("oracle.points_evaluated_per_op", "count")]
    return names


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        names, parent, start, end, stack = self.names, self.parent, self.start, self.end, self._stack
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if count is not None:
                counters[name + ".count"] += count(result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: str, layers=LAYERS) -> None:
        """Wrap every layer's function; a layer whose function the package
        no longer has is listed in `missing` and reports 0 calls."""
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items()) if m is not None and (n == package or n.startswith(package + "."))]
        for layer in sorted(layers, key=lambda l: l.here):
            module = sys.modules.get(f"{package}.{layer.module}")
            owner_name, _, attr = layer.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                self.missing.append(f"{layer.module}.{layer.attr}")
                continue
            wrapped = self.wrap(original, layer.group, layer.count)
            if owner_name or layer.here:
                self._patch(owner, attr, wrapped)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_ns(self) -> list[int]:
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [e - s - c for s, e, c in zip(self.start, self.end, child)]

    def layer_metrics(self) -> dict[str, float]:
        """Per-op averages over the root spans recorded so far."""
        ops = max(self.names.count(ROOT), 1)
        calls: dict[str, int] = defaultdict(int)
        self_total: dict[str, int] = defaultdict(int)
        inclusive: dict[str, int] = defaultdict(int)
        for name, s, e, own in zip(self.names, self.start, self.end, self.self_ns()):
            calls[name] += 1
            self_total[name] += own
            inclusive[name] += e - s
        out = {}
        for group in SELF_GROUPS:
            out[f"{group}.calls_per_op"] = calls[group] / ops
            out[f"{group}.self_us_per_op"] = self_total[group] / ops / 1e3
        out["criteria.bound_us_per_op"] = inclusive["criteria.bound"] / ops / 1e3
        out["oracle.points_evaluated_per_op"] = self.counters["oracle.sphere_grid_min.count"] / ops
        return out

    def dump(self) -> dict:
        """Spans in a compact columnar form for writing out."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        return {
            "names": table,
            "name": [index[n] for n in self.names],
            "parent": self.parent,
            "start_ns": self.start,
            "end_ns": self.end,
            "missing": self.missing,
        }
