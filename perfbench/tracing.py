"""Spans around graphtrop's public functions, installed from outside the package.

Each wrapped function is rebound in every graphtrop module that holds it by
name (cli imports minor_cone, dot and graph_key, cones imports graph_key, and
so on), so calls through any of those names are traced.  MomentMatrix's
alpha_entry is patched on the class.  `dot` gets a counter and a timer but no
span: it is called hundreds of thousands of times by double description.

Everything runs in one thread, so spans nest strictly and no layer waits on
another.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from inspect import signature
from operator import add
from time import perf_counter

MODULES = ("hypergraphs", "gluing", "cones", "obstructions", "cli")

# Wrapped functions, named module.function or module.Class.method.
SPANNED = (
    "hypergraphs.canonical_form",
    "hypergraphs.connected_components",
    "hypergraphs.hom_count",
    "gluing.component_counts",
    "gluing.graph_key",
    "gluing.enumerate_basis",
    "gluing.moment_matrix",
    "gluing.unlabeled_product",
    "gluing.MomentMatrix.alpha_entry",
    "cones.dd_rays",
    "cones.minor_cone",
    "cones.cone_member",
    "obstructions.minor_certificate",
    "obstructions.counting_obstruction",
    "obstructions.positive_pair_check",
    "obstructions.y_pairing",
    "cli.main",
)
COUNTED = ("cones.dot",)

# Counts taken at a span's boundary from the call's arguments (by parameter
# name) and its result: (span, metric, how values combine over calls, getter).
COUNTS = (
    ("cones.dd_rays", "cones.dd_rays.dim", max, lambda a, r: a["dim"]),
    ("cones.dd_rays", "cones.dd_rays.facets_in", add, lambda a, r: len(a["facets"])),
    ("cones.dd_rays", "cones.dd_rays.rays_out", add, lambda a, r: len(r[1])),
    ("cones.cone_member", "cones.cone_member.dim", max, lambda a, r: len(a["target"])),
    ("cones.cone_member", "cones.cone_member.generators", add, lambda a, r: len(a["generators"])),
    ("gluing.enumerate_basis", "gluing.basis_size", add, lambda a, r: len(r)),
    ("gluing.moment_matrix", "gluing.moment_size", add, lambda a, r: r.size),
    ("gluing.moment_matrix", "gluing.vbasis_size", add, lambda a, r: len(r.vbasis)),
    ("obstructions.minor_certificate", "obstructions.minor_certificate.eligible_minors",
     add, lambda a, r: r.eligible_minors),
    ("obstructions.minor_certificate", "obstructions.minor_certificate.constraints",
     add, lambda a, r: r.constraints),
    ("obstructions.minor_certificate", "obstructions.minor_certificate.refutation_size",
     add, lambda a, r: len(r.refutation or ())),
    ("obstructions.counting_obstruction", "obstructions.counting_obstruction.pair_count",
     add, lambda a, r: r.pair_count or 0),
    ("obstructions.counting_obstruction", "obstructions.counting_obstruction.positive_pairs",
     add, lambda a, r: len(r.positive_pair_indices or ())),
)

# Functions whose distinct inputs are counted, to give distinct_frac.  A moment
# entry is keyed by its matrix's id; the tracer keeps each first argument alive
# so that an id is never reused.
DISTINCT = {
    "hypergraphs.canonical_form": lambda args: args[0],
    "gluing.MomentMatrix.alpha_entry": lambda args: (id(args[0]), min(args[1:3]), max(args[1:3])),
}


def graphtrop_modules():
    importlib.import_module("graphtrop.cli")
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "graphtrop"]


def metric_names() -> list[str]:
    """Every per-layer metric that Tracer.metrics() reports."""
    names = []
    for name in SPANNED:
        names += [f"{name}.calls", f"{name}.self_s"]
    names += [f"{name}.distinct_frac" for name in DISTINCT]
    names.append("hypergraphs.canonical_form.failed")
    for name in COUNTED:
        names += [f"{name}.calls", f"{name}.total_s"]
    names += [metric for _, metric, _, _ in COUNTS]
    names += [f"{mod}.self_s" for mod in MODULES]
    return names


class Tracer:
    """Spans and counts in memory; install() patches graphtrop, uninstall() restores it."""

    def __init__(self) -> None:
        self.names = list(SPANNED)
        self._index = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1  # id of the operation running now, stamped on each span
        self._stack: list[list] = []  # [span id, time covered by children]
        self.calls = [0] * len(self.names)
        self.failed = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = {metric: 0 for _, metric, _, _ in COUNTS}
        self._distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self._alive: dict[int, object] = {}
        self.counted: dict[str, list] = {}  # name -> [calls, total_s]
        self._patched: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, fn):
        idx = self._index[name]
        counts = [(metric, how, get) for span, metric, how, get in COUNTS if span == name]
        bind = signature(fn).bind if counts else None
        distinct_key = DISTINCT.get(name)
        distinct = self._distinct.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(self.span_start)
            self.span_name.append(idx)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            self.span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            ok = False
            start = perf_counter()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.span_end[sid] = end
                self.calls[idx] += 1
                self.self_s[idx] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not ok:
                    self.failed[idx] += 1
            if distinct is not None:
                distinct.add(distinct_key(args))
                self._alive[id(args[0])] = args[0]
            if counts:
                arguments = bind(*args, **kwargs).arguments
                for metric, how, get in counts:
                    self.counts[metric] = how(self.counts[metric], get(arguments, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted_wrapper(self, name: str, fn):
        cell = self.counted.setdefault(name, [0, 0.0])

        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += perf_counter() - start
                cell[0] += 1

        counted.__wrapped__ = fn
        return counted

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = graphtrop_modules()
        for name in SPANNED + COUNTED:
            make = self._span_wrapper if name in SPANNED else self._counted_wrapper
            mod, *path = name.split(".")
            owner = sys.modules[f"graphtrop.{mod}"]
            if len(path) == 2:  # a method, patched on its class
                cls = getattr(owner, path[0])
                original = cls.__dict__[path[1]]
                setattr(cls, path[1], make(name, original))
                self._patched.append((cls, path[1], original))
            else:
                original = getattr(owner, path[0])
                self._rebind(modules, original, make(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far, named as metric_names() lists."""
        out: dict[str, float] = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
            module_self[name.split(".")[0]] += self.self_s[i]
        for name, seen in self._distinct.items():
            calls = self.calls[self._index[name]]
            out[f"{name}.distinct_frac"] = len(seen) / calls if calls else 0.0
        out["hypergraphs.canonical_form.failed"] = self.failed[
            self._index["hypergraphs.canonical_form"]
        ]
        for name in COUNTED:
            calls, total = self.counted.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
        out.update(self.counts)
        for mod, seconds in module_self.items():
            out[f"{mod}.self_s"] = seconds
        return out

    def write_spans(self, path: str) -> int:
        """Write every span as a gzipped tab-separated line; returns the span count."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for sid in range(len(self.span_start)):
                fh.write(
                    f"{sid}\t{names[self.span_name[sid]]}\t{self.span_start[sid]:.9f}\t"
                    f"{self.span_end[sid]:.9f}\t{self.span_parent[sid]}\t{self.span_op[sid]}\n"
                )
        return len(self.span_start)
