"""Spans around the public functions of condchrom's modules, recorded from
outside the package.

`from .bounds import clique_number` makes `cli.clique_number` a binding of
its own, separate from `bounds.clique_number`, so every function is patched
under each name that any condchrom module holds it by. `uninstall` puts the
originals back.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import sys
import time
from collections import defaultdict

# (module, function) -> span name. Functions that share a name form one layer.
TARGETS = {
    ("cli", "main"): "cli",
    ("solver", "chi_r_exact"): "solver",
    ("solver", "sweep"): "solver",
    ("kernel", "search_coloring"): "kernel",
    ("bounds", "best_lower_bound"): "bounds.best",
    ("bounds", "clique_number"): "bounds.clique",
    ("bounds", "basic_lower_bound"): "bounds.basic",
    ("bounds", "max_vset_d2r"): "bounds.vset",
    ("families", "build"): "families.build",
    ("constructions", "construct"): "constructions",
    ("constructions", "predicted_chi_r"): "constructions",
    ("verify", "check_conditional"): "verify.check",
    ("verify", "check_vset_d2r"): "verify.check",
    ("graphs", "from_dimacs"): "graphs.parse",
}

_STATUS = {0: "found", 1: "none", 2: "budget"}


def _kernel_attrs(args, kwargs, result):
    status, _, nodes = result
    return {"k": args[2], "status": _STATUS[status], "nodes": nodes}


def _vset_attrs(args, kwargs, result):
    return {"exact": result.exact}


def _solver_attrs(args, kwargs, result):
    if isinstance(result, list):  # sweep
        return {}
    return {"chi": result.chi_r, "lb": result.lower_bound_used.value,
            "proven": result.proven}


ATTRS = {"kernel": _kernel_attrs, "bounds.vset": _vset_attrs,
         "solver": _solver_attrs}


def condchrom_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "condchrom" or name.startswith("condchrom."))]


def patch_everywhere(original, replacement) -> list[tuple]:
    """Rebind `original` to `replacement` under every condchrom name that
    holds it; returns (module, attribute, original) for restoring."""
    patched = []
    for mod in condchrom_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr, original))
    return patched


def restore(patched: list[tuple]) -> None:
    for mod, attr, original in reversed(patched):
        setattr(mod, attr, original)


class Tracer:
    """Keeps spans in memory: dicts with id, name, start, end (seconds),
    parent span id and call id. Spans under one top-level span (one CLI
    call) share its call id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._calls = 0
        self._patched: list[tuple] = []

    def install(self) -> None:
        for (modname, attr), name in TARGETS.items():
            original = getattr(sys.modules["condchrom." + modname], attr)
            self._patched += patch_everywhere(original, self._wrap(name, original))

    def uninstall(self) -> None:
        restore(self._patched)
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                call = self._calls
                self._calls += 1
            else:
                call = spans[parent]["call"]
            span = {"id": len(spans), "name": name, "parent": parent,
                    "call": call, "start": clock()}
            spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if attrs_of is not None:
                span.update(attrs_of(args, kwargs, result))
            return result

        return traced


def layer_metrics(spans: list[dict], readings=(), scale: float = 1.0) -> dict:
    """Per-layer counts and times of one pass. A layer's ms is the time
    inside its outermost spans (children of other layers included); the
    self_ms figures subtract every child span. Speed-probe readings
    (start, seconds) taken inside a span are left out of its time, and times
    are multiplied by `scale`."""
    starts = [t for t, _ in readings]
    probe_end = list(itertools.accumulate(d for _, d in readings))

    def probe_within(a, b):
        i, j = bisect.bisect_left(starts, a), bisect.bisect_left(starts, b)
        return (probe_end[j - 1] if j else 0.0) - (probe_end[i - 1] if i else 0.0)

    dur = [(s["end"] - s["start"] - probe_within(s["start"], s["end"])) * 1000.0 * scale
           for s in spans]
    child_ms = defaultdict(float)
    ancestors: list[frozenset] = []
    for s in spans:
        p = s["parent"]
        if p is None:
            ancestors.append(frozenset())
        else:
            child_ms[p] += dur[s["id"]]
            ancestors.append(ancestors[p] | {spans[p]["name"]})

    def named(name):
        return [s for s in spans if s["name"] == name]

    def ms(name):
        return sum((dur[s["id"]] for s in named(name)
                    if name not in ancestors[s["id"]]), 0.0)

    def self_ms(name):
        return sum((dur[s["id"]] - child_ms[s["id"]] for s in named(name)), 0.0)

    kern = named("kernel")
    # A call that raised has no result attributes; its op reports the traceback.
    nodes = {st: sum(s["nodes"] for s in kern if s.get("status") == st)
             for st in ("found", "none", "budget")}
    kernel_ms = ms("kernel")
    solves = [s for s in named("solver") if s.get("proven")]
    vsets = named("bounds.vset")
    return {
        "kernel.calls": len(kern),
        "kernel.ms": kernel_ms,
        "kernel.nodes": sum(nodes.values()),
        "kernel.nodes_per_s": sum(nodes.values()) / (kernel_ms / 1000.0)
        if kernel_ms > 0 else 0.0,
        "kernel.found_nodes": nodes["found"],
        "kernel.refute_nodes": nodes["none"],
        "kernel.budget_nodes": nodes["budget"],
        "kernel.refuted_levels": sum(s.get("status") == "none" for s in kern),
        "bounds.clique_calls": len(named("bounds.clique")),
        "bounds.clique_ms": ms("bounds.clique"),
        "bounds.vset_calls": len(vsets),
        "bounds.vset_ms": ms("bounds.vset"),
        "bounds.vset_inexact": sum(s.get("exact") is False for s in vsets),
        "bounds.lb_gap": sum(s["chi"] - s["lb"] for s in solves),
        "bounds.tight_frac": sum(s["chi"] == s["lb"] for s in solves) / len(solves)
        if solves else 0.0,
        "families.build_calls": len(named("families.build")),
        "families.build_ms": ms("families.build"),
        "constructions.calls": len(named("constructions")),
        "constructions.ms": ms("constructions"),
        "verify.check_calls": len(named("verify.check")),
        "verify.check_ms": ms("verify.check"),
        "graphs.parse_ms": ms("graphs.parse"),
        "solver.self_ms": self_ms("solver"),
        "cli.self_ms": self_ms("cli"),
    }
