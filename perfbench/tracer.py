"""Spans around weakmeter's public functions, installed from outside the package.

A span is (name, start, end, parent, op, ok): perf_counter bounds, the index
of the enclosing span (-1 at top level), the benchmark op it belongs to, and
whether the call returned rather than raised.  Spans stay in memory and are
written out once, when the run ends.  Self time is derived afterwards: a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Wrapped names per module.  Classes are traced through their __init__, so
# every construction is seen no matter which module names the class.
TARGETS = {
    "qcore": ("DensityOperator", "ProjectionOperator", "HermitianObservable"),
    "exactengine": ("MeasurementSetup", "exact_shifts", "grid_shifts"),
    "weakvalue": ("weak_moments", "schwarz_gap", "second_order_shifts"),
    "bounds": ("optimize_pps", "check_weak_bounds"),
    "hardy": ("probability_curve", "hardy_probabilities"),
    "infogain": ("info_curve", "information_gain"),
    "scenario": ("parse_scenario",),
    "verify": ("run_suites",),
    "cli": ("main",),
}
LABELS = tuple(f"{mod}.{name}" for mod, names in TARGETS.items() for name in names)

# Labels whose calls reach other wrapped names, so self time differs from busy.
WITH_CHILDREN = (
    "qcore.HermitianObservable",
    "bounds.check_weak_bounds",
    "hardy.probability_curve",
    "hardy.hardy_probabilities",
    "infogain.info_curve",
    "infogain.information_gain",
    "scenario.parse_scenario",
    "verify.run_suites",
    "cli.main",
)


class Tracer:
    """Records spans for the TARGETS while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {mod: importlib.import_module(f"weakmeter.{mod}") for mod in TARGETS}
        for mod, names in TARGETS.items():
            for name in names:
                obj = getattr(modules[mod], name)
                label = f"{mod}.{name}"
                if isinstance(obj, type):
                    self._patch(obj, "__init__", self._wrap(label, obj.__init__))
                    continue
                # cli, hardy, bounds, verify and the package itself import
                # these names into their own globals: patch every binding.
                wrapped = self._wrap(label, obj)
                for module_name, module in list(sys.modules.items()):
                    if module_name != "weakmeter" and not module_name.startswith("weakmeter."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is obj:
                            self._patch(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def _patch(self, target: object, attr: str, value: object) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _wrap(self, label: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent, self.op, ok)

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def merge(into: list, spans: list) -> None:
    """Append spans read from another process, re-basing parent indices."""
    base = len(into)
    into.extend(
        (label, start, end, parent + base if parent >= 0 else -1, op, ok)
        for label, start, end, parent, op, ok in spans
    )


def layer_totals(spans: list) -> dict[str, dict[str, float]]:
    """Per label: calls, returned (calls that did not raise), busy and self seconds."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {label: {"calls": 0, "returned": 0, "busy": 0.0, "self": 0.0} for label in LABELS}
    for index, (label, start, end, _, _, ok) in enumerate(spans):
        t = totals[label]
        t["calls"] += 1
        t["returned"] += ok
        t["busy"] += end - start
        t["self"] += end - start - child[index]
    return totals


def op_busy(spans: list, label: str) -> dict[int, float]:
    """Busy seconds of one label, per op id."""
    out: dict[int, float] = {}
    for name, start, end, _, op, _ in spans:
        if name == label:
            out[op] = out.get(op, 0.0) + end - start
    return out
