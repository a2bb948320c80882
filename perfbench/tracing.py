"""Span tracing from outside the program, by rebinding its public functions.

``Tracer.install`` wraps every public module-level function of the layer
modules, and ``FiniteGroupoid.convolution_plan``, and rebinds each wrapper
under every name that refers to the original in any ``groupalg`` module, so
calls made through ``from .x import f`` are traced too.  Each call records a
span (name, start, end, parent) in flat arrays kept in memory.

A span's self time is its duration minus the durations of its direct
children, minus what the tracer itself spent inside it: the calibrated cost
of one wrapped call per direct child, and the time of the counter hooks its
children ran.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYER_MODULES = ["io", "groupoid", "haar", "representations", "bisections",
                 "battery", "randgen", "inductive", "partial_algebra", "cli"]

CALIBRATION_CALLS = 20000
CALIBRATION_REPEATS = 5


class _PlanLength:
    """Length of a groupoid's convolution plan, cached for the last groupoid:
    one triple per arrow and per arrow of its target fiber."""

    def __init__(self):
        self.groupoid = None
        self.length = 0

    def __call__(self, G) -> int:
        if G is not self.groupoid:
            self.groupoid = G
            self.length = sum(len(G.target_fiber(G.tgt[a])) for a in range(G.n_arrows))
        return self.length


def _counter_hooks() -> dict:
    """Counts taken after a call returns, keyed by the traced name."""
    plan_length = _PlanLength()

    def convolve(counters, args, result):
        counters["haar.convolve.terms"] += plan_length(args[0])

    def transitive(counters, args, result):
        counters["composable_pairs"] += len(args[0].composable_pairs())

    def bisections_found(counters, args, result):
        counters["bisections.enumerate_bisections.found"] += len(result)

    return {
        "haar.convolve": convolve,
        "representations.transitive_isomorphism_check": transitive,
        "bisections.enumerate_bisections": bisections_found,
    }


def _noop():
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self.stack: list[int] = []
        self.hook_s: dict[int, float] = {}
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.call_costs: list[float] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, label: str, fn, after=None):
        nid = len(self.names)
        self.names.append(label)
        start, end, name, parent, stack = self.start, self.end, self.name, self.parent, self.stack
        counters, hook_s = self.counters, self.hook_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = time.perf_counter()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(counters, args, result)
                hook_s[idx] = time.perf_counter() - end[idx]
            return result
        return traced

    def _prepare(self) -> None:
        """Make every wrapper once and note where each one goes."""
        from groupalg.groupoid import FiniteGroupoid

        hooks = _counter_hooks()
        wrappers: dict[int, tuple[object, object]] = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"groupalg.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    label = f"{short}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(label, obj, hooks.get(label)))
        for modname, mod in list(sys.modules.items()):
            if modname != "groupalg" and not modname.startswith("groupalg."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj, hit[1]))
        plan = FiniteGroupoid.convolution_plan
        self._patches.append((FiniteGroupoid, "convolution_plan", plan,
                              self._wrap("groupoid.convolution_plan", plan)))
        for key in ("haar.convolve.terms", "composable_pairs",
                    "bisections.enumerate_bisections.found"):
            self.counters[key] += 0.0

    def install(self) -> None:
        if not self._patches:
            self._prepare()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)

    @property
    def call_cost(self) -> float:
        """The cost of one wrapped call, median of every calibration."""
        return statistics.median(self.call_costs) if self.call_costs else 0.0

    def calibrate(self) -> None:
        """Time a wrapped empty function against the bare one and record the
        cost one wrapped call adds to its caller beyond its own span: the
        median over ``CALIBRATION_REPEATS`` loops of ``CALIBRATION_CALLS``.
        The host's speed drifts, so calibrate again before each traced pass."""
        costs = []
        for _ in range(CALIBRATION_REPEATS):
            probe = Tracer()
            wrapped = probe._wrap("noop", _noop)
            t0 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                _noop()
            t1 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                wrapped()
            t2 = time.perf_counter()
            spans = sum(probe.end) - sum(probe.start)
            costs.append(((t2 - t1) - (t1 - t0) - spans) / CALIBRATION_CALLS)
        self.call_costs.append(statistics.median(costs))

    def _columns(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        return start, end, name, parent

    def _hook_column(self) -> np.ndarray:
        hook = np.zeros(len(self.start))
        if self.hook_s:
            hook[list(self.hook_s)] = list(self.hook_s.values())
        return hook

    def child_calls(self, parent_label: str, child_label: str) -> int:
        """Calls of ``child_label`` made directly from ``parent_label``."""
        _, _, name, parent = self._columns()
        nested = parent >= 0
        parent_name = np.full(len(name), -1)
        parent_name[nested] = name[parent[nested]]
        return int(np.sum((name == self.names.index(child_label))
                          & (parent_name == self.names.index(parent_label))))

    def totals(self) -> dict[str, float]:
        """``<label>.self_s`` and ``<label>.calls`` summed over every span,
        plus the counters."""
        start, end, name, parent = self._columns()
        dur = end - start
        hook = self._hook_column()
        nested = parent >= 0
        charged = dur[nested] + hook[nested] + self.call_cost
        child = np.bincount(parent[nested], weights=charged, minlength=len(dur))
        self_time = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        out: dict[str, float] = dict(self.counters)
        for nid, label in enumerate(self.names):
            out[f"{label}.self_s"] = float(self_time[nid])
            out[f"{label}.calls"] = float(calls[nid])
        return out

    def write(self, path: str) -> None:
        """Write every span: names, and per span start, end, name id, parent,
        and the time its counter hook took."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        start, end, name, parent = self._columns()
        np.savez(path, names=np.array(self.names), start=start, end=end,
                 name=name, parent=parent, hook_s=self._hook_column(),
                 call_cost_s=self.call_cost)
