"""Span tracer installed on the program from outside.

While installed, every public function of the traced layers is replaced, in
every module namespace that holds it, by a wrapper that records a span
(name, parent, start, end, op).  A name re-imported into another module
(``obscheck.semigroup``, ``cli.dump_json``, ...) is wrapped there too, under
the name of the module that defines it.  scipy's ``expm`` is wrapped in each
module that imports it, under that module's name, and its calls are counted
by matrix order.  ``uninstall`` restores every attribute, so untraced passes
run the program untouched.

Spans stay in memory until the benchmark writes them out.  A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("linsys", "obscheck", "lqsynth", "closedloop", "benchmarks", "serialize", "cli")
# cli is the root of every op: its own functions are not wrapped, and its self
# time is whatever the wrapped layers do not cover.
_DEFINING = tuple(f"sampstab.{m}" for m in LAYERS if m != "cli")
_EXPM_USERS = ("linsys", "obscheck", "closedloop")
# Per-entry helpers, called once per matrix element: their spans would swamp
# the trace and distort the serializer's time.
_SKIP = frozenset({"serialize.scalar_to_json", "serialize.entry_from_json"})
ROOT = "cli.main"


def _file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path) if path is not None else 0}


def _riccati(args, kwargs, result):
    return {"iterations": int(result.iterations), "unconverged": int(not result.converged)}


# Counters read off a call: span name -> f(args, kwargs, result) -> {suffix: n}.
_HOOKS = {
    "lqsynth.riccati_solve": _riccati,
    "serialize.dump_json": _file_bytes,
    "closedloop.trajectory_to_csv": _file_bytes,
}


class Tracer:
    """Records spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []      # [name, parent index, start, end, op]
        self.counters: Counter = Counter()
        self.expm_orders: dict = defaultdict(Counter)
        self.op = -1
        self._stack = [-1]
        self._patched: list[tuple] = []

    def reset(self) -> None:
        """Drop recorded spans and counts, in place: installed wrappers hold them."""
        self.spans.clear()
        self.counters.clear()
        for orders in self.expm_orders.values():
            orders.clear()

    def _record(self, fn, name, hook=None, orders=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1], 0.0, 0.0, self.op]
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if hook is not None:
                for key, n in hook(args, kwargs, result).items():
                    self.counters[f"{name}.{key}"] += n
            if orders is not None:
                orders[args[0].shape[0]] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' functions; pair every call with ``uninstall``."""
        self._stack[:] = [-1]
        for layer in LAYERS:
            module = importlib.import_module(f"sampstab.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ not in _DEFINING:
                    continue
                name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                if name in _SKIP:
                    continue
                self._patch(module, attr, self._record(value, name, _HOOKS.get(name)))
            if layer in _EXPM_USERS and hasattr(module, "expm"):
                name = f"{layer}.expm"
                self._patch(module, "expm", self._record(
                    module.expm, name, orders=self.expm_orders[name]))

    def _patch(self, module, attr, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def root(self, op: int):
        """Span of one whole CLI call; every wrapped call inside is its descendant."""
        span = [ROOT, -1, time.perf_counter(), 0.0, op]
        self.op = op
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
            self.op = -1

    def summary(self) -> dict:
        """Calls and inclusive seconds per span name, self seconds per layer,
        counters, and expm calls by matrix order."""
        calls: Counter = Counter()
        total: Counter = Counter()
        covered = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                covered[parent] += end - start
        self_s: Counter = Counter()
        for (name, _, start, end, _), child in zip(self.spans, covered):
            self_s[name.split(".", 1)[0]] += (end - start) - child
        return {
            "calls": dict(calls),
            "seconds": dict(total),
            "self_seconds": dict(self_s),
            "counters": dict(self.counters),
            "expm_orders": {k: dict(sorted(v.items())) for k, v in self.expm_orders.items()},
        }


def write_spans(spans, path) -> None:
    """One JSON object per span, times in seconds from the first span's start."""
    t0 = spans[0][2] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for idx, (name, parent, start, end, op) in enumerate(spans):
            fh.write(json.dumps({"id": idx, "op": op, "name": name, "parent": parent,
                                 "start": start - t0, "end": end - t0}) + "\n")


def per_layer(summary: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json that one pass's spans give."""
    calls, secs = summary["calls"], summary["seconds"]
    counters, self_s = summary["counters"], summary["self_seconds"]
    out = {}
    for name in ("linsys.expm", "linsys.semigroup", "linsys.observation_block",
                 "obscheck.discrete_gramian", "obscheck.continuous_gramian",
                 "obscheck.expm", "obscheck.check_inequality", "closedloop.expm"):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("linsys.expm", "linsys.sample", "obscheck.decide_dc", "obscheck.decide_cc",
                 "obscheck.discrete_gramian", "obscheck.continuous_gramian",
                 "obscheck.check_inequality", "obscheck.min_delta_on_kernel",
                 "obscheck.brute_force_max_violation", "lqsynth.riccati_solve",
                 "lqsynth.feedback_gain", "lqsynth.closed_loop_cost",
                 "closedloop.simulate_cc", "closedloop.simulate_dc", "closedloop.simulate_dp",
                 "closedloop.simulate_cp", "closedloop.fit_decay",
                 "closedloop.trajectory_to_csv", "serialize.dump_json",
                 "serialize.matrix_to_json", "benchmarks.schrodinger_witness"):
        out[f"{name}.s"] = secs.get(name, 0.0)
    orders = summary["expm_orders"].get("linsys.expm", {})
    out["linsys.expm.max_order"] = max(orders, default=0)
    for name in ("lqsynth.riccati_solve.iterations", "lqsynth.riccati_solve.unconverged",
                 "closedloop.trajectory_to_csv.bytes", "serialize.dump_json.bytes"):
        out[name] = counters.get(name, 0)
    # Eigendecompositions spent on the constant search per verdict reached.
    verdicts = calls.get("obscheck.decide_dc", 0) + calls.get("obscheck.decide_cc", 0)
    out["obscheck.checks_per_verdict"] = (
        calls.get("obscheck.check_inequality", 0) / verdicts if verdicts else 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return out
