"""Layer spans and deterministic counters, installed from outside the package.

The tracer replaces public functions of the ``mmsvote`` modules with
wrappers. A function imported by name into another module (``from .model
import type_census``) is the same object there, so every module binding
that holds the original is swapped, and swapped back on exit.

Two modes share one wrapper:

* counting (``timing=False``): only the functions whose counts are
  determinism-checked are wrapped, and only counts are kept. Untimed
  bookkeeping is one Python call per wrapped call, small next to a share
  search or a permutation minimum.
* tracing (``timing=True``): every public function of every layer module
  is wrapped and timed. Self time is a span's duration minus the time of
  the spans it directly contains. Spans are aggregated per function in
  memory, never stored one by one.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "model", "shares", "kernels", "rules", "verify", "adversary")

# (layer, function) pairs whose call counts feed the determinism check
COUNTED = (("kernels", "search_max_partition"), ("shares", "partition_guarantee"))


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mmsvote" or name.startswith("mmsvote."))]


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self, *, timing: bool, compiled_limits: tuple[int, int] | None = None,
                 record_search: bool = False):
        self.timing = timing
        # (max agents, max types) of the compiled kernel, None when it is absent
        self.compiled_limits = compiled_limits
        self.record_search = record_search
        self.recording = False
        self._stack: list[float] = []  # child time of each open span
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.rule_self_time: dict[str, float] = defaultdict(float)
        self.nodes = 0
        self.budget_exceeded = 0
        self.pure_routed = 0
        self.search_args: list[tuple] = []

    def snapshot(self):
        """Aggregates of the spans recorded since the last reset."""
        return (self.calls, self.total, self.self_time, self.rule_self_time,
                self.nodes, self.budget_exceeded, self.pure_routed)

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        modules = _package_modules()
        by_name = {m.__name__: m for m in modules}
        targets = []
        for layer in LAYERS:
            module = by_name[f"mmsvote.{layer}"]
            for name, fn in _public_functions(module):
                if self.timing or (layer, name) in COUNTED:
                    targets.append((f"{layer}.{name}", fn))
        undo = []
        for key, fn in targets:
            wrapper = self._wrap(key, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, fn))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(undo):
                setattr(module, attr, fn)

    @contextlib.contextmanager
    def record(self):
        self.recording = True
        try:
            yield
        finally:
            self.recording = False

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, key, fn):
        observe = {
            "kernels.search_max_partition": self._on_search,
            "kernels.min_assignment": self._on_assignment,
        }.get(key)
        per_rule = key == "rules.run_rule"
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self.calls[key] += 1
            if not self.timing:
                result = fn(*args, **kwargs)
            else:
                stack.append(0.0)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    inner = stack.pop()
                    if stack:
                        stack[-1] += elapsed
                    self.total[key] += elapsed
                    self.self_time[key] += elapsed - inner
                    if per_rule:
                        rule = args[0] if isinstance(args[0], str) else args[0].name
                        self.rule_self_time[rule] += elapsed - inner
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_search(self, args, result) -> None:
        counts, _masks, n = args[0], args[1], args[2]
        self.nodes += result[2]
        if not result[3]:
            self.budget_exceeded += 1
        if self.compiled_limits is not None:
            max_agents, max_types = self.compiled_limits
            if n > max_agents or len(counts) > max_types:
                self.pure_routed += 1
        if self.record_search:
            self.search_args.append(tuple(args))

    def _on_assignment(self, args, result) -> None:
        if self.compiled_limits is not None and len(args[0]) > self.compiled_limits[0]:
            self.pure_routed += 1
