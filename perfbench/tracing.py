"""Span timing from outside the program, by wrapping module attributes.

The program is not edited: each traced function is replaced, for the length
of a `Tracer.installed()` block, by a wrapper that times the call. Calls nest
on a stack, so every span knows the time its child spans covered, and its
self time is its duration minus that. Totals are kept in memory per span name
and reset by `Tracer.reset()`.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# (module, attribute path, span name). Both the solver's own binding and the
# defining module's attribute are wrapped for functions the solver imports by
# name, so the span survives either call style.
TARGETS = (
    ("faceid.dataio", "load_manifest", "dataio.load_manifest"),
    ("faceid.dataio", "load_face", "dataio.load_face"),
    ("faceid.model", "build_dictionary", "model.build_dictionary"),
    ("faceid.solver", "precompute_gram", "solver.precompute_gram"),
    ("faceid.solver", "solve", "solver.solve"),
    ("faceid.solver", "coding_step", "solver.coding_step"),
    ("faceid.solver", "e_update", "solver.e_update"),
    ("faceid.solver", "z_update", "solver.z_update"),
    ("faceid.solver", "a_update", "solver.a_update"),
    ("faceid.solver", "dual_update", "solver.dual_update"),
    ("faceid.solver", "GramCache.apply", "solver.gram_apply"),
    ("faceid.solver", "svt", "prox.svt"),
    ("faceid.prox", "svt", "prox.svt"),
    ("faceid.solver", "weight_update", "weights.weight_update"),
    ("faceid.weights", "weight_update", "weights.weight_update"),
    ("faceid.classify", "identify", "classify.identify"),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute name) for a dotted path, or None if any part is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    def __init__(self):
        self._stack = []  # [start_ns, child_ns] per open span
        self.absent = []
        self.reset()

    def reset(self):
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.calls = Counter()

    def _wrap(self, fn, name):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [perf_counter_ns(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - frame[0]
                stack.pop()
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target that exists; record the span names that do not."""
        restore = []
        found = set()
        for module_name, path, name in TARGETS:
            where = _resolve(module_name, path)
            if where is None:
                continue
            owner, attr = where
            original = getattr(owner, attr)
            restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
            found.add(name)
        self.absent = sorted({name for _, _, name in TARGETS} - found)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def seconds(self, name, self_time=False) -> float:
        return (self.self_ns if self_time else self.total_ns)[name] / 1e9

    def snapshot(self) -> dict:
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_ns[name] / 1e9,
                "self_s": self.self_ns[name] / 1e9,
            }
            for name in sorted(self.calls)
        }


def wrapper_cost_ns(calls: int = 20000) -> float:
    """Nanoseconds one wrapper adds to a call, timed on a no-op here and now;
    times the number of traced calls, it gives the overhead of a traced run."""
    noop = lambda: None
    traced = Tracer()._wrap(noop, "noop")
    t0 = perf_counter_ns()
    for _ in range(calls):
        noop()
    t1 = perf_counter_ns()
    for _ in range(calls):
        traced()
    t2 = perf_counter_ns()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)
