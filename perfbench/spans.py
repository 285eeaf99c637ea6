"""In-memory span tracing for the benchmark's traced run.

A :class:`Tracer` replaces named functions of the program's modules with
wrappers that record one span per call (name, parent span, start, end). The
spans stay in memory until :meth:`Tracer.summary` aggregates them into calls,
total time and self time per name. :meth:`Tracer.installed` restores every
original function on exit, so untraced runs execute untouched code.

Self time is a span's duration minus the durations of its direct children.
Total time counts only the outermost span of a name, so a function that
re-enters itself is not counted twice. The clock the spans read stops while a
hook runs after a call (counting tape nodes, statting written files), so
hook work appears in no span and is reported on its own as ``hook_s``.
"""

from __future__ import annotations

import contextlib
import functools
import time

class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.outermost: list[bool] = []
        self.counters: dict[str, float] = {}
        self.hook_s = 0.0
        self._stack: list[int] = []
        self._active: dict[str, int] = {}

    # -- recording -----------------------------------------------------------

    def now(self) -> float:
        """The clock with hook time taken out."""
        return self.clock() - self.hook_s

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        depth = self._active.get(name, 0)
        self.outermost.append(depth == 0)
        self._active[name] = depth + 1
        self._stack.append(index)
        self.ends.append(0.0)
        self.starts.append(self.now())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.now()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")
        self._active[self.names[index]] -= 1

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + float(amount)

    def wrap(self, name: str, fn, hook=None):
        """fn wrapped in a span; hook(tracer, args, kwargs, result) runs after."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if hook is not None:
                t0 = self.clock()
                try:
                    hook(self, args, kwargs, result)
                finally:
                    self.hook_s += self.clock() - t0
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch each (owner, attribute, span name, hook) for the block's duration."""
        originals = []
        try:
            for owner, attr, name, hook in targets:
                original = getattr(owner, attr)
                setattr(owner, attr, self.wrap(name, original, hook))
                originals.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """name -> {"calls", "total_s", "self_s"} over every closed span."""
        if self._stack:
            raise RuntimeError("summary() with spans still open")
        children = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += duration - children[i]
            if self.outermost[i]:
                entry["total_s"] += duration
        return out

    def root_seconds(self) -> float:
        """Time covered by top-level spans; equals the sum of all self times."""
        return sum(self.ends[i] - self.starts[i]
                   for i, parent in enumerate(self.parents) if parent < 0)
