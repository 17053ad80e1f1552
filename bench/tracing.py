"""Spans around calls into the library, recorded from the benchmark's side.

A traced pass replaces each listed function by a wrapper, both at its
module attribute and at every other attribute of a loaded ``laughlin``
module bound to the same function object, so a call through a
``from laughlin.expansion import amplitudes`` binding (as in renewal,
correlations and hamiltonian) is seen as well.  Spans (name, start,
end, parent) are kept in memory; a span's self time is its duration
minus the durations of its direct children.  Single-threaded: spans
nest strictly.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, package: str = "laughlin"):
        self.package = package
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def _wrap(self, name, fn, timed, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if timed:
                index = tracer.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(index)
            else:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result
        return wrapper

    def install(self, targets) -> None:
        """Wrap each (module, attribute, timed, hook) target.

        ``timed`` targets get a span; the others only count calls.
        ``hook(counters, args, kwargs, result)`` adds size counters.
        """
        prefix = self.package + "."
        modules = [m for n, m in list(sys.modules.items())
                   if n == self.package or n.startswith(prefix)]
        for modname, attr, timed, hook in targets:
            original = getattr(sys.modules[modname], attr)
            name = f"{modname.rsplit('.', 1)[-1]}.{attr}"
            wrapper = self._wrap(name, original, timed, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def inclusive_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += end - start
        return out
