"""Span tracing of geomlie from outside the package.

``Tracer.install`` replaces each public function of the traced modules
wherever callers look it up: the module attribute and every ``from ...
import`` binding in any loaded ``geomlie`` module.  The wrapper records a
span (name, start, end, parent, operation) and calls through; nothing else.
Spans stay in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from pathlib import Path

TRACED_MODULES = ("lattice", "rootsys", "_exact", "liealg", "wheel", "coxplane", "verify", "cli")
MARK = "__perfbench_span__"

# Span fields, stored as lists so the end time can be filled in on exit.
NAME, START, END, PARENT, OP = range(5)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "geomlie" or name.startswith("geomlie."))]


def installed_wrappers() -> int:
    """Number of span wrappers bound anywhere in the loaded geomlie modules."""
    return sum(1 for m in _package_modules() for v in vars(m).values()
               if callable(v) and hasattr(v, MARK))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.recording = True
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (a plain call while not recording)."""
        if not self.recording:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            record[END] = time.perf_counter()

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> int:
        """Wrap the public functions of the traced modules; returns bindings replaced."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"geomlie.{short}"]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return len(self._bindings)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def write(self, path: Path) -> None:
        """Write every span as ``name,start_s,end_s,parent,op`` (gzip CSV)."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for s in self.spans:
                fh.write(f"{s[NAME]},{s[START] - t0:.9f},{s[END] - t0:.9f},{s[PARENT]},{s[OP]}\n")


def aggregate(spans: list[list], lo: int, hi: int) -> dict[str, list[float]]:
    """Per span name over ``spans[lo:hi]``: [self seconds, total seconds, calls].

    Self time is a span's duration minus the durations of its direct
    children; children never overlap because one thread runs everything.
    """
    child = [0.0] * (hi - lo)
    for s in spans[lo:hi]:
        if s[PARENT] >= lo:
            child[s[PARENT] - lo] += s[END] - s[START]
    out: dict[str, list[float]] = {}
    for i, s in enumerate(spans[lo:hi]):
        dur = s[END] - s[START]
        acc = out.setdefault(s[NAME], [0.0, 0.0, 0])
        acc[0] += dur - child[i]
        acc[1] += dur
        acc[2] += 1
    return out
