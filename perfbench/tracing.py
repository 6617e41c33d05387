"""Spans around lambdaphase's public callables, recorded from outside the package.

The tracer replaces module and class attributes with wrappers for the
duration of a ``with patched(...)`` block and keeps every span in memory.
A layer's self time is its span's duration minus the part of that
interval its child spans cover.  An entry point that no longer exists is
reported as absent instead of failing the run.
"""

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

# span name -> (module key, attribute path) of the callable it wraps
LAYERS = {
    "cli.run_scenario": ("cli", "run_scenario"),
    "relphase.time_series": ("relphase", "time_series"),
    "dynamics.propagator_build": ("dynamics", "BlockDiagonalPropagator.__init__"),
    "dynamics.initial_state": ("dynamics", "initial_state"),
    "dynamics.amplitudes_at": ("dynamics", "BlockDiagonalPropagator.amplitudes_at"),
    "cli.write_csv": ("cli", "write_csv"),
    "cli.write_svg": ("cli", "write_svg"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index].end = time.perf_counter()
                self._open.pop()
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: summed duration ("s"), summed self time and calls."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            entry = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            duration = span.end - span.start
            entry["s"] += duration
            entry["self_s"] += duration - _covered(children.get(index, []))
            entry["calls"] += 1
        return out


def _covered(spans: list[Span]) -> float:
    """Length of the union of the spans' intervals."""
    total, reach = 0.0, float("-inf")
    for span in sorted(spans, key=lambda s: s.start):
        start = max(span.start, reach)
        if span.end > start:
            total += span.end - start
            reach = span.end
    return total


def _resolve(modules: dict, key: str, path: str):
    """(owner, attribute name) of a dotted path, or None when it is gone."""
    owner = modules.get(key)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    if isinstance(owner, type):
        return (owner, attr) if attr in vars(owner) else None
    return (owner, attr) if callable(getattr(owner, attr, None)) else None


@contextmanager
def patched(tracer: Tracer, modules: dict):
    """Wrap every layer that exists; yields the set of absent span names."""
    originals = []
    absent = set()
    try:
        for name, (key, path) in LAYERS.items():
            target = _resolve(modules, key, path)
            if target is None:
                absent.add(name)
                continue
            owner, attr = target
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield absent
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
