"""Spans around socmorse's public functions, installed from outside.

The tracer replaces each traced function in every ``socmorse`` module
namespace that holds it, so a call made inside the package (for example
``robustness.scan_systematic`` calling ``dynamics_two_level.propagate``)
is recorded as a child of the calling span.  Spans are kept in memory and
summarised when the run ends.  A span's self time is its duration minus
the time covered by its children.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int
    phase: str
    round: int
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    children: int = 0
    work: dict = field(default_factory=dict)
    scale: float = 1.0  # set after the run to rescale to the reference speed

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * self.scale

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s * self.scale


class Tracer:
    """Records one span per call of every installed function."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self.round = -1
        self._stack = []
        self._paused = 0
        self._restore = []

    @contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not recorded."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _call(self, fn, sig, name_of, work_of, args, kwargs):
        if self._paused:
            return fn(*args, **kwargs)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        parent = self._stack[-1] if self._stack else -1
        span = Span(name_of(bound.arguments), parent, self.phase, self.round)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += span.end - span.start
                self.spans[parent].children += 1
        if work_of is not None:
            span.work = work_of(bound.arguments)
        return result

    def _wrapper(self, fn, name_of, work_of):
        sig = inspect.signature(fn)
        if isinstance(name_of, str):
            name_of = (lambda text: lambda _a: text)(name_of)

        def traced(*args, **kwargs):
            return self._call(fn, sig, name_of, work_of, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install_function(self, module, attr, name_of, work_of=None):
        """Trace ``module.attr`` wherever a socmorse module imported it."""
        original = getattr(module, attr)
        traced = self._wrapper(original, name_of, work_of)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "socmorse" or mod_name.startswith("socmorse.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._restore.append((mod, key, original))

    def install_method(self, cls, attr, name_of, work_of=None):
        """Trace a plain method or a classmethod of ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self._wrapper(raw.__func__, name_of, work_of))
        else:
            traced = self._wrapper(raw, name_of, work_of)
        setattr(cls, attr, traced)
        self._restore.append((cls, attr, raw))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def span_cost_s(self, calls: int = 2000) -> float:
        """Measured cost of recording one span, for the overhead estimate."""

        def noop(x, y=0):
            return x

        traced = self._wrapper(noop, "trace.calibration", None)
        saved_phase, self.phase = self.phase, "calibration"
        mark = len(self.spans)
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for i in range(calls):
            traced(i)
        with_span = time.perf_counter() - t0
        del self.spans[mark:]
        self.phase = saved_phase
        return max(0.0, (with_span - plain) / calls)

    # -- summaries -------------------------------------------------------

    def recorded(self, *phases):
        return [s for s in self.spans if s.phase in phases]

    def by_name(self):
        """Count, total and self seconds per span name (setup and rounds)."""
        out = {}
        for s in self.recorded("setup", "round"):
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.seconds
            row["self_s"] += s.self_s
        return out


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default
