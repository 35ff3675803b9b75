"""Spans recorded around calls into ctvoter, and the times derived from them.

A span is the list [name, start, end, parent, replicate, phase, attrs]:
`parent` is the index of the enclosing span (-1 at the root), `replicate`
the replicate or query id the call belongs to, `phase` the part of the
traced execution it ran in ("main" for the timed work, other names for the
replays made after it) and `attrs` an optional dict of counts taken from the
call's result. Spans stay in memory until the execution writes them out.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.replicate = None
        self.phase = "main"

    def wrap(self, name, fn, attrs_of=None, replicate_of=None):
        """Return fn wrapped in a span called `name`.

        attrs_of(args, kwargs, result) gives the span's attrs; replicate_of(args)
        gives the replicate id that this span and its descendants carry.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            outer = self.replicate
            if replicate_of is not None:
                self.replicate = replicate_of(args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.replicate, self.phase, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                self.replicate = outer
            if attrs_of is not None:
                span[6] = attrs_of(args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr, name, **kwargs):
        """Rebind module.attr, the name callers look up, to a traced wrapper."""
        setattr(module, attr, self.wrap(name, getattr(module, attr), **kwargs))


class SpanSummary:
    """Durations and self times per (phase, span name).

    Self time is a span's duration minus the durations of its direct
    children; calls are serial, so children never overlap.
    """

    def __init__(self, spans):
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        self.durations = defaultdict(list)
        self.self_time = defaultdict(float)
        self.attrs = defaultdict(list)
        for idx, (name, start, end, _parent, _rep, phase, attrs) in enumerate(spans):
            self.durations[phase, name].append(end - start)
            self.self_time[phase, name] += end - start - child_time[idx]
            if attrs is not None:
                self.attrs[phase, name].append(attrs)

    def self_s(self, name, phase="main") -> float:
        return self.self_time.get((phase, name), 0.0)

    def total_s(self, name, phase="main") -> float:
        return sum(self.durations.get((phase, name), ()))

    def calls(self, name, phase="main") -> int:
        return len(self.durations.get((phase, name), ()))

    def quantile(self, name, q, phase="main") -> float:
        """Nearest-rank quantile of the span's durations, 0 when it never ran."""
        values = sorted(self.durations.get((phase, name), ()))
        if not values:
            return 0.0
        return values[max(1, math.ceil(len(values) * q)) - 1]

    def attr_sum(self, name, key, phase="main") -> int:
        return sum(a[key] for a in self.attrs.get((phase, name), ()))

    def attr_count(self, name, key, value, phase="main") -> int:
        return sum(1 for a in self.attrs.get((phase, name), ()) if a[key] == value)
