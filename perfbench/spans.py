"""Spans recorded from outside the program, around the calls into each layer.

A ``Tracer`` replaces functions and methods of the smtrace modules with
wrappers while it is installed.  Each wrapper records a span (name, start,
end, parent span, instance id) in memory and can add to named counters.  The
wrapper is installed on the attribute that the *calling* module looks up, so
calls made inside the program are seen too: for example
``smtrace.compiler.split_components`` rather than the package re-export.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index, instance)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxes: dict[str, float] = defaultdict(float)
        self.instance = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """A traced stand-in for ``fn``.

        ``on_call(tracer, args)`` runs before the call and may return a
        value that ``on_result(tracer, args, result, before)`` gets after it.
        """

        def traced(*args, **kwargs):
            before = on_call(self, args) if on_call is not None else None
            spans, stack = self.spans, self._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.instance)
            if on_result is not None:
                on_result(self, args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        """A stand-in for ``fn`` that only counts its calls (no span)."""

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        """(spans, counts, maxes) recorded so far; recording starts afresh.

        A time cap can interrupt a wrapper before it stores its span; such a
        slot is returned as an empty span.
        """
        spans = [s or ("interrupted", 0.0, 0.0, -1, "") for s in self.spans]
        taken = (spans, self.counts, self.maxes)
        self.spans = []
        self.counts = defaultdict(float)
        self.maxes = defaultdict(float)
        self._stack.clear()
        return taken


def write_spans(path, passes) -> None:
    """One JSON array per line: name, start, end, parent line, instance.

    ``passes`` holds the spans of each traced pass; a parent is given as the
    0-based line of the file it is on.
    """
    at = 0
    with open(path, "w") as out:
        for spans in passes:
            for name, start, end, parent, inst in spans:
                out.write(json.dumps((name, start, end, parent + at if parent >= 0 else -1, inst)) + "\n")
            at += len(spans)


def wall(t0: float, t1: float) -> float:
    return t1 - t0


def self_times(spans, dur=wall) -> list[tuple[float, float]]:
    """Per span: (duration, self time), its duration minus the part of it its
    child spans cover.  ``dur(t0, t1)`` measures an interval; it must add up
    over adjacent intervals, as ``SpeedClock.scaled`` does."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += dur(cur_lo, cur_hi)
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += dur(cur_lo, cur_hi)
        total = dur(start, end)
        out.append((total, total - covered))
    return out


def summarize(spans, dur=wall) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) time and self time."""
    times = self_times(spans, dur)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for span, (total, own) in zip(spans, times):
        row = out[span[0]]
        row["calls"] += 1
        row["total"] += total
        row["self"] += own
    return out


def child_calls(spans, child: str, parent: str) -> int:
    """Number of ``child`` spans whose direct parent is a ``parent`` span."""
    return sum(1 for s in spans if s[0] == child and s[3] >= 0 and spans[s[3]][0] == parent)
