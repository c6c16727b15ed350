"""Spans recorded from outside the program: functions of ``wvad`` are wrapped
at run time, each call becomes a span, and the originals are put back when
the tracer is closed.

A span runs from a call's entry to its return; its parent is the span open
when it started. A span's self time is its duration minus the time its
child spans cover. Runs make hundreds of thousands of spans, so the tracer
folds each one into per-name totals (calls, time, self time) as it closes,
and keeps single durations only for the names asked for. Counts measured
at the same boundaries go into ``counters``.
"""

from __future__ import annotations

import copy
import functools
import time
from collections import defaultdict

clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "total", "self_total")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0

    def minus(self, other: "Stat") -> "Stat":
        out = Stat()
        out.calls = self.calls - other.calls
        out.total = self.total - other.total
        out.self_total = self.self_total - other.self_total
        return out


class Tracer:
    """Wraps attributes of modules or classes and times every call.

    ``name`` is a string or a function of the call's arguments, so one
    wrapped function can report under several names (a taped and an untaped
    forward, one name per gradient-check case). ``on_return(args, kwargs,
    result)`` runs after the span has closed, so the counts it takes are
    not charged to the span.
    """

    def __init__(self, keep_samples: tuple[str, ...] = ()):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = {n: [] for n in keep_samples}
        self._stack: list[list] = []   # open spans: [name, start, child_time]
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str):
        self._stack.append([name, clock(), 0.0])

    def _close(self):
        name, start, child = self._stack.pop()
        duration = clock() - start
        stat = self.stats[name]
        stat.calls += 1
        stat.total += duration
        stat.self_total += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if name in self.samples:
            self.samples[name].append(duration)

    def wrap(self, owner, attr: str, name, on_return=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self._open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                self._close()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def span(self, name: str):
        """Context manager: a span around code of the benchmark itself."""
        return _Span(self, name)

    def count(self, name: str, value: float = 1.0):
        self.counters[name] += value

    def snapshot(self) -> tuple[dict[str, Stat], dict[str, float]]:
        return copy.deepcopy(dict(self.stats)), dict(self.counters)

    def close(self):
        """Put every wrapped attribute back, last wrapped first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def delta(now, before):
    """Stats and counters of the interval between two snapshots."""
    stats_now, counters_now = now
    stats_before, counters_before = before
    stats = {n: s.minus(stats_before.get(n, Stat())) for n, s in stats_now.items()}
    counters = {n: v - counters_before.get(n, 0.0) for n, v in counters_now.items()}
    return stats, counters


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close()


def cost_per_span(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, median of 5 trials."""

    class Probe:
        def f(self):
            return None

    probe = Probe()

    def trial() -> float:
        start = clock()
        for _ in range(calls):
            probe.f()
        return clock() - start

    plain, traced = [], []
    for _ in range(5):
        plain.append(trial())
        with Tracer() as tracer:
            tracer.wrap(Probe, "f", "probe")
            traced.append(trial())
    plain.sort()
    traced.sort()
    return max(traced[2] - plain[2], 0.0) / calls
