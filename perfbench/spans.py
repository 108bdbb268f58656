"""In-memory span recorder and the wrappers that feed it.

A span has a name, a start, an end and a parent.  The recorder wraps
functions from the outside: each wrapped call opens a span whose parent is
the innermost span still open, so the spans form one tree per top-level
call.  Self time is a span's duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps spans in memory; ``patch`` swaps module attributes for wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, note=None):
        """Wrap ``fn`` so that each call records a span.

        ``note(info, args, kwargs, result)`` may copy facts about a returned
        result into the span; a raised exception is recorded as
        ``info["error"]`` and re-raised.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.clock(), float("nan"),
                        self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span.info["error"] = type(e).__name__
                raise
            finally:
                span.end = self.clock()
                self._open.pop()
            if note is not None:
                note(span.info, args, kwargs, result)
            return result
        return traced

    def patch(self, module, attr, name, note=None):
        """Replace ``module.attr`` by a traced wrapper until ``restore``."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, note))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def named(self, name) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> list[float]:
        """Self time of every span, in recording order."""
        children: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children[s.parent].append(i)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            reach = s.start
            for lo, hi in sorted((self.spans[c].start, self.spans[c].end)
                                 for c in children[i]):
                lo, hi = max(lo, reach), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.duration - covered)
        return out


def per_span_overhead(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, from timing a no-op."""
    def noop():
        return None

    recorder = SpanRecorder()
    traced = recorder.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max((time.perf_counter() - t0 - bare) / calls, 0.0)
