"""In-memory spans around the benchmark's calls into gridrays.

A span is (name, start, end, parent, op, n, k): ``n`` counts the units of
work the call did (pairs, steps, calls, nodes, bytes) and ``k`` a second
count such as violations found. Spans live in a list and are written out
once, when the run ends; nothing here reaches inside ``src/``.
"""

from __future__ import annotations

import json
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "n", "k", "_tracer")

    def __enter__(self) -> "Span":
        tr = self._tracer
        self.parent = tr._open[-1] if tr._open else -1
        tr._open.append(len(tr.spans))
        tr.spans.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = perf_counter()
        self._tracer._open.pop()
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = -1

    def span(self, name: str, n: int = 1, k: int = 0) -> Span:
        sp = Span()
        sp._tracer, sp.name, sp.op, sp.n, sp.k = self, name, self.op, n, k
        return sp

    def add(self, name: str, start: float, end: float, n: int = 1, k: int = 0) -> None:
        """Record an interval timed elsewhere, e.g. inside a child process
        (perf_counter is CLOCK_MONOTONIC, shared by processes on Linux)."""
        with self.span(name, n, k) as sp:
            pass
        sp.start, sp.end = start, end

    def write(self, path, header: dict) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.op, s.n, s.k] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"header": header,
                       "columns": ["name", "start", "end", "parent", "op", "n", "k"],
                       "spans": rows}, fh)


class _NullSpan:
    """Accepts the same use as a Span and records nothing."""

    __slots__ = ("n", "k")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    enabled = False
    op = -1
    _span = _NullSpan()

    def span(self, name: str, n: int = 1, k: int = 0) -> _NullSpan:
        return self._span

    def add(self, *args, **kwargs) -> None:
        pass


def layer_totals(spans: list[Span]) -> dict[str, list]:
    """name -> [self seconds, total seconds, n, k, calls].

    Self time is a span's duration minus the time its child spans cover;
    children of one span never overlap (one caller, one thread).
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict[str, list] = {}
    for i, s in enumerate(spans):
        dur = s.end - s.start
        row = out.setdefault(s.name, [0.0, 0.0, 0, 0, 0])
        row[0] += dur - child[i]
        row[1] += dur
        row[2] += s.n
        row[3] += s.k
        row[4] += 1
    return out
