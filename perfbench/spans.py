"""In-memory span recorder for the benchmark's traced run.

A span covers one call into a layer of symtomo, made from the benchmark's own
code: its name is the layer metric it feeds (``estimation.git``,
``measurement.sample``, ...), it knows the span that was open when it started
and the operation it belongs to, and it carries counts (iterations, records,
basis size) recorded at the same boundary.  Spans stay in memory until the run
ends.  A layer's self time is its span durations minus the time covered by
their direct children.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    counts: dict = field(default_factory=dict)


class _Open:
    """Context manager for one span; ``__enter__`` hands out its counts dict."""

    __slots__ = ("tracer", "span", "index")

    def __init__(self, tracer: "Tracer", span: Span, index: int):
        self.tracer, self.span, self.index = tracer, span, index

    def __enter__(self) -> dict:
        self.tracer._stack.append(self.index)
        self.span.start = time.perf_counter()
        return self.span.counts

    def __exit__(self, *exc) -> bool:
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans; ``op`` is the id stamped on spans opened from now on."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def span(self, name: str) -> _Open:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op))
        return _Open(self, self.spans[-1], len(self.spans) - 1)

    def add(self, name: str, start: float, end: float) -> None:
        """Insert a finished span under the open one (for times taken elsewhere)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, end, parent, self.op))

    def merge(self, records: list[dict]) -> None:
        """Adopt spans recorded by a child process under the open span.

        Child times come from the same monotonic clock (``perf_counter`` is
        CLOCK_MONOTONIC on Linux), so they line up with the parent's spans.
        """
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for rec in records:
            own = rec["parent"]
            self.spans.append(
                Span(
                    rec["name"],
                    rec["start"],
                    rec["end"],
                    parent if own is None else base + own,
                    self.op,
                    dict(rec["counts"]),
                )
            )

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class _Discard:
    """What an untraced span returns: enters and exits doing nothing."""

    __slots__ = ()

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> bool:
        return False


_DISCARD = _Discard()


class NullTracer:
    """Tracing off: same interface, records nothing."""

    enabled = False
    op = None

    def span(self, name: str) -> _Discard:
        return _DISCARD


def span_cost(samples: int = 20000) -> float:
    """Seconds one span costs the recorder: open, set a count, close.

    The difference between traced and untraced pass walls is buried in the
    run-to-run noise of a multi-second pass; this isolates the recorder.
    """
    tr = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tr.span("x") as counts:
            counts["n"] = 1
    return (time.perf_counter() - start) / samples


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [(s.end - s.start) - c for s, c in zip(spans, covered)]
