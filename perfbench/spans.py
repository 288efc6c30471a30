"""Span recording from outside the program, and self-time arithmetic.

The library looks its collaborators up by module-level name at call time
(`solve` calls `ufcm.solver.update_w`, the CLI calls `ufcm.cli.load_csv`,
and so on). A `Tracer` swaps such names for wrappers that record a span
around the real call, and puts the originals back on `restore`. Nothing
under `src/` changes.

Spans are kept in memory: name, start, end and the span that was open when
the call began. The process is single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# Round-off allowed in span arithmetic, in seconds.
SLACK = 1e-9


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps module attributes with span recorders until `restore`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        module: Any,
        attr: str,
        name: str,
        note: Callable[[tuple, dict, Any], dict] | None = None,
    ) -> None:
        """Replace `module.attr` by a recorder that names its spans `name`.

        `note(args, kwargs, result)` may return extra facts to keep on the
        span, such as an input size or a step count.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def recorder(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(sid, name, time.perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.info.update(note(args, kwargs, result))
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, recorder)

    def restore(self) -> None:
        """Put the originals back, last wrapped first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {s.sid: [] for s in spans}
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    kids = children_of(spans)
    return {
        s.sid: s.duration
        - _covered([(k.start, k.end) for k in kids[s.sid]], s.start, s.end)
        for s in spans
    }


def check_arithmetic(spans: list[Span]) -> list[str]:
    """Failures of the span tree: children summing past the parent, or a
    negative self time. An empty list means the tree is consistent."""
    failures = []
    kids = children_of(spans)
    selfs = self_times(spans)
    for s in spans:
        inner = sum(k.duration for k in kids[s.sid])
        if inner > s.duration + SLACK:
            failures.append(
                f"span {s.sid} {s.name}: children sum {inner:.6f}s "
                f"exceeds its {s.duration:.6f}s"
            )
        if selfs[s.sid] < -SLACK:
            failures.append(f"span {s.sid} {s.name}: negative self time")
    return failures


def total(spans: list[Span], name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def count(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def self_total(spans: list[Span], name: str) -> float:
    selfs = self_times(spans)
    return sum(selfs[s.sid] for s in spans if s.name == name)


def info_sum(spans: list[Span], name: str, key: str) -> float:
    return sum(s.info.get(key, 0) for s in spans if s.name == name)

