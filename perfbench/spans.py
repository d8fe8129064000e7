"""In-memory spans for the traced run, and the ledger they become.

A span is one timed call the benchmark makes into a layer: name,
start, end (``time.monotonic`` seconds, comparable across the
processes of one machine), the span that caused it, and the id of the
run it belongs to.  Spans stay in memory; the ledger is written once,
when the run ends.  A span's *self time* is its duration minus the part
of it that its children cover (their union, so overlapping children --
tasks running on two workers at once -- count once).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of one process; nesting follows ``with`` blocks."""

    def __init__(self, run_id: str, first_id: int = 1):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._next_id = first_id
        self._stack: List[int] = []

    def _new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        span_id = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.monotonic()
        try:
            yield span_id
        finally:
            end = time.monotonic()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent,
                                   self.run_id))

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None) -> int:
        """Record a span timed elsewhere (a task's worker-side interval)."""
        span_id = self._new_id()
        self.spans.append(Span(span_id, name, start, end, parent,
                               self.run_id))
        return span_id

    def to_dicts(self) -> List[dict]:
        return [asdict(s) for s in self.spans]


def covered(parent: Tuple[float, float],
            children: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``parent``."""
    lo, hi = parent
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children
                     if min(hi, b) > max(lo, a))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``span_id -> duration minus the time its children cover``."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.span_id: s.duration - covered((s.start, s.end),
                                            children.get(s.span_id, ()))
            for s in spans}


def total(spans: Sequence[Span], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(s.duration for s in spans if s.name == name)


def write_ledger(path: str, spans: Sequence[Span],
                 extra: Dict[str, object]) -> None:
    """One flat JSON row per span, so two ledgers join on ``name``."""
    selfs = self_times(spans)
    with open(path, "w", encoding="utf-8") as fh:
        for s in sorted(spans, key=lambda s: (s.start, s.span_id)):
            row = dict(extra, run_id=s.run_id, span_id=s.span_id,
                       parent=s.parent, name=s.name, start=s.start,
                       end=s.end, duration_s=s.duration,
                       self_s=selfs[s.span_id])
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def from_dicts(rows: Sequence[dict]) -> List[Span]:
    return [Span(**row) for row in rows]
