"""Spans and counts recorded around the benchmark's calls into motivecalc.

Spans are kept in memory and written out once, when the run ends.  A
disabled tracer hands out one shared no-op context, so the untraced code
path runs the same calls with nothing recorded.  `census` says whether an
op also makes the standalone calls that only the per-layer census needs
(for example tokenize before parse); it follows `enabled` unless given, so
the untraced baseline of the census can make them without spans.
"""

from __future__ import annotations

import json
import statistics
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        stack = tracer._stack
        self.record = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.op]

    def __enter__(self):
        t = self.tracer
        t._stack.append(len(t.spans))
        t.spans.append(self.record)
        self.record[1] = perf_counter()

    def __exit__(self, *exc):
        self.record[2] = perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """Records [name, start, end, parent index, op id] per span and
    [name, value, op id] per count.  `scale` maps an op id to the factor
    that brings its span durations to the reference speed (see calib.py)."""

    def __init__(self, enabled: bool = True, census: bool | None = None):
        self.enabled = enabled
        self.census = enabled if census is None else census
        self.op: str | None = None
        self.spans: list[list] = []
        self.counts: list[list] = []
        self.scale: dict[str, float] = {}
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def count(self, name: str, value: int) -> None:
        if self.enabled:
            self.counts.append([name, value, self.op])

    def durations(self, name: str, op_prefix: str) -> list[float]:
        return [
            (end - start) * self.scale.get(op, 1.0)
            for n, start, end, _, op in self.spans
            if n == name and op is not None and op.startswith(op_prefix)
        ]

    def median(self, name: str, op_prefix: str) -> float:
        return statistics.median(self.durations(name, op_prefix))

    def count_of(self, name: str, op_prefix: str) -> int:
        values = {v for n, v, op in self.counts if n == name and op.startswith(op_prefix)}
        if len(values) != 1:
            raise ValueError(f"count {name} on {op_prefix} is not stable: {values}")
        return values.pop()

    def extend(self, other: dict) -> None:
        """Append spans and counts exported by another process's tracer."""
        base = len(self.spans)
        for name, start, end, parent, op in other["spans"]:
            self.spans.append([name, start, end, None if parent is None else parent + base, op])
        self.counts.extend(other["counts"])
        self.scale.update(other["scale"])

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "scale": self.scale}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.export()))
