"""In-memory spans and counters for the traced benchmark run.

A span covers one call the benchmark makes into a layer's public function.
Spans are kept in memory while ops run and summarised once the run ends:
per span name, its busy time, its self time (busy time minus the part its
child spans cover) and its share of the op wall time; per op kind, the op
wall time no layer span covers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Collects spans ``[name, start, end, parent, op]`` and named counts."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._ops = 0

    @contextmanager
    def op(self, name: str):
        """Root span of one op; spans opened inside it share its op id."""
        self._ops += 1
        with self._open(name, self._ops):
            yield

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1]
        with self._open(name, self.spans[parent][4]):
            yield

    @contextmanager
    def _open(self, name: str, op: int):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, op]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def records(self) -> list[dict]:
        """Spans with times in seconds since the tracer was made."""
        return [
            {
                "name": name,
                "start": start - self.origin,
                "end": end - self.origin,
                "parent": parent,
                "op": op,
            }
            for name, start, end, parent, op in self.spans
        ]

    def summary(self) -> list[dict]:
        """One row per (op kind, span name), plus each op kind's uncovered time.

        Layer spans are never nested inside each other, so a span's children
        cover disjoint intervals and its self time is its duration minus the
        sum of theirs.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        roots: dict[int, str] = {}
        wall: dict[str, float] = {}
        rows: dict[tuple[str, str], dict] = {}
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if parent is None:
                roots[op] = name
                wall[name] = wall.get(name, 0.0) + (end - start)
            row = rows.setdefault(
                (roots[op], name),
                {"op_kind": roots[op], "span": name, "calls": 0, "busy_s": 0.0, "self_s": 0.0},
            )
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        result = []
        for row in rows.values():
            op_wall = wall[row["op_kind"]]
            row["share_of_op_wall"] = row["busy_s"] / op_wall if op_wall else 0.0
            if row["span"] == row["op_kind"]:
                # The op's own self time is the wall time no layer span covers.
                row["uncovered_s"] = row["self_s"]
            result.append(row)
        return result
