"""Spans the benchmark records around its calls into the program's layers.

A span has a name, a start, an end and a parent; spans of one build,
update batch or request share the parent that names it. The log keeps
the spans in memory and writes them once, at the end of a traced run,
in the program's trace-JSONL format (``repro.obs.export``), so
``python3 -m repro info --trace FILE`` renders them.

With recording off, :meth:`SpanLog.span` still times the call, because
the end-to-end metrics are those durations; it only keeps no record.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class Timed:
    """The interval of one call; ``id`` is None when nothing is recorded."""

    id: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanLog:
    """Thread-safe in-memory span store (request spans come from two threads)."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._next_id = 0
        # id -> (parent, name, start, end, attrs); absolute perf_counter times
        self._spans: dict[int, tuple[int | None, str, float, float, dict]] = {}

    def _new_id(self) -> int | None:
        if not self.enabled:
            return None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            return sid

    def _store(self, sid: int | None, parent: int | None, name: str,
               start: float, end: float, attrs: dict) -> None:
        if sid is None:
            return
        with self._lock:
            self._spans[sid] = (parent, name, start, end, attrs)

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs) -> Iterator[Timed]:
        """Time the body; record it as a child of ``parent`` when enabled."""
        timed = Timed(self._new_id(), attrs=dict(attrs))
        timed.start = time.perf_counter()
        try:
            yield timed
        finally:
            timed.end = time.perf_counter()
            self._store(timed.id, parent, name, timed.start, timed.end, timed.attrs)

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, **attrs) -> int | None:
        """Record an interval timed elsewhere (a request, a child process)."""
        sid = self._new_id()
        self._store(sid, parent, name, start, end, dict(attrs))
        return sid

    def graft(self, records: list[dict], parent: int | None) -> None:
        """Adopt spans a build child recorded (``SpanLog.raw`` of that child).

        ``perf_counter`` reads the system-wide monotonic clock on Linux,
        so a child's absolute times line up with this process's.
        """
        ids: dict[int, int | None] = {}
        for rec in sorted(records, key=lambda r: r["id"]):
            ids[rec["id"]] = self.add(
                rec["name"], rec["start"], rec["end"],
                parent=ids.get(rec["parent"], parent),
                **rec["attrs"],
            )

    def raw(self) -> list[dict]:
        """Spans with absolute times, for shipping to another process."""
        with self._lock:
            items = sorted(self._spans.items())
        return [
            {"id": sid, "parent": p, "name": n, "start": s, "end": e, "attrs": a}
            for sid, (p, n, s, e, a) in items
        ]

    def records(self) -> list[dict]:
        """Trace-JSONL records: meta first, then spans, parents before children."""
        from repro.obs.export import TRACE_SCHEMA
        from repro.obs.trace import TRACE_SCHEMA_VERSION

        raw = self.raw()
        depth: dict[int, int] = {}
        out: list[dict] = [
            {"type": "meta", "schema": TRACE_SCHEMA, "version": TRACE_SCHEMA_VERSION}
        ]
        for rec in raw:  # ids grow with start order, so a parent precedes its children
            parent = rec["parent"]
            depth[rec["id"]] = depth[parent] + 1 if parent in depth else 0
            out.append({
                "type": "span",
                "id": rec["id"],
                "parent": parent if parent in depth else None,
                "depth": depth[rec["id"]],
                "name": rec["name"],
                "start": rec["start"] - self.epoch,
                "seconds": rec["end"] - rec["start"],
                "attrs": rec["attrs"],
            })
        return out

    def write(self, path) -> None:
        from repro.obs.export import write_trace_jsonl

        write_trace_jsonl(self.records(), path)
