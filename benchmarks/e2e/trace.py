"""The benchmark's own span recorder.

A span is ``name, start, end, parent, run id, rank``.  Spans are kept in
memory and written once, as a Chrome trace-event file, when the replay
ends.  Nothing under ``src/`` knows about this module: the probes in
:mod:`probes` open a span around each call into a layer's public
function.

Clocks: ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, which is
shared by the forked rank processes of the ``mp`` backend, so per-rank
spans recorded inside an SPMD body line up with the parent's.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

__all__ = ["SpanRecorder", "duration", "seconds_by_name", "load_chrome_trace"]


class SpanRecorder:
    """Nested spans of one traced replay (``run_id``) on one ``rank``
    (0 = the benchmark process, ``r + 1`` = SPMD rank ``r``)."""

    def __init__(self, run_id: str, rank: int = 0) -> None:
        self.run_id = run_id
        self.rank = rank
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block; a span left by an exception still
        gets its end time, so a failed probe stays visible."""
        rec = {
            "id": f"{self.rank}.{len(self.spans)}",
            "name": name,
            "parent": self.spans[self._open[-1]]["id"] if self._open else None,
            "run_id": self.run_id,
            "rank": self.rank,
            "start": time.perf_counter(),
            "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def adopt(self, spans: list[dict], parent: dict) -> None:
        """Take over spans recorded on another rank; their roots become
        children of ``parent``."""
        for s in spans:
            self.spans.append(
                {**s, "parent": parent["id"] if s["parent"] is None else s["parent"]}
            )

    def children_seconds(self, parent: dict) -> float:
        """Seconds of ``parent`` covered by its direct children (the
        probes run on one thread, so children never overlap)."""
        return sum(
            duration(s) for s in self.spans
            if s["parent"] == parent["id"] and s["rank"] == parent["rank"]
        )

    def to_chrome(self) -> dict:
        """Chrome trace-event document: one complete (``"X"``) event per
        span, microseconds from the first span, one ``tid`` per rank;
        ``args`` carries the span id, its parent's id and the run id."""
        t0 = min((s["start"] for s in self.spans), default=0.0)
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": s["name"],
                    "ph": "X",
                    "ts": (s["start"] - t0) * 1e6,
                    "dur": duration(s) * 1e6,
                    "pid": 1,
                    "tid": s["rank"],
                    "args": {
                        "id": s["id"],
                        "parent": s["parent"],
                        "run_id": s["run_id"],
                    },
                }
                for s in self.spans
            ],
        }

    def write_chrome(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome(), fh)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def seconds_by_name(spans: list[dict]) -> dict[str, float]:
    """Total seconds per span name (a name may recur, e.g. one
    ``distribute`` for ``A`` and one for ``S``)."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + duration(s)
    return out


def load_chrome_trace(path) -> list[dict]:
    """Read a trace file back and check it is what :meth:`to_chrome`
    promises: complete events whose parent links resolve inside the file
    and that share one run id."""
    with open(path, encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    ids = {e["args"]["id"] for e in events}
    for e in events:
        if e["ph"] != "X" or e["dur"] < 0:
            raise ValueError(f"not a complete event: {e}")
        parent = e["args"]["parent"]
        if parent is not None and parent not in ids:
            raise ValueError(f"dangling parent link: {e}")
    if len({e["args"]["run_id"] for e in events}) > 1:
        raise ValueError("spans of one replay must share a run id")
    return events
