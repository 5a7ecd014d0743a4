"""Communication tracing for the simulated MPI runtime.

Every point-to-point message (and the point-to-point decomposition of each
collective) is recorded as ``(src, dst, nbytes, kind)`` plus the label of
the communicator it travelled on and the API op that produced it.  The byte
counts feed the :mod:`repro.perfmodel` α–β cost model, which is how
functional runs at small rank counts calibrate the large-scale runtime
extrapolations; :meth:`CommTracer.summary` is where a run's messages and
bytes per ``(comm, op)`` are read — they depend on the nonzeros of the
SUMMA blocks, so they are measured, never statically predicted.

Communicator labels follow the scheme shared with the mp transport and its
teardown audit: the world communicator is ``"world"`` and a communicator
produced by the ``n``-th ``split`` call on parent ``L`` with ``color=c`` is
``"L/n.c"``.
"""

from __future__ import annotations

import io
import pickle
import threading
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = ["payload_bytes", "MessageRecord", "CommTracer", "SUMMARY_SCHEMA"]

#: schema identifier stamped into every :meth:`CommTracer.summary` document
SUMMARY_SCHEMA = "repro.mpisim.commtrace/v1"

#: nominal per-array header charged on top of the raw buffer bytes
ARRAY_HEADER_BYTES = 64


class _SizingPickler(pickle.Pickler):
    """Pickler that *sizes* ndarray buffers instead of serialising them.

    Each distinct ndarray object encountered in the payload graph is
    charged ``nbytes + ARRAY_HEADER_BYTES`` exactly once — repeated
    references to the same array (``(a, a)``) and structured dtypes count
    their buffer a single time, matching what actually crosses the wire.
    """

    def __init__(self, file) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.array_bytes = 0
        self._seen: dict[int, int] = {}

    def persistent_id(self, obj):
        if isinstance(obj, np.ndarray):
            key = id(obj)
            idx = self._seen.get(key)
            if idx is None:
                idx = len(self._seen)
                self._seen[key] = idx
                self.array_bytes += int(obj.nbytes) + ARRAY_HEADER_BYTES
            return ("nd", idx)
        return None


def payload_bytes(obj) -> int:
    """Estimated wire size of a Python payload.

    NumPy arrays report their buffer size (plus a small header); raw byte
    buffers their length; any other object is sized by pickling its
    envelope while charging each distinct embedded ndarray buffer exactly
    once (see :class:`_SizingPickler`), mirroring mpi4py's lowercase API.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + ARRAY_HEADER_BYTES
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj) + 16
    buf = io.BytesIO()
    sizer = _SizingPickler(buf)
    try:
        sizer.dump(obj)
    except (pickle.PicklingError, TypeError, AttributeError):
        # unpicklable payload (locks, handles, ...): size it as a nominal
        # envelope plus whatever arrays were seen before the failure,
        # rather than crashing the tracer; anything else raises
        return 64 + sizer.array_bytes
    return buf.tell() + sizer.array_bytes


@dataclass(frozen=True)
class MessageRecord:
    src: int
    dst: int
    nbytes: int
    kind: str  # "p2p" for a send, else the collective ("bcast", ...)
    comm: str = "world"  # communicator label ("world", "world/0.1", ...)
    op: str = ""  # API op that produced the traffic ("send", "bcast", ...)


@dataclass
class CommTracer:
    """Thread-safe accumulator of message records."""

    records: list[MessageRecord] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(
        self,
        src: int,
        dst: int,
        nbytes: int,
        kind: str,
        comm: str = "world",
        op: str = "",
    ) -> None:
        with self._lock:
            self.records.append(
                MessageRecord(src, dst, nbytes, kind, comm, op or kind)
            )

    # -- summaries -----------------------------------------------------------

    @property
    def total_messages(self) -> int:
        with self._lock:
            return len(self.records)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(r.nbytes for r in self.records)

    def bytes_by_kind(self) -> dict[str, int]:
        with self._lock:
            out: Counter[str] = Counter()
            for r in self.records:
                out[r.kind] += r.nbytes
            return dict(out)

    def messages_by_kind(self) -> dict[str, int]:
        with self._lock:
            out: Counter[str] = Counter()
            for r in self.records:
                out[r.kind] += 1
            return dict(out)

    def max_rank_volume(self) -> int:
        """Largest per-rank communication volume (send + receive) — the
        quantity that bounds the α–β communication time."""
        with self._lock:
            vol: Counter[int] = Counter()
            for r in self.records:
                vol[r.src] += r.nbytes
                vol[r.dst] += r.nbytes
            return max(vol.values(), default=0)

    def summary(self) -> dict:
        """Aggregate bytes and message counts per (comm label, op, kind).

        The returned document follows the stable :data:`SUMMARY_SCHEMA`
        layout — groups are sorted by (comm, op, kind) so two runs with the
        same traffic produce byte-identical JSON::

            {"schema": "repro.mpisim.commtrace/v1",
             "total_messages": M, "total_bytes": B,
             "groups": [{"comm": ..., "op": ..., "kind": ...,
                         "messages": m, "bytes": b}, ...]}
        """
        with self._lock:
            msgs: Counter[tuple[str, str, str]] = Counter()
            nbytes: Counter[tuple[str, str, str]] = Counter()
            for r in self.records:
                key = (r.comm, r.op or r.kind, r.kind)
                msgs[key] += 1
                nbytes[key] += r.nbytes
        return {
            "schema": SUMMARY_SCHEMA,
            "total_messages": sum(msgs.values()),
            "total_bytes": sum(nbytes.values()),
            "groups": [
                {
                    "comm": comm,
                    "op": op,
                    "kind": kind,
                    "messages": msgs[key],
                    "bytes": nbytes[key],
                }
                for key in sorted(msgs)
                for comm, op, kind in (key,)
            ],
        }

    def clear(self) -> None:
        with self._lock:
            self.records.clear()
