"""The SPMD communication runtime the distributed pipeline runs on: the
:class:`CommBackend` interface with its collectives, and one transport
under it, one OS process per rank (:mod:`repro.mpisim.mpcomm`)."""

from .backend import (
    ANY_SOURCE,
    CommBackend,
    Request,
    SpmdError,
    run_spmd,
)
from .grid import ProcessGrid, block_ranges, is_perfect_square, nearest_square
from .tracing import CommTracer, MessageRecord, payload_bytes

__all__ = [
    "ANY_SOURCE",
    "CommBackend",
    "Request",
    "SpmdError",
    "run_spmd",
    "ProcessGrid",
    "block_ranges",
    "is_perfect_square",
    "nearest_square",
    "CommTracer",
    "MessageRecord",
    "payload_bytes",
]
