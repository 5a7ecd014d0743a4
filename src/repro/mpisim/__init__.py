"""SPMD communication runtimes the distributed pipeline runs on: the
:class:`CommBackend` interface with its collectives, and two transports
under it, the thread-based simulator (``sim``) and the process-per-rank
backend (``mp``)."""

from .backend import (
    ANY_SOURCE,
    COMM_BACKENDS,
    CommBackend,
    Request,
    SpmdError,
    get_runner,
    run_spmd,
)
from .comm import SimComm, run_spmd_sim
from .grid import ProcessGrid, block_ranges, is_perfect_square, nearest_square
from .tracing import CommTracer, MessageRecord, payload_bytes

__all__ = [
    "ANY_SOURCE",
    "COMM_BACKENDS",
    "CommBackend",
    "Request",
    "SimComm",
    "SpmdError",
    "get_runner",
    "run_spmd",
    "run_spmd_sim",
    "ProcessGrid",
    "block_ranges",
    "is_perfect_square",
    "nearest_square",
    "CommTracer",
    "MessageRecord",
    "payload_bytes",
]
