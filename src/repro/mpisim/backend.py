"""The communicator abstraction every SPMD backend implements.

The distributed pipeline is written against a small MPI-shaped surface —
point-to-point sends/receives with tags and non-blocking handles, the
collectives SUMMA and the balance executors use, and ``split`` for the
grid's row/column sub-communicators.  :class:`CommBackend` names that
surface once and implements every collective, ``split``'s validation and
the collectives' tracer records on top of two transport primitives, so a
backend only implements transport:

* ``"sim"`` — :class:`~repro.mpisim.comm.SimComm`, the thread-per-rank
  simulator (deterministic, traceable, zero startup cost; the GIL
  serialises compute);
* ``"mp"`` — :class:`~repro.mpisim.mpcomm.MPComm`, one OS process per
  rank with block payloads shipped through shared-memory ndarray
  segments (real multi-core parallelism on one machine).

:func:`run_spmd` is the single entry point: it dispatches
``fn(comm, *args)`` onto ``nranks`` ranks of the chosen backend and
returns the per-rank results in rank order.  Backends are resolved
lazily so importing this module never pays for multiprocessing
machinery.
"""

from __future__ import annotations

import functools
import importlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .tracing import payload_bytes

__all__ = [
    "ANY_SOURCE",
    "COMM_BACKENDS",
    "COMM_OP_KINDS",
    "CommBackend",
    "Request",
    "SpmdError",
    "blame_order",
    "get_runner",
    "run_spmd",
]

#: Wildcard source for :meth:`CommBackend.recv`.
ANY_SOURCE = -1

#: Kind of every operation on this surface: ``"send"`` / ``"recv"`` /
#: ``"collective"``.  This is the declarative op table the static
#: analysis tools mirror (``repro.analysis`` keeps its own copy so it
#: never imports runtime code; a unit test cross-checks the two).
COMM_OP_KINDS: dict[str, str] = {
    "send": "send", "isend": "send",
    "recv": "recv", "irecv": "recv", "tryrecv": "recv",
    "barrier": "collective", "bcast": "collective",
    "allgather": "collective", "gather": "collective",
    "scatter": "collective", "alltoall": "collective",
    "reduce": "collective", "allreduce": "collective",
    "exscan": "collective", "split": "collective",
}

#: Watchdog timeout (seconds) converting deadlocks into failures.
DEFAULT_TIMEOUT = 120.0

#: what every surviving rank raises once another rank has failed
ABORTED = "aborted by a failing rank"


class SpmdError(RuntimeError):
    """Raised when a rank fails or the program deadlocks/times out."""


def blame_order(rank: int, is_spmd: bool, text: str) -> tuple[int, int]:
    """Sort key putting a run's root-cause failure first.

    A rank's own exception (anything but an :class:`SpmdError`) beats a
    primary :class:`SpmdError` (a timeout, a sanitizer mismatch), which
    beats the :data:`ABORTED` echo the surviving ranks raise once the
    abort flag is up; ties go to the lowest rank.  Both runners report
    the failure this key sorts first."""
    if not is_spmd:
        return 0, rank
    return (2 if ABORTED in text else 1), rank


@dataclass
class Request:
    """Handle for a non-blocking operation (MPI_Request)."""

    _wait_fn: Callable[[], Any]
    _done: bool = False
    _value: Any = None
    _test_fn: Callable[[], tuple[bool, Any]] | None = None

    def wait(self) -> Any:
        if not self._done:
            self._value = self._wait_fn()
            self._done = True
        return self._value

    def test(self) -> tuple[bool, Any]:
        """Non-blocking completion check (MPI_Test): a pending receive
        polls the mailbox and, when a matching message is there, completes
        by consuming it — it never blocks.  Once completed (here or in
        :meth:`wait`) the value is latched and every later
        ``test``/``wait`` returns it again."""
        if self._done:
            return True, self._value
        if self._test_fn is not None:
            ok, value = self._test_fn()
            if ok:
                self._value = value
                self._done = True
                return True, value
        return False, None


class CommBackend(ABC):
    """Per-rank communicator: the operations the pipeline actually uses.

    A transport provides ``send`` / ``recv`` / ``tryrecv`` and two
    primitives, :meth:`_exchange` (an untraced internal allgather) and
    :meth:`_sub` (the view for one split group); every collective and
    ``split`` are written here, once, and traced as their logical
    point-to-point decomposition (a broadcast is ``size - 1`` messages
    from the root) — a transport records only its ``send``.  Semantics
    follow mpi4py's lowercase (pickle-object) API: messages match on
    ``(source, tag)`` in FIFO order per channel, sends are buffered
    (never block), and collectives synchronise all ranks.
    """

    #: this rank's id within the communicator
    rank: int
    #: number of ranks in the communicator
    size: int

    def __init__(self, rank: int, size: int, tracer: Any | None,
                 label: str):
        self.rank = rank
        self.size = size
        self._tracer = tracer
        #: communicator label for tracing: ``"world"``, and
        #: ``"<parent>/<split call>.<color>"`` for a split group
        self._label = label
        self._split_calls = 0

    # -- transport ------------------------------------------------------------

    @abstractmethod
    def send(self, obj: Any, dest: int, tag: int = 0,
             kind: str = "p2p") -> None:
        """Buffered send.  ``kind`` labels the traffic for the
        :class:`~repro.mpisim.tracing.CommTracer` (default ``"p2p"``; the
        alignment rebalancer tags its shipped tasks ``"rebal"``)."""

    @abstractmethod
    def recv(self, source: int = ANY_SOURCE, tag: int = 0) -> Any:
        """Blocking receive matching ``(source, tag)`` in FIFO order."""

    @abstractmethod
    def tryrecv(
        self, source: int = ANY_SOURCE, tag: int = 0
    ) -> tuple[bool, Any]:
        """Non-blocking receive (MPI_Iprobe + recv fused): pop and return
        the first queued message matching ``(source, tag)`` as
        ``(True, payload)``, or report ``(False, None)`` without
        blocking."""

    def _exchange(self, obj: Any) -> list[Any]:
        """Transport primitive: untraced allgather of one object per rank,
        synchronising every rank of the communicator."""
        raise NotImplementedError

    def _sub(self, call_idx: int, color: int, members: list[int],
             rank: int) -> "CommBackend":
        """Transport primitive: this rank's view of the group ``color`` of
        split call ``call_idx``, whose ranks are ``members`` (parent
        ranks, in sub-communicator order); ``rank`` is its place there."""
        raise NotImplementedError

    # -- point-to-point -----------------------------------------------------

    def isend(self, obj: Any, dest: int, tag: int = 0,
              kind: str = "p2p") -> Request:
        """Non-blocking send; buffered, hence complete on return."""
        self.send(obj, dest, tag, kind=kind)
        return Request(lambda: None, _done=True)

    def irecv(self, source: int = ANY_SOURCE, tag: int = 0) -> Request:
        """Non-blocking receive; completion happens inside ``wait`` or an
        eager :meth:`Request.test` poll."""
        return Request(
            lambda: self.recv(source, tag),
            _test_fn=lambda: self.tryrecv(source, tag),
        )

    @staticmethod
    def waitall(requests: Sequence[Request]) -> list[Any]:
        """Complete every request (MPI_Waitall)."""
        return [r.wait() for r in requests]

    # -- collectives ----------------------------------------------------------

    def _trace(self, op: str, src: int, obj: Any,
               dsts: Iterable[int]) -> None:
        """Record one logical ``op`` message of ``obj``'s size from
        ``src`` to each of ``dsts`` other than ``src`` (no-op untraced)."""
        if self._tracer is None:
            return
        dsts = [d for d in dsts if d != src]
        if dsts:
            nbytes = payload_bytes(obj)
            for dst in dsts:
                self._tracer.record(src, dst, nbytes, op, self._label, op)

    def barrier(self) -> None:
        """Synchronise all ranks."""
        self._exchange(None)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast from ``root``."""
        if self.rank == root:
            self._trace("bcast", root, obj, range(self.size))
        return self._exchange(obj if self.rank == root else None)[root]

    def allgather(self, obj: Any) -> list[Any]:
        """Every rank receives ``[obj_of_rank_0, ..., obj_of_rank_p-1]``."""
        self._trace("allgather", self.rank, obj, range(self.size))
        return self._exchange(obj)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """``root`` receives the per-rank list; everyone else ``None``."""
        self._trace("gather", self.rank, obj, (root,))
        vals = self._exchange(obj)
        return vals if self.rank == root else None

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Rank ``r`` receives ``objs[r]`` provided by ``root``."""
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError("root must provide size objects")
            for dst in range(self.size):
                self._trace("scatter", root, objs[dst], (dst,))
        vals = self._exchange(list(objs) if self.rank == root else None)
        return vals[root][self.rank]

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Personalised all-to-all: rank ``r`` receives ``objs[r]`` from
        every rank."""
        if len(objs) != self.size:
            raise ValueError("alltoall requires size objects")
        for dst in range(self.size):
            self._trace("alltoall", self.rank, objs[dst], (dst,))
        mat = self._exchange(list(objs))
        return [mat[src][self.rank] for src in range(self.size)]

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any],
               root: int = 0) -> Any:
        """Left-fold of the per-rank values on ``root`` (``None``
        elsewhere)."""
        self._trace("reduce", self.rank, obj, (root,))
        vals = self._exchange(obj)
        return functools.reduce(op, vals) if self.rank == root else None

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any]) -> Any:
        """Left-fold of the per-rank values, result on every rank."""
        return functools.reduce(op, self.allgather(obj))

    def exscan(self, value: int) -> int:
        """Exclusive prefix sum of integers (0 on rank 0) — PASTIS's
        cooperative sequence-count prefix sums."""
        return sum(self.allgather(value)[: self.rank])

    # -- sub-communicators ------------------------------------------------------

    def split(self, color: int, key: int | None = None) -> "CommBackend":
        """Partition ranks by ``color`` into sub-communicators; rank order
        within a group follows ``(key, parent rank)``.

        A collective: a sub-communicator is identified by the split call
        index, so the indices are allgathered and validated — ranks whose
        ``split`` counts diverged raise a clear :class:`SpmdError` instead
        of pairing into wrong groups."""
        call_idx = self._split_calls
        self._split_calls += 1
        if key is None:
            key = self.rank
        quads = self.allgather(("split", call_idx, color, key, self.rank))
        seen_calls = set()
        for q in quads:
            if not isinstance(q, tuple) or len(q) != 5 or q[0] != "split":
                # the peer was inside a *different* collective — the
                # signature of unequal split counts
                raise SpmdError(
                    f"rank {self.rank} split(call {call_idx}) paired with "
                    f"a non-split collective: ranks must call split() the "
                    f"same number of times"
                )
            seen_calls.add(q[1])
        if len(seen_calls) != 1:
            raise SpmdError(
                f"split call-index mismatch across ranks "
                f"({sorted(seen_calls)}): ranks must call split() the "
                f"same number of times"
            )
        group = sorted((k, r) for (_m, _ci, c, k, r) in quads if c == color)
        return self._sub(call_idx, color, [r for (_k, r) in group],
                         group.index((key, self.rank)))

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(rank={self.rank}, size={self.size})"


# ---------------------------------------------------------------------------
# backend registry
# ---------------------------------------------------------------------------

#: registered backends: name -> (module, runner attribute), resolved
#: lazily so importing this module starts no multiprocessing machinery
_RUNNERS: dict[str, tuple[str, str]] = {
    "sim": ("repro.mpisim.comm", "run_spmd_sim"),
    "mp": ("repro.mpisim.mpcomm", "run_spmd_mp"),
}

#: every registered backend name, in registry order — the config/CLI
#: ``comm_backend`` knob builds its choices from this tuple
COMM_BACKENDS = tuple(_RUNNERS)


def get_runner(name: str) -> Callable[..., list[Any]]:
    """Resolve a backend name to its ``run_spmd_*`` runner."""
    try:
        module, attr = _RUNNERS[name]
    except KeyError:
        raise ValueError(
            f"unknown comm backend {name!r}; registered: "
            f"{', '.join(sorted(_RUNNERS))}"
        ) from None
    return getattr(importlib.import_module(module), attr)


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    tracer: Any | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    comm_backend: str = "sim",
    comm_sanitize: bool = False,
) -> list[Any]:
    """Run ``fn(comm, *args)`` on ``nranks`` ranks of the chosen backend;
    return the per-rank results in rank order.

    ``comm_backend`` selects the substrate (see :data:`COMM_BACKENDS`);
    the SPMD body sees the same :class:`CommBackend` surface either way,
    and the golden obliviousness tests pin the output byte-identical
    across backends.  Any rank raising aborts all ranks and re-raises as
    :class:`SpmdError` carrying the root-cause failure (see
    :func:`blame_order`) as ``__cause__``.  At ``nranks == 1`` nothing
    is started: ``fn`` runs inline in the calling thread on a 1-rank
    communicator, under no whole-run deadline (``timeout`` still bounds
    a blocked receive).

    ``comm_sanitize`` wraps every rank's communicator in
    :class:`repro.analysis.sanitizer.SanitizedComm`: collectives are
    lockstep-checked across ranks (a divergence raises a named
    :class:`SpmdError` instead of deadlocking) and unmatched sends /
    leaked shared-memory segments are reported at teardown.  Payloads
    are untouched, so results stay byte-identical.

    Under ``"mp"`` the function, its arguments and its result must be
    picklable when the ``spawn`` start method is in use (the default
    ``fork`` ships them by inheritance, so closures work).
    """
    if comm_sanitize:
        # lazy: repro.analysis.sanitizer imports this module
        from ..analysis.sanitizer import sanitize_spmd_fn

        fn = sanitize_spmd_fn(fn)
    return get_runner(comm_backend)(
        nranks, fn, *args, tracer=tracer, timeout=timeout
    )
