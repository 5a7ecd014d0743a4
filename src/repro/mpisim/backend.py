"""The communicator abstraction every SPMD backend implements.

The distributed pipeline is written against a small MPI-shaped surface —
point-to-point sends/receives with tags and non-blocking handles, the
collectives SUMMA and the balance executors use, and ``split`` for the
grid's row/column sub-communicators.  :class:`CommBackend` names that
surface once, so the pipeline can run unchanged on any of the registered
backends:

* ``"sim"`` — :class:`~repro.mpisim.comm.SimComm`, the thread-per-rank
  simulator (deterministic, traceable, zero startup cost; the GIL
  serialises compute);
* ``"mp"`` — :class:`~repro.mpisim.mpcomm.MPComm`, one OS process per
  rank with block payloads shipped through shared-memory ndarray
  segments (real multi-core parallelism on one machine);
* ``"mpi"`` — :class:`~repro.mpisim.mpicomm.MPIComm`, a thin adapter
  over mpi4py's lowercase (pickle-object) API for genuinely distributed
  runs, available only when ``mpi4py`` is installed and the program is
  launched under ``mpirun``.

:func:`run_spmd` is the single entry point: it dispatches
``fn(comm, *args)`` onto ``nranks`` ranks of the chosen backend and
returns the per-rank results in rank order.  Backends are resolved
lazily so importing this module never pays for (or requires) mpi4py or
multiprocessing machinery.
"""

from __future__ import annotations

import importlib
import importlib.util
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = [
    "ANY_SOURCE",
    "COMM_BACKENDS",
    "COMM_OP_KINDS",
    "CommBackend",
    "Request",
    "SpmdError",
    "available_backends",
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


class SpmdError(RuntimeError):
    """Raised when a rank fails or the program deadlocks/times out."""


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

    Concrete backends provide the point-to-point core, the collectives,
    and ``split``; ``isend``/``waitall`` and the reduction collectives
    (``reduce``/``allreduce``/``exscan``) have default implementations in
    terms of those.  Semantics follow mpi4py's lowercase (pickle-object)
    API: messages match on ``(source, tag)`` in FIFO order per channel,
    sends are buffered (never block), and collectives synchronise all
    ranks of the communicator.
    """

    #: this rank's id within the communicator
    rank: int
    #: number of ranks in the communicator
    size: int

    # -- point-to-point -----------------------------------------------------

    @abstractmethod
    def send(self, obj: Any, dest: int, tag: int = 0,
             kind: str = "p2p") -> None:
        """Buffered send.  ``kind`` labels the traffic for the
        :class:`~repro.mpisim.tracing.CommTracer` (default ``"p2p"``)."""

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

    @abstractmethod
    def barrier(self) -> None:
        """Synchronise all ranks."""

    @abstractmethod
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast from ``root``."""

    @abstractmethod
    def allgather(self, obj: Any) -> list[Any]:
        """Every rank receives ``[obj_of_rank_0, ..., obj_of_rank_p-1]``."""

    @abstractmethod
    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """``root`` receives the per-rank list; everyone else ``None``."""

    @abstractmethod
    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Rank ``r`` receives ``objs[r]`` provided by ``root``."""

    @abstractmethod
    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Personalised all-to-all: rank ``r`` receives ``objs[r]`` from
        every rank."""

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any],
               root: int = 0) -> Any:
        """Left-fold of the per-rank values on ``root`` (``None``
        elsewhere)."""
        vals = self.gather(obj, root=root)
        if self.rank != root:
            return None
        assert vals is not None
        acc = vals[0]
        for v in vals[1:]:
            acc = op(acc, v)
        return acc

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any]) -> Any:
        """Left-fold of the per-rank values, result on every rank."""
        vals = self.allgather(obj)
        acc = vals[0]
        for v in vals[1:]:
            acc = op(acc, v)
        return acc

    def exscan(self, value: int) -> int:
        """Exclusive prefix sum of integers (0 on rank 0) — PASTIS's
        cooperative sequence-count prefix sums."""
        vals = self.allgather(value)
        return sum(vals[: self.rank])

    # -- sub-communicators ------------------------------------------------------

    @abstractmethod
    def split(self, color: int, key: int | None = None) -> "CommBackend":
        """Partition ranks by ``color`` into sub-communicators; rank order
        within a group follows ``(key, parent rank)``.  A collective: all
        ranks of the communicator must call it the same number of times
        (a mismatch raises :class:`SpmdError` on every rank)."""

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(rank={self.rank}, size={self.size})"


# ---------------------------------------------------------------------------
# backend registry
# ---------------------------------------------------------------------------

#: registered backends: name -> (module, runner attribute); resolved
#: lazily so ``"mpi"`` can exist without mpi4py being installed
_RUNNERS: dict[str, tuple[str, str]] = {
    "sim": ("repro.mpisim.comm", "run_spmd_sim"),
    "mp": ("repro.mpisim.mpcomm", "run_spmd_mp"),
    "mpi": ("repro.mpisim.mpicomm", "run_spmd_mpi"),
}

#: every registered backend name, in registry order — the config/CLI
#: ``comm_backend`` knob builds its choices from this tuple
COMM_BACKENDS = tuple(_RUNNERS)


def available_backends() -> tuple[str, ...]:
    """The backends usable in this interpreter: ``sim`` and ``mp``
    always; ``mpi`` only when mpi4py is importable (actually *running*
    it additionally requires an ``mpirun`` launch, which
    :func:`run_spmd_mpi` checks)."""
    names = ["sim", "mp"]
    if importlib.util.find_spec("mpi4py") is not None:
        names.append("mpi")
    return tuple(names)


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
    :class:`SpmdError` carrying the first failure as ``__cause__``.  At
    ``nranks == 1`` the ``sim`` and ``mp`` backends start nothing: ``fn``
    runs inline in the calling thread on a 1-rank communicator, under no
    whole-run deadline (``timeout`` still bounds a blocked receive).

    ``comm_sanitize`` wraps every rank's communicator in
    :class:`repro.analysis.sanitizer.SanitizedComm`: collectives are
    lockstep-checked across ranks (a divergence raises a named
    :class:`SpmdError` instead of deadlocking) and unmatched sends /
    leaked shared-memory segments are reported at teardown.  Payloads
    are untouched, so results stay byte-identical.

    Backend-specific caveats: under ``"mp"`` the function, its arguments
    and its result must be picklable when the ``spawn`` start method is
    in use (the default ``fork`` ships them by inheritance, so closures
    work); under ``"mpi"`` the program itself must have been launched by
    ``mpirun`` with a matching world size.
    """
    if comm_sanitize:
        # lazy: repro.analysis.sanitizer imports this module
        from ..analysis.sanitizer import sanitize_spmd_fn

        fn = sanitize_spmd_fn(fn)
    return get_runner(comm_backend)(
        nranks, fn, *args, tracer=tracer, timeout=timeout
    )
