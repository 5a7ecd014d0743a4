"""Thread-based SPMD simulator of the MPI communication core.

The paper's distributed pipeline is SPMD over MPI; this module executes the
same program structure inside one Python process: :func:`run_spmd_sim`
launches one thread per rank, each receiving a :class:`SimComm` — the
``"sim"`` implementation of the :class:`~repro.mpisim.backend.CommBackend`
interface — that supports the point-to-point and collective operations
PASTIS relies on (``Isend`` / ``Irecv`` / ``Waitall`` for the overlapped
sequence exchange, broadcast along grid rows/columns for SUMMA, all-to-all
for the distributed transpose and redistribution).

Semantics follow mpi4py's lowercase (pickle-object) API: messages match on
``(source, tag)``, in FIFO order per channel; ``isend`` is buffered and
completes immediately; collectives synchronise all ranks of the
communicator.  All traffic is reported to an optional
:class:`~repro.mpisim.tracing.CommTracer`.

A watchdog timeout (default 120 s) converts deadlocks into test failures
instead of hangs, and any rank raising an exception aborts the whole
program deterministically.

The simulator trades parallelism for determinism and zero startup cost:
all ranks share one interpreter, so the GIL serialises their compute.  The
process-per-rank twin (:mod:`repro.mpisim.mpcomm`, ``comm_backend="mp"``)
runs the identical interface on real cores; :func:`run_spmd` dispatches
between them.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Sequence

from .backend import (
    ANY_SOURCE,
    DEFAULT_TIMEOUT,
    CommBackend,
    Request,
    SpmdError,
    run_spmd,
)
from .tracing import CommTracer, payload_bytes

__all__ = [
    "ANY_SOURCE",
    "Request",
    "SimComm",
    "SpmdError",
    "run_spmd",
    "run_spmd_sim",
]

_DEFAULT_TIMEOUT = DEFAULT_TIMEOUT


class _Backend:
    """State shared by all ranks of one simulated communicator."""

    def __init__(self, size: int, tracer: CommTracer | None, timeout: float,
                 label: str = "world"):
        self.size = size
        self.tracer = tracer
        self.timeout = timeout
        # communicator label for tracing ("world", "world/0.1", ...),
        # matching the mp transport's comm ids and the sanitizer's labels
        self.label = label
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        # mailboxes[dst] is a FIFO of (src, tag, payload)
        self.mailboxes: list[deque] = [deque() for _ in range(size)]
        self.error: BaseException | None = None
        # collective scratch (generation-stamped exchange)
        self.coll_slots: list[Any] = [None] * size
        self.coll_count = 0
        self.coll_phase = 0
        self.coll_result: list[Any] = []
        # sub-communicator registry: (split_index, color) -> _Backend
        self.split_registry: dict[tuple[int, int], "_Backend"] = {}

    def abort(self, exc: BaseException) -> None:
        with self.cond:
            if self.error is None:
                self.error = exc
            self.cond.notify_all()
        for be in list(self.split_registry.values()):
            be.abort(exc)

    def check_error(self) -> None:
        if self.error is not None:
            raise SpmdError("aborted by a failing rank") from self.error


class SimComm(CommBackend):
    """Per-rank view of a simulated communicator (the ``"sim"`` backend)."""

    def __init__(self, backend: _Backend, rank: int):
        self._backend = backend
        self.rank = rank
        self.size = backend.size
        self._split_calls = 0

    # -- point-to-point ------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0,
             kind: str = "p2p") -> None:
        """Buffered send (never blocks in the simulator).  ``kind`` labels
        the traffic for the :class:`~repro.mpisim.tracing.CommTracer`
        (default ``"p2p"``; e.g. the alignment rebalancer tags its shipped
        tasks ``"rebal"`` so their volume can be read out separately)."""
        be = self._backend
        if not 0 <= dest < be.size:
            raise ValueError(f"bad destination rank {dest}")
        if be.tracer is not None:
            be.tracer.record(self.rank, dest, payload_bytes(obj), kind,
                             be.label, "send")
        with be.cond:
            be.check_error()
            be.mailboxes[dest].append((self.rank, tag, obj))
            be.cond.notify_all()

    def recv(self, source: int = ANY_SOURCE, tag: int = 0) -> Any:
        """Blocking receive matching ``(source, tag)`` in FIFO order.

        Times out against a fixed deadline (``backend.timeout`` from the
        call), so unrelated mailbox traffic cannot postpone deadlock
        detection indefinitely — and every wakeup, the deadline one
        included, re-scans the mailbox before raising, so a message
        queued between a timed-out wait and the deadline check is still
        consumed instead of surfacing as a spurious timeout."""
        be = self._backend
        box = be.mailboxes[self.rank]
        deadline = time.monotonic() + be.timeout
        with be.cond:
            while True:
                be.check_error()
                # the scan runs on every wakeup — notify and timeout
                # alike — so the timeout verdict below can never race a
                # message that arrived while we were waking up
                for i, (src, t, obj) in enumerate(box):
                    if (source == ANY_SOURCE or src == source) and t == tag:
                        del box[i]
                        return obj
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    exc = SpmdError(
                        f"rank {self.rank} recv(source={source}, tag={tag}) "
                        f"timed out after {be.timeout}s"
                    )
                    be.error = be.error or exc
                    be.cond.notify_all()
                    raise exc
                be.cond.wait(timeout=remaining)

    def tryrecv(
        self, source: int = ANY_SOURCE, tag: int = 0
    ) -> tuple[bool, Any]:
        """Non-blocking receive (MPI_Iprobe + recv fused): pop and return
        the first queued message matching ``(source, tag)`` as
        ``(True, payload)``, or report ``(False, None)`` without blocking.

        This is what ``irecv(...).test()`` polls, so the align stage can
        sweep its shipped-task receives without blocking: repeated calls
        consume every queued message of a channel, and an empty mailbox
        costs one lock acquisition."""
        be = self._backend
        box = be.mailboxes[self.rank]
        with be.cond:
            be.check_error()
            for i, (src, t, obj) in enumerate(box):
                if (source == ANY_SOURCE or src == source) and t == tag:
                    del box[i]
                    return True, obj
        return False, None

    # -- collectives -----------------------------------------------------------

    def _sync_exchange(self, obj: Any) -> list[Any]:
        """Internal allgather: deposit ``obj``, wait for everyone, read all
        slots.

        Generation-stamped: the last depositor publishes the slot snapshot
        as the result of this generation and advances the phase; waiters
        exit on the phase change.  A subsequent collective cannot overwrite
        the published result before every waiter has read it, because it
        cannot complete until those waiters have deposited again.
        """
        be = self._backend
        with be.cond:
            be.check_error()
            gen = be.coll_phase
            be.coll_slots[self.rank] = obj
            be.coll_count += 1
            if be.coll_count == be.size:
                be.coll_result = list(be.coll_slots)
                be.coll_slots = [None] * be.size
                be.coll_count = 0
                be.coll_phase = gen + 1
                be.cond.notify_all()
                return list(be.coll_result)
            while be.coll_phase == gen:
                be.check_error()
                if not be.cond.wait(timeout=be.timeout):
                    exc = SpmdError(
                        f"rank {self.rank} collective timed out after "
                        f"{be.timeout}s (generation {gen})"
                    )
                    be.error = be.error or exc
                    be.cond.notify_all()
                    raise exc
            return list(be.coll_result)

    def barrier(self) -> None:
        self._sync_exchange(None)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast from ``root``; traced as ``size - 1`` messages."""
        be = self._backend
        if self.rank == root and be.tracer is not None:
            size = payload_bytes(obj)
            for dst in range(be.size):
                if dst != root:
                    be.tracer.record(root, dst, size, "bcast", be.label,
                                     "bcast")
        all_vals = self._sync_exchange(obj if self.rank == root else None)
        return all_vals[root]

    def allgather(self, obj: Any) -> list[Any]:
        be = self._backend
        if be.tracer is not None:
            size = payload_bytes(obj)
            for dst in range(be.size):
                if dst != self.rank:
                    be.tracer.record(self.rank, dst, size, "allgather",
                                     be.label, "allgather")
        return self._sync_exchange(obj)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        be = self._backend
        if self.rank != root and be.tracer is not None:
            be.tracer.record(self.rank, root, payload_bytes(obj), "gather",
                             be.label, "gather")
        vals = self._sync_exchange(obj)
        return vals if self.rank == root else None

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        be = self._backend
        if self.rank == root:
            if objs is None or len(objs) != be.size:
                raise ValueError("root must provide size objects")
            if be.tracer is not None:
                for dst in range(be.size):
                    if dst != root:
                        be.tracer.record(
                            root, dst, payload_bytes(objs[dst]), "scatter",
                            be.label, "scatter"
                        )
        vals = self._sync_exchange(list(objs) if self.rank == root else None)
        return vals[root][self.rank]

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Personalised all-to-all: rank ``r`` receives ``objs[r]`` from
        every rank."""
        be = self._backend
        if len(objs) != be.size:
            raise ValueError("alltoall requires size objects")
        if be.tracer is not None:
            for dst in range(be.size):
                if dst != self.rank:
                    be.tracer.record(
                        self.rank, dst, payload_bytes(objs[dst]), "alltoall",
                        be.label, "alltoall"
                    )
        mat = self._sync_exchange(list(objs))
        return [mat[src][self.rank] for src in range(be.size)]

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any], root: int = 0):
        be = self._backend
        if self.rank != root and be.tracer is not None:
            be.tracer.record(self.rank, root, payload_bytes(obj), "reduce",
                             be.label, "reduce")
        vals = self._sync_exchange(obj)
        if self.rank != root:
            return None
        acc = vals[0]
        for v in vals[1:]:
            acc = op(acc, v)
        return acc

    # -- sub-communicators -----------------------------------------------------

    def split(self, color: int, key: int | None = None) -> "SimComm":
        """Partition ranks by ``color`` into sub-communicators; rank order
        within a group follows ``(key, parent rank)``.

        A collective: every rank of the communicator must call ``split``
        the same number of times.  The sub-communicator registry is keyed
        by the grid-wide split call index, so the indices are allgathered
        and validated — ranks whose counts diverged used to pair silently
        into wrong backends; now every rank raises a clear
        :class:`SpmdError`."""
        be = self._backend
        call_idx = self._split_calls
        self._split_calls += 1
        if key is None:
            key = self.rank
        quads = self.allgather(("split", call_idx, color, key, self.rank))
        seen_calls = set()
        for q in quads:
            if (not isinstance(q, tuple) or len(q) != 5
                    or q[0] != "split"):
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
        group = sorted(
            (k, r) for (_m, _ci, c, k, r) in quads if c == color
        )
        new_rank = group.index((key, self.rank))
        with be.lock:
            reg_key = (call_idx, color)
            sub = be.split_registry.get(reg_key)
            if sub is None:
                sub = _Backend(len(group), be.tracer, be.timeout,
                               label=f"{be.label}/{call_idx}.{color}")
                be.split_registry[reg_key] = sub
        self.barrier()
        return SimComm(sub, new_rank)


def run_spmd_sim(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    tracer: CommTracer | None = None,
    timeout: float = _DEFAULT_TIMEOUT,
) -> list[Any]:
    """Run ``fn(comm, *args)`` on ``nranks`` simulated (thread) ranks;
    return the per-rank results in rank order.

    Any rank raising aborts all ranks and re-raises as :class:`SpmdError`
    carrying the first failure as ``__cause__``.  ``nranks == 1`` spawns
    nothing: ``fn`` runs inline in the calling thread on a 1-rank
    :class:`SimComm`, with no whole-run deadline.  A rank stuck in pure
    compute never observes ``backend.abort`` (that is only checked inside
    communication calls), so the driver additionally raises whenever any
    worker thread failed to terminate or any result slot was never filled
    — partial results are never returned silently.
    """
    if nranks <= 0:
        raise ValueError("nranks must be positive")
    backend = _Backend(nranks, tracer, timeout)
    if nranks == 1:
        # a lone rank completes every collective on its own deposit, so it
        # runs in the caller's thread: nothing to join, and the only
        # deadline left is the one on a receive nobody can match
        try:
            return [fn(SimComm(backend, 0), *args)]
        except Exception as exc:
            raise SpmdError(f"rank 0 failed: {exc!r}") from exc
    unfilled = object()  # sentinel: fn may legitimately return None
    results: list[Any] = [unfilled] * nranks
    failures: list[tuple[int, BaseException]] = []
    flock = threading.Lock()

    def worker(rank: int) -> None:
        comm = SimComm(backend, rank)
        try:
            results[rank] = fn(comm, *args)
        except BaseException as exc:  # noqa: BLE001 - must propagate any
            with flock:
                failures.append((rank, exc))
            backend.abort(exc)

    threads = [
        threading.Thread(target=worker, args=(r,), name=f"spmd-rank-{r}",
                         daemon=True)
        for r in range(nranks)
    ]
    for t in threads:
        t.start()
    # one shared deadline for the whole fleet: every healthy rank's own
    # communication watchdog fires within ~timeout, so a 9-rank deadlock
    # is diagnosed in ~timeout here too — sequential per-thread budgets
    # would make worst-case hang detection O(nranks * timeout)
    deadline = time.monotonic() + timeout * 2
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    if any(t.is_alive() for t in threads):
        backend.abort(SpmdError("rank thread did not terminate"))
        grace = time.monotonic() + min(5.0, timeout)
        for t in threads:
            t.join(timeout=max(0.0, grace - time.monotonic()))
    failures.sort(key=lambda f: f[0])
    stuck = sorted(
        int(t.name.rsplit("-", 1)[1]) for t in threads if t.is_alive()
    )
    if stuck:
        # diagnose the stuck rank first: other ranks' timeouts are usually
        # victims of it, and blaming one of them would hide the root cause
        exc = SpmdError(
            f"ranks {stuck} did not terminate within the timeout "
            f"(stuck outside communication; abort cannot reach them)"
        )
        if failures:
            raise exc from failures[0][1]
        raise exc
    if failures:
        rank, exc = failures[0]
        if isinstance(exc, SpmdError) and len(failures) > 1:
            # prefer the original error over secondary abort noise
            for r, e in failures:
                if not isinstance(e, SpmdError):
                    rank, exc = r, e
                    break
        raise SpmdError(f"rank {rank} failed: {exc!r}") from exc
    missing = [r for r in range(nranks) if results[r] is unfilled]
    if missing:
        raise SpmdError(
            f"ranks {missing} terminated without producing a result"
        )
    return results
