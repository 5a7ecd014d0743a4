"""Thread-based SPMD simulator of the MPI communication core.

The paper's distributed pipeline is SPMD over MPI; this module executes the
same program structure inside one Python process: :func:`run_spmd_sim`
launches one thread per rank, each receiving a :class:`SimComm` — the
``"sim"`` transport under :class:`~repro.mpisim.backend.CommBackend`, whose
collectives run over this module's mailboxes and generation-stamped
exchange.  A watchdog timeout (default 120 s) converts deadlocks into
failures instead of hangs, and any rank raising an exception aborts the
whole program deterministically.

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
from typing import Any, Callable

from .backend import (
    ABORTED,
    ANY_SOURCE,
    DEFAULT_TIMEOUT,
    CommBackend,
    SpmdError,
    blame_order,
    run_spmd,
)
from .tracing import CommTracer, payload_bytes

__all__ = [
    "ANY_SOURCE",
    "SimComm",
    "SpmdError",
    "run_spmd",
    "run_spmd_sim",
]

#: "no result yet" from a :meth:`SimComm._wait` predicate (a payload may
#: legitimately be ``None``)
_PENDING = object()


class _Backend:
    """State shared by all ranks of one simulated communicator."""

    def __init__(self, size: int, tracer: CommTracer | None, timeout: float,
                 label: str = "world"):
        self.size = size
        self.tracer = tracer
        self.timeout = timeout
        self.label = label  # the communicator's trace label
        self.cond = threading.Condition(threading.Lock())
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
            raise SpmdError(ABORTED) from self.error


class SimComm(CommBackend):
    """Per-rank view of a simulated communicator (the ``"sim"`` backend)."""

    def __init__(self, backend: _Backend, rank: int):
        super().__init__(rank, backend.size, backend.tracer, backend.label)
        self._backend = backend

    def _wait(self, ready: Callable[[], Any], what: str) -> Any:
        """The one blocking wait of this transport (the caller holds
        ``backend.cond``): ``ready()``'s first value other than
        :data:`_PENDING`.  The deadline is fixed at the call, so unrelated
        traffic — every ``send`` notifies — cannot postpone deadlock
        detection; every wakeup re-checks ``ready`` before the abort flag
        and the deadline, so a result that landed while this rank was
        waking up is consumed, not reported as an abort or a timeout."""
        be = self._backend
        deadline = time.monotonic() + be.timeout
        while True:
            value = ready()
            if value is not _PENDING:
                return value
            be.check_error()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                exc = SpmdError(
                    f"rank {self.rank} {what} timed out after {be.timeout}s"
                )
                be.error = be.error or exc
                be.cond.notify_all()
                raise exc
            be.cond.wait(timeout=remaining)

    def _pop(self, source: int, tag: int) -> Any:
        """Remove and return the first queued message matching
        ``(source, tag)``, else :data:`_PENDING`; caller holds the lock."""
        box = self._backend.mailboxes[self.rank]
        for i, (src, t, obj) in enumerate(box):
            if (source == ANY_SOURCE or src == source) and t == tag:
                del box[i]
                return obj
        return _PENDING

    def send(self, obj: Any, dest: int, tag: int = 0,
             kind: str = "p2p") -> None:
        """Buffered send (never blocks in the simulator)."""
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
        with self._backend.cond:
            return self._wait(lambda: self._pop(source, tag),
                              f"recv(source={source}, tag={tag})")

    def tryrecv(
        self, source: int = ANY_SOURCE, tag: int = 0
    ) -> tuple[bool, Any]:
        """What ``irecv(...).test()`` polls, so the align stage can sweep
        its shipped-task receives without blocking: an empty mailbox
        costs one lock acquisition."""
        be = self._backend
        with be.cond:
            be.check_error()
            obj = self._pop(source, tag)
        return (False, None) if obj is _PENDING else (True, obj)

    def _exchange(self, obj: Any) -> list[Any]:
        """Deposit ``obj``, wait for everyone, read all slots.

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
            return self._wait(
                lambda: (_PENDING if be.coll_phase == gen
                         else list(be.coll_result)),
                f"collective (comm={be.label!r}, generation {gen})",
            )

    def _sub(self, call_idx: int, color: int, members: list[int],
             rank: int) -> "SimComm":
        """Look the group up in the registry keyed by the split call
        index, the first of its ranks to arrive creating it.  Registering
        under the lock after the abort check means an abort either
        reaches the group through the registry or raises here."""
        be = self._backend
        with be.cond:
            be.check_error()
            sub = be.split_registry.get((call_idx, color))
            if sub is None:
                sub = _Backend(len(members), be.tracer, be.timeout,
                               label=f"{be.label}/{call_idx}.{color}")
                be.split_registry[(call_idx, color)] = sub
        return SimComm(sub, rank)


def run_spmd_sim(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    tracer: CommTracer | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> list[Any]:
    """Run ``fn(comm, *args)`` on ``nranks`` simulated (thread) ranks;
    return the per-rank results in rank order.

    Any rank raising aborts all ranks and re-raises as :class:`SpmdError`
    carrying the root-cause failure (:func:`~repro.mpisim.backend
    .blame_order`) as ``__cause__``.  ``nranks == 1`` spawns
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
    failures.sort(key=lambda f: blame_order(
        f[0], isinstance(f[1], SpmdError), str(f[1])))
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
        raise SpmdError(f"rank {rank} failed: {exc!r}") from exc
    missing = [r for r in range(nranks) if results[r] is unfilled]
    if missing:
        raise SpmdError(
            f"ranks {missing} terminated without producing a result"
        )
    return results
