"""The communicator the SPMD runtime implements, and its entry point.

The distributed pipeline is written against a small MPI-shaped surface —
point-to-point sends/receives with tags and non-blocking handles, the
collectives the pipeline and its tools use, and ``split`` for the
grid's row/column sub-communicators.  :class:`CommBackend` is that
surface, one concrete class over the one transport
(:mod:`repro.mpisim.mpcomm`: one OS process per rank, every payload
pickled through the destination rank's inbox pipe).  Every collective,
``split`` and the collectives' tracer records are written once, over one
exchange round in which each rank sends every peer directly only the
part meant for it, so the payloads the transport carries are the
messages the tracer records.  The round also checks the SPMD lockstep
contract: each part carries the name of the collective its rank called,
and a rank that entered a different one makes every rank raise the same
named :class:`SpmdError` in that round.

:func:`run_spmd` is the single entry point: it runs ``fn(comm, *args)``
on ``nranks`` ranks and returns the per-rank results in rank order.  The
runner module is imported on first use, so importing this module never
pays for it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .tracing import payload_bytes

__all__ = [
    "ANY_SOURCE",
    "COMM_OP_KINDS",
    "CommBackend",
    "Request",
    "SpmdError",
    "payload_digest",
    "run_spmd",
]

#: Wildcard source for :meth:`CommBackend.recv`.
ANY_SOURCE = -1

#: Kind of every operation on this surface: ``"send"`` / ``"recv"`` /
#: ``"collective"``.  The end-to-end benchmark's probes read it to sort
#: traced records by kind.
COMM_OP_KINDS: dict[str, str] = {
    "send": "send", "isend": "send",
    "recv": "recv", "irecv": "recv",
    "barrier": "collective", "bcast": "collective",
    "allgather": "collective", "gather": "collective",
    "alltoall": "collective", "split": "collective",
}

#: Watchdog timeout (seconds) converting deadlocks into failures.
DEFAULT_TIMEOUT = 120.0

# internal message channels (the public p2p API only sees _CHAN_P2P)
_CHAN_P2P = 0
_CHAN_COLL = 1  # one collective's per-peer parts, tag = generation


class SpmdError(RuntimeError):
    """Raised when a rank fails or the program deadlocks/times out.

    ``wait`` is the :class:`~repro.mpisim.mpcomm.Wait` a rank was blocked
    in when its receive timed out or the abort reached it, else ``None``.
    """

    def __init__(self, message: str, wait: Any = None):
        super().__init__(message)
        self.wait = wait


def payload_digest(obj: Any, _depth: int = 0) -> str:
    """Structural digest of a payload: dtype + shape, never data.

    Makes a collective-mismatch report readable ("rank 2 broadcast
    ``ndarray[<i8](4096,)`` where rank 0 broadcast ``dict[3]``")."""
    if obj is None:
        return "None"
    if isinstance(obj, np.ndarray):
        return f"ndarray[{obj.dtype.str}]{obj.shape}"
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return f"bytes[{len(obj)}]"
    if isinstance(obj, (bool, int, float, complex, str)):
        return type(obj).__name__
    if isinstance(obj, (list, tuple)):
        name = type(obj).__name__
        if _depth >= 2:
            return f"{name}[{len(obj)}]"
        head = [payload_digest(x, _depth + 1) for x in obj[:4]]
        if len(obj) > 4:
            head.append("...")
        return f"{name}[{len(obj)}]({', '.join(head)})"
    if isinstance(obj, dict):
        return f"dict[{len(obj)}]"
    return type(obj).__name__


@dataclass
class Request:
    """Handle for a non-blocking operation (MPI_Request)."""

    _wait_fn: Callable[[], Any]
    _done: bool = False
    _value: Any = None

    def wait(self) -> Any:
        if not self._done:
            self._value = self._wait_fn()
            self._done = True
        return self._value


class CommBackend:
    """Per-rank communicator: the operations the pipeline actually uses.

    ``ranks`` maps communicator rank -> world rank over this process's
    transport (:class:`~repro.mpisim.mpcomm._MPTransport`).  A
    sub-communicator from :meth:`split` is a new ``(comm_id, ranks)``
    view over the same transport, told apart on the wire by its
    ``comm_id``, which is also its trace label: ``"world"``, and
    ``"<parent>/<split call>.<color>"`` for a split group.

    Semantics follow mpi4py's lowercase (pickle-object) API: messages
    match on ``(source, tag)`` in FIFO order per channel, sends are
    buffered (never block), and collectives synchronise all ranks.
    Collectives are traced as their logical point-to-point decomposition
    (a broadcast is ``size - 1`` messages from the root); the exchange
    round under them carries those payloads, and only its envelopes and
    lockstep op names go untraced.
    """

    def __init__(self, transport: Any, comm_id: str,
                 ranks: tuple[int, ...], rank: int):
        #: this rank's id within the communicator
        self.rank = rank
        #: number of ranks in the communicator
        self.size = len(ranks)
        self._transport = transport
        self._tracer = transport.tracer
        self._label = comm_id
        self._ranks = ranks
        self._coll_gen = 0
        self._split_calls = 0

    # -- point-to-point -----------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered send, traced as kind ``"p2p"``."""
        if not 0 <= dest < self.size:
            raise ValueError(f"bad destination rank {dest}")
        if self._tracer is not None:
            self._tracer.record(self.rank, dest, payload_bytes(obj), "p2p",
                                self._label, "send")
        tp = self._transport
        tp.sent[(self._label, self._ranks[dest], tag)] += 1
        tp.send_env(
            self._label, _CHAN_P2P, self._ranks[dest], self.rank, tag, obj
        )

    def _check_source(self, source: int) -> None:
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise ValueError(f"bad source rank {source}")

    def recv(self, source: int = ANY_SOURCE, tag: int = 0) -> Any:
        """Blocking receive matching ``(source, tag)`` in FIFO order."""
        self._check_source(source)
        tp = self._transport
        obj = tp.recv_env(
            self._label, _CHAN_P2P, source, tag, ("recv", self._ranks, None)
        )[1]
        tp.recvd[(self._label, tag)] += 1
        return obj

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; buffered, hence complete on return."""
        self.send(obj, dest, tag)
        return Request(lambda: None, _done=True)

    def irecv(self, source: int = ANY_SOURCE, tag: int = 0) -> Request:
        """Non-blocking receive; completion happens inside ``wait``."""
        self._check_source(source)
        return Request(lambda: self.recv(source, tag))

    # -- the exchange round -------------------------------------------------

    def _exchange(self, op: str, outs: Sequence[Any]) -> list[Any]:
        """One exchange round of the collective ``op``: ``outs[d]`` goes
        to rank ``d``, and the parts every rank sent to this one come
        back in rank order (this rank's own is ``outs[self.rank]``).

        Each rank sends ``(op, outs[d])`` straight to every peer ``d``,
        tagged by a per-communicator generation counter, then waits for
        the ``size - 1`` parts addressed to it, which synchronises every
        rank of the communicator.  Every rank then compares the op
        names, so a rank that entered a different collective makes every
        rank raise the same named :class:`SpmdError` in this round
        instead of silently crossing values (every rank sends before it
        checks, so no rank is left waiting).  A single rank sends
        nothing."""
        if self.size == 1:
            return list(outs)
        tp = self._transport
        gen = self._coll_gen
        self._coll_gen += 1
        cid = self._label
        for dst in range(self.size):
            if dst != self.rank:
                tp.send_env(cid, _CHAN_COLL, self._ranks[dst], self.rank,
                            gen, (op, outs[dst]))
        entries: list[Any] = [None] * self.size
        entries[self.rank] = (op, outs[self.rank])
        wait = (op, self._ranks, entries)
        for _ in range(self.size - 1):
            # parts arrive in any order; envelopes carry src
            src, entry = tp.recv_env(cid, _CHAN_COLL, ANY_SOURCE, gen, wait)
            entries[src] = entry
        if any(entry[0] != op for entry in entries):
            raise self._mismatch(gen, entries)
        return [entry[1] for entry in entries]

    def _mismatch(self, gen: int, entries: list[tuple[str, Any]]
                  ) -> SpmdError:
        """The named error of a round whose ranks entered different
        collectives: the diverging *world* ranks, and each rank's op and
        the digest of the part it sent this rank."""
        ops = [op for op, _obj in entries]
        majority = Counter(ops).most_common(1)[0][0]
        divergers = sorted(
            self._ranks[r] for r, op in enumerate(ops) if op != majority
        )
        detail = "; ".join(
            f"world rank {self._ranks[r]}: {op}() "
            f"[payload {payload_digest(obj)}]"
            for r, (op, obj) in enumerate(entries)
        )
        return SpmdError(
            f"comm sanitizer: collective mismatch "
            f"[rank-divergent-collective] on comm {self._label!r} "
            f"(generation {gen}): "
            f"world rank(s) {', '.join(map(str, divergers))} diverged "
            f"from the majority op {majority}() — {detail}"
        )

    # -- collectives ----------------------------------------------------------

    def _trace(self, op: str, src: int, obj: Any,
               dsts: Iterable[int], nbytes: int | None = None) -> None:
        """Record one logical ``op`` message of ``obj``'s size (or of
        ``nbytes``) from ``src`` to each of ``dsts`` other than ``src``
        (no-op untraced).  A barrier is recorded the way a gather is:
        one zero-byte message from each non-root rank to rank 0, so a
        hoistable barrier moves the traced totals like any collective."""
        if self._tracer is None:
            return
        dsts = [d for d in dsts if d != src]
        if dsts:
            if nbytes is None:
                nbytes = payload_bytes(obj)
            for dst in dsts:
                self._tracer.record(src, dst, nbytes, op, self._label, op)

    def _allgather(self, op: str, obj: Any) -> list[Any]:
        """:meth:`allgather` for the collective ``op`` (``split`` is an
        allgather on the wire and in the trace)."""
        self._trace("allgather", self.rank, obj, range(self.size))
        return self._exchange(op, [obj] * self.size)

    def barrier(self) -> None:
        """Synchronise all ranks."""
        self._trace("barrier", self.rank, None, (0,), nbytes=0)
        self._exchange("barrier", [None] * self.size)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast from ``root``."""
        if self.rank == root:
            self._trace("bcast", root, obj, range(self.size))
        else:
            obj = None
        return self._exchange("bcast", [obj] * self.size)[root]

    def allgather(self, obj: Any) -> list[Any]:
        """Every rank receives ``[obj_of_rank_0, ..., obj_of_rank_p-1]``."""
        return self._allgather("allgather", obj)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """``root`` receives the per-rank list; everyone else ``None``."""
        self._trace("gather", self.rank, obj, (root,))
        vals = self._exchange(
            "gather", [obj if d == root else None for d in range(self.size)]
        )
        return vals if self.rank == root else None

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Personalised all-to-all: rank ``r`` receives ``objs[r]`` from
        every rank."""
        if len(objs) != self.size:
            raise ValueError("alltoall requires size objects")
        for dst in range(self.size):
            self._trace("alltoall", self.rank, objs[dst], (dst,))
        return self._exchange("alltoall", objs)

    # -- sub-communicators ------------------------------------------------------

    def split(self, color: int, key: int | None = None) -> "CommBackend":
        """Partition ranks by ``color`` into sub-communicators; rank order
        within a group follows ``(key, parent rank)``.

        A collective: the ``(color, key)`` pairs are allgathered, and the
        group's ``comm_id`` carries this communicator's split call index,
        so the wire traffic of different sub-communicators can never
        cross.  Ranks whose ``split`` counts diverged pair a ``split``
        with another collective in some round, which raises the named
        mismatch."""
        call_idx = self._split_calls
        self._split_calls += 1
        if key is None:
            key = self.rank
        pairs = self._allgather("split", (color, key))
        group = sorted(
            (k, r) for r, (c, k) in enumerate(pairs) if c == color
        )
        return CommBackend(
            self._transport, f"{self._label}/{call_idx}.{color}",
            tuple(self._ranks[r] for (_k, r) in group),
            group.index((key, self.rank)),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(rank={self.rank}, size={self.size})"


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    tracer: Any | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    comm_backend: str = "mp",
) -> list[Any]:
    """Run ``fn(comm, *args)`` on ``nranks`` ranks; return the per-rank
    results in rank order (:func:`repro.mpisim.mpcomm.run_spmd_mp`).

    Any rank raising aborts all ranks and re-raises as :class:`SpmdError`
    carrying the root-cause failure (see
    :func:`~repro.mpisim.mpcomm.blame_order`) as ``__cause__``; a
    rank-divergent collective is one such failure, named in the round
    where it happens.  A receive that times out is named from the run's
    wait-for graph (:func:`~repro.mpisim.mpcomm.diagnose_waits`).  At ``nranks == 1`` nothing is started: ``fn`` runs
    inline in the calling thread on a 1-rank communicator, under no
    whole-run deadline (``timeout`` still bounds a blocked receive).

    Every run that returns passes the runner's teardown audit
    (:func:`~repro.mpisim.mpcomm.teardown_audit`) first: a send no rank
    received raises a named :class:`SpmdError`.

    ``comm_backend`` accepts ``"mp"``, the one transport, and nothing
    else.
    """
    if comm_backend != "mp":
        raise ValueError(
            f"comm_backend {comm_backend!r}: the thread simulator was "
            f"removed; 'mp' is the only transport"
        )
    # lazy: the runner module imports this one
    from .mpcomm import run_spmd_mp

    return run_spmd_mp(nranks, fn, *args, tracer=tracer, timeout=timeout)
