"""The SPMD runtime: one OS process per rank.

:func:`run_spmd_mp` runs ``fn(comm, *args)`` with one forked process per
rank, so a laptop run uses all cores — the paper's process-parallel SPMD
shape, minus the network.  A 1-rank run forks nothing: ``fn`` runs inline
on the same :class:`~repro.mpisim.backend.CommBackend` over an
in-process transport.

Transport
---------
Each world rank owns one ``multiprocessing.Queue`` inbox; a message is an
envelope ``(comm_id, channel, src, tag, payload)`` where ``payload`` is a
pickle of the object.  Large ndarrays do **not** travel through the pipe:
a :class:`pickle.Pickler` with a ``persistent_id`` hook diverts any
ndarray of at least :data:`SHM_MIN_BYTES` into a
``multiprocessing.shared_memory`` segment and pickles only its name and
header, so block payloads (sequence buffers, alignment tasks, edge
arrays) move between ranks as a single copy into and out of ``/dev/shm``
while pickle carries just the small control structure around them.

Segment ownership transfers with the message: the sender creates, fills
and unregisters the segment (so its resource tracker will not destroy it
at sender exit), the receiver attaches, copies out and unlinks it.  Every
segment name carries a run-unique prefix and the parent sweeps leftovers
when the run ends, so an aborted rank cannot leak ``/dev/shm`` space.

The communicator itself, its collectives and their exchange round
(tagged by a per-communicator generation counter; rank 0 of the
communicator gathers and fans out) are
:class:`~repro.mpisim.backend.CommBackend`; this module supplies the
per-rank transport under it and the runner.  Every run ends in the
runner's teardown audit (:func:`teardown_audit`): each rank whose body
returned reports its transport's ledger (point-to-point sends and
receives, shared-memory segments created and unlinked) with its result,
and an unmatched send or a leaked segment raises a named error.  Tracing
records the *logical* messages (sender-side, collective decomposition),
not the transport traffic; child-process tracers are shipped back with
the results and merged.

``multiprocessing`` and its ``shared_memory`` module are imported only
where processes or segments are created, so a 1-rank run loads neither.
The ``fork`` start method is the supported one (ranks inherit the SPMD
function, its arguments and any patch made before the run); ``spawn`` is
not a target.
"""

from __future__ import annotations

import io
import itertools
import os
import pickle
import queue
import threading
import time
from collections import Counter
from typing import Any, Callable, Sequence

import numpy as np

from .backend import ANY_SOURCE, DEFAULT_TIMEOUT, CommBackend, SpmdError
from .tracing import CommTracer

__all__ = [
    "SHM_MIN_BYTES",
    "run_spmd_mp",
    "teardown_audit",
]

#: ndarrays at least this large travel through shared memory instead of
#: the queue pipe (below it, the segment setup costs more than the copy)
SHM_MIN_BYTES = 1 << 13  # 8 KiB

#: what every surviving rank raises once another rank has failed
ABORTED = "aborted by a failing rank"


# ---------------------------------------------------------------------------
# shared-memory pickling
# ---------------------------------------------------------------------------

def _unregister_segment(name: str) -> None:
    """Detach a created segment from this process's resource tracker:
    ownership moves to the receiver (or, after a crash, to the parent's
    prefix sweep), so the tracker must not destroy it at sender exit."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:  # spmd: broad-except-ok (tracker internals vary)
        pass  # pragma: no cover


class _ShmPickler(pickle.Pickler):
    """Pickler diverting big plain-dtype ndarrays into shared memory."""

    def __init__(self, file: io.BytesIO, name_iter):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._name_iter = name_iter

    def persistent_id(self, obj: Any):
        if (
            isinstance(obj, np.ndarray)
            and type(obj) is np.ndarray
            and not obj.dtype.hasobject
            and obj.dtype.names is None
            and obj.nbytes >= SHM_MIN_BYTES
        ):
            from multiprocessing import shared_memory

            name = next(self._name_iter)
            seg = shared_memory.SharedMemory(
                name=name, create=True, size=int(obj.nbytes)
            )
            try:
                dst = np.ndarray(obj.shape, dtype=obj.dtype, buffer=seg.buf)
                dst[...] = obj
            finally:
                seg.close()
            _unregister_segment(name)
            return ("ndarray-shm", name, obj.shape, obj.dtype.str)
        return None


class _ShmUnpickler(pickle.Unpickler):
    """Unpickler resolving shared-memory ndarray references (copy out,
    then unlink — each message payload is consumed exactly once),
    appending each segment's name to ``unlinked``."""

    def __init__(self, file: io.BytesIO, unlinked: list[str]):
        super().__init__(file)
        self._unlinked = unlinked

    def persistent_load(self, pid):
        kind, name, shape, dtype = pid
        if kind != "ndarray-shm":  # pragma: no cover - defensive
            raise pickle.UnpicklingError(f"unknown persistent id {kind!r}")
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(name=name)
        try:
            src = np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)
            arr = src.copy()
        finally:
            seg.close()
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already swept
                pass
        self._unlinked.append(name)
        return arr


def _dumps(obj: Any, name_iter) -> bytes:
    buf = io.BytesIO()
    _ShmPickler(buf, name_iter).dump(obj)
    return buf.getvalue()


def _loads(payload: bytes, unlinked: list[str]) -> Any:
    return _ShmUnpickler(io.BytesIO(payload), unlinked).load()


def _sweep_shm(prefix: str) -> None:
    """Unlink every leftover segment of this run (crash/abort cleanup)."""
    shm_dir = "/dev/shm"
    try:
        names = os.listdir(shm_dir)
    except OSError:  # pragma: no cover - non-POSIX shm layout
        return
    for name in names:
        if name.startswith(prefix):
            try:
                os.unlink(os.path.join(shm_dir, name))
            except OSError:  # pragma: no cover - concurrent unlink
                pass


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


class _MPTransport:
    """This process's view of the fleet: its inbox, every outbox, the
    abort flag, the out-of-order stash of received envelopes, and the
    ledger the teardown audit reads (:meth:`ledger`)."""

    def __init__(
        self,
        world_rank: int,
        inboxes: Sequence[Any],
        abort,
        timeout: float,
        tracer: CommTracer | None,
        shm_prefix: str,
    ):
        self.world_rank = world_rank
        self.inboxes = inboxes
        self.abort = abort
        self.timeout = timeout
        self.tracer = tracer
        #: shared-memory segments this rank created / received and unlinked
        self.created: list[str] = []
        self.unlinked: list[str] = []
        self.shm_names = self._segment_names(f"{shm_prefix}{world_rank}-")
        # envelopes received but not yet matched, in arrival order
        self._stash: list[tuple] = []
        #: (comm label, dest world rank, tag) -> p2p sends posted
        self.sent: Counter = Counter()
        #: (comm label, tag) -> p2p receives completed on this rank
        self.recvd: Counter = Counter()

    def _segment_names(self, prefix: str):
        """Run/rank-unique segment names; the pickler draws one per
        segment it creates, so each is recorded in ``created`` here."""
        for i in itertools.count():
            name = f"{prefix}{i}"
            self.created.append(name)
            yield name

    def ledger(self) -> tuple[dict, dict, list[str], list[str]]:
        """A snapshot of ``(sent, recvd, created, unlinked)``, this
        rank's entry of :func:`teardown_audit`."""
        return (dict(self.sent), dict(self.recvd), list(self.created),
                list(self.unlinked))

    def check_abort(self) -> None:
        if self.abort.is_set():
            raise SpmdError(ABORTED)

    def send_env(
        self, comm_id: str, chan: int, dst_world: int, src: int, tag: int,
        obj: Any,
    ) -> None:
        self.check_abort()
        payload = _dumps(obj, self.shm_names)
        self.inboxes[dst_world].put((comm_id, chan, src, tag, payload))

    def _scan_stash(
        self, comm_id: str, chan: int, source: int, tag: int
    ) -> tuple[int, bytes] | None:
        for i, (cid, ch, src, t, payload) in enumerate(self._stash):
            if (
                cid == comm_id
                and ch == chan
                and (source == ANY_SOURCE or src == source)
                and t == tag
            ):
                del self._stash[i]
                return src, payload
        return None

    def recv_env(
        self, comm_id: str, chan: int, source: int, tag: int, what: str
    ) -> tuple[int, Any]:
        """The one blocking wait of this transport: the first envelope
        matching ``(comm_id, chan, source, tag)`` as ``(src, obj)``.

        The deadline is fixed at the call.  Every pass re-scans the stash
        before the abort flag, and a deadline pass first drains whatever
        the inbox already holds, so an envelope already delivered is
        consumed instead of surfacing as an abort or a spurious timeout;
        ``what`` names the wait in the timeout error."""
        inbox = self.inboxes[self.world_rank]
        deadline = time.monotonic() + self.timeout
        while True:
            hit = self._scan_stash(comm_id, chan, source, tag)
            if hit is not None:
                return hit[0], _loads(hit[1], self.unlinked)
            self.check_abort()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                if self._drain(inbox):
                    continue
                self.abort.set()
                raise SpmdError(
                    f"world rank {self.world_rank} {what} timed out after "
                    f"{self.timeout}s"
                )
            try:
                self._stash.append(inbox.get(timeout=min(remaining, 0.1)))
            except queue.Empty:
                pass

    def _drain(self, inbox) -> bool:
        """Move every already-delivered envelope to the stash; report
        whether there was any."""
        before = len(self._stash)
        while True:
            try:
                self._stash.append(inbox.get_nowait())
            except queue.Empty:
                return len(self._stash) > before


# ---------------------------------------------------------------------------
# teardown audit
# ---------------------------------------------------------------------------


def teardown_audit(per_rank: Sequence[tuple]) -> None:
    """The runner's teardown audit over one :meth:`_MPTransport.ledger`
    per rank, in world-rank order, reported once every rank's body
    returned (a failed run is not audited): one named
    :class:`SpmdError` if any send was never received or any segment
    was created but never unlinked."""
    problems: list[str] = []
    sent_to: dict[tuple[int, str, int], list] = {}
    for src, (sent, _recvd, _c, _u) in enumerate(per_rank):
        for (label, dest_world, tag), n in sent.items():
            entry = sent_to.setdefault((dest_world, label, tag), [0, []])
            entry[0] += n
            entry[1].append(src)
    for (dest_world, label, tag), (total, srcs) in sorted(sent_to.items()):
        got = per_rank[dest_world][1].get((label, tag), 0)
        if total > got:
            problems.append(
                f"[unmatched-send] "
                f"{total - got} unmatched send(s) to world rank "
                f"{dest_world} (comm {label!r}, tag {tag}) from "
                f"rank(s) {sorted(set(srcs))}"
            )

    all_created: dict[str, int] = {}
    all_unlinked: set[str] = set()
    for world, (_s, _r, c_names, u_names) in enumerate(per_rank):
        for name in c_names:
            all_created[name] = world
        all_unlinked.update(u_names)
    leaked = sorted(set(all_created) - all_unlinked)
    if leaked:
        owners = sorted({all_created[n] for n in leaked})
        problems.append(
            f"[shm-leak] "
            f"{len(leaked)} leaked shared-memory segment(s) "
            f"created by rank(s) {owners} and never unlinked: "
            f"{', '.join(leaked[:8])}"
            + (" ..." if len(leaked) > 8 else "")
        )

    if problems:
        raise SpmdError(
            "comm sanitizer: teardown audit failed: " + "; ".join(problems)
        )


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def blame_order(rank: int, is_spmd: bool, text: str) -> tuple[int, int]:
    """Sort key putting a run's root-cause failure first.

    A rank's own exception (anything but an :class:`SpmdError`) beats a
    primary :class:`SpmdError` (a timeout, a collective mismatch), which
    beats the :data:`ABORTED` echo the surviving ranks raise once the
    abort flag is up; ties go to the lowest rank."""
    if not is_spmd:
        return 0, rank
    return (2 if ABORTED in text else 1), rank


def _mp_worker(
    rank: int,
    nranks: int,
    inboxes,
    result_q,
    abort,
    timeout: float,
    trace: bool,
    shm_prefix: str,
    fn: Callable[..., Any],
    args: tuple,
) -> None:
    tracer = CommTracer() if trace else None
    transport = _MPTransport(
        rank, inboxes, abort, timeout, tracer, shm_prefix
    )
    comm = CommBackend(transport, "world", tuple(range(nranks)), rank)
    try:
        value = fn(comm, *args)
    except BaseException as exc:  # noqa: BLE001 - must propagate any
        import traceback

        abort.set()
        result_q.put((
            "err", rank, type(exc).__name__, str(exc),
            traceback.format_exc(), isinstance(exc, SpmdError),
        ))
        # peers may be dead: don't block process exit flushing inboxes
        for q in inboxes:
            q.cancel_join_thread()
        return
    records = tracer.records if tracer is not None else None
    # snapshot before the result is pickled: its segments are the
    # parent's to unlink, outside the audit
    ledger = transport.ledger()
    payload = _dumps(value, transport.shm_names)
    result_q.put(("ok", rank, payload, records, ledger))


def run_spmd_mp(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    tracer: CommTracer | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> list[Any]:
    """Run ``fn(comm, *args)`` on ``nranks`` OS-process ranks; return the
    per-rank results in rank order, once :func:`teardown_audit` passed
    over every rank's ledger.

    Any rank raising aborts all ranks and re-raises as :class:`SpmdError`
    with the root-cause failure (:func:`blame_order`) as ``__cause__``.
    A rank stuck in pure compute never observes the abort flag (only
    communication calls check it), so ranks still alive without a result
    at the shared deadline are named first, as ``did not terminate`` —
    another rank's timeout is usually a victim of them — and ranks that
    died without a result are named with their exit codes; partial
    results are never returned.  The caller's ``tracer``
    receives every child's logical message records.

    ``nranks == 1`` forks nothing: ``fn`` runs inline in the calling
    thread on a 1-rank communicator over an in-process queue, under no
    whole-run deadline (``timeout`` still bounds a blocked receive).
    """
    if nranks <= 0:
        raise ValueError("nranks must be positive")
    shm_prefix = f"repromp-{os.getpid()}-{os.urandom(4).hex()}-"
    if nranks == 1:
        transport = _MPTransport(0, [queue.Queue()], threading.Event(),
                                 timeout, tracer, shm_prefix)
        try:
            comm = CommBackend(transport, "world", (0,), 0)
            value = fn(comm, *args)
        except Exception as exc:
            raise SpmdError(f"rank 0 failed: {exc!r}") from exc
        finally:
            _sweep_shm(shm_prefix)
        teardown_audit([transport.ledger()])
        return [value]
    import multiprocessing
    # loaded before the fork, so the ranks share its pages instead of
    # each importing a private copy (+3 MB peak RSS on a 4-rank run)
    import multiprocessing.shared_memory  # noqa: F401

    ctx = multiprocessing.get_context("fork")
    inboxes = [ctx.Queue() for _ in range(nranks)]
    result_q = ctx.Queue()
    abort = ctx.Event()
    procs = [
        ctx.Process(
            target=_mp_worker,
            args=(r, nranks, inboxes, result_q, abort, timeout,
                  tracer is not None, shm_prefix, fn, args),
            name=f"spmd-mp-rank-{r}",
            daemon=True,
        )
        for r in range(nranks)
    ]
    unfilled = object()
    results: list[Any] = [unfilled] * nranks
    traces: list[Any] = [None] * nranks
    ledgers: list[Any] = [None] * nranks
    errors: list[tuple[int, str, str, str, bool]] = []

    def silent(r: int) -> bool:
        """Rank ``r`` has reported neither a result nor an error."""
        return results[r] is unfilled and not any(e[0] == r for e in errors)

    try:
        for p in procs:
            p.start()
        deadline = time.monotonic() + timeout * 2
        pending = nranks
        while pending:
            try:
                msg = result_q.get(timeout=0.2)
            except queue.Empty:
                if time.monotonic() >= deadline:
                    break
                # a rank that died without reporting (hard crash) will
                # never send a result; stop waiting once every silent
                # rank is dead
                if any(silent(r) and procs[r].is_alive()
                       for r in range(nranks)):
                    continue
                # grace for in-flight result payloads
                try:
                    msg = result_q.get(timeout=1.0)
                except queue.Empty:
                    break
            if msg[0] == "ok":
                _tag, rank, payload, records, ledgers[rank] = msg
                results[rank] = _loads(payload, [])
                traces[rank] = records
            else:
                _tag, rank, ename, etext, etb, is_spmd = msg
                errors.append((rank, ename, etext, etb, is_spmd))
                abort.set()
            pending -= 1
        # shared shutdown deadline, then force the stragglers down
        grace = time.monotonic() + min(5.0, timeout)
        for p in procs:
            p.join(timeout=max(0.0, grace - time.monotonic()))
        stuck = [r for r in range(nranks)
                 if silent(r) and procs[r].is_alive()]
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=5.0)
    finally:
        for q in [*inboxes, result_q]:
            q.cancel_join_thread()
            q.close()
        _sweep_shm(shm_prefix)

    if tracer is not None:
        for records in traces:
            if records:
                with tracer._lock:
                    tracer.records.extend(records)
    errors.sort(key=lambda e: blame_order(e[0], e[4], e[2]))
    cause = None
    if errors:
        rank, ename, etext, etb, _is_spmd = errors[0]
        cause = SpmdError(f"{ename}: {etext}\n{etb}")
    if stuck:
        raise SpmdError(
            f"ranks {stuck} did not terminate within the timeout "
            f"(stuck outside communication; abort cannot reach them)"
        ) from cause
    if cause is not None:
        raise SpmdError(f"rank {rank} failed: {ename}({etext!r})") from cause
    missing = [r for r in range(nranks) if results[r] is unfilled]
    if missing:
        raise SpmdError(
            f"ranks {missing} terminated without producing a result "
            f"(exit codes {[procs[r].exitcode for r in missing]})"
        )
    teardown_audit(ledgers)
    return results
