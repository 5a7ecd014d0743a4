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
pickle of the object, taken at send time (sends are buffered, so the
receiver sees the object as it was when sent).  Every payload, block
arrays included, rides the destination's inbox pipe; there is no second
path.

The communicator itself, its collectives and their exchange round (each
rank sends every peer only its own part, tagged by a per-communicator
generation counter) are :class:`~repro.mpisim.backend.CommBackend`; this
module supplies the per-rank transport under it and the runner.  Every
run ends in the runner's teardown audit (:func:`teardown_audit`): each
rank whose body returned reports its transport's ledger (point-to-point
sends and receives) with its result, and an unmatched send raises a
named error.  A run whose receive timed out is named from its wait-for
graph (:func:`diagnose_waits`): every rank blocked in a wait when its
deadline passed or the abort reached it reports that :class:`Wait` and
its ledger.  Tracing records the *logical* messages (sender-side,
collective decomposition), which are also the payloads the exchange
round carries; child-process tracers are shipped back with the results
and merged.

``multiprocessing`` is imported only where processes are created, so a
1-rank run does not load it.  The ``fork`` start method is the supported
one (ranks inherit the SPMD function, its arguments and any patch made
before the run); ``spawn`` is not a target.
"""

from __future__ import annotations

import pickle
import queue
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Collection, Mapping, Sequence

from .backend import (
    _CHAN_COLL,
    ANY_SOURCE,
    DEFAULT_TIMEOUT,
    CommBackend,
    SpmdError,
)
from .tracing import CommTracer

__all__ = [
    "Wait",
    "diagnose_waits",
    "run_spmd_mp",
    "teardown_audit",
]

#: what every surviving rank raises once another rank has failed
ABORTED = "aborted by a failing rank"


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Wait:
    """The wait a rank was blocked in when its run failed: one node of
    the runner's wait-for graph (:func:`diagnose_waits`)."""

    comm: str                # the communicator's label
    op: str                  # "recv", or the collective's name
    generation: int | None   # a collective's round on ``comm``
    source: int | None       # a recv's source (comm rank, or ANY_SOURCE)
    tag: int | None          # a recv's tag
    #: world ranks whose part the wait still misses (a wildcard recv:
    #: any one of them would do)
    missing: tuple[int, ...]

    @classmethod
    def of(cls, comm_id: str, chan: int, source: int, tag: int,
           wait: tuple) -> "Wait":
        """The record of :meth:`_MPTransport.recv_env`'s ``wait``."""
        op, ranks, parts = wait
        if chan == _CHAN_COLL:
            missing = tuple(r for r, part in zip(ranks, parts)
                            if part is None)
            return cls(comm_id, op, tag, None, None, missing)
        missing = tuple(ranks) if source == ANY_SOURCE else (ranks[source],)
        return cls(comm_id, op, None, source, tag, missing)

    def __str__(self) -> str:
        if self.generation is None:
            return (f"recv(comm={self.comm!r}, source={self.source}, "
                    f"tag={self.tag})")
        return (f"collective {self.op}() (comm={self.comm!r}, "
                f"generation {self.generation})")


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
    ):
        self.world_rank = world_rank
        self.inboxes = inboxes
        self.abort = abort
        self.timeout = timeout
        self.tracer = tracer
        # envelopes received but not yet matched, in arrival order
        self._stash: list[tuple] = []
        #: (comm label, dest world rank, tag) -> p2p sends posted
        self.sent: Counter = Counter()
        #: (comm label, tag) -> p2p receives completed on this rank
        self.recvd: Counter = Counter()

    def ledger(self) -> tuple[dict, dict]:
        """A snapshot of ``(sent, recvd)``, this rank's entry of
        :func:`teardown_audit` and :func:`diagnose_waits`."""
        return dict(self.sent), dict(self.recvd)

    def check_abort(self) -> None:
        if self.abort.is_set():
            raise SpmdError(ABORTED)

    def send_env(
        self, comm_id: str, chan: int, dst_world: int, src: int, tag: int,
        obj: Any,
    ) -> None:
        self.check_abort()
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
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
        self, comm_id: str, chan: int, source: int, tag: int, wait: tuple
    ) -> tuple[int, Any]:
        """The one blocking wait of this transport: the first envelope
        matching ``(comm_id, chan, source, tag)`` as ``(src, obj)``.

        The deadline is fixed at the call.  Every pass re-scans the stash
        first, and a pass past the deadline drains whatever the inbox
        already holds, so an envelope already delivered is consumed
        instead of surfacing as an abort or a spurious timeout.  Only
        then is the abort flag read: ranks whose deadlines pass together
        each report their own timeout, not the echo of whichever peer
        set the flag first, and the runner blames the lowest of them.

        ``wait`` is ``(op, ranks, parts)``: the op's name, the
        communicator's world ranks and, for a collective, the parts it
        has so far (``None`` where one is missing).  It becomes the
        :class:`Wait` record of the :class:`SpmdError` raised on the
        deadline or on the abort echo, and is read only then."""
        inbox = self.inboxes[self.world_rank]
        deadline = time.monotonic() + self.timeout
        blocked = False
        while True:
            hit = self._scan_stash(comm_id, chan, source, tag)
            if hit is not None:
                return hit[0], pickle.loads(hit[1])
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                late = _drain_queue(inbox)
                if late:
                    self._stash.extend(late)
                    continue
                self.abort.set()
                record = Wait.of(comm_id, chan, source, tag, wait)
                raise SpmdError(
                    f"world rank {self.world_rank} {record} timed out after "
                    f"{self.timeout}s", record,
                )
            if self.abort.is_set():
                # a wait entered after the flag went up was not blocked
                # when it did: its rank was outside communication
                raise SpmdError(
                    ABORTED,
                    Wait.of(comm_id, chan, source, tag, wait)
                    if blocked else None,
                )
            blocked = True
            try:
                self._stash.append(inbox.get(timeout=min(remaining, 0.1)))
            except queue.Empty:
                pass


def _drain_queue(q) -> list[tuple]:
    """Every envelope already delivered to ``q``, without blocking."""
    got = []
    while True:
        try:
            got.append(q.get_nowait())
        except queue.Empty:
            return got


# ---------------------------------------------------------------------------
# teardown audit
# ---------------------------------------------------------------------------


def teardown_audit(per_rank: Sequence[tuple]) -> None:
    """The runner's teardown audit over one :meth:`_MPTransport.ledger`
    per rank, in world-rank order, reported once every rank's body
    returned (a failed run is not audited): one named
    :class:`SpmdError` if any send was never received."""
    problems: list[str] = []
    sent_to: dict[tuple[int, str, int], list] = {}
    for src, (sent, _recvd) in enumerate(per_rank):
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
    if problems:
        raise SpmdError(
            "comm sanitizer: teardown audit failed: " + "; ".join(problems)
        )


# ---------------------------------------------------------------------------
# the wait-for graph of a run that timed out
# ---------------------------------------------------------------------------


def diagnose_waits(
    waits: Mapping[int, Wait],
    ledgers: Mapping[int, tuple],
    returned: Collection[int],
) -> str:
    """What a run whose receive timed out was stuck on, named from the
    :class:`Wait` each blocked rank reported (keyed by world rank), the
    :meth:`_MPTransport.ledger` of every rank that reported and the ranks
    whose body returned; ``""`` when there is nothing to name.

    Each waiting rank has an edge to every rank its wait misses.  The
    graph is reduced as a deadlock detector reduces it: a rank neither
    waiting nor returned (in compute, or raised outside a wait) may
    still act, and so may a waiting rank whose every missing rank (for
    a wildcard recv: any one) may.  The ranks left over are deadlocked,
    on a cycle or on a rank that returned:

    * ``[unmatched-recv]`` when one of them waits in a recv with nothing
      in flight to it on that ``(comm, tag)``, per the ledgers;
    * else ``[rank-divergent-collective]`` when they wait in different
      collectives (comm, op or generation), or on a rank that returned.
      The diverging world ranks are those whose op (``return`` for a
      returned rank) is not the one most of them are in.

    When no rank is left over, every chain ends at a rank outside
    communication, and the message names that rank, with no code."""
    returned = set(returned)
    free = ({v for w in waits.values() for v in w.missing}
            - set(waits) - returned)
    live = set(free)
    grew = True
    while grew:
        grew = False
        for r, w in waits.items():
            some = w.op == "recv" and w.source == ANY_SOURCE
            if r not in live and (any if some else all)(
                    v in live for v in w.missing):
                live.add(r)
                grew = True
    stuck = sorted(set(waits) - live)
    graph = "; ".join(
        f"world rank {r} in {w} misses world rank(s) {list(w.missing)}"
        for r, w in sorted(waits.items())
    )
    if not stuck:
        if not free:
            return ""
        return (f"wait-for graph: the waits end at world rank(s) "
                f"{sorted(free)}, outside communication — {graph}")

    def in_flight(r: int, w: Wait) -> int:
        sent = sum(out.get((w.comm, r, w.tag), 0)
                   for out, _got in ledgers.values())
        return sent - ledgers[r][1].get((w.comm, w.tag), 0)

    unmatched = [r for r in stuck
                 if waits[r].op == "recv" and in_flight(r, waits[r]) <= 0]
    if unmatched:
        return (
            "wait-for graph: [unmatched-recv] nothing is in flight to "
            + ", ".join(f"world rank {r} in {waits[r]}" for r in unmatched)
            + f" — {graph}"
        )
    gone = sorted({v for r in stuck for v in waits[r].missing} & returned)
    rounds = {(waits[r].comm, waits[r].op, waits[r].generation)
              for r in stuck if waits[r].generation is not None}
    if len(rounds) + bool(gone) < 2:
        return (f"wait-for graph: world rank(s) {stuck} wait on each "
                f"other — {graph}")
    ops = {r: waits[r].op for r in stuck} | dict.fromkeys(gone, "return")
    counts = Counter(ops.values())
    top = [op for op, n in counts.items() if n == max(counts.values())]
    divergers = [r for r, op in sorted(ops.items())
                 if len(top) == 1 and op != top[0]] or stuck
    why = ["wait in different collectives"] if len(rounds) > 1 else []
    if gone:
        why.append(f"wait on world rank(s) {gone}, which returned")
    return (
        f"wait-for graph: [rank-divergent-collective] world rank(s) "
        f"{', '.join(map(str, divergers))} diverged: the deadlocked ranks "
        f"{' and '.join(why)} — {graph}"
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
    fn: Callable[..., Any],
    args: tuple,
) -> None:
    tracer = CommTracer() if trace else None
    transport = _MPTransport(rank, inboxes, abort, timeout, tracer)
    comm = CommBackend(transport, "world", tuple(range(nranks)), rank)
    try:
        value = fn(comm, *args)
    except BaseException as exc:  # noqa: BLE001 - must propagate any
        import traceback

        abort.set()
        result_q.put((
            "err", rank, type(exc).__name__, str(exc),
            traceback.format_exc(), isinstance(exc, SpmdError),
            getattr(exc, "wait", None), transport.ledger(),
        ))
        return
    records = tracer.records if tracer is not None else None
    # pickled here, so an unpicklable result fails in its rank
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    result_q.put(("ok", rank, payload, records, transport.ledger()))


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
    results are never returned.  Every message a rank queued before the
    shutdown grace ends is read, so a rank that returned late still
    counts as returned.  When the root cause is a receive that timed
    out, the error also names what the run was stuck on
    (:func:`diagnose_waits`, over every rank's :class:`Wait`).  The
    caller's ``tracer`` receives every child's logical message records.

    ``nranks == 1`` forks nothing: ``fn`` runs inline in the calling
    thread on a 1-rank communicator over an in-process queue, under no
    whole-run deadline (``timeout`` still bounds a blocked receive).
    """
    if nranks <= 0:
        raise ValueError("nranks must be positive")
    if nranks == 1:
        transport = _MPTransport(0, [queue.Queue()], threading.Event(),
                                 timeout, tracer)
        try:
            comm = CommBackend(transport, "world", (0,), 0)
            value = fn(comm, *args)
        except Exception as exc:
            wait = getattr(exc, "wait", None)
            detail = (diagnose_waits({0: wait}, {0: transport.ledger()}, ())
                      if wait is not None else "")
            raise SpmdError(
                f"rank 0 failed: {exc!r}" + (f"\n{detail}" if detail else "")
            ) from exc
        teardown_audit([transport.ledger()])
        return [value]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    inboxes = [ctx.Queue() for _ in range(nranks)]
    result_q = ctx.Queue()
    abort = ctx.Event()
    procs = [
        ctx.Process(
            target=_mp_worker,
            args=(r, nranks, inboxes, result_q, abort, timeout,
                  tracer is not None, fn, args),
            name=f"spmd-mp-rank-{r}",
            daemon=True,
        )
        for r in range(nranks)
    ]
    unfilled = object()
    results: list[Any] = [unfilled] * nranks
    traces: list[Any] = [None] * nranks
    ledgers: dict[int, tuple] = {}
    waits: dict[int, Wait] = {}
    errors: list[tuple[int, str, str, str, bool]] = []

    def silent(r: int) -> bool:
        """Rank ``r`` has reported neither a result nor an error."""
        return results[r] is unfilled and not any(e[0] == r for e in errors)

    def take(msg: tuple) -> None:
        """Record one rank's report."""
        if msg[0] == "ok":
            _tag, rank, payload, records, ledgers[rank] = msg
            results[rank] = pickle.loads(payload)
            traces[rank] = records
        else:
            _tag, rank, ename, etext, etb, is_spmd, wait, ledgers[rank] = msg
            errors.append((rank, ename, etext, etb, is_spmd))
            if wait is not None:
                waits[rank] = wait
            abort.set()

    try:
        for p in procs:
            p.start()
        deadline = time.monotonic() + timeout * 2
        while any(silent(r) for r in range(nranks)):
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
            take(msg)
        # shared shutdown grace: a straggler that reports meanwhile is
        # read.  After it, a live rank is either stuck (named below) or
        # has reported and reads no inbox again, flushing at most an
        # envelope nobody will read (an orphan the audit names, or a
        # failing rank's last send): join briefly, then force them down.
        # The runner reads no inbox, so an envelope the kill tears is
        # never read
        grace = time.monotonic() + min(5.0, timeout)
        while (any(silent(r) and procs[r].is_alive() for r in range(nranks))
               and time.monotonic() < grace):
            try:
                take(result_q.get(timeout=0.05))
            except queue.Empty:
                pass
        for msg in _drain_queue(result_q):
            take(msg)
        stuck = [r for r in range(nranks)
                 if silent(r) and procs[r].is_alive()]
        settle = time.monotonic() + 0.5
        for p in procs:
            p.join(timeout=max(0.0, settle - time.monotonic()))
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=5.0)
    finally:
        for q in [*inboxes, result_q]:
            q.cancel_join_thread()
            q.close()

    if tracer is not None:
        for records in traces:
            if records:
                with tracer._lock:
                    tracer.records.extend(records)
    errors.sort(key=lambda e: blame_order(e[0], e[4], e[2]))
    cause = detail = None
    if errors:
        rank, ename, etext, etb, _is_spmd = errors[0]
        cause = SpmdError(f"{ename}: {etext}\n{etb}")
        if rank in waits and ABORTED not in etext:
            returned = [r for r in range(nranks) if results[r] is not unfilled]
            detail = diagnose_waits(waits, ledgers, returned)
    tail = f"\n{detail}" if detail else ""
    if stuck:
        raise SpmdError(
            f"ranks {stuck} did not terminate within the timeout "
            f"(stuck outside communication; abort cannot reach them)" + tail
        ) from cause
    if cause is not None:
        raise SpmdError(
            f"rank {rank} failed: {ename}({etext!r})" + tail
        ) from cause
    missing = [r for r in range(nranks) if results[r] is unfilled]
    if missing:
        raise SpmdError(
            f"ranks {missing} terminated without producing a result "
            f"(exit codes {[procs[r].exitcode for r in missing]})"
        )
    teardown_audit([ledgers[r] for r in range(nranks)])
    return results
