"""Runtime comm sanitizer: lockstep-checked :class:`CommBackend` wrapper.

The SPMD contract — every rank executes the identical sequence of
collectives on each communicator — is enforced by the backends only
implicitly: a divergence starves some collective generation and
surfaces as a watchdog timeout (or, worse, silently crosses values
between two collectives of the same shape).  :class:`SanitizedComm`
makes the check explicit and *named*:

* before every collective, each rank allgathers a small **fingerprint**
  ``(global collective #, op name, communicator label, payload digest,
  sent/received totals)`` on the same communicator.  The prelude is
  itself always an allgather, so it pairs cleanly with the peers'
  preludes no matter which op the user code diverged into — the ranks
  then *see* the mismatch and every one raises an
  :class:`~repro.mpisim.backend.SpmdError` naming the diverging world
  ranks and their ops, instead of deadlocking until the timeout.
  Payload digests (dtype + shape, no data) travel for diagnostics only:
  per-rank contributions legitimately differ, so they are never
  compared.

* every point-to-point send/receive is counted per ``(communicator,
  destination world rank, tag)``.  At teardown (:meth:`finalize`,
  called by the :func:`sanitize_spmd_fn` wrapper after the SPMD body
  returns) the counters are allgathered and sends that no rank ever
  received are reported per destination and tag.  In-flight totals are
  also tracked at every collective fence — overlap (posting sends
  across a barrier) is legal and common, so unmatched sends only
  *raise* at teardown.

* under the ``mp`` backend the ``mpcomm`` shared-memory transport is
  audited: every segment created by a pickler and every segment
  unlinked by an unpickler is recorded per process, the sets are merged
  across ranks at teardown, and segments created but never unlinked are
  reported as leaks (the run-prefix sweep would hide them; the
  sanitizer makes them loud).

Error messages carry the bracketed finding codes of the shared table in
:mod:`repro.analysis.report` (``[rank-divergent-collective]``,
``[unmatched-send]``, ``[shm-leak]``): a runtime sanitizer report and
its static counterpart from ``repro.analysis.lint`` /
``repro.analysis.verify`` name the same defect the same way.

Enable with the ``comm_sanitize`` config knob, the ``--comm-sanitize``
CLI flag, or ``REPRO_COMM_SANITIZE=1`` (see ``docs/knobs.md``); the
golden-obliviousness contract holds under the sanitizer — wrapping
changes no payload, so the output graph stays byte-identical.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Sequence

import numpy as np

from ..mpisim.backend import (
    ANY_SOURCE,
    CommBackend,
    SpmdError,
)

__all__ = ["SanitizedComm", "payload_digest", "sanitize_spmd_fn"]


def payload_digest(obj: Any, _depth: int = 0) -> str:
    """Structural digest of a payload: dtype + shape, never data.

    Cheap enough to compute on every collective; informative enough to
    make a mismatch report readable ("rank 2 broadcast
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


class _RankState:
    """Per-rank accounting shared by every :class:`SanitizedComm` view
    (world and sub-communicators) of one rank."""

    __slots__ = ("nseq", "sent", "recvd", "max_inflight", "shm_mod")

    def __init__(self, shm_mod: Any = None):
        #: global collective counter across all communicators
        self.nseq = 0
        #: (comm label, dest world rank, tag) -> sends posted
        self.sent: Counter = Counter()
        #: (comm label, tag) -> receives completed on this rank
        self.recvd: Counter = Counter()
        #: peak fleet-wide sent-minus-received seen at a collective fence
        self.max_inflight = 0
        #: the audited mpcomm module under the ``mp`` backend, else None
        self.shm_mod = shm_mod

    def totals(self) -> tuple[int, int]:
        return (sum(self.sent.values()), sum(self.recvd.values()))


class SanitizedComm(CommBackend):
    """Lockstep-checking wrapper around any :class:`CommBackend`.

    Delegates every operation to the wrapped communicator after
    fingerprinting (collectives) or counting (point-to-point), so the
    values that flow through are bit-for-bit those of the bare backend.
    """

    def __init__(
        self,
        inner: CommBackend,
        label: str,
        world_ranks: tuple[int, ...],
        state: _RankState,
    ):
        self._inner = inner
        self._label = label
        #: communicator rank -> world rank (for naming ranks in errors
        #: and for keying p2p accounting globally)
        self._world_ranks = world_ranks
        self._state = state
        self._nsplit = 0
        self.rank = inner.rank
        self.size = inner.size

    # -- fingerprint prelude -------------------------------------------------

    def _fingerprint(self, op: str, payload: Any,
                     extra: Any = None) -> list[Any]:
        """Allgather this collective's fingerprint on the same
        communicator and verify every rank is entering the same op."""
        state = self._state
        state.nseq += 1
        sent_total, recvd_total = state.totals()
        fp = (state.nseq, op, self._label, payload_digest(payload),
              sent_total, recvd_total, extra)
        fps = self._inner.allgather(fp)
        ops = [f[1] for f in fps]
        labels = [f[2] for f in fps]
        if len(set(ops)) > 1 or len(set(labels)) > 1:
            majority, _n = Counter(ops).most_common(1)[0]
            divergers = sorted(
                self._world_ranks[r]
                for r, f in enumerate(fps) if f[1] != majority
            )
            detail = "; ".join(
                f"world rank {self._world_ranks[r]}: {f[1]}() "
                f"[collective #{f[0]}, payload {f[3]}]"
                for r, f in enumerate(fps)
            )
            raise SpmdError(
                f"comm sanitizer: collective mismatch "
                f"[rank-divergent-collective] on comm "
                f"{self._label!r}: world rank(s) "
                f"{', '.join(map(str, divergers))} diverged from the "
                f"majority op {majority}() — {detail}"
            )
        inflight = sum(f[4] for f in fps) - sum(f[5] for f in fps)
        state.max_inflight = max(state.max_inflight, inflight)
        return fps

    # -- point-to-point ------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0,
             kind: str = "p2p") -> None:
        self._state.sent[
            (self._label, self._world_ranks[dest], tag)
        ] += 1
        self._inner.send(obj, dest, tag, kind=kind)

    def recv(self, source: int = ANY_SOURCE, tag: int = 0) -> Any:
        obj = self._inner.recv(source, tag)
        self._state.recvd[(self._label, tag)] += 1
        return obj

    def tryrecv(
        self, source: int = ANY_SOURCE, tag: int = 0
    ) -> tuple[bool, Any]:
        ok, obj = self._inner.tryrecv(source, tag)
        if ok:
            self._state.recvd[(self._label, tag)] += 1
        return ok, obj

    # -- collectives ----------------------------------------------------------

    def barrier(self) -> None:
        self._fingerprint("barrier", None)
        self._inner.barrier()

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._fingerprint("bcast", obj if self.rank == root else None)
        return self._inner.bcast(obj, root=root)

    def allgather(self, obj: Any) -> list[Any]:
        self._fingerprint("allgather", obj)
        return self._inner.allgather(obj)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._fingerprint("gather", obj)
        return self._inner.gather(obj, root=root)

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        self._fingerprint("scatter", objs)
        return self._inner.scatter(objs, root=root)

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        self._fingerprint("alltoall", objs)
        return self._inner.alltoall(objs)

    # the reduction collectives are re-derived here (instead of letting
    # the base class lower them onto gather/allgather) so the fingerprint
    # carries the op the caller actually wrote
    def reduce(self, obj: Any, op: Callable[[Any, Any], Any],
               root: int = 0) -> Any:
        self._fingerprint("reduce", obj)
        return self._inner.reduce(obj, op, root=root)

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any]) -> Any:
        self._fingerprint("allreduce", obj)
        return self._inner.allreduce(obj, op)

    def exscan(self, value: int) -> int:
        self._fingerprint("exscan", value)
        return self._inner.exscan(value)

    # -- sub-communicators -----------------------------------------------------

    def split(self, color: int, key: int | None = None) -> "SanitizedComm":
        if key is None:
            key = self.rank
        call_idx = self._nsplit
        self._nsplit += 1
        fps = self._fingerprint("split", None, extra=(color, key))
        # reconstruct the child's membership from the fingerprints (the
        # ordering rule of CommBackend.split), so p2p
        # accounting and error reports keep naming *world* ranks
        pairs = [f[6] for f in fps]
        group = sorted(
            (k, r) for r, (c, k) in enumerate(pairs) if c == color
        )
        sub_world = tuple(self._world_ranks[r] for (_k, r) in group)
        sub_rank = group.index((key, self.rank))
        inner_sub = self._inner.split(color, key)
        if inner_sub.rank != sub_rank or inner_sub.size != len(group):
            raise SpmdError(
                f"comm sanitizer: split() disagreement on comm "
                f"{self._label!r}: backend placed world rank "
                f"{self._world_ranks[self.rank]} at "
                f"{inner_sub.rank}/{inner_sub.size}, fingerprints imply "
                f"{sub_rank}/{len(group)}"
            )
        label = f"{self._label}/{call_idx}.{color}"
        return SanitizedComm(inner_sub, label, sub_world, self._state)

    # -- teardown --------------------------------------------------------------

    def finalize(self) -> None:
        """Teardown audit, called on the *world* wrapper after the SPMD
        body returns cleanly: allgather the p2p counters (and, under
        ``mp``, the shared-memory audit) and raise one named
        :class:`SpmdError` if any send was never received or any segment
        was created but never unlinked."""
        state = self._state
        created: list[str] = []
        unlinked: list[str] = []
        if state.shm_mod is not None:
            created, unlinked = state.shm_mod.end_shm_audit()
        # lockstep-check the teardown itself: a rank still inside a
        # collective pairs with this fingerprint and both sides report a
        # named mismatch instead of a bare timeout
        self._fingerprint("finalize", None)
        per_rank = self._inner.allgather(
            (dict(state.sent), dict(state.recvd),
             sorted(created), sorted(unlinked))
        )

        problems: list[str] = []
        sent_to: dict[tuple[int, str, int], list] = {}
        for src, (sent, _recvd, _c, _u) in enumerate(per_rank):
            for (label, dest_world, tag), n in sent.items():
                entry = sent_to.setdefault(
                    (dest_world, label, tag), [0, []]
                )
                entry[0] += n
                entry[1].append(self._world_ranks[src])
        for (dest_world, label, tag), (total, srcs) in sorted(
                sent_to.items()):
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
                "comm sanitizer: teardown audit failed: "
                + "; ".join(problems)
                + f" (peak fleet in-flight at a collective fence: "
                  f"{state.max_inflight} message(s))"
            )


class _SanitizedBody:
    """Picklable SPMD-body wrapper (``mp`` under ``spawn`` ships the
    function by pickle, so this cannot be a closure): wrap the bare
    communicator, run the body, then run the teardown audit — only on a
    clean return, since after a failure the peers may already be gone
    and any further collective would hang."""

    def __init__(self, fn: Callable[..., Any]):
        self.fn = fn

    def __call__(self, comm: CommBackend, *args: Any) -> Any:
        shm_mod = None
        if type(comm).__module__.endswith("mpcomm"):
            from ..mpisim import mpcomm as shm_mod

            shm_mod.begin_shm_audit()
        state = _RankState(shm_mod=shm_mod)
        world = SanitizedComm(
            comm, "world", tuple(range(comm.size)), state
        )
        value = self.fn(world, *args)
        world.finalize()
        return value


def sanitize_spmd_fn(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap an SPMD body so it runs under :class:`SanitizedComm` with a
    teardown audit; used by :func:`repro.mpisim.backend.run_spmd` when
    ``comm_sanitize`` is on."""
    return _SanitizedBody(fn)
