"""Cross-rank alignment rebalancing (the ragged-triangle fix).

The Fig.-11 "moving computation to data" extraction leaves every rank with
whatever upper-triangle pairs landed in its block of ``B``; the dissection
plots (Fig. 15/16) show alignment dominating end-to-end time, so ragged
triangles make the align stage run at the speed of the unluckiest rank.
This module levels the triangles *deterministically*:

1. :func:`estimate_task_cells` costs one :class:`~repro.align.batch.\
   AlignmentTask` in DP cells — the unit of alignment work — from the
   sequence lengths, the seed count, and (for x-drop) the corridor width;
2. every rank allgathers its local cost vector and runs the *identical*
   :func:`greedy_plan` (largest-task-first bin-pack with a
   keep-at-home tie-break), so no negotiation round-trip is needed;
3. :func:`encode_tasks` / :func:`decode_tasks` serialise the shipped tasks
   (encoded residues + seeds + global pair ids) into flat NumPy payloads so
   the traced wire size is honest and the destination rank needs nothing
   beyond the message itself.

:func:`plan_and_ship` is steps 2-3 as one SPMD stage, and
:func:`align_and_drain` the align stage that consumes what it shipped.

The static plan runs at the speed of its estimate: when measured
throughput diverges from the a-priori DP-cell cost (long corridors that
die early, a slow node, SW pairs that retire fast), the align stage still
waits on the unluckiest rank.  :func:`steal_align` closes that gap with
*dynamic* work stealing on top of the same codec: each rank aligns its
plan in cost-sorted chunks, folds its measured cells/sec and
remaining-cell count into a lightweight point-to-point progress exchange,
and when :func:`steal_decision` projects a rank finishing later than the
fleet median by a configurable factor, its largest pending tasks ship to
the idle-soonest rank over the same flat-payload path.

Edges stay where they are computed — rank 0 gathers them all anyway — and
because an :class:`~repro.align.batch.AlignmentTask` is aligned identically
wherever it runs, rebalancing (static or stolen) cannot perturb the golden
obliviousness invariant (a tested guarantee).
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..align.batch import AlignmentTask

__all__ = [
    "PROGRESS_TAG",
    "STEAL_TAG",
    "RebalancePlan",
    "align_and_drain",
    "decode_tasks",
    "encode_tasks",
    "estimate_batch_cells",
    "estimate_task_cells",
    "greedy_plan",
    "plan_and_ship",
    "steal_align",
    "steal_decision",
    "xdrop_corridor_width",
]

#: Seeds actually consumed per task (``align_pair`` extends from at most
#: two seeds — Section IV-E).
_SEEDS_USED = 2


def xdrop_corridor_width(xdrop: int, gap_extend: int) -> int:
    """Upper bound on the number of live anti-diagonal offsets of an x-drop
    extension: every step off the best diagonal pays at least
    ``gap_extend``, so a cell more than ``xdrop / gap_extend`` diagonals
    away is already dropped."""
    return 2 * (int(xdrop) // max(int(gap_extend), 1)) + 1


def estimate_task_cells(
    task: AlignmentTask,
    mode: str,
    k: int,
    xdrop: int,
    gap_extend: int = 1,
) -> int:
    """Deterministic DP-cell estimate of one alignment task.

    * ``"sw"`` fills the full ``(la + 1) x (lb + 1)`` Gotoh matrix;
    * ``"xd"`` extends from each stored seed (at most two) inside the
      x-drop corridor, so each seed costs at most ``rows x corridor``
      cells; a pair too short to hold a ``k``-mer is skipped by the
      engine and costs a nominal single cell.

    This is a *planning* estimate only — it steers where a task runs and
    never what it computes, so a loose bound cannot affect results.
    """
    la, lb = len(task.a), len(task.b)
    if mode == "sw":
        return (la + 1) * (lb + 1)
    if la < k or lb < k:
        return 1
    width = min(xdrop_corridor_width(xdrop, gap_extend), lb + 1)
    nseeds = min(len(task.seeds), _SEEDS_USED) or 1
    return nseeds * (la + 1) * width


def estimate_batch_cells(
    tasks: Sequence[AlignmentTask],
    mode: str,
    k: int,
    xdrop: int,
    gap_extend: int = 1,
) -> list[int]:
    """Cost vector of a rank's local triangle (one int per task)."""
    return [
        estimate_task_cells(t, mode, k, xdrop, gap_extend) for t in tasks
    ]


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RebalancePlan:
    """The grid-wide assignment every rank computes identically.

    ``dest[r][i]`` is the rank assigned to align task ``i`` of source rank
    ``r`` (in that rank's local extraction order).  ``pre_cells`` /
    ``post_cells`` are the per-rank DP-cell loads before and after — the
    numbers behind the ``graph.meta`` dissection and the imbalance
    benchmark.
    """

    dest: tuple[np.ndarray, ...]
    pre_cells: np.ndarray
    post_cells: np.ndarray

    @property
    def nranks(self) -> int:
        return len(self.dest)

    def moved_tasks(self) -> int:
        """Number of tasks shipped off their source rank."""
        return sum(
            int(np.count_nonzero(d != r)) for r, d in enumerate(self.dest)
        )

    def flows(self) -> list[tuple[int, int, int]]:
        """Non-empty shipping flows ``(src, dst, ntasks)`` in deterministic
        ``(src, dst)`` order — both endpoints derive their posts from this
        one list, so no negotiation is needed."""
        out: list[tuple[int, int, int]] = []
        for src, d in enumerate(self.dest):
            if len(d) == 0:
                continue
            moved = d[d != src]
            if len(moved) == 0:
                continue
            dsts, counts = np.unique(moved, return_counts=True)
            out.extend(
                (src, int(t), int(c)) for t, c in zip(dsts, counts)
            )
        return out


def greedy_plan(cost_vectors: Sequence[Sequence[int]]) -> RebalancePlan:
    """Greedy largest-task-first bin-pack of every rank's cost vector,
    locality-first: only genuine surplus ever ships.

    Three deterministic passes over the tasks in descending cost (ties
    broken by ``(source rank, local index)`` so every rank enumerates
    identically):

    1. a plain LPT pack — ignoring task homes — fixes the *budget*: the
       max per-rank load greedy packing can achieve for these costs;
    2. every rank keeps its own tasks, largest first, while they fit the
       budget — an already-balanced grid therefore ships nothing — and
       the overflow spills into a surplus pool;
    3. the pool is LPT-packed onto the least-loaded ranks (lowest rank on
       ties, the source rank winning ties against itself).

    All inputs are integers and every scan order is total, hence the plan
    is identical on every rank that feeds it identical cost vectors — the
    property the SPMD stage relies on (and tests pin down).
    """
    nranks = len(cost_vectors)
    costs = [np.asarray(v, dtype=np.int64) for v in cost_vectors]
    dest = [np.full(len(v), r, dtype=np.int64)
            for r, v in enumerate(costs)]
    pre = np.array([int(v.sum()) for v in costs], dtype=np.int64)
    entries = sorted(
        (-int(c), src, idx)
        for src, v in enumerate(costs)
        for idx, c in enumerate(v)
    )
    # pass 1: the achievable budget
    budget_loads = np.zeros(nranks, dtype=np.int64)
    for neg_cost, _src, _idx in entries:
        budget_loads[int(np.argmin(budget_loads))] -= neg_cost
    budget = int(budget_loads.max())
    # pass 2: locality-first fill up to the budget
    loads = np.zeros(nranks, dtype=np.int64)
    pool: list[tuple[int, int, int]] = []
    for neg_cost, src, idx in entries:
        if loads[src] - neg_cost <= budget:
            loads[src] -= neg_cost
        else:
            pool.append((neg_cost, src, idx))
    # pass 3: pack the surplus onto the least-loaded ranks
    for neg_cost, src, idx in pool:
        target = int(np.argmin(loads))
        if loads[src] == loads[target]:
            target = src
        dest[src][idx] = target
        loads[target] -= neg_cost
    return RebalancePlan(
        dest=tuple(dest), pre_cells=pre, post_cells=loads
    )


# ---------------------------------------------------------------------------
# the task codec
# ---------------------------------------------------------------------------


def encode_tasks(tasks: Sequence[AlignmentTask]) -> tuple[np.ndarray, ...]:
    """Serialise tasks into five flat arrays: global pair ids ``(n, 2)``,
    per-task ``(len_a, len_b, nseeds)``, the seed list ``(total_seeds, 2)``,
    and one concatenated int8 residue buffer (``a`` then ``b`` per task).

    A tuple of plain ndarrays is exactly what
    :func:`~repro.mpisim.tracing.payload_bytes` sizes by buffer, so the
    traced shipped volume reflects the real wire cost.
    """
    n = len(tasks)
    pairs = np.empty((n, 2), dtype=np.int64)
    shape = np.empty((n, 3), dtype=np.int64)
    seeds: list[tuple[int, int]] = []
    bufs: list[np.ndarray] = []
    for t, task in enumerate(tasks):
        pairs[t] = task.pair
        shape[t] = (len(task.a), len(task.b), len(task.seeds))
        seeds.extend(task.seeds)
        bufs.append(np.asarray(task.a, dtype=np.int8))
        bufs.append(np.asarray(task.b, dtype=np.int8))
    seed_arr = (
        np.asarray(seeds, dtype=np.int64)
        if seeds else np.empty((0, 2), dtype=np.int64)
    )
    buf = (
        np.concatenate(bufs) if bufs else np.empty(0, dtype=np.int8)
    )
    return pairs, shape, seed_arr, buf


def decode_tasks(payload: tuple[np.ndarray, ...]) -> list[AlignmentTask]:
    """Inverse of :func:`encode_tasks`, in the original task order."""
    pairs, shape, seed_arr, buf = payload
    tasks: list[AlignmentTask] = []
    off = 0
    soff = 0
    for t in range(len(pairs)):
        la, lb, ns = (int(x) for x in shape[t])
        a = buf[off : off + la]
        b = buf[off + la : off + la + lb]
        off += la + lb
        seeds = tuple(
            (int(si), int(sj)) for si, sj in seed_arr[soff : soff + ns]
        )
        soff += ns
        tasks.append(
            AlignmentTask(
                a=a, b=b, seeds=seeds,
                pair=(int(pairs[t, 0]), int(pairs[t, 1])),
            )
        )
    return tasks


# ---------------------------------------------------------------------------
# the static plan, executed
# ---------------------------------------------------------------------------

#: message tag of the static plan's shipped-task payloads (distinct from
#: the sequence exchange so in-flight traffic can never cross-match)
_TAG_REBAL = 77


def plan_and_ship(
    comm,
    tasks: Sequence[AlignmentTask],
    costs: Sequence[int],
) -> tuple[list[AlignmentTask], list[int], dict[int, object],
           RebalancePlan, dict]:
    """Static rebalancing of one rank's tasks (SPMD body): one allgather
    shares the cost vectors, every rank computes the identical
    :func:`greedy_plan`, and surplus tasks ship point-to-point as flat
    :func:`encode_tasks` payloads.  Returns the retained tasks and their
    costs, the pending receives of the payloads shipped *to* this rank by
    source (the align stage progresses them), the plan, and this rank's
    ``pre_cells`` / ``post_cells`` / ``shipped_out`` / ``shipped_in``."""
    me = comm.rank
    plan = greedy_plan(comm.allgather(costs))
    dest = plan.dest[me]
    retained = [t for t, d in zip(tasks, dest) if d == me]
    incoming: dict[int, object] = {}
    shipped_in = 0
    for src, dst, ntasks in plan.flows():
        if src == me:
            comm.isend(
                encode_tasks([t for t, d in zip(tasks, dest) if d == dst]),
                dest=dst, tag=_TAG_REBAL, kind="rebal",
            )
        elif dst == me:
            incoming[src] = comm.irecv(src, tag=_TAG_REBAL)
            shipped_in += ntasks
    stats = {
        "pre_cells": int(plan.pre_cells[me]),
        "post_cells": int(plan.post_cells[me]),
        "shipped_out": len(tasks) - len(retained),
        "shipped_in": shipped_in,
    }
    retained_costs = [int(c) for c, d in zip(costs, dest) if d == me]
    return retained, retained_costs, incoming, plan, stats


def align_and_drain(
    tasks: Sequence[AlignmentTask],
    costs: Sequence[int],
    incoming: Mapping[int, object],
    align_fn: Callable[[list[AlignmentTask]], list],
    cost_fn: Callable[[list[AlignmentTask]], list[int]],
) -> tuple[list[tuple[AlignmentTask, object]], dict]:
    """The static align stage of one rank: one batched ``align_fn`` call
    for the local (retained) Fig.-11 triangle, then the ``incoming``
    receives of :func:`plan_and_ship` — an eager ``test()`` sweep aligns
    whatever has landed, and only when nothing has does the rank block in
    ``wait()`` on the lowest pending source.  Returns the ``(task,
    result)`` pairs plus the measured throughput; ``align_seconds`` times
    *only* the engine calls — blocked communication waits would corrupt the
    cells/sec numbers the calibration fit is reproduced from (as in
    :func:`steal_align`)."""
    aligned: list[tuple[AlignmentTask, object]] = []
    aligned_cells = 0.0
    align_seconds = 0.0

    def run(batch: Sequence[AlignmentTask], batch_costs) -> None:
        nonlocal aligned_cells, align_seconds
        # spmd: nondeterminism-ok (measured throughput: reported only)
        t0 = time.perf_counter()
        results = align_fn(batch)
        align_seconds += time.perf_counter() - t0  # spmd: nondeterminism-ok
        aligned.extend(zip(batch, results))
        aligned_cells += float(sum(batch_costs))

    run(tasks, costs)
    pending = dict(incoming)
    while pending:
        landed = [src for src in sorted(pending) if pending[src].test()[0]]
        for src in landed or [min(pending)]:
            # a completed request latches its payload: wait() returns it
            shipped = decode_tasks(pending.pop(src).wait())
            run(shipped, cost_fn(shipped))
    rate = aligned_cells / align_seconds if align_seconds > 0 else 0.0
    return aligned, {
        "aligned_cells": aligned_cells,
        "align_seconds": align_seconds,
        "measured_cells_per_sec": rate,
    }


# ---------------------------------------------------------------------------
# dynamic work stealing
# ---------------------------------------------------------------------------

#: message tag of stolen-task payloads and per-rank done markers (distinct
#: from the static plan's ``rebal`` tag and the sequence exchange)
STEAL_TAG = 78
#: message tag of the lightweight progress posts (remaining cells + rate)
PROGRESS_TAG = 79

#: relative tolerance below which a progress change is not worth a post
_POST_EPS = 0.01


def steal_decision(
    remaining_cells: Sequence[float],
    rates: Sequence[float],
    rank: int,
    factor: float,
    min_cells: float = 0.0,
) -> tuple[int, float] | None:
    """Should ``rank`` shed work right now, and to whom?

    ``remaining_cells[r]`` / ``rates[r]`` are the last-known remaining
    DP-cell count and measured cells/sec of every rank (self included);
    each rank's projected finish time is their ratio.  ``rank`` sheds when
    its own projection exceeds ``factor`` times the fleet median — the
    hysteresis that keeps a healthy fleet quiet — and the receiver is the
    idle-soonest rank (minimum projected finish, lowest rank on ties).

    Returns ``(dest, target_cells)`` where ``target_cells`` levels the two
    ranks' projections (half the gap, converted at the victim's measured
    rate), or ``None`` when no steal is warranted or the transferable
    surplus is below ``min_cells`` (end-game thrash guard).  An infinite
    ``factor`` disables stealing outright (chunked execution only — the
    straggler benchmark's static baseline).
    """
    if not np.isfinite(factor):
        return None
    rem = np.asarray(remaining_cells, dtype=np.float64)
    rts = np.maximum(np.asarray(rates, dtype=np.float64), 1e-12)
    proj = rem / rts
    mine = float(proj[rank])
    if mine <= 0.0 or mine <= factor * float(np.median(proj)):
        return None
    dest = int(np.argmin(proj))
    if dest == rank:
        return None
    target = (mine - float(proj[dest])) / 2.0 * float(rts[rank])
    if target < min_cells:
        return None
    return dest, target


@dataclass
class _QueueItem:
    """One pending task in the steal scheduler's cost-sorted queue."""

    cost: int
    seq: int        # arrival order, the deterministic tie-break
    eligible: bool  # stolen tasks never re-ship (bounds task hops)
    task: AlignmentTask


def steal_align(
    comm,
    tasks: Sequence[AlignmentTask],
    costs: Sequence[int],
    align_fn: Callable[[list[AlignmentTask]], list],
    cost_fn: Callable[[list[AlignmentTask]], list[int]],
    initial_remaining: Sequence[float],
    rate0: float,
    factor: float = 1.5,
    nchunks: int = 8,
    static_incoming: Mapping[int, object] | None = None,
) -> tuple[list[tuple[AlignmentTask, object]], dict]:
    """Dynamically rebalanced alignment of one rank's plan (SPMD body).

    Runs on every rank of ``comm`` simultaneously.  ``tasks`` / ``costs``
    are the rank's statically planned share (eligible for stealing);
    ``initial_remaining`` is the plan's per-rank post-cell vector, so every
    rank starts from the same deterministic progress table with no extra
    collective; ``rate0`` (calibrated cells/sec) seeds every projection
    until measured chunks land.  ``static_incoming`` maps source ranks to
    the pending :class:`~repro.mpisim.comm.Request`\\ s of the static
    plan's shipped-task payloads; they are progressed with non-blocking
    polls between chunks, exactly like the greedy stage does.

    The loop per rank:

    1. drain static-plan receives, progress posts, and the steal channel
       (stolen tasks join the queue ineligible; done markers accumulate);
    2. if the local projection exceeds the fleet median by ``factor``
       (:func:`steal_decision`), ship the largest pending *eligible* tasks
       — up to half the projection gap, always keeping one chunk at home —
       to the idle-soonest rank as one flat :func:`encode_tasks` payload;
    3. align the cheapest pending chunk (~1/``nchunks`` of the initial
       load), fold the measured cells/sec into the running rate, and post
       progress to all peers;
    4. once the rank can never ship again (its eligible queue is empty and
       every static payload has landed), it broadcasts one ``done`` marker;
       a drained rank blocks on the steal channel until every peer's
       marker arrived — per-channel FIFO guarantees any stolen tasks from
       a peer are consumed before that peer's marker, so no task is ever
       stranded;
    5. after the loop each rank posts one final ``fin`` on the progress
       channel and consumes peers' messages until every fin arrived:
       progress posts trail the done markers (peers keep announcing while
       aligning their own tail), and the fin is the FIFO high-water mark
       that lets every rank drain them deterministically — the comm
       sanitizer audits that no send is left unreceived at teardown.

    Returns the ``(task, result)`` pairs aligned on this rank (stolen work
    included — edges stay where they are computed) plus a stats dict with
    stolen task/cell counts and the measured throughput
    (``aligned_cells`` / ``align_seconds``), the numbers behind
    ``graph.meta["align_balance"]`` and the straggler benchmark.
    """
    size, me = comm.size, comm.rank
    peers = [r for r in range(size) if r != me]
    remaining = np.asarray(initial_remaining, dtype=np.float64).copy()
    if len(remaining) != size:
        raise ValueError("initial_remaining must have one entry per rank")
    rates = np.full(size, max(float(rate0), 1e-9), dtype=np.float64)
    pending = dict(static_incoming or {})

    queue: list[_QueueItem] = sorted(
        (_QueueItem(int(cost), i, True, task)
         for i, (task, cost) in enumerate(zip(tasks, costs))),
        key=lambda e: (e.cost, e.seq),
    )
    seq = len(queue)
    # cells of static-plan payloads still in flight toward this rank
    inflight = float(remaining[me]) - float(sum(costs))
    chunk_target = max(float(remaining[me]) / max(nchunks, 1), 1.0)

    aligned: list[tuple[AlignmentTask, object]] = []
    done_peers: set[int] = set()
    fin_peers: set[int] = set()
    sent_done = False
    last_posted = float("nan")
    cells_done = 0.0
    align_seconds = 0.0
    stats = {"stolen_out": 0, "stolen_in": 0, "stolen_cells_out": 0.0,
             "chunks": 0}

    def enqueue(new_tasks: list[AlignmentTask], eligible: bool) -> float:
        nonlocal seq
        new_costs = cost_fn(new_tasks)
        for task, cost in zip(new_tasks, new_costs):
            insort(queue, _QueueItem(int(cost), seq, eligible, task),
                   key=lambda e: (e.cost, e.seq))
            seq += 1
        return float(sum(new_costs))

    def handle_steal_msg(msg) -> None:
        if msg[0] == "done":
            done_peers.add(msg[1])
        else:  # ("tasks", src, payload)
            stolen = decode_tasks(msg[2])
            remaining[me] += enqueue(stolen, eligible=False)
            stats["stolen_in"] += len(stolen)
            # announce the inflated load immediately: concurrent
            # stragglers working from stale views would otherwise keep
            # herding onto the same (formerly idle-soonest) rank, and
            # stolen tasks can never re-ship to correct the pile-up
            post_progress(force=True)

    def post_progress(force: bool = False) -> None:
        nonlocal last_posted
        rem_me = float(remaining[me])
        if not force and last_posted == last_posted:  # not NaN
            if abs(rem_me - last_posted) <= _POST_EPS * chunk_target:
                return
        last_posted = rem_me
        for p in peers:
            comm.send(("prog", me, rem_me, float(rates[me])), dest=p,
                      tag=PROGRESS_TAG, kind="steal")

    while True:
        # -- 1. drain every channel ------------------------------------
        for src in sorted(pending):
            ok, payload = pending[src].test()
            if ok:
                del pending[src]
                inflight -= enqueue(decode_tasks(payload), eligible=True)
        while True:
            ok, msg = comm.tryrecv(tag=PROGRESS_TAG)
            if not ok:
                break
            if msg[0] == "fin":
                fin_peers.add(msg[1])
                continue
            _, src, rem, rate = msg
            remaining[src] = rem
            rates[src] = max(rate, 1e-9)
        while True:
            ok, msg = comm.tryrecv(tag=STEAL_TAG)
            if not ok:
                break
            handle_steal_msg(msg)
        qcells = float(sum(e.cost for e in queue))
        remaining[me] = qcells + max(inflight, 0.0)

        # -- 2. done marker: this rank can never ship tasks again ------
        if (not sent_done and not pending
                and not any(e.eligible for e in queue)):
            for p in peers:
                comm.send(("done", me), dest=p, tag=STEAL_TAG, kind="steal")
            sent_done = True

        # -- 3. shed work if we project as the straggler ---------------
        if not sent_done and qcells > chunk_target:
            decision = steal_decision(
                remaining, rates, me, factor, min_cells=chunk_target
            )
            if decision is not None:
                dest, target = decision
                budget = min(target, qcells - chunk_target)
                picked: list[_QueueItem] = []
                picked_cells = 0.0
                for item in reversed(queue):  # largest first
                    if not item.eligible:
                        continue
                    if picked_cells + item.cost <= budget:
                        picked.append(item)
                        picked_cells += item.cost
                if picked:
                    chosen = {id(e) for e in picked}
                    queue = [e for e in queue if id(e) not in chosen]
                    comm.send(
                        ("tasks", me,
                         encode_tasks([e.task for e in picked])),
                        dest=dest, tag=STEAL_TAG, kind="steal",
                    )
                    stats["stolen_out"] += len(picked)
                    stats["stolen_cells_out"] += picked_cells
                    remaining[me] -= picked_cells
                    remaining[dest] += picked_cells
                    post_progress()

        # -- 4. align the cheapest chunk, or wait for more work --------
        if queue:
            chunk: list[_QueueItem] = []
            chunk_cells = 0.0
            while queue and (not chunk or chunk_cells < chunk_target):
                item = queue.pop(0)
                chunk.append(item)
                chunk_cells += item.cost
            # spmd: nondeterminism-ok (measured chunk rate: feeds the
            # re-plan only through explicit progress messages, never a
            # locally computed plan)
            t0 = time.perf_counter()
            results = align_fn([e.task for e in chunk])
            dt = time.perf_counter() - t0  # spmd: nondeterminism-ok
            aligned.extend(
                (e.task, r) for e, r in zip(chunk, results)
            )
            cells_done += chunk_cells
            align_seconds += dt
            stats["chunks"] += 1
            rates[me] = cells_done / max(align_seconds, 1e-9)
            remaining[me] = max(remaining[me] - chunk_cells, 0.0)
            post_progress(force=stats["chunks"] == 1)
            continue
        if pending:
            src = min(pending)
            inflight -= enqueue(
                decode_tasks(pending.pop(src).wait()), eligible=True
            )
            continue
        if len(done_peers) < len(peers):
            handle_steal_msg(comm.recv(tag=STEAL_TAG))
            continue
        break

    # -- 5. drain the progress channel -----------------------------------
    # a done marker only promises "no more task shipments": peers keep
    # posting progress while they align their own (ineligible) tail, so
    # messages can still be in flight when the loop above ends.  Each
    # rank posts one final ``fin`` after its loop, and per-channel FIFO
    # makes it a high-water mark — once every peer's fin is in, every
    # progress message ever sent to this rank has been consumed.
    for p in peers:
        comm.send(("fin", me), dest=p, tag=PROGRESS_TAG, kind="steal")
    while len(fin_peers) < len(peers):
        msg = comm.recv(tag=PROGRESS_TAG)
        if msg[0] == "fin":
            fin_peers.add(msg[1])

    stats["aligned_cells"] = cells_done
    stats["align_seconds"] = align_seconds
    stats["measured_cells_per_sec"] = (
        cells_done / align_seconds if align_seconds > 0 else 0.0
    )
    return aligned, stats
