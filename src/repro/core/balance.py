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

Edges stay where they are computed — rank 0 gathers them all anyway — and
because an :class:`~repro.align.batch.AlignmentTask` is aligned identically
wherever it runs, rebalancing cannot perturb the golden obliviousness
invariant (a tested guarantee).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..align.batch import AlignmentTask

__all__ = [
    "RebalancePlan",
    "align_and_drain",
    "decode_tasks",
    "encode_tasks",
    "estimate_batch_cells",
    "estimate_task_cells",
    "greedy_plan",
    "plan_and_ship",
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
) -> tuple[list[AlignmentTask], list[int], dict[int, object], dict]:
    """Static rebalancing of one rank's tasks (SPMD body): one allgather
    shares the cost vectors, every rank computes the identical
    :func:`greedy_plan`, and surplus tasks ship point-to-point as flat
    :func:`encode_tasks` payloads.  Returns the retained tasks and their
    costs, the pending receives of the payloads shipped *to* this rank by
    source (the align stage progresses them), and this rank's
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
    return retained, retained_costs, incoming, stats


def align_and_drain(
    tasks: Sequence[AlignmentTask],
    costs: Sequence[int],
    incoming: Mapping[int, object],
    align_fn: Callable[[list[AlignmentTask]], list],
    cost_fn: Callable[[list[AlignmentTask]], list[int]],
) -> tuple[list[tuple[AlignmentTask, object]], dict]:
    """The align stage of one rank: one batched ``align_fn`` call
    for the local (retained) Fig.-11 triangle, then the ``incoming``
    receives of :func:`plan_and_ship` — an eager ``test()`` sweep aligns
    whatever has landed, and only when nothing has does the rank block in
    ``wait()`` on the lowest pending source.  Returns the ``(task,
    result)`` pairs plus the measured throughput; ``align_seconds`` times
    *only* the engine calls, so a blocked communication wait never dilutes
    the reported cells/sec."""
    aligned: list[tuple[AlignmentTask, object]] = []
    aligned_cells = 0.0
    align_seconds = 0.0

    def run(batch: Sequence[AlignmentTask], batch_costs) -> None:
        nonlocal aligned_cells, align_seconds
        t0 = time.perf_counter()
        results = align_fn(batch)
        align_seconds += time.perf_counter() - t0
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
