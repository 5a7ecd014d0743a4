"""Cross-rank alignment rebalancing (the ragged-triangle fix).

The Fig.-11 "moving computation to data" extraction leaves every rank with
whatever upper-triangle pairs landed in its block of ``B``; the dissection
plots (Fig. 15/16) show alignment dominating end-to-end time, so ragged
triangles make the align stage run at the speed of the unluckiest rank.
This module levels the triangles *deterministically*:

1. :func:`estimate_task_cells` costs one :class:`~repro.align.batch.\
   AlignmentTask` in DP cells — the unit of alignment work — from the
   sequence lengths, the seed count, and (for x-drop) the corridor width;
2. every rank allgathers its local cost vector and runs
   :func:`greedy_plan` (largest-task-first bin-pack with a keep-at-home
   tie-break);
3. :func:`encode_tasks` / :func:`decode_tasks` serialise the shipped tasks
   (encoded residues + seeds + global pair ids) into flat NumPy payloads so
   the traced wire size is honest and the destination rank needs nothing
   beyond the message itself.

:func:`plan_and_ship` is steps 2-3 as one SPMD stage: an allgather, then
one alltoall that ships each rank's surplus.  A receiver needs no plan —
only a task's source reads it — so every task is aligned exactly once
even if the ranks' plans differed.

Edges stay where they are computed — rank 0 gathers them all anyway — and
because an :class:`~repro.align.batch.AlignmentTask` is aligned identically
wherever it runs, rebalancing cannot perturb the golden obliviousness
invariant (a tested guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..align.batch import AlignmentTask

__all__ = [
    "RebalancePlan",
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
    is identical on every rank that feeds it identical cost vectors, and
    the loads it predicts are the loads the ranks align.
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
# the plan, executed
# ---------------------------------------------------------------------------


def plan_and_ship(
    comm,
    tasks: Sequence[AlignmentTask],
    costs: Sequence[int],
) -> tuple[list[AlignmentTask], dict]:
    """Static rebalancing of one rank's tasks (SPMD body), two
    collectives: one allgather shares the cost vectors, every rank
    computes :func:`greedy_plan`, and one alltoall carries to every other
    rank the :func:`encode_tasks` payload of the tasks this rank's plan
    sends there.

    Only a task's source reads the plan, so every task is aligned exactly
    once whatever plan each rank computed: a plan that differs across
    ranks costs balance, never a pair.  Returns the tasks to align here
    (the kept ones, then the received ones by source rank) and this
    rank's ``pre_cells`` / ``post_cells`` / ``shipped_out`` /
    ``shipped_in``."""
    me = comm.rank
    plan = greedy_plan(comm.allgather(costs))
    by_dest: list[list[AlignmentTask]] = [[] for _ in range(comm.size)]
    for task, d in zip(tasks, plan.dest[me]):
        by_dest[d].append(task)
    kept = by_dest[me]
    outgoing = [None if r == me else encode_tasks(batch)
                for r, batch in enumerate(by_dest)]
    received = [
        task
        for src, payload in enumerate(comm.alltoall(outgoing))
        if src != me
        for task in decode_tasks(payload)
    ]
    return kept + received, {
        "pre_cells": int(plan.pre_cells[me]),
        "post_cells": int(plan.post_cells[me]),
        "shipped_out": len(tasks) - len(kept),
        "shipped_in": len(received),
    }
