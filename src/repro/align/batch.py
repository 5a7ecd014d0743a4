"""Batch alignment driver.

PASTIS prepares batches of pairwise alignments for SeqAn and lets its
inter-sequence AVX2 vectorization work through them (Section V).  Each
alignment is independent, so this driver collects ``(pair, seeds)`` tasks
and dispatches the whole batch to one of two engines:

* ``engine="batched"`` (default) — the inter-pair wavefront engine of
  :mod:`repro.align.engine`: every DP row advances in all live lanes at
  once, mirroring the paper's SeqAn batching;
* ``engine="python"`` — the per-pair reference path, the always-correct
  oracle the batched engine is cross-validated against.

Both engines produce byte-identical results (a tested invariant: the
``align_engine`` knob moves work, never results).

For XD mode PASTIS stores up to two shared seeds per pair and aligns from
each of them, keeping the best-scoring result (Section IV-E); SW ignores the
seed and aligns the full pair once.  A pair whose sequences cannot hold a
whole ``k``-mer has no legal seed placement and is skipped with an explicit
empty result instead of faulting the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..bio.scoring import BLOSUM62, ScoringMatrix
from .smith_waterman import smith_waterman
from .stats import AlignmentResult
from .xdrop import xdrop_align

__all__ = ["AlignmentTask", "align_pair", "align_batch"]


@dataclass(frozen=True)
class AlignmentTask:
    """One candidate pair: encoded sequences plus up to two seed positions
    ``(pos_in_a, pos_in_b)`` discovered by the overlap stage."""

    a: np.ndarray
    b: np.ndarray
    seeds: tuple[tuple[int, int], ...]
    pair: tuple[int, int] = (-1, -1)  # (global id a, global id b)


def align_pair(
    task: AlignmentTask,
    mode: str,
    k: int,
    scoring: ScoringMatrix = BLOSUM62,
    gap_open: int = 11,
    gap_extend: int = 1,
    xdrop: int = 49,
    traceback: bool = True,
) -> AlignmentResult:
    """Align one candidate pair (the per-pair reference path).

    * ``mode="xd"``: seed-and-extend from each stored seed (at most two),
      keeping the best score; a pair too short to hold a ``k``-mer yields
      the empty result (no legal seed placement exists);
    * ``mode="sw"``: full Smith-Waterman, seeds ignored.
    """
    if mode == "sw":
        return smith_waterman(
            task.a, task.b, scoring, gap_open, gap_extend, traceback
        )
    if mode == "xd":
        if not task.seeds:
            raise ValueError("XD mode requires at least one seed")
        n, m = len(task.a), len(task.b)
        if n < k or m < k:
            return AlignmentResult(0, 0, 0, 0, 0, 0, 0, n, m, "xd")
        best: AlignmentResult | None = None
        for sa, sb in task.seeds[:2]:
            sa = min(max(int(sa), 0), n - k)
            sb = min(max(int(sb), 0), m - k)
            res = xdrop_align(
                task.a, task.b, sa, sb, k, xdrop, scoring, gap_open,
                gap_extend,
            )
            if best is None or res.score > best.score:
                best = res
        assert best is not None
        return best
    raise ValueError(f"unknown alignment mode {mode!r}")


def align_batch(
    tasks: Sequence[AlignmentTask],
    mode: str,
    k: int,
    scoring: ScoringMatrix = BLOSUM62,
    gap_open: int = 11,
    gap_extend: int = 1,
    xdrop: int = 49,
    traceback: bool = True,
    engine: str = "batched",
) -> list[AlignmentResult]:
    """Align a batch of tasks, preserving task order in the result list.

    ``engine`` selects the batched inter-pair wavefront engine
    (``"batched"``, the default) or the per-pair Python reference
    (``"python"``); both produce byte-identical results (a tested
    invariant — see ``docs/knobs.md``).

    ``traceback=False`` (the NS fast path) returns score-only results
    whose explicit empty span :func:`repro.align.stats.passes_filter`
    refuses to judge.
    """
    if engine not in ("batched", "python"):
        raise ValueError("engine must be 'batched' or 'python'")
    if engine == "batched":
        from .engine import align_batch_batched

        return align_batch_batched(
            tasks, mode, k, scoring, gap_open, gap_extend, xdrop, traceback
        )
    return [
        align_pair(t, mode, k, scoring, gap_open, gap_extend, xdrop, traceback)
        for t in tasks
    ]
