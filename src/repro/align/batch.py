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

Without ``traceback`` every result is score-only, in both modes.  With
``min_coverage`` the shorter-sequence coverage cut of the similarity
filter (Section IV-F) moves into the engines: a pair below it is ``None``.
The python engine computes the full result and drops it; the batched one
can skip the path statistics of a second seed that wins below the cut.
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
    min_coverage: float | None = None,
) -> AlignmentResult | None:
    """Align one candidate pair (the per-pair reference path).

    * ``mode="xd"``: seed-and-extend from each stored seed (at most two),
      keeping the best score (the first on ties); a pair too short to hold
      a ``k``-mer yields the empty result (no legal seed placement
      exists);
    * ``mode="sw"``: full Smith-Waterman, seeds ignored.

    Without ``traceback`` the result is score-only (the empty sentinel
    span).  With ``min_coverage``, a result covering less of the shorter
    sequence is ``None``; a score-only result holds no coverage, so the
    two are exclusive.
    """
    _check_min_coverage(traceback, min_coverage)
    if mode == "sw":
        res = smith_waterman(
            task.a, task.b, scoring, gap_open, gap_extend, traceback
        )
    elif mode == "xd":
        if not task.seeds:
            raise ValueError("XD mode requires at least one seed")
        n, m = len(task.a), len(task.b)
        if n < k or m < k:
            res = AlignmentResult(0, 0, 0, 0, 0, 0, 0, n, m, "xd")
        else:
            res = None
            for sa, sb in task.seeds[:2]:
                sa = min(max(int(sa), 0), n - k)
                sb = min(max(int(sb), 0), m - k)
                cand = xdrop_align(
                    task.a, task.b, sa, sb, k, xdrop, scoring, gap_open,
                    gap_extend,
                )
                if res is None or cand.score > res.score:
                    res = cand
        if not traceback:
            res = AlignmentResult(res.score, 0, 0, 0, 0, 0, 0, n, m, "xd")
    else:
        raise ValueError(f"unknown alignment mode {mode!r}")
    if min_coverage is not None and res.coverage_short < min_coverage:
        return None
    return res


def _check_min_coverage(traceback: bool, min_coverage: float | None) -> None:
    """Raise ``ValueError`` for a coverage cut on score-only results."""
    if min_coverage is not None and not traceback:
        raise ValueError("min_coverage needs traceback: a score-only "
                         "result holds no coverage")


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
    min_coverage: float | None = None,
) -> list[AlignmentResult | None]:
    """Align a batch of tasks, preserving task order in the result list.

    ``engine`` selects the batched inter-pair wavefront engine
    (``"batched"``, the default) or the per-pair Python reference
    (``"python"``); both produce byte-identical results (a tested
    invariant — see ``docs/knobs.md``).

    ``traceback=False`` (the NS fast path) returns score-only results
    whose explicit empty span :func:`repro.align.stats.passes_filter`
    refuses to judge, in both modes.  With ``min_coverage`` (traceback
    only), every pair whose result covers less than that fraction of its
    shorter sequence is ``None``: the python engine computes the result
    and drops it, the batched one may stop early.
    """
    if engine not in ("batched", "python"):
        raise ValueError("engine must be 'batched' or 'python'")
    _check_min_coverage(traceback, min_coverage)
    if engine == "batched":
        from .engine import align_batch_batched

        return align_batch_batched(
            tasks, mode, k, scoring, gap_open, gap_extend, xdrop, traceback,
            min_coverage,
        )
    return [
        align_pair(t, mode, k, scoring, gap_open, gap_extend, xdrop,
                   traceback, min_coverage)
        for t in tasks
    ]
