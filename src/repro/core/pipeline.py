"""The pairs -> tasks -> edges tail of the pipeline (Fig. 1: align, filter,
weight), and :func:`pastis_pipeline`: the one driver in
:mod:`repro.core.distributed` at a single rank.  The graph is the same at
every rank count (a tested invariant — the paper stresses that PASTIS's
output is "oblivious to the number of processes").
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from ..align.batch import AlignmentTask
from ..align.stats import AlignmentResult, passes_filter
from ..bio.sequences import SequenceStore
from .config import PastisConfig
from .graph import SimilarityGraph
from .overlap import CandidatePairs

__all__ = [
    "pastis_pipeline",
    "align_kwargs",
    "edge_weight",
    "edges_from_alignments",
    "tasks_from_pairs",
]


def edge_weight(result: AlignmentResult, config: PastisConfig) -> float:
    """ANI (identity fraction) or NS (normalized raw score) per config."""
    if config.weight == "ani":
        return result.identity
    return result.normalized_score


def align_kwargs(config: PastisConfig) -> dict:
    """The :func:`~repro.align.batch.align_batch` keyword arguments a
    configuration implies.

    A traceback is only paid for when something consumes it: the ANI
    weight and the similarity filter.  NS weighting needs the raw score
    alone (stats.py: "NS ... cheaper because no traceback is needed"), so
    it runs score-only.  Under the filter, XD mode hands the coverage cut
    to the engine, whose ``None`` for a reject lets it skip the path
    statistics of a second seed that wins below coverage.
    """
    cut = config.uses_filter and config.align_mode == "xd"
    return dict(
        mode=config.align_mode,
        k=config.k,
        scoring=config.scoring,
        gap_open=config.gap_open,
        gap_extend=config.gap_extend,
        xdrop=config.xdrop,
        traceback=config.needs_traceback,
        engine=config.align_engine,
        min_coverage=config.min_coverage if cut else None,
    )


def edges_from_alignments(
    aligned: Iterable[tuple[AlignmentTask, AlignmentResult | None]],
    config: PastisConfig,
) -> list[tuple[int, int, float]]:
    """The tasks→edges tail: skip the engine's coverage rejects (``None``),
    apply the similarity filter (ANI weighting only), weight the
    survivors, and keep the positive-weight ``(i, j, weight)`` edges."""
    edges: list[tuple[int, int, float]] = []
    for task, res in aligned:
        if res is None:
            continue
        if config.uses_filter and not passes_filter(
            res, config.min_identity, config.min_coverage
        ):
            continue
        w = edge_weight(res, config)
        if w > 0:
            edges.append((task.pair[0], task.pair[1], w))
    return edges


def tasks_from_pairs(
    pairs: CandidatePairs,
    encoded: Callable[[int], np.ndarray],
) -> list[AlignmentTask]:
    """One alignment task per candidate pair, in pair order.  ``encoded``
    maps a global sequence id to its residues: ``store.encoded``, or the
    exchange cache's lookup."""
    return [
        AlignmentTask(
            a=encoded(i), b=encoded(j), seeds=tuple(pairs.seeds_of(p)),
            pair=(i, j),
        )
        for p, (i, j) in enumerate(zip(pairs.ri.tolist(), pairs.rj.tolist()))
    ]


def pastis_pipeline(
    store: SequenceStore,
    config: PastisConfig | None = None,
) -> SimilarityGraph:
    """Run the full pipeline on a sequence store in the calling process:
    :func:`~repro.core.distributed.run_pastis_distributed` at
    ``nranks=1``, where the one rank runs inline — no thread, no fork.

    ``config.align_engine`` selects the alignment engine —
    interchangeable implementations with a byte-identical output
    contract, documented in ``docs/knobs.md``.  The returned graph's
    ``meta`` records the variant name, per-stage wall times
    (``overlap_seconds``, ``align_seconds``, ``rank_timings``),
    candidate/alignment counts, and the number of edges kept.
    """
    # deferred import: core.distributed builds on this module's tail
    from .distributed import run_pastis_distributed

    return run_pastis_distributed(store, config, nranks=1)
