"""Single-process PASTIS pipeline (Fig. 1): overlap -> align -> filter.

This is the whole algorithm with the distribution stripped away; the
distributed pipeline in :mod:`repro.core.distributed` produces exactly the
same graph (a tested invariant — the paper stresses that PASTIS's output is
"oblivious to the number of processes").
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

import numpy as np

from ..align.batch import AlignmentTask, align_batch
from ..align.stats import AlignmentResult, passes_filter
from ..bio.sequences import SequenceStore
from .config import PastisConfig
from .graph import SimilarityGraph
from .overlap import (
    CandidatePairs,
    find_candidate_pairs,
    find_candidate_pairs_semiring,
)

__all__ = [
    "pastis_pipeline",
    "align_candidates",
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
    it runs score-only.
    """
    return dict(
        mode=config.align_mode,
        k=config.k,
        scoring=config.scoring,
        gap_open=config.gap_open,
        gap_extend=config.gap_extend,
        xdrop=config.xdrop,
        traceback=config.needs_traceback,
        engine=config.align_engine,
    )


def edges_from_alignments(
    aligned: Iterable[tuple[AlignmentTask, AlignmentResult]],
    config: PastisConfig,
) -> list[tuple[int, int, float]]:
    """The tasks→edges tail both pipelines share: apply the similarity
    filter (ANI weighting only), weight the survivors, and keep the
    positive-weight ``(i, j, weight)`` edges."""
    edges: list[tuple[int, int, float]] = []
    for task, res in aligned:
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
    """One alignment task per candidate pair, in pair order (both
    pipelines' pairs→tasks step).  ``encoded`` maps a global sequence id to
    its residues: ``store.encoded``, or the exchange cache's lookup."""
    return [
        AlignmentTask(
            a=encoded(i), b=encoded(j), seeds=tuple(pairs.seeds_of(p)),
            pair=(i, j),
        )
        for p, (i, j) in enumerate(zip(pairs.ri.tolist(), pairs.rj.tolist()))
    ]


def align_candidates(
    store: SequenceStore,
    pairs: CandidatePairs,
    config: PastisConfig,
) -> tuple[list[tuple[int, int, float]], int]:
    """Align candidate pairs, apply the similarity filter, and return the
    surviving ``(i, j, weight)`` edges plus the number of alignments run."""
    tasks = tasks_from_pairs(pairs, store.encoded)
    results = align_batch(tasks, **align_kwargs(config))
    return edges_from_alignments(zip(tasks, results), config), len(tasks)


def pastis_pipeline(
    store: SequenceStore,
    config: PastisConfig | None = None,
) -> SimilarityGraph:
    """Run the full single-process pipeline on a sequence store.

    This is the library's main entry point (the distributed twin is
    :func:`repro.core.distributed.run_pastis_distributed`; both produce
    the identical graph).  ``config.kernel`` selects the overlap kernel
    and ``config.align_engine`` the alignment engine — interchangeable
    implementations with a byte-identical output contract, documented in
    ``docs/knobs.md``.

    The returned graph's ``meta`` records the variant name, per-stage wall
    times (``overlap_seconds``, ``align_seconds``), candidate/alignment
    counts, and the number of edges kept.
    """
    config = config or PastisConfig()
    t0 = time.perf_counter()
    overlap_impl = (
        find_candidate_pairs_semiring if config.kernel == "semiring"
        else find_candidate_pairs
    )
    pairs = overlap_impl(store, config)
    pairs_before_ck = pairs.npairs
    pairs = pairs.apply_ck_threshold(config.common_kmer_threshold)
    t1 = time.perf_counter()
    edges, naligned = align_candidates(store, pairs, config)
    t2 = time.perf_counter()
    graph = SimilarityGraph.from_edges(
        len(store), edges, ids=list(store.ids)
    )
    graph.meta.update(
        variant=config.variant_name,
        overlap_seconds=t1 - t0,
        align_seconds=t2 - t1,
        candidate_pairs=pairs_before_ck,
        aligned_pairs=naligned,
        edges_kept=graph.nedges,
    )
    return graph
