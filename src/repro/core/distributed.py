"""The PASTIS pipeline driver (paper Section V) — the one orchestration of
Fig. 1 at every rank count; ``nranks=1`` runs the rank body inline in the
calling process (:func:`repro.core.pipeline.pastis_pipeline`).

Every stage executed SPMD over the process-per-rank MPI-style runtime:

1. byte-balanced parallel FASTA parse (V-A);
2. cooperative prefix sums -> every rank knows the 1-D sequence ownership;
3. overlapped remote-sequence exchange posted immediately (V-C);
4. distributed ``A`` (2-D blocks over the 24^k k-mer space), distributed
   transpose, optional distributed ``S``;
5. Sparse SUMMA: ``B = A Aᵀ`` or ``(A S) Aᵀ`` as shared-k-mer counts,
   plus the symmetrization step (IV-C);
6. waitall on the exchange (the "wait" dissection component);
7. this block's triangle of ``B`` as
   :class:`~repro.core.overlap.CandidatePairs` — "moving computation to
   data" (V-D, Fig. 11), so no rank sits idle and no pair is aligned twice
   — filtered by the CK threshold on the counts, seeds joined for the
   survivors only, and one alignment task per survivor;
8. optional cross-rank alignment rebalancing (``config.align_balance``):
   every rank costs its tasks in DP cells, allgathers the costs and ships
   its surplus in one alltoall (:func:`repro.core.balance.plan_and_ship`);
9. one batched alignment of the kept and the received tasks, and the
   similarity filter.  Edges stay where they are computed and are
   gathered on rank 0.

Per-stage wall times are recorded under the component names of the paper's
dissection plots (:data:`STAGES`); the schema is identical across variants
— a stage a variant skips reports ``0.0``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..align.batch import align_batch
from ..bio.fasta import chunk_boundaries, read_fasta_chunk
from ..bio.sequences import DistributedIndex, SequenceStore, check_unique_ids
from ..kmers.encoding import kmer_space_size
from ..mpisim.backend import CommBackend, run_spmd
from ..mpisim.grid import ProcessGrid
from ..mpisim.tracing import CommTracer
from ..sparse.coo import COOMatrix, sorted_unique
from ..sparse.distmat import DistSparseMatrix
from ..sparse.semiring import COUNTING
from ..sparse.summa import summa, summa_with_panels
from .balance import estimate_batch_cells, plan_and_ship
from .config import PastisConfig, check_ranks
from .graph import SimilarityGraph
from .overlap import (
    CandidatePairs,
    block_seeds,
    build_a_triples,
    build_s_triples,
    check_s_triples,
    ck_keep_mask,
    orient_seeds,
    pairs_from_block,
    symmetrize_candidates,
)
from .pipeline import align_kwargs, edges_from_alignments, tasks_from_pairs
from .semirings import (
    CK_SEED_NONE,
    MAX_SEEDS,
    substitute_as_numeric_semiring,
)
from .exchange import start_exchange

__all__ = ["pastis_rank", "run_pastis_distributed", "store_to_fasta_bytes"]

#: The stages :func:`block_pairs` runs; their sum on the slowest rank is
#: ``meta["overlap_seconds"]``.
OVERLAP_STAGES = ("form A", "tr. A", "form S", "AS", "(AS)AT", "sym.")

#: The dissection components: the keys of every rank's ``timings``.
STAGES = ("fasta", *OVERLAP_STAGES, "wait", "rebal.", "align")


@contextmanager
def _timed(timings: dict[str, float], name: str):
    """Add the wall time of the ``with`` body to ``timings[name]``."""
    t0 = time.perf_counter()
    yield
    timings[name] += time.perf_counter() - t0


def store_to_fasta_bytes(store: SequenceStore) -> bytes:
    """Serialise a store to FASTA bytes (the distributed pipeline's input)."""
    parts = []
    for i in range(len(store)):
        parts.append(f">{store.ids[i]}\n{store.sequence(i)}\n")
    return "".join(parts).encode("ascii")


@dataclass
class RankResult:
    """Per-rank output: locally produced edges plus stage timings.

    ``rebalance`` (populated when ``config.align_balance != "off"``)
    records this rank's pre/post DP-cell load, shipped task counts, and
    the measured align throughput (``aligned_cells`` / ``align_seconds``).
    """

    edges: list[tuple[int, int, float]]
    timings: dict[str, float]
    aligned_pairs: int
    candidate_pairs: int
    rebalance: dict | None = None


def _parse_local(comm: CommBackend, fasta_bytes: bytes) -> SequenceStore:
    """Step 1: this rank's byte-balanced share of the FASTA input."""
    start, end = chunk_boundaries(len(fasta_bytes), comm.size)[comm.rank]
    return SequenceStore.from_records(
        read_fasta_chunk(fasta_bytes, start, end)
    )


def block_pairs(
    grid: ProcessGrid,
    local_store: SequenceStore,
    n: int,
    gid0: int,
    config: PastisConfig,
    s_triples: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
    timings: dict[str, float],
) -> tuple[CandidatePairs, int]:
    """The overlap stage of one rank (steps 4, 5 and the first half of 7):
    ``A`` from the rank's sequences (global ids from ``gid0``, ``n`` in
    all); ``B = A Aᵀ``, or ``S``, ``AS``, ``(AS) Aᵀ`` and the
    symmetrization, by Sparse SUMMA, each timed under its dissection name;
    and the CK survivors of this block's Fig.-11 triangle of ``B`` with
    their seeds, plus the number of candidates before CK.

    ``B`` is a count on :data:`~repro.sparse.semiring.COUNTING`.  Seeds
    are joined after CK from the panels the ``B`` SUMMA broadcast to this
    rank anyway (:func:`~repro.core.overlap.block_seeds`): at ``s = 0``
    for this block's survivors, cut in ``(lo, hi)`` orientation; at
    ``s > 0`` for every CK-passing directed entry — the symmetrization
    may give its pair to the partner block — cut in AS-side orientation,
    then turned to ``(lo, hi)``.
    """
    comm = grid.comm
    # the int64 triples go through untouched: a rank with no sequences
    # must contribute an *int64* empty, or the alltoall concatenation would
    # promote every rank's values to float64 and silently knock the AS
    # stage off the numeric fast path
    with _timed(timings, "form A"):
        rows, kmers, pos = build_a_triples(local_store, config.k, gid0)
        a = DistSparseMatrix.distribute(
            grid, n, kmer_space_size(config.k), rows, kmers, pos
        )
    with _timed(timings, "tr. A"):
        at = a.transpose()
    row0, col0 = a.row_range[0], at.col_range[0]
    extract = partial(
        pairs_from_block, n, row_offset=row0, col_offset=col0,
        owns_diagonal=grid.row < grid.col,
        threshold=config.common_kmer_threshold,
    )
    if config.substitutes == 0:
        with _timed(timings, "(AS)AT"):
            b, left, right = summa_with_panels(a, at, COUNTING)
            blk = b.local
            return extract(blk, lambda idx, swap: block_seeds(
                left, right, blk.rows[idx], blk.cols[idx], swap
            ))
    with _timed(timings, "form S"):
        if s_triples is None:
            # once per grid: every rank learns the global vocabulary,
            # expands an interleaved share of it and keeps only the
            # substitute columns that can match Aᵀ
            vocab = sorted_unique(np.concatenate(
                comm.allgather(sorted_unique(kmers))
            ))
            s_rows, s_cols, s_dist = build_s_triples(
                vocab[comm.rank::comm.size], config.k,
                config.substitutes, config.scoring, restrict_to=vocab,
            )
        else:  # an injected S: every rank contributes a slice
            s_rows, s_cols, s_dist = (
                np.asarray(t, dtype=np.int64)[comm.rank::comm.size]
                for t in s_triples
            )
        s = DistSparseMatrix.distribute(
            grid, a.ncols, a.ncols, s_rows, s_cols, s_dist
        )
    with _timed(timings, "AS"):
        a_s = summa(a, s, substitute_as_numeric_semiring())
    with _timed(timings, "(AS)AT"):
        b, left, right = summa_with_panels(a_s, at, COUNTING)
        blk = b.local
        passing = ck_keep_mask(blk.vals, config.common_kmer_threshold)
        p_rows, p_cols = blk.rows[passing], blk.cols[passing]
        # cut in AS-side orientation, then turned to (lo, hi): every seed
        # row crosses the diagonal in the orientation pairs are built in
        seeds = orient_seeds(
            block_seeds(left, right, p_rows, p_cols,
                        np.zeros(len(p_rows), dtype=bool)),
            p_rows + row0 > p_cols + col0,
        )
    with _timed(timings, "sym."):
        # B ∪ Bᵀ: one exchange across the grid diagonal hands every rank
        # the partner block that mirrors its own (a 1-rank grid's block is
        # its own mirror) — the whole count block, and seeds only for its
        # CK-passing entries: an entry at or below the threshold never
        # wins a surviving pair
        t_blk = blk.transpose()
        m_rows, m_cols, m_counts, m_seeds = grid.swap_across_diagonal(
            (t_blk.rows, t_blk.cols, t_blk.vals, seeds)
        )
        merged, winner = symmetrize_candidates(
            blk, row0, col0,
            mirror=COOMatrix(blk.nrows, blk.ncols, m_rows, m_cols, m_counts),
            return_winner=True,
        )
        # the seeds of every directed entry, forward then mirror
        directed = np.full((len(passing) + len(m_counts), MAX_SEEDS),
                           CK_SEED_NONE)
        directed[np.concatenate((
            passing, ck_keep_mask(m_counts, config.common_kmer_threshold)
        ))] = np.concatenate((seeds, m_seeds))
        return extract(merged, lambda idx, swap: directed[winner[idx]])


def store_pairs(
    comm: CommBackend,
    store: SequenceStore,
    config: PastisConfig,
    s_triples: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> CandidatePairs:
    """SPMD body of :func:`repro.core.overlap.find_candidate_pairs`: the
    overlap stage on a 1-rank world, whose one block is the whole ``B``."""
    return block_pairs(
        ProcessGrid.create(comm), store, len(store), 0, config, s_triples,
        dict.fromkeys(STAGES, 0.0),
    )[0]


def pastis_rank(
    comm: CommBackend,
    fasta_bytes: bytes,
    config: PastisConfig,
    s_triples: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> RankResult:
    """SPMD body: one rank of the pipeline — the nine steps of the module
    docstring, one stage function each.

    ``s_triples`` optionally injects a precomputed substitute matrix ``S``
    (global k-mer ids); each rank contributes an interleaved slice and the
    redistribution routes every triple to its owner block.
    """
    timings = dict.fromkeys(STAGES, 0.0)
    grid = ProcessGrid.create(comm)

    # -- 1. parallel FASTA parse
    with _timed(timings, "fasta"):
        local_store = _parse_local(comm, fasta_bytes)

    # -- 2. cooperative prefix sums
    index = DistributedIndex.from_counts(comm.allgather(len(local_store)))
    n = index.total

    # -- 3. overlapped sequence exchange (posted now, finished after B)
    exchange = start_exchange(comm, grid, index, local_store, n)

    # -- 4, 5, 7. form A, SpGEMM(s), this block's Fig.-11 triangle, CK
    pairs, candidates = block_pairs(
        grid, local_store, n, index.rank_range(comm.rank)[0], config,
        s_triples, timings,
    )

    # -- 6. finish the exchange
    with _timed(timings, "wait"):
        cache = exchange.finish()

    # -- 7. one task per CK survivor
    tasks = tasks_from_pairs(pairs, cache.__getitem__)

    # -- 8. cross-rank alignment rebalancing: ragged triangles make the
    # align stage run at the speed of the unluckiest rank, so "greedy"
    # levels the DP-cell loads along one static plan
    cost_fn = partial(
        estimate_batch_cells, mode=config.align_mode, k=config.k,
        xdrop=config.xdrop, gap_extend=config.gap_extend,
    )
    rebalance = None
    if config.align_balance != "off":
        with _timed(timings, "rebal."):
            tasks, rebalance = plan_and_ship(comm, tasks, cost_fn(tasks))

    # -- 9. alignment + filter: the kept and the received tasks, one batch
    with _timed(timings, "align"):
        t0 = time.perf_counter()
        results = align_batch(tasks, **align_kwargs(config))
        align_seconds = time.perf_counter() - t0
        edges = edges_from_alignments(zip(tasks, results), config)
    if rebalance is not None:
        # measured, not estimated: the engine call alone
        cells = float(sum(cost_fn(tasks)))
        rebalance.update(
            aligned_cells=cells,
            align_seconds=align_seconds,
            measured_cells_per_sec=(
                cells / align_seconds if align_seconds > 0 else 0.0
            ),
        )

    return RankResult(
        edges, timings, len(tasks), candidates, rebalance
    )


def run_pastis_distributed(
    store: SequenceStore,
    config: PastisConfig | None = None,
    nranks: int = 4,
    tracer: CommTracer | None = None,
    s_triples: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> SimilarityGraph:
    """The driver: run the SPMD pipeline on ``nranks`` ranks
    and assemble the global PSG.

    ``nranks`` must be a positive perfect square (paper requirement;
    anything else is a :class:`~repro.core.config.ConfigError`) and the
    store's ids distinct (:class:`~repro.bio.fasta.FastaError`), and an
    injected ``s_triples`` well formed
    (:func:`~repro.core.overlap.check_s_triples`, :class:`ValueError`) —
    all raised here, before a rank is spawned, so they read the same at
    every rank count.  The result is byte-identical at any rank count and under
    every ``config.align_balance`` mode (the golden obliviousness
    invariant).  The graph's ``meta`` has one schema at every ``nranks``:
    the variant name, candidate/alignment/edge counts,
    ``overlap_seconds`` / ``align_seconds`` (the slowest rank's
    :data:`OVERLAP_STAGES` sum and ``align`` stage), per-rank timing
    dissections — the data behind the Fig. 15/16-style
    component plots — and (when rebalancing ran)
    ``meta["align_balance"]``: per-rank pre/post DP-cell loads and
    measured align throughput (``aligned_cells`` / ``align_seconds`` /
    ``measured_cells_per_sec``).  ``s_triples`` optionally substitutes a
    precomputed ``S`` matrix.
    """
    config = config or PastisConfig()
    check_ranks(nranks)
    check_unique_ids(store.ids)
    if s_triples is not None:
        check_s_triples(s_triples, config.k)
    fasta = store_to_fasta_bytes(store)
    results: list[RankResult] = run_spmd(
        nranks, pastis_rank, fasta, config, s_triples, tracer=tracer
    )
    graph = SimilarityGraph.from_edges(
        len(store), [e for r in results for e in r.edges],
        ids=list(store.ids),
    )
    balance_meta: dict = {"mode": config.align_balance}
    if all(r.rebalance is not None for r in results):

        def per_rank(key: str) -> list:
            return [r.rebalance[key] for r in results]

        balance_meta.update(
            pre_cells=per_rank("pre_cells"),
            post_cells=per_rank("post_cells"),
            shipped_tasks=sum(per_rank("shipped_out")),
            # measured (not estimated) per-rank alignment throughput
            aligned_cells=per_rank("aligned_cells"),
            align_seconds=per_rank("align_seconds"),
            measured_cells_per_sec=per_rank("measured_cells_per_sec"),
        )
    rank_timings = [r.timings for r in results]
    graph.meta.update(
        variant=config.variant_name,
        nranks=nranks,
        rank_timings=rank_timings,
        # the next collective waits for the slowest rank of each stage
        overlap_seconds=max(
            sum(t[name] for name in OVERLAP_STAGES) for t in rank_timings
        ),
        align_seconds=max(t["align"] for t in rank_timings),
        aligned_pairs=sum(r.aligned_pairs for r in results),
        candidate_pairs=sum(r.candidate_pairs for r in results),
        edges_kept=graph.nedges,
        align_balance=balance_meta,
    )
    if tracer is not None:
        # traced runs also persist the α–β comm calibration (memoised per
        # process) and the projected comm seconds of the traced volume
        from ..perfmodel.calibrate import calibrate_comm_model  # no cycle

        comm_model = calibrate_comm_model()
        graph.meta["commcost"] = {
            "calibration": comm_model.as_dict(),
            "traced_messages": tracer.total_messages,
            "traced_bytes": tracer.total_bytes,
            "predicted_comm_seconds": comm_model.seconds(
                tracer.total_messages, tracer.total_bytes
            ),
        }
    return graph
