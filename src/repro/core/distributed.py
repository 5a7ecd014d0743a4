"""The fully distributed PASTIS pipeline (paper Section V).

Every stage of Fig. 1 executed SPMD over the simulated MPI runtime:

1. byte-balanced parallel FASTA parse (V-A);
2. cooperative prefix sums -> every rank knows the 1-D sequence ownership;
3. overlapped remote-sequence exchange posted immediately (V-C);
4. distributed ``A`` (2-D blocks over the 24^k k-mer space), distributed
   transpose, optional distributed ``S``;
5. Sparse SUMMA with the PASTIS semirings: ``B = A Aᵀ`` or ``(A S) Aᵀ``
   plus the symmetrization step (IV-C);
6. waitall on the exchange (the "wait" dissection component);
7. per-block upper-triangle pair extraction — "moving computation to data"
   (V-D, Fig. 11) — so no rank sits idle and no pair is aligned twice;
8. optional cross-rank alignment rebalancing (``config.align_balance``):
   every rank costs its triangle in DP cells, one allgather shares the
   cost vectors, all ranks compute the identical greedy plan
   (:mod:`repro.core.balance`) and tasks ship point-to-point; shipped-task
   receives are progressed with non-blocking ``Request.test`` polls while
   the local lanes align;
9. local alignments and the similarity filter; with
   ``align_balance="steal"`` the stage additionally re-plans mid-flight:
   ranks align in cost-sorted chunks, exchange measured progress, and a
   projected straggler's largest pending tasks are stolen by the
   idle-soonest rank (:func:`repro.core.balance.steal_align`), seeded by
   a calibrated cells/sec cost model.  Edges stay where they are
   computed and are gathered on rank 0.

Per-stage wall times are recorded with the same component names as the
paper's dissection plots (fasta, form A, tr. A, form S, AS, (AS)AT, sym.,
wait, rebal., align); the schema is identical across variants — stages a
variant skips report an explicit ``0.0``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..align.batch import AlignmentTask, align_batch
from ..bio.fasta import chunk_boundaries, read_fasta_chunk, FastaRecord
from ..bio.sequences import DistributedIndex, SequenceStore
from ..kmers.encoding import kmer_space_size
from ..mpisim.backend import CommBackend, Request, run_spmd
from ..mpisim.grid import ProcessGrid
from ..mpisim.tracing import CommTracer
from ..sparse.distmat import DistSparseMatrix
from ..sparse.kernels import DELEGATED_KERNELS
from ..sparse.summa import summa
from .balance import (
    decode_tasks,
    encode_tasks,
    estimate_batch_cells,
    greedy_plan,
    steal_align,
)
from .config import PastisConfig
from .graph import SimilarityGraph
from .overlap import (
    build_a_triples,
    build_s_triples,
    ck_keep_mask,
    symmetrize_candidates,
)
from .pipeline import align_kwargs, edges_from_alignments
from .semirings import (
    CommonKmers,
    is_ck_records,
    overlap_semirings,
    records_to_common_kmers,
)
from .exchange import start_exchange

__all__ = ["pastis_rank", "run_pastis_distributed", "store_to_fasta_bytes"]

#: Message tag of the rebalance stage's shipped-task payloads (distinct
#: from the sequence exchange so in-flight traffic can never cross-match).
_TAG_REBAL = 77


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
    the measured align throughput (``aligned_cells`` / ``align_seconds``);
    the ``steal`` mode adds stolen in/out counts, the chunk count, and the
    calibrated cost-model coefficients.
    """

    edges: list[tuple[int, int, float]]
    timings: dict[str, float]
    aligned_pairs: int
    candidate_pairs: int
    rebalance: dict | None = None


def _symmetrize_distributed(
    b: DistSparseMatrix, grid: ProcessGrid, n: int
) -> DistSparseMatrix:
    """Distributed ``B ∪ Bᵀ``: one cross-diagonal block exchange (inside
    ``transpose``) hands every rank the partner block that mirrors its own,
    then the shared block-local merge of
    :func:`repro.core.overlap.symmetrize_candidates` — the same canonical
    winner rule (larger count, then smaller AS-side global id, forward on
    full ties), fully vectorized for struct-record values."""
    bt = b.transpose()
    rs, _ = b.row_range
    cs, _ = b.col_range
    merged = symmetrize_candidates(b.local, rs, cs, mirror=bt.local)
    return DistSparseMatrix(grid=grid, nrows=n, ncols=n, local=merged)


def _extract_block_pairs(
    b: DistSparseMatrix, grid: ProcessGrid
) -> list[tuple[int, int, CommonKmers]]:
    """Fig. 11: this rank aligns its block's local upper triangle; block
    diagonals belong to the block at-or-above the main grid diagonal.

    Because block ``(pi, pj)`` local ``(r, c)`` mirrors block ``(pj, pi)``
    local ``(c, r)``, keeping ``r < c`` everywhere plus ``r == c`` only when
    ``pi < pj`` covers every global off-diagonal pair exactly once."""
    rs, _ = b.row_range
    cs, _ = b.col_range
    loc = b.local
    if is_ck_records(loc.vals):
        keep = (loc.rows < loc.cols) | (
            (loc.rows == loc.cols) & (grid.row < grid.col)
        )
        gi = loc.rows + rs
        gj = loc.cols + cs
        keep &= gi != gj  # global self-pair
        cks = records_to_common_kmers(loc.vals[keep])
        return [
            (int(i), int(j), ck)
            for i, j, ck in zip(gi[keep], gj[keep], cks)
        ]
    out: list[tuple[int, int, CommonKmers]] = []
    for t in range(loc.nnz):
        r, c = int(loc.rows[t]), int(loc.cols[t])
        if r < c or (r == c and grid.row < grid.col):
            gi, gj = rs + r, cs + c
            if gi == gj:
                continue  # global self-pair
            out.append((gi, gj, loc.vals[t]))
    return out


def _ck_packable(comm: CommBackend, *value_arrays) -> bool:
    """Collective check that every position/distance across all ranks fits
    the CommonKmers seed pack (:data:`~repro.core.semirings.CK_SEED_LIMIT`).

    The fast/reference choice must be grid-wide — if ranks disagreed, SUMMA
    would mix record-valued and object-valued blocks mid-reduction — so the
    local maxima are folded with one allreduce and every rank decides
    identically.  Positions and distances share one fold, so the stricter
    distance bound is applied to both.
    """
    from .semirings import CK_DIST_LIMIT

    local = 0
    for arr in value_arrays:
        if len(arr):
            local = max(local, int(np.asarray(arr).max()))
    return comm.allreduce(local, max) < int(CK_DIST_LIMIT)


def pastis_rank(
    comm: CommBackend,
    fasta_bytes: bytes,
    config: PastisConfig,
    s_triples: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> RankResult:
    """SPMD body: one rank of the distributed pipeline.

    ``s_triples`` optionally injects a precomputed substitute matrix ``S``
    (global k-mer ids); each rank contributes an interleaved slice and the
    redistribution routes every triple to its owner block.
    """
    timings: dict[str, float] = {}
    grid = ProcessGrid.create(comm)
    reference = config.kernel == "semiring"
    # delegated kernels ride along into every SUMMA stage; they engage
    # only where the stage semiring declares a delegate form (the PASTIS
    # positional semirings declare none, so the graph bytes cannot move)
    delegate = (
        config.kernel if config.kernel in DELEGATED_KERNELS else None
    )
    as_semiring, overlap_semiring, exact_semiring = (
        overlap_semirings(reference)
    )

    # -- 1. parallel FASTA parse ------------------------------------------
    t0 = time.perf_counter()
    bounds = chunk_boundaries(len(fasta_bytes), comm.size)
    start, end = bounds[comm.rank]
    records: list[FastaRecord] = read_fasta_chunk(fasta_bytes, start, end)
    local_store = SequenceStore.from_records(records)
    timings["fasta"] = time.perf_counter() - t0

    # -- 2. cooperative prefix sums ---------------------------------------
    counts = comm.allgather(len(local_store))
    index = DistributedIndex.from_counts(counts)
    n = index.total
    gid0 = index.rank_range(comm.rank)[0]

    # -- 3. overlapped sequence exchange (posted now, finished after B) ---
    exchange = start_exchange(comm, grid, index, local_store, n)

    # -- 4. form A ----------------------------------------------------------
    t0 = time.perf_counter()
    kspace = kmer_space_size(config.k)
    rows, cols, pos = build_a_triples(local_store, config.k, row_offset=gid0)
    # pass the int64 arrays through untouched: a rank with no sequences
    # must contribute an *int64* empty, or the alltoall concatenation
    # would promote every rank's values to float64 and silently knock the
    # AS stage off the numeric fast path
    a = DistSparseMatrix.distribute(grid, n, kspace, rows, cols, pos)
    timings["form A"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    at = a.transpose()
    timings["tr. A"] = time.perf_counter() - t0

    # -- 5. SpGEMM(s) ---------------------------------------------------------
    if config.substitutes > 0:
        t0 = time.perf_counter()
        if s_triples is None:
            local_kmers = np.unique(cols)
            s_rows, s_cols, s_dist = build_s_triples(
                local_kmers, config.k, config.substitutes, config.scoring
            )
        else:
            mine = slice(comm.rank, None, comm.size)
            s_rows = np.asarray(s_triples[0], dtype=np.int64)[mine]
            s_cols = np.asarray(s_triples[1], dtype=np.int64)[mine]
            s_dist = np.asarray(s_triples[2], dtype=np.int64)[mine]
        # positions/distances beyond the seed-pack bit budget knock the
        # whole grid back to the object reference (collectively — mixed
        # per-rank representations would corrupt the SUMMA reduction)
        if not reference and not _ck_packable(comm, pos, s_dist):
            as_semiring, overlap_semiring, exact_semiring = (
                overlap_semirings(True)
            )
        s = DistSparseMatrix.distribute(
            grid, kspace, kspace, s_rows, s_cols, s_dist
        )
        # ranks can generate the same k-mer's substitutes; dedupe
        s.local = s.local.sum_duplicates(lambda x, y: x)
        timings["form S"] = time.perf_counter() - t0

        # On the fast kernels the AS stage runs numerically (positions /
        # distances int64 end to end, AS values travel as packed int64 seed
        # hits) and the (AS)Aᵀ stage runs SUMMA's block-local struct
        # expand-reduce — CommonKmers as record columns, no per-element
        # Python.  kernel="semiring" swaps in the object reference.
        t0 = time.perf_counter()
        a_s = summa(a, s, as_semiring, kernel=delegate)
        timings["AS"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        b = summa(a_s, at, overlap_semiring, kernel=delegate)
        timings["(AS)AT"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        b = _symmetrize_distributed(b, grid, n)
        timings["sym."] = time.perf_counter() - t0
    else:
        # stage parity: the exact-match variant runs no S / AS / sym.
        # stages, but the dissection schema must be identical across
        # variants, so the skipped components report an explicit 0.0
        timings["form S"] = 0.0
        timings["AS"] = 0.0
        t0 = time.perf_counter()
        if not reference and not _ck_packable(comm, pos):
            _, _, exact_semiring = overlap_semirings(True)
        b = summa(a, at, exact_semiring, kernel=delegate)
        timings["(AS)AT"] = time.perf_counter() - t0
        timings["sym."] = 0.0

    # -- 6. finish the exchange --------------------------------------------
    cache = exchange.finish()
    timings["wait"] = exchange.wait_seconds

    # -- 7. pair extraction --------------------------------------------------
    pairs = _extract_block_pairs(b, grid)
    candidate_pairs = len(pairs)
    if config.common_kmer_threshold is not None:
        keep = ck_keep_mask(
            [p[2].count for p in pairs], config.common_kmer_threshold
        )
        pairs = [p for p, ok in zip(pairs, keep) if ok]

    tasks = []
    for gi, gj, ck in pairs:
        lo, hi = (gi, gj) if gi < gj else (gj, gi)
        seeds = []
        for (pi, pj, _d) in ck.seeds:
            seeds.append((pi, pj) if gi == lo else (pj, pi))
        tasks.append(
            AlignmentTask(
                a=cache[lo], b=cache[hi], seeds=tuple(seeds), pair=(lo, hi)
            )
        )

    # -- 8. cross-rank alignment rebalancing --------------------------------
    # Ragged Fig.-11 triangles make the align stage run at the speed of the
    # unluckiest rank; with align_balance="greedy" or "steal" every rank
    # costs its tasks, one allgather shares the cost vectors, all ranks
    # compute the identical greedy plan, and tasks ship point-to-point as
    # flat encoded payloads.  Receives are left pending here and progressed
    # with non-blocking Request.test polls while the local lanes align
    # below.  "steal" additionally fits a calibrated cells/sec model (rank
    # 0 measures real engine runs once, then broadcasts) that seeds every
    # rank's projected finish time for the dynamic stage.
    timings["rebal."] = 0.0
    rebalance = None
    incoming: dict[int, Request] = {}
    plan = None
    model = None
    retained_costs: list[int] = []

    def cost_fn(ts: list[AlignmentTask]) -> list[int]:
        return estimate_batch_cells(
            ts, config.align_mode, config.k, config.xdrop,
            config.gap_extend,
        )

    if config.align_balance in ("greedy", "steal"):
        t0 = time.perf_counter()
        costs = cost_fn(tasks)
        plan = greedy_plan(comm.allgather(costs))
        retained: list[AlignmentTask] = []
        outgoing: dict[int, list[AlignmentTask]] = {}
        for task, cost, dst in zip(tasks, costs, plan.dest[comm.rank]):
            if int(dst) == comm.rank:
                retained.append(task)
                retained_costs.append(int(cost))
            else:
                outgoing.setdefault(int(dst), []).append(task)
        shipped_in = 0
        for src, dst, ntasks in plan.flows():
            if src == comm.rank:
                comm.isend(
                    encode_tasks(outgoing[dst]), dest=dst, tag=_TAG_REBAL,
                    kind="rebal",
                )
            elif dst == comm.rank:
                incoming[src] = comm.irecv(src, tag=_TAG_REBAL)
                shipped_in += ntasks
        rebalance = {
            "pre_cells": int(plan.pre_cells[comm.rank]),
            "post_cells": int(plan.post_cells[comm.rank]),
            "shipped_out": sum(len(v) for v in outgoing.values()),
            "shipped_in": shipped_in,
        }
        tasks = retained
        if config.align_balance == "steal":
            if comm.rank == 0:
                # deferred import: perfmodel.calibrate reaches back into
                # core.balance, so a top-level import would be circular
                from ..perfmodel.calibrate import calibrate_alignment_model

                model = calibrate_alignment_model(
                    scoring=config.scoring,
                    gap_open=config.gap_open,
                    gap_extend=config.gap_extend,
                    xdrop=config.xdrop,
                    k=config.k,
                    traceback=config.needs_traceback,
                )
            model = comm.bcast(model, root=0)
            rebalance["calibration"] = model.as_dict()
        timings["rebal."] = time.perf_counter() - t0

    # -- 9. alignment + filter ------------------------------------------------
    t0 = time.perf_counter()
    kwargs = align_kwargs(config)
    if config.align_balance == "steal":
        # dynamic stage: cost-sorted chunks, measured-progress exchange,
        # straggler sheds to the idle-soonest rank; static-plan receives
        # are folded into the same polling loop
        aligned, steal_stats = steal_align(
            comm,
            tasks,
            retained_costs,
            align_fn=lambda ts: align_batch(ts, **kwargs),
            cost_fn=cost_fn,
            initial_remaining=plan.post_cells,
            rate0=model.cells_per_sec(config.align_mode),
            factor=config.steal_factor,
            nchunks=config.steal_chunks,
            static_incoming=incoming,
        )
        rebalance.update(
            stolen_out=steal_stats["stolen_out"],
            stolen_in=steal_stats["stolen_in"],
            chunks=steal_stats["chunks"],
            aligned_cells=steal_stats["aligned_cells"],
            align_seconds=steal_stats["align_seconds"],
            measured_cells_per_sec=steal_stats["measured_cells_per_sec"],
        )
    else:
        # measured throughput accounting times *only* the engine calls —
        # blocked communication waits would corrupt the cells/sec numbers
        # the calibration fit is reproduced from (same semantics as the
        # steal executor's align_seconds)
        align_seconds = 0.0

        def timed_align(batch: list[AlignmentTask]) -> list:
            nonlocal align_seconds
            ta = time.perf_counter()
            results = align_batch(batch, **kwargs)
            align_seconds += time.perf_counter() - ta
            return results

        # one batched call for the local (retained) Fig.-11 triangle: the
        # whole batch goes to the lane engine at once; NS skips the
        # traceback entirely
        aligned = list(zip(tasks, timed_align(tasks)))
        aligned_cells = float(sum(retained_costs))
        # then progress the shipped-task receives: an eager test() sweep
        # aligns whatever has already landed, and only once nothing is in
        # flight locally does the rank block in wait() on the lowest
        # pending source
        while incoming:
            progressed = False
            for src in sorted(incoming):
                done, payload = incoming[src].test()
                if done:
                    del incoming[src]
                    shipped = decode_tasks(payload)
                    if rebalance is not None:
                        aligned_cells += float(sum(cost_fn(shipped)))
                    aligned.extend(zip(shipped, timed_align(shipped)))
                    progressed = True
            if not progressed and incoming:
                src = min(incoming)
                shipped = decode_tasks(incoming.pop(src).wait())
                if rebalance is not None:
                    aligned_cells += float(sum(cost_fn(shipped)))
                aligned.extend(zip(shipped, timed_align(shipped)))
        if rebalance is not None:
            rebalance.update(
                aligned_cells=aligned_cells,
                align_seconds=align_seconds,
                measured_cells_per_sec=(
                    aligned_cells / align_seconds if align_seconds > 0
                    else 0.0
                ),
            )
    edges = edges_from_alignments(aligned, config)
    timings["align"] = time.perf_counter() - t0

    return RankResult(
        edges=edges,
        timings=timings,
        aligned_pairs=len(aligned),
        candidate_pairs=candidate_pairs,
        rebalance=rebalance,
    )


def run_pastis_distributed(
    store: SequenceStore,
    config: PastisConfig | None = None,
    nranks: int = 4,
    tracer: CommTracer | None = None,
    s_triples: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> SimilarityGraph:
    """Convenience driver: run the SPMD pipeline on ``nranks`` simulated
    ranks and assemble the global PSG.

    ``nranks`` must be a perfect square (paper requirement); the result
    is byte-identical to :func:`repro.core.pipeline.pastis_pipeline` at
    any rank count and under every ``config.align_balance`` mode (the
    golden obliviousness invariant).  The graph's ``meta`` carries
    per-rank timing dissections — the data behind the Fig. 15/16-style
    component plots — total alignment counts, and (when rebalancing ran)
    ``meta["align_balance"]``: per-rank pre/post DP-cell loads, measured
    align throughput (``aligned_cells`` / ``align_seconds`` /
    ``measured_cells_per_sec``), and for ``"steal"`` the stolen-task
    totals plus the calibrated cost-model coefficients.  ``s_triples``
    optionally substitutes a precomputed ``S`` matrix.
    """
    config = config or PastisConfig()
    fasta = store_to_fasta_bytes(store)
    results: list[RankResult] = run_spmd(
        nranks, pastis_rank, fasta, config, s_triples, tracer=tracer,
        comm_backend=config.comm_backend,
        comm_sanitize=config.comm_sanitize,
    )
    edges: list[tuple[int, int, float]] = []
    for r in results:
        edges.extend(r.edges)
    graph = SimilarityGraph.from_edges(len(store), edges,
                                       ids=list(store.ids))
    balance_meta: dict = {"mode": config.align_balance}
    if all(r.rebalance is not None for r in results):
        balance_meta.update(
            pre_cells=[r.rebalance["pre_cells"] for r in results],
            post_cells=[r.rebalance["post_cells"] for r in results],
            shipped_tasks=sum(r.rebalance["shipped_out"] for r in results),
            # measured (not estimated) per-rank alignment throughput — the
            # reproducible inputs of the calibration fit
            aligned_cells=[r.rebalance["aligned_cells"] for r in results],
            align_seconds=[r.rebalance["align_seconds"] for r in results],
            measured_cells_per_sec=[
                r.rebalance["measured_cells_per_sec"] for r in results
            ],
        )
        if config.align_balance == "steal":
            balance_meta.update(
                stolen_tasks=sum(
                    r.rebalance["stolen_out"] for r in results
                ),
                chunks=[r.rebalance["chunks"] for r in results],
                calibration=results[0].rebalance["calibration"],
            )
    graph.meta.update(
        variant=config.variant_name,
        nranks=nranks,
        rank_timings=[r.timings for r in results],
        aligned_pairs=sum(r.aligned_pairs for r in results),
        candidate_pairs=sum(r.candidate_pairs for r in results),
        align_balance=balance_meta,
    )
    if tracer is not None:
        # traced runs also persist the α–β comm calibration (memoised per
        # process) and the projected comm seconds of the traced volume,
        # next to the alignment calibration above — the measured anchors
        # the static predictor (repro.analysis.commcost) checks against
        from ..perfmodel.calibrate import calibrate_comm_model  # no cycle

        backend = config.comm_backend
        comm_model = calibrate_comm_model(
            backend=backend if backend in ("sim", "mp") else "sim"
        )
        graph.meta["commcost"] = {
            "calibration": comm_model.as_dict(),
            "traced_messages": tracer.total_messages,
            "traced_bytes": tracer.total_bytes,
            "predicted_comm_seconds": comm_model.seconds(
                tracer.total_messages, tracer.total_bytes
            ),
        }
    return graph
