"""The traced replay: per-layer numbers for one workload.

The end-to-end runs measure the program from outside with tracing off.
This module replays the same input *inside* the benchmark process with a
span (:mod:`trace`) around every call into a layer's public function, so
the numbers say where the seconds go — and how much of the run the probes
fail to explain.  Nothing under ``src/`` changes: the replay re-assembles
the pipeline from public functions, in three sections:

``single``
    the root span: exactly the default single-process path (read, encode,
    extract, form S, join, CK, align, graph, write);
``struct``
    the struct-record SpGEMM formulation of the overlap, which the default
    path does not call — run after and outside the root span;
``dist``
    distributed workloads only: a no-op ``run_spmd`` (spawn cost), a
    benchmark-owned SPMD body (:func:`probe_rank`) that walks the stages of
    ``pastis_rank`` with spans, max over ranks, and the real
    ``run_pastis_distributed`` under a ``CommTracer``.

Layer modules are imported as modules and their functions looked up at
call time: a probe whose target a later change deletes reports ``None``
and is listed under ``missing_probes`` instead of failing the run.
"""

from __future__ import annotations

import re
import statistics
import time
from pathlib import Path

import numpy as np

from repro import cli
from repro.align import batch as align_batch_mod
from repro.align import stats as align_stats
from repro.bio import fasta as bio_fasta
from repro.bio import sequences as bio_sequences
from repro.core import balance, distributed, graph as core_graph
from repro.core import overlap, pipeline, semirings
from repro.kmers import encoding as kmer_encoding
from repro.mpisim import backend as mpi_backend
from repro.mpisim import grid as mpi_grid
from repro.mpisim import tracing as mpi_tracing
from repro.perfmodel import calibrate
from repro import sparse

from .harness import sha256
from .trace import SpanRecorder, duration, seconds_by_name
from .workloads import Workload

__all__ = ["LAYER_METRICS", "replay", "probe_rank"]

#: every per-layer metric, with its unit; ``BENCHMARK.json`` lists the same
#: names (a test keeps the two in step)
LAYER_METRICS: dict[str, str] = {
    "bio.read_fasta_s": "s", "bio.encode_s": "s", "bio.residues": "count",
    "kmers.extract_s": "s", "kmers.a_nnz": "count",
    "kmers.unique_kmers": "count",
    "kmers.form_s_s": "s", "kmers.searches": "count",
    "kmers.searches_per_s": "1/s", "kmers.s_nnz": "count",
    "overlap.join_s": "s", "overlap.candidate_pairs": "count",
    "overlap.pairs_after_ck": "count", "overlap.ck_keep_frac": "fraction",
    "sparse.spgemm_struct_s": "s",
    "sparse.distribute_s": "s", "sparse.transpose_s": "s",
    "sparse.summa_as_s": "s", "sparse.summa_b_s": "s", "sparse.sym_s": "s",
    "sparse.b_nnz": "count",
    "core.records_to_ck_s": "s",
    "mpisim.spawn_s": "s", "mpisim.messages": "count",
    "mpisim.bytes": "bytes", "mpisim.max_rank_bytes": "bytes",
    "mpisim.bytes_bcast": "bytes", "mpisim.bytes_alltoall": "bytes",
    "mpisim.bytes_p2p": "bytes",
    "balance.plan_s": "s", "balance.pre_imbalance": "ratio",
    "balance.post_imbalance": "ratio",
    "align.batch_s": "s", "align.pairs": "count", "align.dp_cells": "count",
    "align.cells_per_s": "1/s", "align.pass_frac": "fraction",
    "graph.build_s": "s", "io.write_tsv_s": "s", "io.tsv_bytes": "bytes",
    "trace.glue_s": "s", "trace.coverage": "fraction",
    "trace.replay_over_e2e": "ratio",
    "dist.form_s_s": "s", "dist.align_s": "s", "dist.run_s": "s",
    "dist.unattributed_s": "s",
}

#: what the ``dist`` section reports; 0 on a single-process workload
_DIST_METRICS = tuple(
    m for m in LAYER_METRICS
    if m.startswith(("mpisim.", "balance.", "dist.", "core."))
    or (m.startswith("sparse.") and m != "sparse.spgemm_struct_s")
)


def _align_kwargs(cfg) -> dict:
    return dict(
        mode=cfg.align_mode, k=cfg.k, scoring=cfg.scoring,
        gap_open=cfg.gap_open, gap_extend=cfg.gap_extend, xdrop=cfg.xdrop,
        traceback=cfg.needs_traceback, engine=cfg.align_engine,
    )


def _batch_cells(tasks, cfg) -> list[int]:
    return balance.estimate_batch_cells(
        tasks, cfg.align_mode, cfg.k, cfg.xdrop, cfg.gap_extend
    )


def _imbalance(cells) -> float:
    """Max over mean of the per-rank DP-cell loads (1.0 = balanced)."""
    return max(cells) / statistics.fmean(cells) if sum(cells) else 1.0


# ---------------------------------------------------------------------------
# section "single": the root span
# ---------------------------------------------------------------------------


def _replay_single(rec, cfg, fasta: Path, tsv: Path) -> tuple[dict, dict]:
    """The default single-process path under one root span; returns the
    section's metrics and what the later sections reuse."""
    task_cls = align_batch_mod.AlignmentTask
    with rec.span("replay.single") as root:
        with rec.span("bio.read_fasta") as s_read:
            records = bio_fasta.read_fasta(fasta)
        with rec.span("bio.encode") as s_encode:
            store = bio_sequences.SequenceStore.from_records(records)
        with rec.span("kmers.extract") as s_extract:
            rows, cols, _pos = overlap.build_a_triples(store, cfg.k)
        present = np.unique(cols)
        s_triples = None
        form_s = 0.0
        if cfg.substitutes > 0:
            with rec.span("kmers.form_s") as s_form:
                s_triples = overlap.build_s_triples(
                    present, cfg.k, cfg.substitutes, cfg.scoring,
                    restrict_to=present,
                )
            form_s = duration(s_form)
        with rec.span("overlap.join") as s_join:
            pairs = overlap.find_candidate_pairs(
                store, cfg, s_triples=s_triples
            )
        with rec.span("overlap.ck"):
            kept = pairs.apply_ck_threshold(cfg.common_kmer_threshold)
        tasks = [
            task_cls(
                a=store.encoded(int(kept.ri[p])),
                b=store.encoded(int(kept.rj[p])),
                seeds=tuple(kept.seeds_of(p)),
                pair=(int(kept.ri[p]), int(kept.rj[p])),
            )
            for p in range(kept.npairs)
        ]
        with rec.span("align.batch") as s_align:
            results = align_batch_mod.align_batch(tasks, **_align_kwargs(cfg))
        edges = []
        passed = 0
        for task, res in zip(tasks, results):
            if cfg.uses_filter and not align_stats.passes_filter(
                res, cfg.min_identity, cfg.min_coverage
            ):
                continue
            passed += 1
            w = pipeline.edge_weight(res, cfg)
            if w > 0:
                edges.append((task.pair[0], task.pair[1], w))
        with rec.span("graph.build") as s_graph:
            graph = core_graph.SimilarityGraph.from_edges(
                len(store), edges, ids=list(store.ids)
            )
        with rec.span("io.write_tsv") as s_write:
            cli.write_edges_tsv(str(tsv), graph)
    # planning estimate, outside the root: the default path never costs tasks
    cells = sum(_batch_cells(tasks, cfg))
    covered = rec.children_seconds(root)
    metrics = {
        "bio.read_fasta_s": duration(s_read),
        "bio.encode_s": duration(s_encode),
        "bio.residues": store.total_residues,
        "kmers.extract_s": duration(s_extract),
        "kmers.a_nnz": len(rows),
        "kmers.unique_kmers": len(present),
        "kmers.form_s_s": form_s,
        "kmers.searches": len(present) if s_triples is not None else 0,
        "kmers.searches_per_s": len(present) / form_s if form_s else 0.0,
        "kmers.s_nnz": len(s_triples[0]) if s_triples is not None else 0,
        "overlap.join_s": duration(s_join),
        "overlap.candidate_pairs": pairs.npairs,
        "overlap.pairs_after_ck": kept.npairs,
        "overlap.ck_keep_frac": kept.npairs / pairs.npairs if pairs.npairs else 1.0,
        "align.batch_s": duration(s_align),
        "align.pairs": len(tasks),
        "align.dp_cells": cells,
        "align.cells_per_s": cells / duration(s_align),
        "align.pass_frac": passed / len(tasks) if tasks else 1.0,
        "graph.build_s": duration(s_graph),
        "io.write_tsv_s": duration(s_write),
        "io.tsv_bytes": tsv.stat().st_size,
        "trace.glue_s": duration(root) - covered,
        "trace.coverage": covered / duration(root),
        "trace.root_s": duration(root),
    }
    return metrics, {"store": store, "s_triples": s_triples, "pairs": pairs}


# ---------------------------------------------------------------------------
# section "dist": the SPMD probe body and the traced real run
# ---------------------------------------------------------------------------


def _noop_rank(comm) -> int:
    return comm.rank


def probe_rank(comm, fasta: bytes, cfg, run_id: str) -> dict:
    """One rank of the distributed pipeline, stage by stage, with a span
    around each public call — the stages of ``core.distributed.pastis_rank``
    on the fast (struct-record) semirings.

    Two liberties keep it short, neither inside a span: every rank parses
    the whole FASTA to have any sequence at hand (the program exchanges
    them point-to-point), and a balance plan is applied by allgathering the
    task descriptors and keeping what the plan assigns here (the program
    ships encoded tasks).
    """
    rec = SpanRecorder(run_id, rank=comm.rank + 1)
    grid = mpi_grid.ProcessGrid.create(comm)
    with rec.span("dist.fasta"):
        start, end = bio_fasta.chunk_boundaries(len(fasta), comm.size)[comm.rank]
        local = bio_sequences.SequenceStore.from_records(
            bio_fasta.read_fasta_chunk(fasta, start, end)
        )
    everything = bio_sequences.SequenceStore.from_records(
        bio_fasta.parse_fasta_text(fasta.decode("ascii"))
    )
    index = bio_sequences.DistributedIndex.from_counts(
        comm.allgather(len(local))
    )
    n = index.total
    kspace = kmer_encoding.kmer_space_size(cfg.k)
    with rec.span("dist.extract"):
        rows, cols, pos = overlap.build_a_triples(
            local, cfg.k, row_offset=index.rank_range(comm.rank)[0]
        )
    with rec.span("sparse.distribute"):
        a = sparse.DistSparseMatrix.distribute(grid, n, kspace, rows, cols, pos)
    with rec.span("sparse.transpose"):
        at = a.transpose()
    if cfg.substitutes > 0:
        with rec.span("dist.form_s"):
            s_rows, s_cols, s_dist = overlap.build_s_triples(
                np.unique(cols), cfg.k, cfg.substitutes, cfg.scoring
            )
        with rec.span("sparse.distribute"):
            s = sparse.DistSparseMatrix.distribute(
                grid, kspace, kspace, s_rows, s_cols, s_dist
            )
            s.local = s.local.sum_duplicates(lambda x, y: x)
        with rec.span("sparse.summa_as"):
            a_s = sparse.summa(
                a, s, semirings.substitute_as_numeric_semiring()
            )
        with rec.span("sparse.summa_b"):
            b = sparse.summa(
                a_s, at, semirings.substitute_overlap_encoded_semiring()
            )
        with rec.span("sparse.sym"):
            merged = overlap.symmetrize_candidates(
                b.local, b.row_range[0], b.col_range[0],
                mirror=b.transpose().local,
            )
            b = sparse.DistSparseMatrix(grid=grid, nrows=n, ncols=n, local=merged)
    else:
        with rec.span("sparse.summa_b"):
            b = sparse.summa(a, at, semirings.exact_overlap_semiring())

    # Fig. 11 pair extraction: each block's upper triangle, block diagonals
    # to the block at-or-above the grid diagonal
    loc = b.local
    if not semirings.is_ck_records(loc.vals):
        raise RuntimeError("probe expects the struct-record B of the fast path")
    gi = loc.rows + b.row_range[0]
    gj = loc.cols + b.col_range[0]
    keep = (loc.rows < loc.cols) | ((loc.rows == loc.cols) & (grid.row < grid.col))
    keep &= gi != gj
    with rec.span("core.records_to_ck"):
        cks = semirings.records_to_common_kmers(loc.vals[keep])
    candidates = len(cks)
    descriptors = []
    for i, j, ck in zip(gi[keep], gj[keep], cks):
        if cfg.common_kmer_threshold is not None and not overlap.ck_keep_mask(
            ck.count, cfg.common_kmer_threshold
        ):
            continue
        i, j = int(i), int(j)
        seeds = tuple((pi, pj) if i < j else (pj, pi) for pi, pj, _d in ck.seeds)
        descriptors.append(((min(i, j), max(i, j)), seeds))

    def tasks_of(descr):
        return [
            align_batch_mod.AlignmentTask(
                a=everything.encoded(lo), b=everything.encoded(hi),
                seeds=seeds, pair=(lo, hi),
            )
            for (lo, hi), seeds in descr
        ]

    tasks = tasks_of(descriptors)
    pre_cells = post_cells = sum(_batch_cells(tasks, cfg))
    if cfg.align_balance != "off":
        with rec.span("balance.plan"):
            plan = balance.greedy_plan(comm.allgather(_batch_cells(tasks, cfg)))
        post_cells = int(plan.post_cells[comm.rank])
        tasks = tasks_of(
            d
            for descr, dest in zip(comm.allgather(descriptors), plan.dest)
            for d, to in zip(descr, dest) if int(to) == comm.rank
        )
    with rec.span("dist.align"):
        align_batch_mod.align_batch(tasks, **_align_kwargs(cfg))
    return {
        "spans": rec.spans,
        "b_nnz": loc.nnz,
        "candidates": candidates,
        "aligned": len(tasks),
        "pre_cells": pre_cells,
        "post_cells": post_cells,
    }


def _replay_dist(
    rec, cfg, store, fasta: bytes, nranks: int, tsv: Path
) -> tuple[dict, dict]:
    """Spawn cost, the per-rank probe, and the traced real run."""
    spawn = []
    for _ in range(3):
        with rec.span("mpisim.spawn") as s_spawn:
            mpi_backend.run_spmd(nranks, _noop_rank, comm_backend="mp")
        spawn.append(duration(s_spawn))
    with rec.span("dist.probe") as s_probe:
        ranks = mpi_backend.run_spmd(
            nranks, probe_rank, fasta, cfg, rec.run_id, comm_backend="mp"
        )
    for r in ranks:
        rec.adopt(r["spans"], s_probe)
    # slowest rank per stage: the run waits for it at the next collective
    stage = {}
    for r in ranks:
        for name, secs in seconds_by_name(r["spans"]).items():
            stage[name] = max(stage.get(name, 0.0), secs)

    # a traced run also fits the comm model, once per process: do it now so
    # the span below holds the pipeline alone
    calibrate.calibrate_comm_model(backend="mp")
    tracer = mpi_tracing.CommTracer()
    with rec.span("dist.run") as s_run:
        graph = distributed.run_pastis_distributed(
            store, cfg, nranks=nranks, tracer=tracer
        )
    by_kind = tracer.bytes_by_kind()
    p2p_bytes = sum(
        r.nbytes for r in tracer.records
        if mpi_backend.COMM_OP_KINDS.get(r.op) == "send"
    )
    pre = [r["pre_cells"] for r in ranks]
    post = [r["post_cells"] for r in ranks]
    metrics = {
        "sparse.distribute_s": stage["sparse.distribute"],
        "sparse.transpose_s": stage["sparse.transpose"],
        "sparse.summa_as_s": stage.get("sparse.summa_as", 0.0),
        "sparse.summa_b_s": stage["sparse.summa_b"],
        "sparse.sym_s": stage.get("sparse.sym", 0.0),
        "sparse.b_nnz": sum(r["b_nnz"] for r in ranks),
        "core.records_to_ck_s": stage["core.records_to_ck"],
        "mpisim.spawn_s": statistics.median(spawn),
        "mpisim.messages": tracer.total_messages,
        "mpisim.bytes": tracer.total_bytes,
        "mpisim.max_rank_bytes": tracer.max_rank_volume(),
        "mpisim.bytes_bcast": by_kind.get("bcast", 0),
        "mpisim.bytes_alltoall": by_kind.get("alltoall", 0),
        "mpisim.bytes_p2p": p2p_bytes,
        "balance.plan_s": stage.get("balance.plan", 0.0),
        "balance.pre_imbalance": _imbalance(pre),
        "balance.post_imbalance": _imbalance(post),
        "dist.form_s_s": stage.get("dist.form_s", 0.0),
        "dist.align_s": stage["dist.align"],
        "dist.run_s": duration(s_run),
        "dist.unattributed_s": (
            duration(s_run) - statistics.median(spawn) - sum(stage.values())
        ),
    }
    cli.write_edges_tsv(str(tsv), graph)
    checks = {
        "tsv_sha256": sha256(tsv.read_bytes()),
        "probe_candidates": sum(r["candidates"] for r in ranks),
        "run_candidates": graph.meta["candidate_pairs"],
        "probe_aligned": sum(r["aligned"] for r in ranks),
        "run_aligned": graph.meta["aligned_pairs"],
    }
    return metrics, checks


# ---------------------------------------------------------------------------
# the replay
# ---------------------------------------------------------------------------


def replay(
    workload: Workload,
    fasta: Path,
    out_dir: Path,
    e2e_wall_s: float,
    e2e_sha256: str,
) -> dict:
    """Trace one workload; returns ``metrics`` (``None`` for a missing
    probe), ``missing_probes``, ``problems`` (empty when every check
    held), the recorder, and ``seconds``.

    ``e2e_wall_s`` / ``e2e_sha256`` are the wall time and the TSV hash of an
    untraced run of the workload: the replay of the same formulation (the
    root span for a single-process workload, the traced distributed run
    otherwise) must write the same bytes.
    """
    started = time.perf_counter()
    run_id = f"{workload.name}-{sha256(fasta.read_bytes())[:12]}"
    rec = SpanRecorder(run_id)
    tsv = out_dir / f"replay-{workload.name}.tsv"
    cfg = cli.config_from_args(
        cli.build_parser().parse_args([str(fasta), "-o", str(tsv), *workload.flags])
    )
    metrics: dict = dict.fromkeys(LAYER_METRICS)
    missing: list[str] = []
    problems: list[str] = []
    shared: dict = {}

    def section(name: str, run) -> None:
        try:
            metrics.update(run())
        except (AttributeError, ImportError) as exc:
            missing.append(f"{name}: {exc}")
        except mpi_backend.SpmdError as exc:
            # a rank's exception reaches the parent as text
            if not re.search(r"failed: (AttributeError|ImportError)", str(exc)):
                raise
            missing.append(f"{name}: {exc}")

    def single() -> dict:
        m, state = _replay_single(rec, cfg, fasta, tsv)
        shared.update(state)
        if workload.ranks == 1 and sha256(tsv.read_bytes()) != e2e_sha256:
            problems.append("replayed TSV differs from the untraced run")
        m["trace.replay_over_e2e"] = m.pop("trace.root_s") / e2e_wall_s
        return m

    def struct() -> dict:
        with rec.span("sparse.spgemm_struct") as s_struct:
            pairs = overlap.find_candidate_pairs_struct(
                shared["store"], cfg, s_triples=shared["s_triples"]
            )
        if pairs.npairs != shared["pairs"].npairs:
            problems.append("struct and join kernels disagree on candidates")
        return {"sparse.spgemm_struct_s": duration(s_struct)}

    def dist() -> dict:
        if workload.ranks == 1:
            # a single-process workload spends nothing in these layers
            return dict.fromkeys(_DIST_METRICS, 0)
        m, checks = _replay_dist(
            rec, cfg, shared["store"], fasta.read_bytes(), workload.ranks, tsv
        )
        if checks["tsv_sha256"] != e2e_sha256:
            problems.append("traced distributed TSV differs from the untraced run")
        if checks["probe_candidates"] != checks["run_candidates"]:
            problems.append(f"probe and run disagree on candidates: {checks}")
        if checks["probe_aligned"] != checks["run_aligned"]:
            problems.append(f"probe and run disagree on alignments: {checks}")
        return m

    section("single", single)
    if "store" in shared:
        section("struct", struct)
        section("dist", dist)
    else:
        missing.append("struct, dist: need the store of section single")
    return {
        "metrics": metrics,
        "missing_probes": missing,
        "problems": problems,
        "recorder": rec,
        "seconds": time.perf_counter() - started,
    }
