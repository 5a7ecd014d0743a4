"""Wall-clock benchmark of the SPMD comm backends (sim vs mp).

Every speedup shipped before the process-per-rank backend ran under the
thread simulator, where the GIL serialises the ranks' compute — so the
benchmarks gated DP-cell counts, not wall clock.  This benchmark is the
first honest wall-clock measurement: the same alignment stage, the same
tasks, the same :class:`CommBackend` calls, run once on ``sim`` (threads)
and once on ``mp`` (one OS process per rank, block payloads through
shared memory).  Two scenario families:

* **Alignment stage** (the pipeline's dominant cost): each rank aligns
  its own deterministic batch of family-related pairs on the production
  batched engine between two barriers; the stage wall clock is the
  slowest rank's aligned time.  Gated: ``mp`` must beat ``sim`` by
  >= 2x at 4 ranks — on a machine with >= 4 cores (the gate records
  itself as skipped below that, e.g. on single-core runners).  The
  per-rank score checksums must agree across backends.
* **Full pipeline**: ``run_pastis_distributed`` end-to-end on both
  backends, gated on byte-identical edge lists (cores-independent) with
  the wall clocks reported.
* **Sanitizer overhead**: the alignment stage again on ``mp``, but with
  collective traffic inside the timed region (chunked alignment with a
  progress allgather per chunk), run with the runtime comm sanitizer
  off and on.  Gated: the sanitized stage
  wall must stay within :data:`SANITIZER_OVERHEAD_GATE` (1.2x) of the
  bare stage — the fingerprint prelude is one extra small allgather per
  collective, and this scenario keeps that claim honest.  The gate is
  recorded as skipped when the bare stage is too fast to time reliably
  (< :data:`SANITIZER_MIN_WALL_S`).

Run with ``pytest benchmarks/bench_comm_backend.py -s`` or directly::

    python benchmarks/bench_comm_backend.py [--smoke] [--json PATH]

which writes a ``BENCH_comm.json`` artifact for CI trend tracking;
``--smoke`` shrinks the workload for fast smoke runs.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.align.batch import AlignmentTask, align_batch
from repro.bio.alphabet import encode_sequence
from repro.bio.fasta import FastaRecord
from repro.bio.generate import make_family
from repro.bio.sequences import SequenceStore
from repro.core.config import PastisConfig
from repro.core.distributed import run_pastis_distributed
from repro.mpisim.backend import run_spmd

NRANKS = 4

#: acceptance gate — mp must beat sim's alignment-stage wall clock by
#: this factor at 4 ranks...
SPEEDUP_GATE = 2.0
#: ...on a machine with at least this many cores (the gate is recorded
#: as skipped below that: with fewer cores than ranks the processes
#: time-share just like the threads do)
REQUIRED_CORES = 4

#: acceptance gate — the comm sanitizer may cost at most this factor of
#: alignment-stage wall clock on mp...
SANITIZER_OVERHEAD_GATE = 1.20
#: ...judged only when the bare stage is long enough to time reliably
SANITIZER_MIN_WALL_S = 0.05

K, XDROP, MODE = 6, 49, "sw"


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _rank_tasks(rank: int, npairs: int, length: int,
                seed: int = 7) -> list[AlignmentTask]:
    """Deterministic per-rank batch of family-related pairs (every rank
    gets the same load: the scenario isolates substrate parallelism, not
    balance)."""
    rng = np.random.default_rng(seed + rank)
    tasks = []
    for i in range(npairs):
        a, b = (encode_sequence(s)
                for s in make_family(2, length, divergence=0.15, rng=rng))
        tasks.append(AlignmentTask(a=a, b=b, seeds=((0, 0),),
                                   pair=(rank, i)))
    return tasks


def _align_stage_body(comm, npairs: int, length: int):
    """SPMD body: build this rank's tasks, fence, align, report.

    Returns ``(stage_seconds, score_checksum)`` — the wall time covers
    only the aligned region between the barriers.
    """
    tasks = _rank_tasks(comm.rank, npairs, length)
    comm.barrier()
    t0 = time.perf_counter()
    results = align_batch(tasks, mode=MODE, k=K, xdrop=XDROP)
    wall = time.perf_counter() - t0
    comm.barrier()
    return wall, int(sum(r.score for r in results))


def run_align_stage(npairs: int, length: int) -> tuple[dict, list[str]]:
    """Time the alignment stage on both backends; return (stats, failed
    gates)."""
    cores = available_cores()
    stats: dict = {"npairs_per_rank": npairs, "length": length,
                   "mode": MODE, "cores": cores}
    checksums = {}
    for backend in ("sim", "mp"):
        t0 = time.perf_counter()
        res = run_spmd(
            NRANKS, _align_stage_body, npairs, length,
            comm_backend=backend,
        )
        total = time.perf_counter() - t0
        walls = [w for w, _ in res]
        checksums[backend] = [s for _, s in res]
        stats[backend] = {
            "stage_walls_s": [round(w, 4) for w in walls],
            "stage_wall_s": round(max(walls), 4),
            "run_total_s": round(total, 4),
        }
    speedup = stats["sim"]["stage_wall_s"] / max(
        stats["mp"]["stage_wall_s"], 1e-9
    )
    stats["speedup_mp_over_sim"] = round(speedup, 2)
    stats["gate_active"] = cores >= REQUIRED_CORES

    failed = []
    if checksums["sim"] != checksums["mp"]:
        failed.append(
            f"align stage: score checksums diverged across backends "
            f"(sim={checksums['sim']}, mp={checksums['mp']})"
        )
    if stats["gate_active"]:
        if speedup < SPEEDUP_GATE:
            failed.append(
                f"align stage: mp only {speedup:.2f}x faster than sim "
                f"(< {SPEEDUP_GATE}x on {cores} cores)"
            )
    else:
        stats["gate_skipped"] = (
            f"only {cores} core(s) available (< {REQUIRED_CORES}): "
            f"processes time-share like threads, wall-clock gate void"
        )
    return stats, failed


# ---------------------------------------------------------------------------
# sanitizer overhead: the same stage with collectives in the timed region
# ---------------------------------------------------------------------------


def _chunked_stage_body(comm, npairs: int, length: int,
                        nchunks: int = 8):
    """SPMD body with collective traffic *inside* the timed region:
    align in chunks with a progress allgather per chunk, so the
    sanitizer's per-collective fingerprint prelude is actually on the
    clock.

    Returns ``(stage_seconds, score_checksum)``.
    """
    tasks = _rank_tasks(comm.rank, npairs, length)
    chunk = max(1, len(tasks) // nchunks)
    comm.barrier()
    t0 = time.perf_counter()
    results = []
    for i in range(0, len(tasks), chunk):
        results += align_batch(tasks[i:i + chunk], mode=MODE, k=K,
                               xdrop=XDROP)
        comm.allgather(len(results))
    comm.barrier()
    wall = time.perf_counter() - t0
    return wall, int(sum(r.score for r in results))


def run_sanitizer_overhead(npairs: int,
                           length: int) -> tuple[dict, list[str]]:
    """Time the chunked alignment stage on ``mp`` with the comm
    sanitizer off and on; return (stats, failed gates)."""
    stats: dict = {"npairs_per_rank": npairs, "length": length,
                   "mode": MODE, "backend": "mp"}
    walls = {}
    checksums = {}
    for sanitize in (False, True):
        key = "sanitized" if sanitize else "bare"
        t0 = time.perf_counter()
        res = run_spmd(
            NRANKS, _chunked_stage_body, npairs, length,
            comm_backend="mp", comm_sanitize=sanitize,
        )
        total = time.perf_counter() - t0
        walls[key] = max(w for w, _ in res)
        checksums[key] = [s for _, s in res]
        stats[key] = {
            "stage_walls_s": [round(w, 4) for w, _ in res],
            "stage_wall_s": round(walls[key], 4),
            "run_total_s": round(total, 4),
        }
    overhead = walls["sanitized"] / max(walls["bare"], 1e-9)
    stats["sanitizer_overhead"] = round(overhead, 3)
    stats["gate_active"] = walls["bare"] >= SANITIZER_MIN_WALL_S

    failed = []
    if checksums["bare"] != checksums["sanitized"]:
        failed.append(
            f"sanitizer overhead: score checksums diverged "
            f"(bare={checksums['bare']}, "
            f"sanitized={checksums['sanitized']})"
        )
    if stats["gate_active"]:
        if overhead > SANITIZER_OVERHEAD_GATE:
            failed.append(
                f"sanitizer overhead: {overhead:.2f}x > "
                f"{SANITIZER_OVERHEAD_GATE}x on the alignment stage"
            )
    else:
        stats["gate_skipped"] = (
            f"bare stage only {walls['bare']:.3f}s "
            f"(< {SANITIZER_MIN_WALL_S}s): too fast to judge a ratio"
        )
    return stats, failed


# ---------------------------------------------------------------------------
# full pipeline: byte identity + end-to-end wall clocks
# ---------------------------------------------------------------------------


def _pipeline_store(nfam: int, length: int,
                    seed: int = 21) -> SequenceStore:
    rng = np.random.default_rng(seed)
    seqs: list[str] = []
    for _ in range(nfam):
        seqs += make_family(4, length, divergence=0.15, rng=rng)
    return SequenceStore.from_records(
        [FastaRecord(f"s{i:04d}", f"s{i:04d}", s)
         for i, s in enumerate(seqs)]
    )


def run_pipeline(nfam: int, length: int) -> tuple[dict, list[str]]:
    store = _pipeline_store(nfam, length)
    stats: dict = {"nseqs": len(store), "length": length}
    graphs = {}
    for backend in ("sim", "mp"):
        config = PastisConfig(comm_backend=backend)
        t0 = time.perf_counter()
        graphs[backend] = run_pastis_distributed(store, config,
                                                 nranks=NRANKS)
        stats[backend] = {"wall_s": round(time.perf_counter() - t0, 4)}
    identical = (
        graphs["sim"].edge_set() == graphs["mp"].edge_set()
        and np.array_equal(graphs["sim"].weights, graphs["mp"].weights)
    )
    stats["nedges"] = graphs["sim"].nedges
    stats["byte_identical"] = identical
    failed = [] if identical else [
        "pipeline: edge lists diverged between sim and mp"
    ]
    return stats, failed


def _report_align(s: dict) -> None:
    print(f"\n=== alignment stage, {NRANKS} ranks x "
          f"{s['npairs_per_rank']} pairs of ~{s['length']} aa "
          f"({s['mode']}), {s['cores']} core(s) ===")
    for backend in ("sim", "mp"):
        b = s[backend]
        print(f"{backend:<4} stage wall {b['stage_wall_s']:>8.3f}s  "
              f"(per rank {b['stage_walls_s']})")
    gate = (f"gate >= {SPEEDUP_GATE}x" if s["gate_active"]
            else f"gate skipped: {s['gate_skipped']}")
    print(f"mp over sim: {s['speedup_mp_over_sim']:.2f}x ({gate})")


def _report_sanitizer(s: dict) -> None:
    print(f"\n=== sanitizer overhead, mp, {NRANKS} ranks x "
          f"{s['npairs_per_rank']} pairs of ~{s['length']} aa "
          f"({s['mode']}) ===")
    for key in ("bare", "sanitized"):
        b = s[key]
        print(f"{key:<10} stage wall {b['stage_wall_s']:>8.3f}s  "
              f"(per rank {b['stage_walls_s']}; run total "
              f"{b['run_total_s']}s)")
    gate = (f"gate <= {SANITIZER_OVERHEAD_GATE}x" if s["gate_active"]
            else f"gate skipped: {s['gate_skipped']}")
    print(f"sanitized over bare: {s['sanitizer_overhead']:.2f}x ({gate})")


def _report_pipeline(s: dict) -> None:
    print(f"\n=== full pipeline, {s['nseqs']} seqs, {NRANKS} ranks ===")
    print(f"sim {s['sim']['wall_s']}s, mp {s['mp']['wall_s']}s; "
          f"{s['nedges']} edges, byte-identical: {s['byte_identical']}")


class TestCommBackendBench:
    def test_pipeline_byte_identical(self):
        """Always-on gate: swapping the substrate must not change the
        graph (the cores-independent half of the acceptance criterion)."""
        stats, failed = run_pipeline(nfam=3, length=60)
        _report_pipeline(stats)
        assert not failed, "; ".join(failed)

    def test_alignment_stage_speedup_gate(self):
        """Acceptance: >= 2x mp-over-sim alignment-stage wall clock at 4
        ranks on a >= 4-core machine (skipped below that)."""
        stats, failed = run_align_stage(npairs=32, length=120)
        _report_align(stats)
        assert not failed, "; ".join(failed)
        if not stats["gate_active"]:
            import pytest

            pytest.skip(stats["gate_skipped"])

    def test_sanitizer_overhead_gate(self):
        """Acceptance: the runtime comm sanitizer costs <= 20% of
        alignment-stage wall clock on mp (skipped when the bare stage is
        too short to time)."""
        stats, failed = run_sanitizer_overhead(npairs=32, length=120)
        _report_sanitizer(stats)
        assert not failed, "; ".join(failed)
        if not stats["gate_active"]:
            import pytest

            pytest.skip(stats["gate_skipped"])


# ---------------------------------------------------------------------------
# script mode: JSON artifact for CI trend tracking
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    import argparse
    import json
    import platform

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="shrink the workload for a fast CI smoke run")
    ap.add_argument("--json", default="BENCH_comm.json",
                    help="path of the JSON artifact (default: %(default)s)")
    args = ap.parse_args(argv)

    results = {}
    failed: list[str] = []

    npairs, length = (32, 120) if args.smoke else (96, 160)
    align_stats, align_failed = run_align_stage(npairs, length)
    _report_align(align_stats)
    results["align_stage"] = align_stats
    failed.extend(align_failed)

    san_stats, san_failed = run_sanitizer_overhead(npairs, length)
    _report_sanitizer(san_stats)
    results["sanitizer_overhead"] = san_stats
    failed.extend(san_failed)

    nfam, plen = (3, 60) if args.smoke else (8, 100)
    pipe_stats, pipe_failed = run_pipeline(nfam, plen)
    _report_pipeline(pipe_stats)
    results["pipeline"] = pipe_stats
    failed.extend(pipe_failed)

    payload = {
        "smoke": args.smoke,
        "nranks": NRANKS,
        "cores": available_cores(),
        "speedup_gate": SPEEDUP_GATE,
        "required_cores": REQUIRED_CORES,
        "sanitizer_overhead_gate": SANITIZER_OVERHEAD_GATE,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scenarios": results,
    }
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"\nwrote {args.json}")
    if failed:
        print("FAILED gates:\n  " + "\n  ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
