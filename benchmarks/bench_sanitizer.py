"""Wall-clock overhead of the runtime comm sanitizer.

No end-to-end workload passes ``--comm-sanitize``, so this is the one
timing gate outside ``benchmarks/e2e``: a 4-rank alignment stage with a
collective per chunk on the clock, run with the sanitizer off and on,
must give the same scores and stay within :data:`SANITIZER_OVERHEAD_GATE`
(the fingerprint prelude is one extra small allgather per collective).

Run:  PYTHONPATH=src python -m pytest -q -s benchmarks/bench_sanitizer.py
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.align.batch import AlignmentTask, align_batch
from repro.bio.alphabet import encode_sequence
from repro.bio.generate import make_family
from repro.mpisim.backend import run_spmd

NRANKS = 4

#: acceptance gate — the comm sanitizer may cost at most this factor of
#: alignment-stage wall clock...
SANITIZER_OVERHEAD_GATE = 1.20
#: ...judged only when the bare stage is long enough to time reliably
SANITIZER_MIN_WALL_S = 0.05

K, XDROP, MODE = 6, 49, "sw"


def _rank_tasks(rank: int, npairs: int, length: int,
                seed: int = 7) -> list[AlignmentTask]:
    """Deterministic per-rank batch of family-related pairs; every rank
    gets the same load, so balance plays no part."""
    rng = np.random.default_rng(seed + rank)
    tasks = []
    for i in range(npairs):
        a, b = (encode_sequence(s)
                for s in make_family(2, length, divergence=0.15, rng=rng))
        tasks.append(AlignmentTask(a=a, b=b, seeds=((0, 0),),
                                   pair=(rank, i)))
    return tasks


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


def run_sanitizer_overhead(npairs: int, length: int) -> dict:
    """Time the chunked alignment stage with the comm sanitizer off and
    on; return the slowest-rank stage walls and the per-rank score
    checksums of both runs."""
    stats: dict = {}
    for key, sanitize in (("bare", False), ("sanitized", True)):
        res = run_spmd(NRANKS, _chunked_stage_body, npairs, length,
                       comm_sanitize=sanitize)
        stats[key] = {"stage_wall_s": max(w for w, _ in res),
                      "checksums": [s for _, s in res]}
    return stats


def test_sanitizer_overhead_gate():
    """The runtime comm sanitizer costs <= 20% of alignment-stage wall
    clock (skipped when the bare stage is too short to time)."""
    stats = run_sanitizer_overhead(npairs=32, length=120)
    bare, sanitized = stats["bare"], stats["sanitized"]
    overhead = sanitized["stage_wall_s"] / max(bare["stage_wall_s"], 1e-9)
    print(f"\nsanitizer overhead, {NRANKS} ranks x 32 pairs of ~120 aa "
          f"({MODE}): bare {bare['stage_wall_s']:.3f}s, sanitized "
          f"{sanitized['stage_wall_s']:.3f}s, {overhead:.2f}x "
          f"(gate <= {SANITIZER_OVERHEAD_GATE}x)")
    assert bare["checksums"] == sanitized["checksums"], (
        "score checksums diverged under the sanitizer"
    )
    if bare["stage_wall_s"] < SANITIZER_MIN_WALL_S:
        pytest.skip(f"bare stage only {bare['stage_wall_s']:.3f}s "
                    f"(< {SANITIZER_MIN_WALL_S}s): too fast to judge a ratio")
    assert overhead <= SANITIZER_OVERHEAD_GATE, (
        f"sanitizer overhead {overhead:.2f}x > {SANITIZER_OVERHEAD_GATE}x "
        f"on the alignment stage"
    )
