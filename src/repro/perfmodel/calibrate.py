"""Calibration of a "this machine, this Python" MachineSpec.

The Cori specs in :mod:`repro.perfmodel.machine` are literature-plausible
constants.  For experiments that compare the model against *measured* local
runs (the functional pipeline at small rank counts), this module measures
the real throughput of our own kernels — alignment cells/s, SpGEMM partial
products/s, substitute generations/s, parse bytes/s — and assembles a
:class:`~repro.perfmodel.machine.MachineSpec` describing the interpreter we
are actually running on.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from ..align.smith_waterman import smith_waterman
from ..align.xdrop import xdrop_align
from ..bio.generate import random_protein
from ..bio.alphabet import encode_sequence
from ..kmers.substitutes import substitute_kmers_batch
from ..sparse.coo import COOMatrix
from ..sparse.semiring import COUNTING
from ..sparse.spgemm import spgemm_coo
from ..mpisim.backend import run_spmd
from ..mpisim.tracing import payload_bytes
from .costmodel import CommCostModel
from .machine import MachineSpec

__all__ = [
    "calibrate_comm_model",
    "calibrate_local_machine",
]


def _time(fn, *args, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _fit_mode(points: list[tuple[float, int, float]]) -> tuple[float, float]:
    """Least-squares fit of ``seconds ≈ cells * c1 + ntasks * c2`` over the
    measured ``(cells, ntasks, seconds)`` points; returns
    ``(cells_per_sec, task_overhead)`` with a robust fallback to the bulk
    rate whenever the fitted slope is non-physical (tiny noisy samples)."""
    cells = np.array([p[0] for p in points], dtype=np.float64)
    ntasks = np.array([p[1] for p in points], dtype=np.float64)
    secs = np.array([p[2] for p in points], dtype=np.float64)
    design = np.stack([cells, ntasks], axis=1)
    (c1, c2), *_ = np.linalg.lstsq(design, secs, rcond=None)
    if c1 <= 0 or not np.isfinite(c1):
        return float(cells.sum() / max(secs.sum(), 1e-9)), 0.0
    return float(1.0 / c1), float(max(c2, 0.0))


# ---------------------------------------------------------------------------
# comm transport α–β fit (the static comm-cost predictor's time axis)
# ---------------------------------------------------------------------------

#: memoised fits keyed by (backend, sizes, rounds): repeated analyses and
#: pipeline runs pay the SPMD microbench once per process
_COMM_MODEL_CACHE: dict[tuple, CommCostModel] = {}

#: p2p tags of the ping-pong microbench; it runs in a world of its own,
#: so no other protocol's message ever shares its inbox
_TAG_PING = 93
_TAG_PONG = 94


def _pingpong_rank(comm, nbytes: int, rounds: int) -> float:
    """SPMD body: ``rounds`` ping-pong round trips of an ``nbytes``
    float64 payload between ranks 0 and 1; returns the loop seconds."""
    payload = np.zeros(max(1, nbytes // 8), dtype=np.float64)
    comm.barrier()
    t0 = time.perf_counter()
    if comm.rank == 0:
        for _ in range(rounds):
            comm.send(payload, dest=1, tag=_TAG_PING)
            comm.recv(source=1, tag=_TAG_PONG)
    else:
        for _ in range(rounds):
            echo = comm.recv(source=0, tag=_TAG_PING)
            comm.send(echo, dest=0, tag=_TAG_PONG)
    return time.perf_counter() - t0


def _allgather_rank(comm, nbytes: int, rounds: int) -> float:
    """SPMD body: ``rounds`` allgathers of an ``nbytes`` float64 payload;
    returns the loop seconds."""
    payload = np.zeros(max(1, nbytes // 8), dtype=np.float64)
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(rounds):
        comm.allgather(payload)
    return time.perf_counter() - t0


def calibrate_comm_model(
    backend: str = "mp",
    sizes: tuple[int, ...] = (1_024, 262_144),
    rounds: int = 8,
    allgather_ranks: int = 4,
) -> CommCostModel:
    """Fit the transport's α (s/message) and β (s/byte) comm
    coefficients.

    For every payload size, a 2-rank ping-pong and an
    ``allgather_ranks``-rank allgather loop are timed *inside* the SPMD
    body (startup cost excluded), and the wall seconds are regressed
    against the **logical** message/byte counts the
    :class:`~repro.mpisim.tracing.CommTracer` would record for the same
    traffic — so predictions made from traced or statically derived
    volumes multiply straight into seconds.  Cheap by construction (four
    short process-fleet runs) and memoised per configuration.
    ``backend`` accepts ``"mp"``, the one transport, only.
    """
    key = (backend, tuple(sizes), int(rounds), int(allgather_ranks))
    cached = _COMM_MODEL_CACHE.get(key)
    if cached is not None:
        return cached
    points: list[tuple[float, int, float]] = []  # (bytes, msgs, secs)
    for nbytes in sizes:
        wire = payload_bytes(np.zeros(max(1, nbytes // 8),
                                      dtype=np.float64))
        times = run_spmd(2, _pingpong_rank, nbytes, rounds,
                         comm_backend=backend)
        nmsgs = 2 * rounds
        points.append((float(wire * nmsgs), nmsgs, max(max(times), 1e-9)))
        times = run_spmd(allgather_ranks, _allgather_rank, nbytes, rounds,
                         comm_backend=backend)
        nmsgs = rounds * allgather_ranks * (allgather_ranks - 1)
        points.append((float(wire * nmsgs), nmsgs, max(max(times), 1e-9)))
    # same design as _fit_mode with the roles swapped: β is the slope in
    # bytes, α the slope in messages
    rate, overhead = _fit_mode(points)
    model = CommCostModel(
        backend=backend, alpha=overhead, beta=1.0 / max(rate, 1e-9)
    )
    _COMM_MODEL_CACHE[key] = model
    return model


def calibrate_local_machine(seed: int = 0, cores: int = 1) -> MachineSpec:
    """Measure this interpreter's kernel rates and return a MachineSpec.

    Cheap by construction (fractions of a second per kernel).  The local
    counterpart of the fitted Cori specs: the rates to evaluate the cost
    model with when judging it against runs measured on this machine.
    """
    rng = np.random.default_rng(seed)
    a = encode_sequence(random_protein(150, rng))
    b = encode_sequence(random_protein(150, rng))

    t_sw = _time(smith_waterman, a, b)
    sw_rate = len(a) * len(b) / max(t_sw, 1e-9)

    t_xd = _time(lambda: xdrop_align(a, b, 10, 10, 6, xdrop=49))
    xd_rate = 50.0 * len(a) / max(t_xd, 1e-9)

    # SpGEMM partial products
    n, k, nnz = 100, 400, 2000
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, k, nnz)
    m1 = COOMatrix(
        n, k, rows, cols, np.ones(nnz, dtype=np.int64)
    ).sum_duplicates(lambda x, y: x)
    m2 = m1.transpose()
    flops = sum(
        int(c) * int(c)
        for c in np.bincount(cols, minlength=k)
    )
    # the dispatcher every pipeline stage runs, not the scalar reference
    t_sp = _time(spgemm_coo, m1, m2, COUNTING)
    sp_rate = flops / max(t_sp, 1e-9)

    # one batch, as form S runs it: a single-root call would time the call
    # overhead, not the throughput; the rate is in entries of S (identity
    # + 25 substitutes per root), the unit MachineSpec documents
    roots = rng.choice(24**6, size=256, replace=False)
    t_sub = _time(substitute_kmers_batch, roots, 6, 25)
    sub_rate = len(roots) * 26 / max(t_sub, 1e-9)

    text = ("M" + random_protein(9999, rng)).encode()
    from ..bio.fasta import read_fasta_chunk

    fasta = b">s\n" + text + b"\n"
    t_parse = _time(read_fasta_chunk, fasta, 0, len(fasta))
    parse_rate = len(fasta) / max(t_parse, 1e-9)

    comm = calibrate_comm_model()

    return MachineSpec(
        name="python-local",
        cores_per_node=cores,
        sw_cells_per_sec=sw_rate,
        xd_cells_per_sec=xd_rate,
        spgemm_entries_per_sec=sp_rate,
        kmer_entries_per_sec=parse_rate / 4.0,
        substitutes_per_sec=sub_rate,
        parse_bytes_per_sec=parse_rate,
        transpose_bytes_per_sec=2.0e8,
        stage_overhead=1e-4,
        seq_handling_cost=2e-6,
        beta=comm.beta,
        serial_output_bytes_per_sec=2.0e8,
        comm_alpha=comm.alpha,
    )
