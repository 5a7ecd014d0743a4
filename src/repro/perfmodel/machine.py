"""Machine descriptions for the performance model.

The paper's performance evaluation ran on NERSC Cori: Haswell nodes (2x16
cores, AVX2 alignment kernels) for the tool comparison (Fig. 12/13, Table
I) and KNL nodes (68 cores) for the scaling studies (Fig. 14-16).  We
cannot run on Cori, so the figures are regenerated from an α–β style
component model whose rates are **fitted effective throughputs**: they are
chosen so the model reproduces the paper's measured anchor magnitudes
(e.g. ~774 s total for the 2.5M-sequence matrix stages at 64 KNL nodes,
~8000 s for the slowest variant on 0.5M sequences at one Haswell node) and
therefore absorb memory traffic, load imbalance, MPI progression, and I/O
contention — not just peak arithmetic.  ``tests/test_perfmodel.py``
checks curve *shapes* (who wins, where crossovers fall, slopes), never
absolute seconds.

Notable fitted values and where they come from:

* ``spgemm_entries_per_sec`` — effective B-entry formation rate per core.
  The paper's 64-node KNL run spends roughly 500 s in SpGEMM producing
  ~2x10¹⁰ output entries (2.5M sequences, exact k-mers), implying ~10⁴
  entries/s/core once semiring value construction and hashing are counted.
* ``sw_cells_per_sec`` — effective DP cells per second per core such that
  399 M Smith-Waterman alignments of ~113-residue sequences take a few
  thousand seconds on a handful of Haswell nodes (Fig. 12's scale).
* ``stage_overhead`` — per-SUMMA-stage synchronisation/serialisation cost;
  this is the term that makes SpGEMM the least scalable component at 2025
  nodes, as the paper observes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MachineSpec", "CORI_HASWELL", "CORI_KNL"]


@dataclass(frozen=True)
class MachineSpec:
    """Effective per-core rates plus per-node communication constants."""

    name: str
    cores_per_node: int
    #: effective Smith-Waterman DP cells per second per core
    sw_cells_per_sec: float
    #: effective gapped x-drop cells per second per core (corridor cells)
    xd_cells_per_sec: float
    #: effective SpGEMM output entries (semiring multiply+merge) per second
    #: per core — see module docstring
    spgemm_entries_per_sec: float
    #: matrix formation entries per second per core (extraction + alltoall
    #: redistribution + local DCSC build)
    kmer_entries_per_sec: float
    #: substitute k-mer entries of S generated per second per core
    substitutes_per_sec: float
    #: FASTA bytes parsed per second per core (includes parallel file I/O)
    parse_bytes_per_sec: float
    #: effective transpose exchange bandwidth per node (bytes/s)
    transpose_bytes_per_sec: float
    #: per-SUMMA-stage overhead (s): synchronisation + block serialisation
    stage_overhead: float
    #: per-sequence handling cost of the background exchange (s) — covers
    #: packing and MPI progression delays
    seq_handling_cost: float
    #: network inverse bandwidth for bulk payloads (s/byte/node)
    beta: float
    #: single-writer output throughput (bytes/s): the serial result
    #: gathering that caps MMseqs2-like scaling (Section VI-A)
    serial_output_bytes_per_sec: float
    #: per-message latency (s/message) of the α–β comm model; the Cori
    #: value is a literature-plausible constant, while
    #: ``calibrate_local_machine`` overwrites it (and ``beta``) with the
    #: coefficients :func:`repro.perfmodel.calibrate.calibrate_comm_model`
    #: fits on this machine's process-per-rank transport
    comm_alpha: float = 2.0e-6


CORI_HASWELL = MachineSpec(
    name="cori-haswell",
    cores_per_node=32,
    sw_cells_per_sec=2.4e7,
    xd_cells_per_sec=9.5e6,
    spgemm_entries_per_sec=14_000,
    kmer_entries_per_sec=5_000,
    substitutes_per_sec=1_500,
    parse_bytes_per_sec=2.0e5,
    transpose_bytes_per_sec=2.0e7,
    stage_overhead=0.05,
    seq_handling_cost=6.4e-4,
    beta=1.0 / 8.0e9,
    serial_output_bytes_per_sec=1.4e7,
)

CORI_KNL = MachineSpec(
    name="cori-knl",
    cores_per_node=68,
    sw_cells_per_sec=8.0e6,
    xd_cells_per_sec=3.2e6,
    spgemm_entries_per_sec=14_000,
    kmer_entries_per_sec=2_000,
    substitutes_per_sec=700,
    parse_bytes_per_sec=1.0e4,
    transpose_bytes_per_sec=1.0e7,
    stage_overhead=0.2,
    seq_handling_cost=6.4e-4,
    beta=1.0 / 8.0e9,
    serial_output_bytes_per_sec=1.4e7,
)
