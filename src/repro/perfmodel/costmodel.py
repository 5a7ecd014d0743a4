"""Component-level cost model of the distributed pipeline.

For ``p = q²`` nodes the model mirrors the paper's dissection components
(Fig. 15/16): fasta read, form A, transpose A, form S, the SpGEMM(s),
symmetrization, the sequence-exchange wait, and alignment.  Scaling
behaviour of each term:

* embarrassingly parallel compute scales ``1/p`` (alignment, parsing,
  matrix formation, substitute generation);
* SUMMA pays ``q = √p`` broadcast stages of per-stage overhead on top of
  ``1/p`` flops — which is exactly why SpGEMM flattens out and becomes the
  least-scalable component in the paper's Fig. 16;
* the sequence exchange moves ``2n/√p`` sequences per node (Section V-C),
  partially hidden behind the matrix-formation stages; the residual is the
  "wait" component, considerable at small node counts and relatively less
  pronounced once substitute k-mers inflate the compute (both paper
  observations).

The MMseqs2-like model adds the serial single-writer post-processing stage
the paper identified as its scaling bottleneck; the LAST model is
single-node by construction.  All rates are the fitted effective
throughputs documented in :mod:`repro.perfmodel.machine`.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

from ..core.config import PastisConfig
from .machine import MachineSpec
from .workloads import DatasetSpec

__all__ = [
    "CommCostModel",
    "ComponentTimes",
    "pastis_components",
    "pastis_total",
    "mmseqs_total",
    "last_total",
    "alignment_time",
]

_WORD = 24  # bytes per matrix triple on the wire
#: bytes of one alignment result record (ids, score, stats)
_RESULT_BYTES = 48
#: x-drop corridor width in cells per alignment row (effective)
_XD_CORRIDOR = 25.0


@dataclass(frozen=True)
class CommCostModel:
    """Calibrated α–β communication coefficients of the comm transport.

    Fitted by :func:`repro.perfmodel.calibrate.calibrate_comm_model` from
    ping-pong and allgather microbenchmarks:

        ``seconds ≈ nmsgs * alpha + nbytes * beta``

    where ``nmsgs`` / ``nbytes`` count *logical* traced messages — the
    point-to-point decomposition the
    :class:`~repro.mpisim.tracing.CommTracer` records — so a traced
    volume multiplies straight into projected wall time.  Persisted
    under ``graph.meta["commcost"]`` and in
    :class:`~repro.perfmodel.machine.MachineSpec`.
    """

    #: the transport the fit measured (``"mp"``, the only one)
    backend: str
    #: fitted per-message latency (seconds per logical message)
    alpha: float
    #: fitted inverse bandwidth (seconds per logical payload byte)
    beta: float

    def seconds(self, nmsgs: float, nbytes: float) -> float:
        """Predicted wall seconds of moving ``nmsgs`` logical messages
        totalling ``nbytes`` payload bytes."""
        return nmsgs * self.alpha + nbytes * self.beta

    def as_dict(self) -> dict:
        """JSON-serialisable form (``graph.meta`` persistence)."""
        return {
            "backend": self.backend,
            "alpha": self.alpha,
            "beta": self.beta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CommCostModel":
        """Inverse of :meth:`as_dict`."""
        return cls(**d)


def _unhidden_fraction(p: int) -> float:
    """Fraction of the sequence exchange *not* hidden behind the matrix
    stages.  More ranks mean more SUMMA stages and hence more MPI
    progression opportunities, so overlap efficiency improves with p —
    this is what makes "wait" considerable at small node counts and
    marginal at 2025 nodes, the behaviour the paper reports (Fig. 15)."""
    return 1.0 / (1.0 + 0.02 * p)


@dataclass(frozen=True)
class ComponentTimes:
    """Per-component seconds for one configuration at one node count."""

    components: dict

    @property
    def total(self) -> float:
        return sum(self.components.values())

    def fractions(self) -> dict:
        t = self.total
        if t == 0:
            return {k: 0.0 for k in self.components}
        return {k: v / t for k, v in self.components.items()}


def _cells_per_alignment(ds: DatasetSpec, mode: str) -> float:
    if mode == "sw":
        return ds.avg_len * ds.avg_len
    return _XD_CORRIDOR * ds.avg_len


def alignment_time(
    ds: DatasetSpec,
    machine: MachineSpec,
    config: PastisConfig,
    nodes: int,
) -> float:
    """Wall time of the (embarrassingly parallel) alignment stage."""
    n_align = ds.alignments(
        config.substitutes, ck=config.common_kmer_threshold is not None
    )
    cells = n_align * _cells_per_alignment(ds, config.align_mode)
    rate = (
        machine.sw_cells_per_sec
        if config.align_mode == "sw"
        else machine.xd_cells_per_sec
    )
    return cells / (rate * machine.cores_per_node * nodes)


def pastis_components(
    ds: DatasetSpec,
    machine: MachineSpec,
    config: PastisConfig,
    nodes: int,
    include_alignment: bool = False,
) -> ComponentTimes:
    """Model every dissection component at ``nodes`` nodes.

    ``include_alignment=False`` reproduces the paper's scaling studies,
    which exclude alignment (Section VI-A: "we solely focus on the sparse
    matrix operations")."""
    p = max(1, nodes)
    q = math.sqrt(p)
    cores = machine.cores_per_node
    s = config.substitutes

    comp: dict[str, float] = {}
    comp["fasta"] = ds.total_bytes / (machine.parse_bytes_per_sec * cores * p)
    comp["form A"] = ds.a_nnz / (machine.kmer_entries_per_sec * cores * p)
    comp["tr. A"] = (
        _WORD * ds.a_nnz / (machine.transpose_bytes_per_sec * p)
    )
    if s > 0:
        comp["form S"] = ds.s_nnz(s) / (
            machine.substitutes_per_sec * cores * p
        )
        # AS: one output entry per (A entry, S row entry) pair, roughly
        as_entries = ds.a_nnz * (s + 1)
        comp["AS"] = (
            as_entries / (machine.spgemm_entries_per_sec * cores * p)
            + machine.stage_overhead * q
            + machine.beta * _WORD * (ds.a_nnz + ds.s_nnz(s)) / q
        )
    comp["(AS)AT"] = (
        1.5 * ds.b_nnz(s) / (machine.spgemm_entries_per_sec * cores * p)
        + machine.stage_overhead * q
        + machine.beta * _WORD * 2 * ds.a_nnz / q
    )
    if s > 0:
        comp["sym."] = ds.b_nnz(s) / (
            3.0 * machine.spgemm_entries_per_sec * cores * p
        )
    # sequence exchange: 2n/sqrt(p) sequences per node; p = 1 is all-local
    if p > 1:
        exch = (
            2.0 * ds.n_sequences / q * machine.seq_handling_cost
            + machine.beta * 2.0 * ds.total_bytes / q
        )
        comp["wait"] = exch * _unhidden_fraction(p)
    else:
        comp["wait"] = 0.0
    if include_alignment:
        comp["align"] = alignment_time(ds, machine, config, nodes)
    return ComponentTimes(comp)


def pastis_total(
    ds: DatasetSpec,
    machine: MachineSpec,
    config: PastisConfig,
    nodes: int,
) -> float:
    """End-to-end modelled runtime including alignment (Fig. 12/13)."""
    return pastis_components(
        ds, machine, config, nodes, include_alignment=True
    ).total


def mmseqs_total(
    ds: DatasetSpec,
    machine: MachineSpec,
    sensitivity: float,
    nodes: int,
) -> float:
    """MMseqs2-like model.

    The double-hit prefilter and the alignments parallelise cleanly, and a
    lower sensitivity prunes more of both (faster single node).  The serial
    single-writer result processing does not parallelise at all, which is
    the plateau the paper measured ("the processing after running the
    alignments constitutes bulk of the time"); it also explains why the
    high-sensitivity variant — more compute per result byte — scales
    somewhat better, as noted in Section VI-A."""
    p = max(1, nodes)
    cores = machine.cores_per_node
    factor = 0.25 + 0.75 * sensitivity / 5.7
    # prefilter touches every query k-mer times its similar-k-mer fan-out
    prefilter_cells = ds.a_nnz * 2000.0 * (0.3 + sensitivity / 5.7)
    prefilter = prefilter_cells / (machine.sw_cells_per_sec * cores * p)
    # gapped alignments on the double-hit survivors (a small fraction of
    # PASTIS's candidate count — the double-hit gate is aggressive)
    n_align = ds.alignments(0) * 0.18 * factor
    align = n_align * ds.avg_len * ds.avg_len / (
        machine.sw_cells_per_sec * cores * p
    )
    results = n_align * 0.5 * _RESULT_BYTES
    serial = results / machine.serial_output_bytes_per_sec
    gather = machine.beta * results
    return prefilter + align + serial + gather


def last_total(
    ds: DatasetSpec,
    machine: MachineSpec,
    max_initial_matches: int,
) -> float:
    """LAST-like model: single node (shared-memory only), runtime growing
    with the max-initial-matches sensitivity knob; the paper notes its
    single-node time beats three MMseqs2 variants but it cannot scale."""
    cores = machine.cores_per_node
    index = ds.n_sequences * 3.0e-4  # suffix-array build, serial-ish
    seeds = ds.n_sequences * ds.avg_len * (max_initial_matches / 100.0)
    align = seeds * 40.0 * ds.avg_len / (machine.sw_cells_per_sec * cores)
    return index + align
