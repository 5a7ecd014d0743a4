"""PASTIS run configuration.

Defaults follow the paper's evaluation (Section VI): k = 6, BLOSUM62 with
gap open 11 / extend 1, x-drop 49, ANI >= 30 % and shorter-sequence coverage
>= 70 % for the similarity filter, common-k-mer threshold 1 for exact k-mers
and 3 for substitute k-mers when the CK variant is enabled.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from ..align.engine import GAP_LIMIT
from ..bio.scoring import BLOSUM62, ScoringMatrix
from ..kmers.encoding import MAX_K
from .semirings import CK_DIST_LIMIT

__all__ = [
    "ALIGN_BALANCE_MODES",
    "ALIGN_ENGINES",
    "ALIGN_MODES",
    "WEIGHTS",
    "ConfigError",
    "PastisConfig",
    "check_inflation",
    "check_ranks",
]

#: valid values of the choice-valued knobs — the CLI builds its ``choices``
#: from these and the CLI surface test round-trips every one of them
ALIGN_MODES = ("xd", "sw")
WEIGHTS = ("ani", "ns")
ALIGN_ENGINES = ("batched", "python")
ALIGN_BALANCE_MODES = ("off", "greedy")


class ConfigError(ValueError):
    """Invalid :class:`PastisConfig` value, rank count, MCL inflation or
    CLI path pair, raised at construction time — before any rank is
    spawned."""


def check_ranks(nranks: int) -> None:
    """Raise :class:`ConfigError`, before any rank is spawned, unless
    ``nranks`` is a positive perfect square (the 2-D grid takes no other)."""
    if nranks < 1 or math.isqrt(nranks) ** 2 != nranks:
        raise ConfigError(
            "ranks must be a positive perfect square (1, 4, 9, ...), "
            f"got {nranks}"
        )


def check_inflation(inflation: float) -> None:
    """Raise :class:`ConfigError` unless the MCL ``inflation`` is a finite
    number > 1: at 1 the inflation step is the identity, below it the
    iteration smears clusters together, and NaN never converges."""
    if not (math.isfinite(inflation) and inflation > 1):
        raise ConfigError(
            f"inflation must be a finite number > 1, got {inflation}"
        )


def _default_comm_sanitize() -> bool:
    """``comm_sanitize``'s default honours ``REPRO_COMM_SANITIZE``, so CI
    can run the whole suite under the runtime comm sanitizer without
    touching any call site."""
    return os.environ.get(
        "REPRO_COMM_SANITIZE", ""
    ).strip().lower() in ("1", "true", "yes", "on")


@dataclass(frozen=True)
class PastisConfig:
    """Every knob of the pipeline, immutable so runs are reproducible.

    Attributes
    ----------
    k:
        Seed length (paper uses 6).
    substitutes:
        Number of substitute k-mers per k-mer (``s`` in the paper's variant
        names); 0 disables the ``S`` matrix (exact matching).
    align_mode:
        ``"xd"`` (seed-and-extend gapped x-drop) or ``"sw"``
        (Smith-Waterman).
    common_kmer_threshold:
        The CK parameter: candidate pairs sharing this many k-mers *or
        fewer* are dropped before alignment; ``None`` disables.  The paper
        uses 1 for exact and 3 for substitute k-mers.
    weight:
        Edge weighting: ``"ani"`` (identity; implies the similarity filter)
        or ``"ns"`` (normalized raw score; the paper applies no cut-off).
    align_engine:
        Alignment-stage engine: ``"batched"`` (the default) packs each
        rank's candidate pairs into padded lanes and advances every DP row
        in all live lanes at once — the NumPy analogue of the paper's
        SeqAn inter-sequence batching; ``"python"`` is the per-pair
        reference path.  Both produce byte-identical results (a tested
        invariant).
    align_balance:
        Cross-rank alignment rebalancing (distributed pipeline only):

        * ``"off"`` (the default) aligns each rank's Fig.-11 triangle
          where it was extracted;
        * ``"greedy"`` costs every task in DP cells, computes one
          identical greedy bin-pack plan on all ranks
          (:mod:`repro.core.balance`), and ships tasks so no rank waits
          on the unluckiest triangle.

        The graph is byte-identical in both modes (a tested invariant —
        rebalancing moves work, never changes it).
    comm_sanitize:
        Run the distributed pipeline under the runtime comm sanitizer
        (:class:`repro.analysis.sanitizer.SanitizedComm`): every
        collective is fingerprinted and lockstep-checked across ranks —
        an SPMD divergence raises a named
        :class:`~repro.mpisim.backend.SpmdError` instead of deadlocking
        — and unmatched sends / leaked shared-memory segments are
        reported at teardown.  Payloads are untouched, so the graph
        stays byte-identical; the fingerprint exchange costs one extra
        small allgather per collective.  The default honours the
        ``REPRO_COMM_SANITIZE`` environment variable (truthy values:
        ``1``/``true``/``yes``/``on``).
    """

    k: int = 6
    substitutes: int = 0
    align_mode: str = "xd"
    common_kmer_threshold: int | None = None
    weight: str = "ani"
    scoring: ScoringMatrix = field(default=BLOSUM62)
    gap_open: int = 11
    gap_extend: int = 1
    xdrop: int = 49
    min_identity: float = 0.30
    min_coverage: float = 0.70
    align_engine: str = "batched"
    align_balance: str = "off"
    comm_sanitize: bool = field(default_factory=_default_comm_sanitize)

    def __post_init__(self) -> None:
        if self.align_mode not in ALIGN_MODES:
            raise ConfigError("align_mode must be 'xd' or 'sw'")
        if self.align_engine not in ALIGN_ENGINES:
            raise ConfigError("align_engine must be 'batched' or 'python'")
        if self.align_balance not in ALIGN_BALANCE_MODES:
            raise ConfigError("align_balance must be 'off' or 'greedy'")
        if self.weight not in WEIGHTS:
            raise ConfigError("weight must be 'ani' or 'ns'")
        if not 1 <= self.k <= MAX_K:
            raise ConfigError(
                f"k must be between 1 and {MAX_K} (k-mer ids are int64), "
                f"got {self.k}"
            )
        if self.substitutes < 0:
            raise ConfigError("substitutes must be non-negative")
        # a k-mer's substitution distance is a sum of k expenses, and it
        # must fit the seed pack (whatever the substitutes)
        costs = self.scoring.expense_matrix().costs
        reach = self.k * int(abs(costs).max())
        if reach >= CK_DIST_LIMIT:
            raise ConfigError(
                f"k x the largest |expense| of scoring {self.scoring.name!r} "
                f"is {reach}; the seed pack holds distances below "
                f"{int(CK_DIST_LIMIT)}"
            )
        if self.common_kmer_threshold is not None and (
            self.common_kmer_threshold < 0
        ):
            raise ConfigError("common_kmer_threshold must be non-negative")
        for name in ("gap_open", "gap_extend", "xdrop"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        for name in ("gap_open", "gap_extend"):
            if getattr(self, name) > GAP_LIMIT:
                raise ConfigError(
                    f"{name} must be at most {GAP_LIMIT} (the batched "
                    f"alignment kernels' bound), got {getattr(self, name)}"
                )
        for name in ("min_identity", "min_coverage"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(
                    f"{name} must be a fraction in [0, 1], "
                    f"got {getattr(self, name)}"
                )

    @property
    def uses_filter(self) -> bool:
        """The 30 %/70 % veto applies to ANI weighting only (Section VI-B:
        no cut-off is applied under NS)."""
        return self.weight == "ani"

    @property
    def needs_traceback(self) -> bool:
        """A traceback is only paid for when something consumes it: the
        ANI weight or the similarity filter.  NS runs score-only
        (stats.py: "NS ... cheaper because no traceback is needed")."""
        return self.uses_filter or self.weight == "ani"

    @property
    def variant_name(self) -> str:
        """Paper-style variant label, e.g. ``PASTIS-XD-s25-CK``."""
        name = f"PASTIS-{self.align_mode.upper()}-s{self.substitutes}"
        if self.common_kmer_threshold is not None:
            name += "-CK"
        return name

    def default_ck(self) -> "PastisConfig":
        """This configuration with the paper's default CK threshold for its
        k-mer mode (1 exact / 3 substitute)."""
        from dataclasses import replace

        return replace(
            self, common_kmer_threshold=1 if self.substitutes == 0 else 3
        )
