"""PASTIS core: configuration, custom semirings, overlap detection, and the
SPMD pipeline driver (``pastis_pipeline`` is that driver at one rank)."""

from .config import PastisConfig
from .distributed import pastis_rank, run_pastis_distributed, store_to_fasta_bytes
from .graph import SimilarityGraph
from .overlap import (
    CandidatePairs,
    build_a_triples,
    build_s_triples,
    find_candidate_pairs,
    symmetrize_candidates,
)
from .pipeline import edge_weight, pastis_pipeline
from .semirings import MAX_SEEDS, substitute_as_numeric_semiring

__all__ = [
    "PastisConfig",
    "pastis_rank",
    "run_pastis_distributed",
    "store_to_fasta_bytes",
    "SimilarityGraph",
    "CandidatePairs",
    "build_a_triples",
    "build_s_triples",
    "find_candidate_pairs",
    "symmetrize_candidates",
    "edge_weight",
    "pastis_pipeline",
    "MAX_SEEDS",
    "substitute_as_numeric_semiring",
]
