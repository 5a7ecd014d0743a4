"""PASTIS reproduction: distributed many-to-many protein sequence alignment
using sparse matrices (Selvitopi et al., SC'20).

Subpackages
-----------
``repro.bio``
    Alphabet, scoring matrices, FASTA I/O, sequence storage, synthetic
    dataset generators.
``repro.kmers``
    Base-24 k-mer encoding, extraction, and the m-nearest substitute k-mer
    search (paper Algorithms 1-3).
``repro.sparse``
    CombBLAS stand-in: semiring SpGEMM, COO/CSR storage, 2-D block
    distribution, Sparse SUMMA.
``repro.mpisim``
    Thread-based simulated MPI with tracing (the distributed substrate).
``repro.align``
    SeqAn stand-in: Smith-Waterman (Gotoh), gapped x-drop, ungapped
    extension, batch driver.
``repro.core``
    The PASTIS pipeline: configuration, custom semirings, overlap
    detection, and the one SPMD driver (inline at a single rank).
``repro.cluster``
    Markov Clustering (HipMCL stand-in), connected components, weighted
    precision/recall.
``repro.baselines``
    MMseqs2-like and LAST-like comparators.
``repro.perfmodel``
    Cost model regenerating the paper's scaling figures.

Quickstart
----------
>>> from repro import PastisConfig, pastis_pipeline
>>> from repro.bio import scope_like
>>> data = scope_like(n_families=5, seed=0)
>>> graph = pastis_pipeline(data.store, PastisConfig(k=4))
>>> graph.nedges > 0
True
"""

from .bio.sequences import SequenceStore
from .core.config import PastisConfig
from .core.distributed import run_pastis_distributed
from .core.graph import SimilarityGraph
from .core.pipeline import pastis_pipeline

__version__ = "1.0.0"

__all__ = [
    "SequenceStore",
    "PastisConfig",
    "SimilarityGraph",
    "pastis_pipeline",
    "run_pastis_distributed",
    "__version__",
]
