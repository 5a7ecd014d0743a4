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
    Process-per-rank MPI-style runtime with tracing (the distributed
    substrate).
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

import os

# Set before anything imports NumPy, which reads it once at load.  Nothing
# in the package calls BLAS on a hot path, but an OpenBLAS worker pool
# spins for ~0.1 s of CPU after it starts: ~15 % of a short CLI run when
# it shares the main thread's core, nothing when another core is idle,
# so it would make wall time depend on the machine's load.  A value the
# caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bio.sequences import SequenceStore  # noqa: E402
from .core.config import PastisConfig  # noqa: E402
from .core.distributed import run_pastis_distributed  # noqa: E402
from .core.graph import SimilarityGraph  # noqa: E402
from .core.pipeline import pastis_pipeline  # noqa: E402

__version__ = "1.0.0"

__all__ = [
    "SequenceStore",
    "PastisConfig",
    "SimilarityGraph",
    "pastis_pipeline",
    "run_pastis_distributed",
    "__version__",
]
