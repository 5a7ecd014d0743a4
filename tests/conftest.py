"""Shared fixtures for the PASTIS reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.align.batch import align_batch
from repro.bio.generate import scope_like
from repro.bio.sequences import SequenceStore
from repro.core.graph import SimilarityGraph
from repro.core.overlap import find_candidate_pairs_semiring
from repro.core.pipeline import (
    align_kwargs,
    edges_from_alignments,
    tasks_from_pairs,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_store() -> SequenceStore:
    """A tiny deterministic store with known shared k-mers."""
    return SequenceStore(
        [
            "AVGDMIKRAVG",   # shares AVG (x2) and DMI with seq1
            "AVGPDMIWKL",
            "WWWWYYYY",      # unrelated
            "AVGDMIKRAV",    # near-duplicate of seq0
        ],
        ids=["s0", "s1", "s2", "s3"],
    )


@pytest.fixture
def family_data():
    """Small SCOPe-like dataset with ground truth."""
    return scope_like(
        n_families=4,
        members_per_family=(3, 4),
        length_range=(50, 80),
        divergence=0.2,
        seed=77,
    )


def _oracle_graph(store, config, s_triples=None) -> SimilarityGraph:
    """The similarity graph of the object-semiring oracle: candidate pairs
    from :func:`find_candidate_pairs_semiring` (scalar ``spgemm_hash``, no
    SUMMA, no seed pack), then the pipeline's own CK filter, alignment and
    edge filter on one process."""
    pairs = find_candidate_pairs_semiring(store, config, s_triples)
    tasks = tasks_from_pairs(
        pairs.apply_ck_threshold(config.common_kmer_threshold),
        store.encoded,
    )
    results = align_batch(tasks, **align_kwargs(config))
    return SimilarityGraph.from_edges(
        len(store), edges_from_alignments(zip(tasks, results), config),
        ids=list(store.ids),
    )


@pytest.fixture(scope="session")
def oracle_graph():
    """``oracle_graph(store, config, s_triples=None)``: the reference the
    pipeline's graph must equal at every rank count."""
    return _oracle_graph
