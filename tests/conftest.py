"""Shared fixtures for the PASTIS reproduction test suite."""

from __future__ import annotations

import os
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.align.batch import align_batch
from repro.bio.generate import scope_like
from repro.bio.sequences import SequenceStore
from repro.core.graph import SimilarityGraph
from repro.core.pipeline import (
    align_kwargs,
    edges_from_alignments,
    tasks_from_pairs,
)
from semiring_oracle import find_candidate_pairs_semiring


class RankLog:
    """Observations made inside rank processes, read back in the parent.

    Ranks are forked processes: a patch made before the run is inherited,
    but a list it appends to is each rank's own copy, so nothing a rank
    records reaches the parent that way.  Each process appends to its own
    file under ``root`` instead."""

    def __init__(self, root: Path):
        self.root = root

    def append(self, obj) -> None:
        with open(self.root / f"{os.getpid()}.pkl", "ab") as fh:
            pickle.dump(obj, fh)

    def read(self) -> list:
        """Every record, process by process, in each process's order."""
        out = []
        for path in sorted(self.root.glob("*.pkl")):
            with open(path, "rb") as fh:
                while True:
                    try:
                        out.append(pickle.load(fh))
                    except EOFError:
                        break
        return out

    def clear(self) -> None:
        for path in self.root.glob("*.pkl"):
            path.unlink()


@pytest.fixture
def rank_log(tmp_path) -> RankLog:
    return RankLog(tmp_path)


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
