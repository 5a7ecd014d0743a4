"""Golden process-obliviousness test.

The paper stresses that PASTIS's output is "oblivious to the number of
processes"; this repo extends the invariant across implementation knobs:
the pipeline's serialised edge list must be byte-identical across 1, 4, and
9 processes, every alignment engine × balance mode, AND to the graph of the
object-semiring oracle (``semiring_oracle.find_candidate_pairs_semiring``:
scalar SpGEMM, no SUMMA, no seed pack).
Any nondeterminism or accumulation-order dependence introduced into the
sparse stack shows up here first; generated inputs, pair by pair, are the
business of ``test_overlap_oracle.py``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bio.generate import scope_like
from repro.core.config import (
    ALIGN_BALANCE_MODES,
    ALIGN_ENGINES,
    PastisConfig,
)
from repro.core.distributed import run_pastis_distributed
from repro.core.graph import SimilarityGraph
from repro.core.pipeline import pastis_pipeline


@pytest.fixture(scope="module")
def data():
    return scope_like(
        n_families=4, members_per_family=(3, 4), length_range=(40, 70),
        divergence=0.15, seed=33,
    )


@pytest.fixture(scope="module")
def golden_default(data):
    """Single-process serialisation under the default config — the
    reference every implementation knob must reproduce byte-for-byte."""
    golden = edge_bytes(pastis_pipeline(data.store, PastisConfig()))
    assert golden, "pipeline produced no edges — the invariant is vacuous"
    return golden


def edge_bytes(graph: SimilarityGraph) -> bytes:
    """Canonical byte serialisation of the PSG edge list."""
    edges = sorted(
        zip(graph.ri.tolist(), graph.rj.tolist(), graph.weights.tolist())
    )
    return "\n".join(
        f"{i} {j} {w:.12f}" for i, j, w in edges
    ).encode("ascii")


CONFIGS = [
    pytest.param(PastisConfig(), id="exact"),
    pytest.param(PastisConfig(substitutes=3), id="substitutes"),
]


@pytest.mark.parametrize("config", CONFIGS)
def test_golden_oblivious(data, config, oracle_graph):
    golden = edge_bytes(pastis_pipeline(data.store, config))
    assert golden, "pipeline produced no edges — the invariant is vacuous"

    # the count pipeline and the object-semiring oracle serialise
    # identically
    assert edge_bytes(oracle_graph(data.store, config)) == golden, (
        "the oracle's graph diverged from golden"
    )

    # process obliviousness: the distributed pipeline (whose AS stage runs
    # on the numeric path) serialises identically on every grid — with the
    # cross-rank alignment rebalancer off and statically planned
    # (greedy): rebalancing moves alignment work between ranks, never
    # changes it
    for nranks in (1, 4, 9):
        for balance in ALIGN_BALANCE_MODES:
            got = edge_bytes(
                run_pastis_distributed(
                    data.store, replace(config, align_balance=balance),
                    nranks=nranks,
                )
            )
            assert got == golden, (
                f"{nranks} ranks (align_balance={balance!r}) diverged "
                f"from golden"
            )


@pytest.mark.parametrize("engine", ALIGN_ENGINES)
@pytest.mark.parametrize("balance", ALIGN_BALANCE_MODES)
def test_golden_engine_balance_oblivious(data, golden_default, engine,
                                         balance):
    """Every engine × balance combination serialises byte-identically at
    4 ranks: an implementation knob moves work, never the graph."""
    got = edge_bytes(
        run_pastis_distributed(
            data.store,
            PastisConfig(align_engine=engine, align_balance=balance),
            nranks=4,
        )
    )
    assert got == golden_default, (
        f"engine={engine!r}, balance={balance!r} diverged from golden"
    )


def test_more_ranks_than_sequences():
    """9 ranks over 8 sequences: some rank parses no sequences, and its
    empty contribution must not perturb the result — nor (a regression)
    promote the typed value arrays and knock the AS stage off the numeric
    path."""
    tiny = scope_like(
        n_families=2, members_per_family=(4, 4), length_range=(40, 60),
        divergence=0.2, seed=11,
    )
    assert len(tiny.store) == 8
    config = PastisConfig(substitutes=2)
    golden = edge_bytes(pastis_pipeline(tiny.store, config))
    got = edge_bytes(run_pastis_distributed(tiny.store, config, nranks=9))
    assert got == golden
