"""Golden process-obliviousness test.

The paper stresses that PASTIS's output is "oblivious to the number of
processes"; this repo extends the invariant across implementation knobs:
the pipeline's serialised edge list must be byte-identical across 1, 4, and
9 simulated processes, every alignment engine × balance mode × comm
backend, AND to the graph of the object-semiring oracle
(``find_candidate_pairs_semiring``: scalar SpGEMM, no SUMMA, no seed pack).
Any nondeterminism or accumulation-order dependence introduced into the
sparse stack shows up here first.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bio.alphabet import PROTEIN_ALPHABET
from repro.bio.generate import scope_like
from repro.bio.sequences import SequenceStore
from repro.core.config import (
    ALIGN_BALANCE_MODES,
    ALIGN_ENGINES,
    PastisConfig,
)
from repro.core.distributed import run_pastis_distributed
from repro.core.graph import SimilarityGraph
from repro.core.overlap import (
    find_candidate_pairs,
    find_candidate_pairs_semiring,
)
from repro.core.pipeline import pastis_pipeline

# the module, not the function ``repro.sparse`` re-exports under its name
summa_module = sys.modules["repro.sparse.summa"]


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

    # the packed-record pipeline and the object-semiring oracle serialise
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
def test_golden_comm_backend_oblivious(data, golden_default, engine,
                                       balance):
    """Comm-backend obliviousness: the thread simulator and the
    process-per-rank backend serialise byte-identically for every
    engine × balance combination — swapping the SPMD substrate
    (threads + shared heap vs processes + shared-memory messaging) must
    never change the graph."""
    config = PastisConfig(align_engine=engine, align_balance=balance)
    for backend in ("sim", "mp"):
        got = edge_bytes(
            run_pastis_distributed(
                data.store, replace(config, comm_backend=backend),
                nranks=4,
            )
        )
        assert got == golden_default, (
            f"comm_backend={backend!r} (engine={engine!r}, "
            f"balance={balance!r}) diverged from golden"
        )


@pytest.mark.parametrize("nranks", [1, 4, 9])
def test_golden_comm_backend_rank_sweep(data, golden_default, nranks):
    """Backend obliviousness across grid sizes, including ranks that
    parse no sequences (9 ranks) and the degenerate 1-rank world."""
    for backend in ("sim", "mp"):
        got = edge_bytes(
            run_pastis_distributed(
                data.store, PastisConfig(comm_backend=backend),
                nranks=nranks,
            )
        )
        assert got == golden_default, (
            f"comm_backend={backend!r} at {nranks} ranks diverged"
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


#: Sequences over the whole 24-letter alphabet, ambiguity codes and ``*``
#: included: under BLOSUM62 ``B``/``Z``/``X``/``*`` have negative
#: substitution expenses, so with ``s > 0`` their AS hits carry negative
#: distances through the seed pack.
_residues = st.text(alphabet=PROTEIN_ALPHABET, min_size=1, max_size=40)


@st.composite
def _stores(draw):
    """A few random sequences plus copies of some of them with residues
    turned into ambiguity codes, so that pairs share more than
    ``MAX_SEEDS`` k-mers as well as none, and a k-mer with an ``X`` meets
    its cheaper-than-identity substitutes."""
    seqs = draw(st.lists(_residues, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 5))):
        base = list(seqs[draw(st.integers(0, len(seqs) - 1))])
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(base) - 1))
            base[at] = draw(st.sampled_from("XBZ*"))
        seqs.append("".join(base))
    return SequenceStore(seqs)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(store=_stores(), k=st.integers(2, 3), s=st.sampled_from([0, 3]))
def test_full_alphabet_records_match_oracle_at_every_rank_count(store, k, s):
    """Every block product runs on typed values, whatever the residues
    (``B`` on CommonKmers records): the candidates equal the
    object-semiring oracle's, and the distributed graph at p = 4 and 9
    equals p = 1 on ``sim`` (whose ranks are threads, so the patched
    SUMMA block multiply sees every block)."""
    config = PastisConfig(k=k, substitutes=s, comm_backend="sim")
    dtypes = []

    def recording(a, b, semiring):
        out = real(a, b, semiring)
        dtypes.append(out.vals.dtype)
        return out

    real = summa_module.spgemm_coo
    with mock.patch.object(summa_module, "spgemm_coo", recording):
        got = find_candidate_pairs(store, config)
        golden = edge_bytes(run_pastis_distributed(store, config, nranks=1))
        by_ranks = {
            p: edge_bytes(run_pastis_distributed(store, config, nranks=p))
            for p in (4, 9)
        }
    assert np.dtype(object) not in dtypes
    ref = find_candidate_pairs_semiring(store, config)
    for field in ("ri", "rj", "counts", "seed_pos_i", "seed_pos_j",
                  "seed_dist"):
        assert getattr(got, field).tolist() == getattr(ref, field).tolist()
    for nranks, got_bytes in by_ranks.items():
        assert got_bytes == golden, f"{nranks} ranks diverged from 1"
