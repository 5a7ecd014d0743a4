"""Tests for the pipeline at one rank and the similarity graph."""

import numpy as np
import pytest

from repro.bio.generate import scope_like
from repro.bio.sequences import SequenceStore
from repro.core.config import PastisConfig
from repro.core.graph import SimilarityGraph
from repro.core.pipeline import pastis_pipeline


class TestSimilarityGraph:
    def test_from_edges_normalises(self):
        g = SimilarityGraph.from_edges(5, [(3, 1, 0.5), (0, 2, 0.9)])
        assert g.edge_set() == {(1, 3), (0, 2)}

    def test_from_edges_dedupes_keeping_max(self):
        g = SimilarityGraph.from_edges(4, [(0, 1, 0.5), (1, 0, 0.8)])
        assert g.nedges == 1
        assert g.weights[0] == 0.8

    def test_empty(self):
        g = SimilarityGraph.from_edges(3, [])
        assert g.nedges == 0
        assert g.degrees().tolist() == [0, 0, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            SimilarityGraph(3, np.array([1]), np.array([1]), np.array([1.0]))
        with pytest.raises(ValueError):
            SimilarityGraph(3, np.array([0]), np.array([5]), np.array([1.0]))

    def test_to_scipy_symmetric(self):
        g = SimilarityGraph.from_edges(3, [(0, 1, 0.5)])
        m = g.to_scipy()
        assert m[0, 1] == 0.5
        assert m[1, 0] == 0.5
        assert m.shape == (3, 3)

    def test_to_networkx(self):
        g = SimilarityGraph.from_edges(4, [(0, 1, 0.5), (1, 2, 0.7)])
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == 4
        assert nxg.number_of_edges() == 2
        assert nxg[0][1]["weight"] == 0.5

    def test_degrees(self):
        g = SimilarityGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0)])
        assert g.degrees().tolist() == [1, 2, 1, 0]


class TestPipeline:
    @pytest.fixture(scope="class")
    def data(self):
        return scope_like(
            n_families=4, members_per_family=(3, 4),
            length_range=(50, 80), divergence=0.15, seed=21,
        )

    def test_finds_family_edges(self, data):
        g = pastis_pipeline(data.store, PastisConfig(k=4, substitutes=0))
        # most edges connect same-family sequences at this divergence
        same = sum(
            data.labels[i] == data.labels[j] for i, j in g.edge_set()
        )
        assert g.nedges > 0
        assert same / g.nedges > 0.9

    def test_ani_weights_in_unit_interval(self, data):
        g = pastis_pipeline(data.store, PastisConfig(k=4, weight="ani"))
        assert (g.weights > 0).all()
        assert (g.weights <= 1.0).all()
        # the filter guarantees >= 30 % identity
        assert (g.weights >= 0.30).all()

    def test_ns_mode_no_filter(self, data):
        cfg_ani = PastisConfig(k=4, weight="ani")
        cfg_ns = PastisConfig(k=4, weight="ns")
        g_ani = pastis_pipeline(data.store, cfg_ani)
        g_ns = pastis_pipeline(data.store, cfg_ns)
        # NS applies no veto, so it keeps at least as many edges
        assert g_ns.nedges >= g_ani.nedges

    def test_sw_vs_xd_edges_similar(self, data):
        g_sw = pastis_pipeline(data.store, PastisConfig(k=4, align_mode="sw"))
        g_xd = pastis_pipeline(data.store, PastisConfig(k=4, align_mode="xd"))
        inter = len(g_sw.edge_set() & g_xd.edge_set())
        union = len(g_sw.edge_set() | g_xd.edge_set())
        assert inter / union > 0.8

    def test_ck_reduces_alignments(self, data):
        g = pastis_pipeline(data.store, PastisConfig(k=4))
        g_ck = pastis_pipeline(data.store, PastisConfig(k=4).default_ck())
        assert g_ck.meta["aligned_pairs"] <= g.meta["aligned_pairs"]
        # a higher threshold never aligns more pairs, with or without
        # substitute k-mers
        for subs in (0, 8):
            aligned = [
                pastis_pipeline(data.store, PastisConfig(
                    k=4, substitutes=subs, common_kmer_threshold=t,
                )).meta["aligned_pairs"]
                for t in (None, 1, 2, 3)
            ]
            assert aligned == sorted(aligned, reverse=True), (subs, aligned)

    def test_meta_recorded(self, data):
        g = pastis_pipeline(data.store, PastisConfig(k=4))
        assert g.meta["variant"] == "PASTIS-XD-s0"
        assert g.meta["aligned_pairs"] >= g.nedges
        assert g.meta["overlap_seconds"] >= 0
        assert g.meta["align_seconds"] >= 0

    def test_ids_propagated(self, data):
        g = pastis_pipeline(data.store, PastisConfig(k=4))
        assert g.ids == data.store.ids

    def test_no_edges_for_unrelated(self):
        from repro.core.distributed import run_pastis_distributed

        for seqs in (
            ["AVGDMIKRW" * 5, "PPPPPPPPP" * 5, "YYYYWWWWH" * 5],
            [],                     # the empty store
            ["AVGDMIKRW" * 5],      # one sequence: nothing to pair it with
            ["AVG", "DMI", "KR"],   # all shorter than k: A has no entries
        ):
            store = SequenceStore(seqs)
            for cfg in (PastisConfig(k=4), PastisConfig(k=4, substitutes=3)):
                g = pastis_pipeline(store, cfg)
                assert (g.n, g.nedges) == (len(seqs), 0)
                assert g.ids == store.ids
                assert g.meta["candidate_pairs"] == 0
                assert g.meta["aligned_pairs"] == g.meta["edges_kept"] == 0
                # ranks that own no sequence at all change nothing
                g4 = run_pastis_distributed(store, cfg, nranks=4)
                assert (g4.n, g4.nedges, g4.ids) == (g.n, 0, g.ids)

    @pytest.mark.parametrize("weight,expect_traceback",
                             [("ani", True), ("ns", False)])
    def test_traceback_only_paid_when_consumed(self, data, monkeypatch,
                                               weight, expect_traceback):
        """Regression: NS weighting (no filter) must run score-only — the
        whole point of NS is that no traceback is needed (Section VI-B)."""
        import repro.core.distributed as pl  # where the driver reads it

        seen = []
        real = pl.align_batch

        def recording(tasks, *args, **kwargs):
            seen.append(kwargs["traceback"])
            return real(tasks, *args, **kwargs)

        monkeypatch.setattr(pl, "align_batch", recording)
        pastis_pipeline(data.store, PastisConfig(k=4, weight=weight))
        assert seen == [expect_traceback]

    @pytest.mark.parametrize("mode,weight,cut", [
        ("xd", "ani", 0.7), ("xd", "ns", None), ("sw", "ani", None),
    ])
    def test_coverage_cut_handed_to_the_xd_engine(self, data, mode, weight,
                                                   cut):
        """Under the filter, XD mode passes ``min_coverage`` to the engine;
        its ``None`` rejects are skipped and the edges are the ones the
        filter keeps from the uncut results."""
        from repro.align.batch import align_batch
        from repro.core.overlap import find_candidate_pairs
        from repro.core.pipeline import (
            align_kwargs,
            edges_from_alignments,
            tasks_from_pairs,
        )

        cfg = PastisConfig(k=4, align_mode=mode, weight=weight)
        kwargs = align_kwargs(cfg)
        assert kwargs["min_coverage"] == cut
        tasks = tasks_from_pairs(find_candidate_pairs(data.store, cfg),
                                 data.store.encoded)
        results = align_batch(tasks, **kwargs)
        uncut = align_batch(tasks, **{**kwargs, "min_coverage": None})
        if cut is not None:
            assert None in results
        assert edges_from_alignments(zip(tasks, results), cfg) == (
            edges_from_alignments(zip(tasks, uncut), cfg)
        )

    def test_substitutes_never_lose_edges(self, data):
        g0 = pastis_pipeline(data.store, PastisConfig(k=5, substitutes=0))
        g5 = pastis_pipeline(data.store, PastisConfig(k=5, substitutes=5))
        # substitute k-mers only add candidate pairs; the aligner/filter is
        # unchanged, so the edge set can only grow
        assert g0.edge_set() <= g5.edge_set()
