"""Tests for MCL, connected components, and clustering metrics."""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.components import UnionFind, connected_components
from repro.cluster.mcl import clusters_to_labels, markov_clustering
from repro.cluster.metrics import (
    pairwise_metrics,
    weighted_precision_recall,
)
from repro.core.graph import SimilarityGraph


def _clique_graph(sizes, weight=1.0):
    """Disjoint cliques with the given sizes."""
    edges = []
    base = 0
    for s in sizes:
        for a in range(s):
            for b in range(a + 1, s):
                edges.append((base + a, base + b, weight))
        base += s
    return SimilarityGraph.from_edges(sum(sizes), edges)


class TestMCL:
    def test_disjoint_cliques(self):
        g = _clique_graph([4, 3, 5])
        res = markov_clustering(g)
        assert res.n_clusters == 3
        assert res.converged
        # members of each clique share a label
        assert len(set(res.labels[:4].tolist())) == 1
        assert len(set(res.labels[4:7].tolist())) == 1

    def test_singletons_stable(self):
        g = SimilarityGraph.from_edges(5, [(0, 1, 1.0)])
        res = markov_clustering(g)
        assert res.n_clusters == 4  # {0,1} plus three singletons

    def test_empty_graph(self):
        res = markov_clustering(SimilarityGraph.from_edges(0, []))
        assert res.n_clusters == 0

    def test_weak_bridge_cut_by_inflation(self):
        # two cliques joined by one weak edge: MCL should split them
        g = _clique_graph([5, 5])
        edges = list(zip(g.ri.tolist(), g.rj.tolist(), g.weights.tolist()))
        edges.append((0, 5, 0.05))
        g2 = SimilarityGraph.from_edges(10, edges)
        res = markov_clustering(g2, inflation=2.0)
        assert res.n_clusters == 2

    def test_accepts_scipy_matrix(self):
        g = _clique_graph([3, 3])
        res = markov_clustering(g.to_scipy())
        assert res.n_clusters == 2

    def test_clusters_roundtrip(self):
        g = _clique_graph([4, 3])
        res = markov_clustering(g)
        labels = clusters_to_labels(res.clusters(), g.n)
        pr = weighted_precision_recall(labels, res.labels)
        assert pr.precision == 1.0 and pr.recall == 1.0

    def test_higher_inflation_finer_or_equal(self):
        g = _clique_graph([6, 6])
        coarse = markov_clustering(g, inflation=1.5)
        fine = markov_clustering(g, inflation=4.0)
        assert fine.n_clusters >= coarse.n_clusters

    @pytest.mark.parametrize(
        "inflation", [float("nan"), float("inf"), 0, -1, 1.0])
    def test_bad_inflation_rejected(self, inflation):
        # NaN used to run max_iterations rounds and return a clustering
        with pytest.raises(ValueError, match="finite number > 1"):
            markov_clustering(_clique_graph([3, 3]), inflation=inflation)


class TestUnionFind:
    def test_basic(self):
        uf = UnionFind(5)
        assert uf.union(0, 1)
        assert not uf.union(1, 0)
        assert uf.count == 4
        assert uf.find(0) == uf.find(1)

    def test_labels_contiguous(self):
        uf = UnionFind(6)
        uf.union(0, 3)
        uf.union(4, 5)
        labels = uf.labels()
        assert labels[0] == labels[3]
        assert labels[4] == labels[5]
        assert set(labels.tolist()) == set(range(4))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 30),
        edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                       max_size=60),
    )
    def test_property_matches_networkx(self, n, edges):
        edges = [(a % n, b % n) for a, b in edges if a % n != b % n]
        g = SimilarityGraph.from_edges(
            n, [(a, b, 1.0) for a, b in edges]
        )
        labels, ncomp = connected_components(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        assert ncomp == nx.number_connected_components(nxg)
        for comp in nx.connected_components(nxg):
            comp = list(comp)
            assert len({labels[c] for c in comp}) == 1


class TestMetrics:
    def test_perfect(self):
        fam = np.array([0, 0, 1, 1, 2])
        pr = weighted_precision_recall(fam, fam)
        assert pr.precision == 1.0
        assert pr.recall == 1.0
        assert pr.f1 == 1.0

    def test_all_in_one_cluster(self):
        fam = np.array([0, 0, 1, 1])
        clu = np.zeros(4, dtype=int)
        pr = weighted_precision_recall(clu, fam)
        assert pr.precision == 0.5  # dominant family covers half
        assert pr.recall == 1.0     # every family intact in the cluster

    def test_all_singleton_clusters(self):
        fam = np.array([0, 0, 0, 0])
        clu = np.arange(4)
        pr = weighted_precision_recall(clu, fam)
        assert pr.precision == 1.0  # each cluster is pure
        assert pr.recall == 0.25    # family shattered

    def test_split_family(self):
        fam = np.array([0, 0, 0, 0, 1, 1])
        clu = np.array([0, 0, 1, 1, 2, 2])
        pr = weighted_precision_recall(clu, fam)
        assert pr.precision == 1.0
        assert pr.recall == pytest.approx(4 / 6)

    def test_negative_singleton_labels(self):
        fam = np.array([0, 0, -1, -2])
        clu = np.array([0, 0, 1, 2])
        pr = weighted_precision_recall(clu, fam)
        assert pr.precision == 1.0
        assert pr.recall == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_precision_recall(np.array([0]), np.array([0, 1]))

    def test_f1_zero(self):
        from repro.cluster.metrics import PrecisionRecall

        assert PrecisionRecall(0.0, 0.0).f1 == 0.0

    def test_pairwise_perfect(self):
        fam = np.array([0, 0, 1, 1])
        pr = pairwise_metrics(fam, fam)
        assert pr.precision == 1.0 and pr.recall == 1.0

    def test_pairwise_merge_hurts_precision(self):
        fam = np.array([0, 0, 1, 1])
        clu = np.zeros(4, dtype=int)
        pr = pairwise_metrics(clu, fam)
        assert pr.precision == pytest.approx(2 / 6)
        assert pr.recall == 1.0
