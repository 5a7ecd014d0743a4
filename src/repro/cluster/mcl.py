"""Markov Clustering (van Dongen 2000) on sparse matrices.

The paper clusters the PSG with HipMCL — a distributed-memory parallel MCL
(Azad et al. 2018).  The algorithm itself is unchanged: iterate *expansion*
(matrix square), *inflation* (elementwise power + column re-normalisation),
and *pruning* (drop negligible entries) until the column-stochastic matrix
converges; clusters are the weakly connected components of the surviving
pattern.  This implementation runs on ``scipy.sparse`` and is the clustering
stage behind the Fig. 17 reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..core.config import check_inflation
from ..core.graph import SimilarityGraph

__all__ = ["MCLResult", "markov_clustering", "clusters_to_labels"]


@dataclass
class MCLResult:
    """Clustering outcome: ``labels[i]`` is the cluster id of node ``i``
    (ids are contiguous from 0); ``iterations`` is the count until
    convergence."""

    labels: np.ndarray
    n_clusters: int
    iterations: int
    converged: bool

    def clusters(self) -> list[np.ndarray]:
        """Member arrays, one per cluster id."""
        return [
            np.nonzero(self.labels == c)[0] for c in range(self.n_clusters)
        ]


def _normalize_columns(m: sp.csr_matrix) -> sp.csr_matrix:
    col_sums = np.asarray(m.sum(axis=0)).ravel()
    col_sums[col_sums == 0] = 1.0
    d = sp.diags(1.0 / col_sums)
    return (m @ d).tocsr()


def _prune(m: sp.csr_matrix, threshold: float) -> sp.csr_matrix:
    m = m.tocsr()
    m.data[m.data < threshold] = 0.0
    m.eliminate_zeros()
    return m


def markov_clustering(
    graph: SimilarityGraph | sp.spmatrix,
    inflation: float = 2.0,
    expansion: int = 2,
    prune_threshold: float = 1e-5,
    max_iterations: int = 100,
    tol: float = 1e-6,
    self_loops: float = 1.0,
) -> MCLResult:
    """Cluster a similarity graph with MCL.

    ``inflation`` controls granularity (higher -> finer clusters) and
    must be a finite number > 1 (:class:`~repro.core.config.ConfigError`,
    a ``ValueError``, otherwise); ``self_loops`` adds the customary
    diagonal so singletons are stable.
    """
    check_inflation(inflation)
    if isinstance(graph, SimilarityGraph):
        adj = graph.to_scipy()
    else:
        adj = sp.csr_matrix(graph)
    n = adj.shape[0]
    if n == 0:
        return MCLResult(np.empty(0, dtype=np.int64), 0, 0, True)
    m = adj.astype(np.float64).tolil()
    if self_loops:
        m.setdiag(np.maximum(m.diagonal(), self_loops))
    m = _normalize_columns(m.tocsr())

    converged = False
    it = 0
    for it in range(1, max_iterations + 1):
        prev = m.copy()
        # expansion
        expanded = m
        for _ in range(expansion - 1):
            expanded = (expanded @ m).tocsr()
        # inflation
        expanded = expanded.tocsr()
        expanded.data = np.power(expanded.data, inflation)
        m = _prune(_normalize_columns(expanded), prune_threshold)
        diff = abs(m - prev)
        if diff.nnz == 0 or diff.max() < tol:
            converged = True
            break

    # clusters = weakly connected components of the converged pattern
    pattern = m + m.T
    ncomp, labels = sp.csgraph.connected_components(
        pattern, directed=False
    )
    return MCLResult(
        labels=labels.astype(np.int64),
        n_clusters=int(ncomp),
        iterations=it,
        converged=converged,
    )


def clusters_to_labels(clusters: list[np.ndarray], n: int) -> np.ndarray:
    """Inverse of :meth:`MCLResult.clusters`; unassigned nodes get fresh
    singleton ids."""
    labels = np.full(n, -1, dtype=np.int64)
    for cid, members in enumerate(clusters):
        labels[np.asarray(members, dtype=np.int64)] = cid
    nxt = len(clusters)
    for i in range(n):
        if labels[i] < 0:
            labels[i] = nxt
            nxt += 1
    return labels
