"""Weighted precision and recall for protein-family clustering.

The paper evaluates clusters against SCOPe families with the *weighted*
precision/recall of protein-clustering studies (Bernardes et al. 2015,
ref. [27]): weighted precision penalises clusters mixing several families,
weighted recall penalises families split across clusters.

With clusters ``c`` and families ``f`` over ``N`` proteins:

* ``P_w = (1/N) * Σ_c max_f |c ∩ f|`` — each cluster is credited with its
  dominant family, weighted by cluster size;
* ``R_w = (1/N) * Σ_f max_c |c ∩ f|`` — each family is credited with its
  largest surviving fragment.

Both are 1.0 exactly when clusters equal families.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = ["PrecisionRecall", "weighted_precision_recall", "pairwise_metrics"]


@dataclass(frozen=True)
class PrecisionRecall:
    precision: float
    recall: float

    @property
    def f1(self) -> float:
        if self.precision + self.recall == 0:
            return 0.0
        return (
            2 * self.precision * self.recall
            / (self.precision + self.recall)
        )


def _normalize(labels: np.ndarray) -> np.ndarray:
    """Map arbitrary (possibly negative singleton) labels to 0..k-1."""
    labels = np.asarray(labels)
    _, dense = np.unique(labels, return_inverse=True)
    return dense


def weighted_precision_recall(
    cluster_labels: np.ndarray, family_labels: np.ndarray
) -> PrecisionRecall:
    """Weighted precision/recall of a clustering against ground-truth
    families.  Negative family labels denote singletons (each its own
    family), matching :class:`repro.bio.generate.FamilyDataset`."""
    c = _normalize(cluster_labels)
    f = _normalize(family_labels)
    if len(c) != len(f):
        raise ValueError("label arrays must have equal length")
    n = len(c)
    if n == 0:
        return PrecisionRecall(0.0, 0.0)
    # contingency counts
    joint = Counter(zip(c.tolist(), f.tolist()))
    best_in_cluster: dict[int, int] = {}
    best_in_family: dict[int, int] = {}
    for (ci, fi), cnt in joint.items():
        if cnt > best_in_cluster.get(ci, 0):
            best_in_cluster[ci] = cnt
        if cnt > best_in_family.get(fi, 0):
            best_in_family[fi] = cnt
    precision = sum(best_in_cluster.values()) / n
    recall = sum(best_in_family.values()) / n
    return PrecisionRecall(precision, recall)


def pairwise_metrics(
    cluster_labels: np.ndarray, family_labels: np.ndarray
) -> PrecisionRecall:
    """Pair-counting precision/recall: of all same-cluster pairs, how many
    are same-family (precision); of all same-family pairs, how many are
    same-cluster (recall).  A complementary view of the same clustering."""
    c = _normalize(cluster_labels)
    f = _normalize(family_labels)
    if len(c) != len(f):
        raise ValueError("label arrays must have equal length")

    def same_pairs(labels: np.ndarray) -> int:
        counts = Counter(labels.tolist())
        return sum(v * (v - 1) // 2 for v in counts.values())

    joint = Counter(zip(c.tolist(), f.tolist()))
    both = sum(v * (v - 1) // 2 for v in joint.values())
    pc = same_pairs(c)
    pf = same_pairs(f)
    return PrecisionRecall(
        precision=both / pc if pc else 1.0,
        recall=both / pf if pf else 1.0,
    )
