"""Ablation: the candidate-pruning knob DESIGN.md calls out.

The **common-k-mer (CK) threshold** sweep — the paper reports that CK
removes the bulk of alignments at a 2-3 point recall cost; this bench
sweeps t and prints the alignments/recall trade-off measured on the
functional pipeline.
"""

from repro.cluster.mcl import markov_clustering
from repro.cluster.metrics import weighted_precision_recall
from repro.core.config import PastisConfig
from repro.core.pipeline import pastis_pipeline


def test_ck_threshold_sweep(benchmark, scope_dataset):
    data = scope_dataset

    def sweep():
        rows = []
        for t in (None, 1, 2, 3):
            cfg = PastisConfig(k=4, substitutes=8,
                               common_kmer_threshold=t)
            g = pastis_pipeline(data.store, cfg)
            pr = weighted_precision_recall(
                markov_clustering(g).labels, data.labels
            )
            rows.append((t, g.meta["aligned_pairs"], pr.precision,
                         pr.recall))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n=== CK threshold sweep (s=8) ===")
    print(f"{'t':>6}{'alignments':>12}{'precision':>11}{'recall':>9}")
    for t, n, p, r in rows:
        print(f"{str(t):>6}{n:>12}{p:>11.2f}{r:>9.2f}")
    aligns = [n for _, n, _, _ in rows]
    assert all(a >= b for a, b in zip(aligns, aligns[1:])), (
        "higher CK must prune more alignments"
    )
    # recall degrades gracefully, never collapsing to zero at t=1
    assert rows[1][3] > 0.3

