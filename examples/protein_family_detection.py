#!/usr/bin/env python
"""Protein family detection: the paper's primary motivating workload.

Builds a SCOPe-like dataset with ground-truth families, runs PASTIS with and
without substitute k-mers, clusters the similarity graphs with Markov
Clustering (the HipMCL stand-in), and reports weighted precision/recall —
demonstrating the paper's central accuracy knob: substitute k-mers trade
precision for recall, and clustering repairs the precision loss that plain
connected components suffer (Table II).

Run:  python examples/protein_family_detection.py
"""

from repro import PastisConfig, pastis_pipeline
from repro.bio import scope_like
from repro.cluster import (
    connected_components,
    markov_clustering,
    weighted_precision_recall,
)


def main() -> None:
    data = scope_like(
        n_families=8,
        members_per_family=(4, 7),
        length_range=(70, 140),
        divergence=0.5,   # hard enough that exact k-mers miss many pairs
        indel_rate=0.03,
        seed=2024,
    )
    print(f"dataset: {len(data.store)} proteins in {data.n_families} "
          f"ground-truth families (divergence 0.50)\n")

    header = (f"{'scheme':<26}{'edges':>7}{'aligned':>9}"
              f"{'P(mcl)':>8}{'R(mcl)':>8}{'P(cc)':>8}{'R(cc)':>8}")
    print(header)
    print("-" * len(header))

    for substitutes in (0, 5, 10):
        config = PastisConfig(k=4, substitutes=substitutes, align_mode="xd")
        graph = pastis_pipeline(data.store, config)

        mcl = markov_clustering(graph)
        pr_mcl = weighted_precision_recall(mcl.labels, data.labels)

        cc_labels, _ = connected_components(graph)
        pr_cc = weighted_precision_recall(cc_labels, data.labels)

        print(f"{config.variant_name:<26}{graph.nedges:>7}"
              f"{graph.meta['aligned_pairs']:>9}"
              f"{pr_mcl.precision:>8.2f}{pr_mcl.recall:>8.2f}"
              f"{pr_cc.precision:>8.2f}{pr_cc.recall:>8.2f}")

    print(
        "\nTake-aways (matching the paper):\n"
        "  * recall rises with the number of substitute k-mers — the\n"
        "    sensitivity knob the paper introduces;\n"
        "  * the alignment count is the price paid for that recall\n"
        "    (the paper measures a factor 8.7x at s=25);\n"
        "  * at Metaclust scale the paper further shows CC precision\n"
        "    collapsing for s>0 (Table II) — this small sample is too\n"
        "    clean for cross-family merges; benchmarks/figures.py\n"
        "    prints Table II on a harder configuration that exhibits it."
    )


if __name__ == "__main__":
    main()
