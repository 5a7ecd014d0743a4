#!/usr/bin/env python
"""Many-against-many search: PASTIS vs the MMseqs2-like and LAST-like
baselines on one dataset (the functional counterpart of Fig. 13/17).

All three tools produce a similarity graph on the same synthetic proteins;
each graph is clustered with MCL and scored against the ground truth, and
per-stage wall times are reported.

Run:  python examples/tool_comparison.py
"""

import time

from repro import PastisConfig, pastis_pipeline
from repro.baselines import LastConfig, MMseqsConfig, last_search, mmseqs_search
from repro.bio import scope_like
from repro.cluster import markov_clustering, weighted_precision_recall


def main() -> None:
    data = scope_like(
        n_families=6, members_per_family=(4, 6), length_range=(60, 110),
        divergence=0.35, indel_rate=0.02, seed=404,
    )
    print(f"dataset: {len(data.store)} proteins, {data.n_families} "
          f"families\n")

    runs = []

    t0 = time.perf_counter()
    g = pastis_pipeline(
        data.store, PastisConfig(k=4, substitutes=8, align_mode="xd")
    )
    runs.append(("PASTIS-XD-s8", g, time.perf_counter() - t0))

    t0 = time.perf_counter()
    g = mmseqs_search(data.store, MMseqsConfig(k=4, sensitivity=5.7))
    runs.append(("MMseqs2-like (s=5.7)", g, time.perf_counter() - t0))

    t0 = time.perf_counter()
    g = last_search(
        data.store, LastConfig(max_initial_matches=100, min_seed_length=4)
    )
    runs.append(("LAST-like (m=100)", g, time.perf_counter() - t0))

    header = (f"{'tool':<22}{'edges':>7}{'precision':>11}{'recall':>8}"
              f"{'f1':>7}{'seconds':>9}")
    print(header)
    print("-" * len(header))
    for name, graph, secs in runs:
        mcl = markov_clustering(graph)
        pr = weighted_precision_recall(mcl.labels, data.labels)
        print(f"{name:<22}{graph.nedges:>7}{pr.precision:>11.2f}"
              f"{pr.recall:>8.2f}{pr.f1:>7.2f}{secs:>9.2f}")

    print(
        "\nNote: runtimes here are single-process Python; the paper's "
        "Fig. 13 distributed-scale\ncomparison is printed by "
        "benchmarks/figures.py."
    )


if __name__ == "__main__":
    main()
