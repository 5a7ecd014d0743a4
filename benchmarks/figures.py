"""Print the paper's evaluation: Figs. 12-17 and Tables I-II.

Figs. 12-16 and Table I come from the cost model in ``repro.perfmodel``
at paper scale (curve shapes, never absolute seconds); Fig. 17 and
Table II score real pipeline and baseline runs on a synthetic SCOPe
stand-in against its ground truth.  Only prints: the shape claims are
asserted in ``tests/test_perfmodel.py`` and ``tests/test_integration.py``.

Run:  PYTHONPATH=src python benchmarks/figures.py
"""

from __future__ import annotations

import math

from repro.baselines.last import LastConfig, last_search
from repro.baselines.mmseqs import MMseqsConfig, mmseqs_search
from repro.bio.generate import scope_like
from repro.cluster.components import connected_components
from repro.cluster.mcl import markov_clustering
from repro.cluster.metrics import weighted_precision_recall
from repro.core.config import PastisConfig
from repro.core.pipeline import pastis_pipeline
from repro.perfmodel import (
    COMPARISON_NODES,
    SCALING_NODES,
    fig12_variants,
    fig13_tools,
    fig14_strong_scaling,
    fig14_weak_scaling,
    fig15_dissection,
    fig16_component_scaling,
    parallel_efficiency,
    table1_alignment_pct,
)


def print_series_table(title: str, nodes, series: dict) -> None:
    """One row per variant, one column per node count."""
    print(f"\n=== {title} ===")
    print("variant".ljust(24) + "".join(f"{n:>10}" for n in nodes))
    for name, vals in series.items():
        print(name.ljust(24) + "".join(
            f"{'-':>10}" if math.isnan(v) else f"{v:>10.1f}" for v in vals
        ))


def print_pr_table(title: str, rows: list) -> None:
    """One ``(scheme, PrecisionRecall)`` row per line."""
    print(f"\n=== {title} ===")
    print(f"{'scheme':<28}{'precision':>12}{'recall':>10}")
    for name, pr in rows:
        print(f"{name:<28}{pr.precision:>12.3f}{pr.recall:>10.3f}")


def model_figures() -> None:
    """Figs. 12-16 and Table I from the cost model."""
    for fn, title in (
        (fig12_variants, "Fig. 12 — PASTIS variants, Metaclust50-{} "
         "(modelled seconds)"),
        (fig13_tools, "Fig. 13 — PASTIS vs MMseqs2 vs LAST, "
         "Metaclust50-{} (modelled seconds)"),
        (table1_alignment_pct, "Table I — alignment time % of total, "
         "Metaclust50-{}"),
    ):
        for dataset in ("0.5M", "1M"):
            print_series_table(title.format(dataset), COMPARISON_NODES,
                               fn(dataset))

    strong = fig14_strong_scaling()
    print_series_table(
        "Fig. 14 (left) — strong scaling, Metaclust50-2.5M, KNL "
        "(modelled seconds, alignment excluded)",
        SCALING_NODES, {f"s={s}": v for s, v in strong.items()},
    )
    print("parallel efficiency s=0:",
          [f"{e:.2f}" for e in parallel_efficiency(strong[0], SCALING_NODES)])
    print_series_table(
        "Fig. 14 (right) — weak scaling (1.25M@64, 2.5M@256, 5M@1024)",
        [64, 256, 1024],
        {f"s={s}": v for s, v in fig14_weak_scaling().items()},
    )

    for s, by_nodes in fig15_dissection("2.5M").items():
        print(f"\n=== Fig. 15 — component % (s={s}) ===")
        comps = list(by_nodes[SCALING_NODES[0]])
        print("nodes".ljust(8) + "".join(f"{c:>10}" for c in comps))
        for p in SCALING_NODES:
            print(f"{p:<8}" + "".join(f"{by_nodes[p][c]:>10.1f}"
                                      for c in comps))

    for s in (0, 25):
        print_series_table(f"Fig. 16 — component seconds vs nodes (s={s})",
                           SCALING_NODES,
                           fig16_component_scaling("2.5M", substitutes=s))


def accuracy_tables() -> None:
    """Fig. 17 (families = MCL clusters) and Table II (families =
    connected components) over one set of similarity graphs."""
    # three families per super-family: sibling families resemble each
    # other without belonging together, so false links are possible
    data = scope_like(
        n_families=9, members_per_family=(4, 6), length_range=(60, 110),
        divergence=0.45, indel_rate=0.02, seed=101,
        families_per_superfamily=3, superfamily_divergence=0.35,
    )

    def mcl(graph):
        return weighted_precision_recall(markov_clustering(graph).labels,
                                         data.labels)

    def cc(graph):
        return weighted_precision_recall(connected_components(graph)[0],
                                         data.labels)

    pastis = {
        (mode, weight, s): pastis_pipeline(data.store, PastisConfig(
            k=4, substitutes=s, align_mode=mode, weight=weight))
        for mode in ("sw", "xd") for weight in ("ani", "ns")
        for s in (0, 4, 8)
    }
    ck = pastis_pipeline(data.store, PastisConfig(
        k=4, substitutes=8, align_mode="xd", common_kmer_threshold=1))
    mmseqs = {sens: mmseqs_search(data.store,
                                  MMseqsConfig(k=4, sensitivity=sens))
              for sens in (1.0, 5.7, 7.5)}
    last = {m: last_search(data.store, LastConfig(max_initial_matches=m,
                                                  min_seed_length=4))
            for m in (50, 100, 300)}

    print_pr_table(
        "Fig. 17 — weighted precision/recall after MCL "
        "(synthetic SCOPe stand-in)",
        [(f"PASTIS-{mode.upper()}-{weight.upper()}-s{s}", mcl(g))
         for (mode, weight, s), g in pastis.items()]
        + [("PASTIS-XD-ANI-s8-CK", mcl(ck))]
        + [(f"MMseqs2-ANI (s={sens})", mcl(g)) for sens, g in mmseqs.items()]
        + [(f"LAST-ANI (m={m})", mcl(g)) for m, g in last.items()],
    )
    print_pr_table(
        "Table II — connected components as protein families "
        "(synthetic SCOPe stand-in)",
        [(f"PASTIS-{mode.upper()} s={s}", cc(g))
         for (mode, weight, s), g in pastis.items() if weight == "ani"]
        + [(f"MMseqs2 sens={sens}", cc(g)) for sens, g in mmseqs.items()]
        + [(f"LAST m={m}", cc(g)) for m, g in last.items()],
    )


if __name__ == "__main__":
    model_figures()
    accuracy_tables()
