"""Figure/table series generation on top of the cost model.

One function per experiment of the paper's performance evaluation; each
returns plain dict/array data that ``benchmarks/figures.py`` prints and
``tests/test_perfmodel.py`` checks for the paper's shapes.  Node counts
follow the paper: powers of four from 1 to 256 for the tool comparisons
(Haswell), perfect squares from 64 to 2025 for the scaling studies (KNL).
"""

from __future__ import annotations

from dataclasses import replace

from ..core.config import PastisConfig
from .costmodel import (
    ComponentTimes,
    alignment_time,
    last_total,
    mmseqs_total,
    pastis_components,
    pastis_total,
)
from .machine import CORI_HASWELL, CORI_KNL, MachineSpec
from .workloads import PAPER_DATASETS, DatasetSpec

__all__ = [
    "COMPARISON_NODES",
    "SCALING_NODES",
    "fig12_variants",
    "fig13_tools",
    "table1_alignment_pct",
    "fig14_strong_scaling",
    "fig14_weak_scaling",
    "fig15_dissection",
    "fig16_component_scaling",
    "parallel_efficiency",
]

#: Fig. 12/13 node counts (1..256, x4 steps)
COMPARISON_NODES = [1, 4, 16, 64, 256]
#: Fig. 14-16 node counts (nearest perfect squares, paper's odd choices)
SCALING_NODES = [64, 121, 256, 529, 1024, 2025]

_VARIANTS = [
    ("PASTIS-SW-s0", "sw", 0, False),
    ("PASTIS-SW-s25", "sw", 25, False),
    ("PASTIS-XD-s0", "xd", 0, False),
    ("PASTIS-XD-s25", "xd", 25, False),
    ("PASTIS-SW-s0-CK", "sw", 0, True),
    ("PASTIS-SW-s25-CK", "sw", 25, True),
    ("PASTIS-XD-s0-CK", "xd", 0, True),
    ("PASTIS-XD-s25-CK", "xd", 25, True),
]


def _config(mode: str, subs: int, ck: bool) -> PastisConfig:
    cfg = PastisConfig(align_mode=mode, substitutes=subs)
    if ck:
        cfg = cfg.default_ck()
    return cfg


def fig12_variants(
    dataset: str = "0.5M",
    machine: MachineSpec = CORI_HASWELL,
    nodes: list[int] | None = None,
) -> dict[str, list[float]]:
    """Fig. 12: runtime of the eight PASTIS variants vs node count."""
    ds = PAPER_DATASETS[dataset]
    nodes = nodes or COMPARISON_NODES
    out: dict[str, list[float]] = {}
    for name, mode, subs, ck in _VARIANTS:
        cfg = _config(mode, subs, ck)
        out[name] = [pastis_total(ds, machine, cfg, p) for p in nodes]
    return out


def fig13_tools(
    dataset: str = "0.5M",
    machine: MachineSpec = CORI_HASWELL,
    nodes: list[int] | None = None,
) -> dict[str, list[float]]:
    """Fig. 13: fastest PASTIS variant vs MMseqs2 sensitivities vs LAST."""
    ds = PAPER_DATASETS[dataset]
    nodes = nodes or COMPARISON_NODES
    cfg = _config("xd", 0, True)  # PASTIS-XD-s0-CK, the paper's fastest
    out = {
        "PASTIS-XD-s0-CK": [
            pastis_total(ds, machine, cfg, p) for p in nodes
        ],
        "MMseqs2-low": [
            mmseqs_total(ds, machine, 1.0, p) for p in nodes
        ],
        "MMseqs2-default": [
            mmseqs_total(ds, machine, 5.7, p) for p in nodes
        ],
        "MMseqs2-high": [
            mmseqs_total(ds, machine, 7.5, p) for p in nodes
        ],
        # LAST runs on one node only
        "LAST": [last_total(ds, machine, 100)] + [float("nan")] * (
            len(nodes) - 1
        ),
    }
    return out


def table1_alignment_pct(
    dataset: str = "0.5M",
    machine: MachineSpec = CORI_HASWELL,
    nodes: list[int] | None = None,
) -> dict[str, list[float]]:
    """Table I: percentage of total time spent aligning, per variant."""
    ds = PAPER_DATASETS[dataset]
    nodes = nodes or COMPARISON_NODES
    out: dict[str, list[float]] = {}
    for name, mode, subs, ck in _VARIANTS:
        cfg = _config(mode, subs, ck)
        row = []
        for p in nodes:
            t_align = alignment_time(ds, machine, cfg, p)
            t_total = pastis_total(ds, machine, cfg, p)
            row.append(100.0 * t_align / t_total)
        out[name] = row
    return out


def fig14_strong_scaling(
    dataset: str = "2.5M",
    machine: MachineSpec = CORI_KNL,
    substitutes: tuple[int, ...] = (0, 10, 25, 50),
    nodes: list[int] | None = None,
) -> dict[int, list[float]]:
    """Fig. 14 left: matrix-stage runtime vs nodes for each s (no
    alignment)."""
    ds = PAPER_DATASETS[dataset]
    nodes = nodes or SCALING_NODES
    return {
        s: [
            pastis_components(
                ds, machine, PastisConfig(substitutes=s), p
            ).total
            for p in nodes
        ]
        for s in substitutes
    }


def fig14_weak_scaling(
    machine: MachineSpec = CORI_KNL,
    substitutes: tuple[int, ...] = (0, 10, 25, 50),
) -> dict[int, list[float]]:
    """Fig. 14 right: (1.25M, 64), (2.5M, 256), (5M, 1024) — datasets double
    while nodes quadruple, matching the quadratic growth of B."""
    points = [("1.25M", 64), ("2.5M", 256), ("5M", 1024)]
    return {
        s: [
            pastis_components(
                PAPER_DATASETS[d], machine, PastisConfig(substitutes=s), p
            ).total
            for d, p in points
        ]
        for s in substitutes
    }


def fig15_dissection(
    dataset: str = "2.5M",
    machine: MachineSpec = CORI_KNL,
    substitutes: tuple[int, ...] = (0, 10, 25, 50),
    nodes: list[int] | None = None,
) -> dict[int, dict[int, dict[str, float]]]:
    """Fig. 15: per-component time fractions (%) for each s and node
    count."""
    ds = PAPER_DATASETS[dataset]
    nodes = nodes or SCALING_NODES
    out: dict[int, dict[int, dict[str, float]]] = {}
    for s in substitutes:
        out[s] = {}
        for p in nodes:
            ct = pastis_components(
                ds, machine, PastisConfig(substitutes=s), p
            )
            out[s][p] = {
                k: 100.0 * v for k, v in ct.fractions().items()
            }
    return out


def fig16_component_scaling(
    dataset: str = "2.5M",
    machine: MachineSpec = CORI_KNL,
    substitutes: int = 0,
    nodes: list[int] | None = None,
) -> dict[str, list[float]]:
    """Fig. 16: absolute per-component seconds vs node count."""
    ds = PAPER_DATASETS[dataset]
    nodes = nodes or SCALING_NODES
    series: dict[str, list[float]] = {"total": []}
    for p in nodes:
        ct = pastis_components(
            ds, machine, PastisConfig(substitutes=substitutes), p
        )
        series["total"].append(ct.total)
        for k, v in ct.components.items():
            series.setdefault(k, []).append(v)
    return series


def parallel_efficiency(times: list[float], nodes: list[int]) -> list[float]:
    """Strong-scaling efficiency relative to the first point."""
    t0, p0 = times[0], nodes[0]
    return [t0 * p0 / (t * p) for t, p in zip(times, nodes)]
