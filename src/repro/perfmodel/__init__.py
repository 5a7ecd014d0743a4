"""Performance model: machine specs, workload descriptors with the paper's
dataset statistics, the α–β component cost model, and per-figure series
generators."""

from .calibrate import calibrate_comm_model, calibrate_local_machine
from .costmodel import (
    CommCostModel,
    ComponentTimes,
    alignment_time,
    last_total,
    mmseqs_total,
    pastis_components,
    pastis_total,
)
from .machine import CORI_HASWELL, CORI_KNL, MachineSpec
from .simulate import (
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
from .workloads import PAPER_DATASETS, DatasetSpec, metaclust

__all__ = [
    "calibrate_comm_model",
    "calibrate_local_machine",
    "CommCostModel",
    "ComponentTimes",
    "alignment_time",
    "last_total",
    "mmseqs_total",
    "pastis_components",
    "pastis_total",
    "CORI_HASWELL",
    "CORI_KNL",
    "MachineSpec",
    "COMPARISON_NODES",
    "SCALING_NODES",
    "fig12_variants",
    "fig13_tools",
    "fig14_strong_scaling",
    "fig14_weak_scaling",
    "fig15_dissection",
    "fig16_component_scaling",
    "parallel_efficiency",
    "table1_alignment_pct",
    "PAPER_DATASETS",
    "DatasetSpec",
    "metaclust",
]
