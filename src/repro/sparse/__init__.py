"""Sparse-matrix substrate: CombBLAS stand-in with semiring SpGEMM, DCSC
storage, 2-D distribution, and Sparse SUMMA."""

from .coo import COOMatrix
from .csr import CSRMatrix
from .dcsc import DCSCMatrix
from .distmat import DistSparseMatrix
from .ops import (
    diagonal_mask,
    elementwise_add,
    prune,
    symmetrize,
    tril,
    triu,
)
from .semiring import (
    ARITHMETIC,
    BOOLEAN,
    COUNTING,
    MAX_MIN,
    MAX_TIMES,
    MIN_PLUS,
    NumericSpec,
    Semiring,
)
from .kernels import (
    DELEGATED_KERNELS,
    KernelSpec,
    available_kernels,
    get_kernel,
    kernel_available,
    kernel_requirement,
    register_kernel,
    registered_kernels,
    unregister_kernel,
)
from .spgemm import (
    delegation_covers,
    spgemm_coo,
    spgemm_graphblas,
    spgemm_hash,
    spgemm_scipy,
)
from .summa import summa

__all__ = [
    "DELEGATED_KERNELS",
    "KernelSpec",
    "available_kernels",
    "get_kernel",
    "kernel_available",
    "kernel_requirement",
    "register_kernel",
    "registered_kernels",
    "unregister_kernel",
    "COOMatrix",
    "CSRMatrix",
    "DCSCMatrix",
    "DistSparseMatrix",
    "diagonal_mask",
    "elementwise_add",
    "prune",
    "symmetrize",
    "tril",
    "triu",
    "ARITHMETIC",
    "BOOLEAN",
    "COUNTING",
    "MAX_MIN",
    "MAX_TIMES",
    "MIN_PLUS",
    "NumericSpec",
    "Semiring",
    "delegation_covers",
    "spgemm_coo",
    "spgemm_graphblas",
    "spgemm_hash",
    "spgemm_scipy",
    "summa",
]
