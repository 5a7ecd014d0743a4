"""Sparse-matrix substrate: CombBLAS stand-in with semiring SpGEMM, 2-D
distribution, and Sparse SUMMA."""

from .coo import COOMatrix
from .csr import CSRMatrix
from .distmat import DistSparseMatrix
from .ops import elementwise_add
from .semiring import (
    ARITHMETIC,
    COUNTING,
    NoKernelError,
    NumericSpec,
    Semiring,
)
from .spgemm import spgemm_coo, spgemm_hash
from .summa import summa, summa_with_panels

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "DistSparseMatrix",
    "elementwise_add",
    "ARITHMETIC",
    "COUNTING",
    "NoKernelError",
    "NumericSpec",
    "Semiring",
    "spgemm_coo",
    "spgemm_hash",
    "summa",
    "summa_with_panels",
]
