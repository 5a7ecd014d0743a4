"""Sparse-matrix substrate: CombBLAS stand-in with semiring SpGEMM, 2-D
distribution, and Sparse SUMMA."""

from .coo import COOMatrix
from .csr import CSRMatrix
from .distmat import DistSparseMatrix
from .ops import elementwise_add
from .semiring import (
    ARITHMETIC,
    BOOLEAN,
    COUNTING,
    MAX_MIN,
    MAX_TIMES,
    MIN_PLUS,
    NoKernelError,
    NumericSpec,
    Semiring,
)
from .spgemm import spgemm_coo, spgemm_hash
from .summa import summa

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "DistSparseMatrix",
    "elementwise_add",
    "ARITHMETIC",
    "BOOLEAN",
    "COUNTING",
    "MAX_MIN",
    "MAX_TIMES",
    "MIN_PLUS",
    "NoKernelError",
    "NumericSpec",
    "Semiring",
    "spgemm_coo",
    "spgemm_hash",
    "summa",
]
