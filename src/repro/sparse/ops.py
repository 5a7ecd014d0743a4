"""Semiring-merge addition of two sparse matrices — the cross-stage
accumulation step of Sparse SUMMA."""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .coo import COOMatrix
from .semiring import NoKernelError, Semiring

__all__ = ["elementwise_add"]


def elementwise_add(
    a: COOMatrix, b: COOMatrix, add: Callable[[Any, Any], Any] | Semiring
) -> COOMatrix:
    """``A ⊕ B`` with the semiring ``add`` merging collisions.

    ``add`` may be a scalar callable, a binary ufunc, or a whole
    :class:`~repro.sparse.semiring.Semiring` — in the latter case the
    vectorized ``reduceat`` fold runs when the semiring's numeric spec
    covers both operand value dtypes, and anything else is a
    :class:`~repro.sparse.semiring.NoKernelError`.
    """
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    if isinstance(add, Semiring):
        spec = add.numeric
        if spec is not None and spec.compatible(a.vals.dtype, b.vals.dtype):
            add = spec.add
        else:
            raise NoKernelError(
                f"semiring {add.name!r} cannot merge value dtypes "
                f"{a.vals.dtype} and {b.vals.dtype}"
            )
    merged = COOMatrix(
        a.nrows,
        a.ncols,
        np.concatenate((a.rows, b.rows)),
        np.concatenate((a.cols, b.cols)),
        np.concatenate((a.vals, b.vals)),
    )
    return merged.sum_duplicates(add)
