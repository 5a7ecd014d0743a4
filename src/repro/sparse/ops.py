"""Semiring-merge addition of two sparse matrices — the cross-stage
accumulation step of Sparse SUMMA."""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .coo import COOMatrix, group_coords
from .semiring import NoKernelError, Semiring

__all__ = ["elementwise_add"]


def elementwise_add(
    a: COOMatrix, b: COOMatrix, add: Callable[[Any, Any], Any] | Semiring
) -> COOMatrix:
    """``A ⊕ B`` with the semiring ``add`` merging collisions.

    ``add`` may be a scalar callable, a binary ufunc, or a whole
    :class:`~repro.sparse.semiring.Semiring` — in the latter case the
    vectorized ``reduceat`` fold runs when the semiring's numeric spec
    covers both operand value dtypes, the grouped struct merge when both
    operands carry the struct spec's record columns, and anything else is
    a :class:`~repro.sparse.semiring.NoKernelError`.
    """
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    if isinstance(add, Semiring):
        spec = add.numeric
        sspec = add.struct
        if spec is not None and spec.compatible(a.vals.dtype, b.vals.dtype):
            add = spec.add
        elif (sspec is not None and sspec.is_reduced(a.vals.dtype)
                and sspec.is_reduced(b.vals.dtype)):
            return _merge_struct(a, b, sspec)
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


def _merge_struct(a: COOMatrix, b: COOMatrix, spec) -> COOMatrix:
    """``A ⊕ B`` for struct-record values: one stable coordinate
    group-by, then layered vectorized ``merge`` of colliding coordinates —
    no per-element Python anywhere.  Handles duplicate coordinates within
    either operand too (groups larger than two fold left-to-right, which
    the associative ``merge`` contract makes order-insensitive)."""
    rows = np.concatenate((a.rows, b.rows))
    cols = np.concatenate((a.cols, b.cols))
    vals = np.concatenate((a.vals, b.vals))
    if len(rows) == 0:
        return COOMatrix(a.nrows, a.ncols, rows, cols, vals)
    order, starts, sizes, out_rows, out_cols = group_coords(rows, cols)
    # np.take, not vals[idx]: fancy indexing copies structured records
    # several times slower
    vals = np.take(vals, order)
    acc = np.take(vals, starts)
    for s in range(1, int(sizes.max())):
        has = sizes > s
        acc[has] = spec.merge(acc[has], np.take(vals, starts[has] + s))
    return COOMatrix(a.nrows, a.ncols, out_rows, out_cols, acc)
