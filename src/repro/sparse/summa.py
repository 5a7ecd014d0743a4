"""Sparse SUMMA: 2-D distributed SpGEMM over a semiring (Buluç & Gilbert
2012 — the algorithm CombBLAS, and therefore PASTIS, uses for ``A Aᵀ``,
``A S`` and ``(A S) Aᵀ``).

For ``C = A · B`` on a q x q grid, stage ``t`` broadcasts the blocks
``A[:, t]`` along grid rows and ``B[t, :]`` along grid columns; every rank
multiplies the received pair locally and folds the partial result into its
accumulator with the semiring's ``add``.

The block multiply and the cross-stage accumulation are always
vectorized: the multiply runs :func:`~repro.sparse.spgemm.spgemm_coo`, and
:func:`repro.sparse.ops.elementwise_add` folds stages with ``reduceat``.
A semiring with no spec covering the operand dtypes raises
:class:`~repro.sparse.semiring.NoKernelError` on every rank before the
first broadcast.

:func:`summa_with_panels` also hands back what the broadcasts delivered:
this rank's whole row block of ``A`` and column block of ``B`` — the
operands of a later masked join over the same coordinates, at no second
broadcast.
"""

from __future__ import annotations

import numpy as np

from ..mpisim.grid import block_ranges
from .coo import COOMatrix
from .distmat import DistSparseMatrix
from .ops import elementwise_add
from .semiring import ARITHMETIC, Semiring
from .spgemm import result_dtype, spgemm_coo

__all__ = ["summa", "summa_with_panels"]


def summa(
    a: DistSparseMatrix, b: DistSparseMatrix, semiring: Semiring = ARITHMETIC
) -> DistSparseMatrix:
    """Distributed ``C = A · B`` (collective over the grid).

    ``A`` is ``m x k`` and ``B`` is ``k x n`` on the same grid; the inner
    dimension must agree so their block ranges align.
    """
    return _summa(a, b, semiring, None)


def summa_with_panels(
    a: DistSparseMatrix, b: DistSparseMatrix, semiring: Semiring = ARITHMETIC
) -> tuple[DistSparseMatrix, COOMatrix, COOMatrix]:
    """:func:`summa`, plus the two panels its stages multiplied on this
    rank: ``A``'s row block over every inner index (``my rows x k``) and
    ``B``'s column block (``k x my cols``), inner indices global.  A stage
    whose other operand was empty adds nothing — its entries met no
    partner."""
    a_parts: list[tuple] = []
    b_parts: list[tuple] = []
    c = _summa(a, b, semiring, (a_parts, b_parts))
    return (
        c,
        _stack(c.local.nrows, a.ncols, a_parts, a.local.vals.dtype),
        _stack(b.nrows, c.local.ncols, b_parts, b.local.vals.dtype),
    )


def _stack(nrows: int, ncols: int, parts: list[tuple], dtype) -> COOMatrix:
    """Stage blocks ``(rows, cols, vals)`` as one matrix; a lone block is
    not copied."""
    if len(parts) != 1:
        empty = np.empty(0, dtype=np.int64)
        parts = [tuple(np.concatenate(x) for x in zip(
            (empty, empty, np.empty(0, dtype=dtype)), *parts
        ))]
    return COOMatrix(nrows, ncols, *parts[0])


def _summa(a, b, semiring, panels) -> DistSparseMatrix:
    """The SUMMA stages; each multiplied stage's two blocks, inner indices
    made global, go to ``panels`` (a pair of lists) unless it is ``None``."""
    if a.grid is not b.grid and a.grid.comm is not b.grid.comm:
        raise ValueError("operands must live on the same grid")
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.ncols} vs {b.nrows}")
    # every rank decides from the operand dtypes alone, before any
    # collective: a product no spec covers fails uniformly, not mid-stage
    dtype = result_dtype(semiring, a.local.vals.dtype, b.local.vals.dtype)
    grid = a.grid
    q = grid.q
    inner_ranges = block_ranges(a.ncols, q)

    acc: COOMatrix | None = None
    my_rows = a.row_range
    my_cols = b.col_range
    out_shape = (my_rows[1] - my_rows[0], my_cols[1] - my_cols[0])

    for t in range(q):
        # Stage t: owner column t of A broadcasts along rows; owner row t of
        # B broadcasts along columns.
        if grid.col == t:
            a_payload = (a.local.rows, a.local.cols, a.local.vals,
                         a.local.nrows, a.local.ncols)
        else:
            a_payload = None
        a_payload = grid.row_comm.bcast(a_payload, root=t)

        if grid.row == t:
            b_payload = (b.local.rows, b.local.cols, b.local.vals,
                         b.local.nrows, b.local.ncols)
        else:
            b_payload = None
        b_payload = grid.col_comm.bcast(b_payload, root=t)

        inner = inner_ranges[t][1] - inner_ranges[t][0]
        a_blk = COOMatrix(a_payload[3], a_payload[4], a_payload[0],
                          a_payload[1], a_payload[2])
        b_blk = COOMatrix(b_payload[3], b_payload[4], b_payload[0],
                          b_payload[1], b_payload[2])
        if a_blk.ncols != inner or b_blk.nrows != inner:
            raise RuntimeError("SUMMA stage received mismatched blocks")
        if a_blk.nnz == 0 or b_blk.nnz == 0:
            continue
        if panels is not None:
            # a zero offset keeps the received arrays: no copy at one rank
            lo = inner_ranges[t][0]
            panels[0].append((a_blk.rows, a_blk.cols + lo if lo
                              else a_blk.cols, a_blk.vals))
            panels[1].append((b_blk.rows + lo if lo else b_blk.rows,
                              b_blk.cols, b_blk.vals))
        part = spgemm_coo(a_blk, b_blk, semiring)
        acc = part if acc is None else elementwise_add(acc, part, semiring)

    if acc is None:
        # an all-empty rank must still emit the dtype the spec produces,
        # or gather/merge would demote typed siblings
        acc = COOMatrix.empty(*out_shape, dtype=dtype)
    return DistSparseMatrix(
        grid=grid, nrows=a.nrows, ncols=b.ncols, local=acc
    )
