"""Sparse SUMMA: 2-D distributed SpGEMM over a semiring (Buluç & Gilbert
2012 — the algorithm CombBLAS, and therefore PASTIS, uses for ``A Aᵀ``,
``A S`` and ``(A S) Aᵀ``).

For ``C = A · B`` on a q x q grid, stage ``t`` broadcasts the blocks
``A[:, t]`` along grid rows and ``B[t, :]`` along grid columns; every rank
multiplies the received pair locally and folds the partial result into its
accumulator with the semiring's ``add``.

The block multiply and the cross-stage accumulation are always
vectorized: the multiply runs the expand-reduce kernels of
:mod:`repro.sparse.spgemm`, and :func:`repro.sparse.ops.elementwise_add`
folds stages with ``reduceat`` (numeric) or the grouped record merge
(struct).  A semiring with no spec covering the operand dtypes raises
:class:`~repro.sparse.semiring.NoKernelError` on every rank before the
first broadcast.
"""

from __future__ import annotations

from ..mpisim.grid import block_ranges
from .coo import COOMatrix
from .distmat import DistSparseMatrix
from .ops import elementwise_add
from .semiring import ARITHMETIC, Semiring
from .spgemm import result_dtype, spgemm_coo

__all__ = ["summa"]


def summa(
    a: DistSparseMatrix, b: DistSparseMatrix, semiring: Semiring = ARITHMETIC
) -> DistSparseMatrix:
    """Distributed ``C = A · B`` (collective over the grid).

    ``A`` is ``m x k`` and ``B`` is ``k x n`` on the same grid; the inner
    dimension must agree so their block ranges align.
    """
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
        part = spgemm_coo(a_blk, b_blk, semiring)
        acc = part if acc is None else elementwise_add(acc, part, semiring)

    if acc is None:
        # an all-empty rank must still emit the dtype the engaged rung
        # produces, or gather/merge would demote typed siblings
        acc = COOMatrix.empty(*out_shape, dtype=dtype)
    return DistSparseMatrix(
        grid=grid, nrows=a.nrows, ncols=b.ncols, local=acc
    )
