"""2-D block-distributed sparse matrices over the simulated process grid.

A global ``m x n`` matrix is split into √p x √p contiguous blocks; the rank
at grid coordinates ``(pi, pj)`` stores block ``(pi, pj)`` locally in COO
with *block-relative* indices.  This mirrors CombBLAS's distribution
(Section II-A / V-C of the paper).  All methods here run inside an SPMD
region: each rank calls them with its own :class:`DistSparseMatrix` handle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mpisim.grid import ProcessGrid, block_ranges
from .coo import COOMatrix, _as_values

__all__ = ["DistSparseMatrix"]


def _route(
    starts: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Block index of each global index given block start offsets."""
    return np.searchsorted(starts, idx, side="right") - 1


@dataclass
class DistSparseMatrix:
    """One rank's block of a globally ``nrows x ncols`` sparse matrix."""

    grid: ProcessGrid
    nrows: int
    ncols: int
    local: COOMatrix  # block-relative coordinates

    # -- construction ----------------------------------------------------------

    @classmethod
    def distribute(
        cls,
        grid: ProcessGrid,
        nrows: int,
        ncols: int,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray | list,
    ) -> "DistSparseMatrix":
        """Route arbitrarily-located triples to their owner blocks.

        Every rank contributes the triples it generated (e.g. the rows of
        ``A`` for its locally parsed sequences); one all-to-all later each
        rank holds exactly its block.  Collective over the grid."""
        q = grid.q
        row_ranges = block_ranges(nrows, q)
        col_ranges = block_ranges(ncols, q)
        row_starts = np.array([r[0] for r in row_ranges], dtype=np.int64)
        col_starts = np.array([c[0] for c in col_ranges], dtype=np.int64)

        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        # preserve numeric dtypes — the SUMMA numeric fast path needs typed
        # value arrays to survive the redistribution
        vals_arr = _as_values(vals, len(rows))
        owner = _route(row_starts, rows) * q + _route(col_starts, cols)
        outgoing: list[tuple] = []
        for dst in range(grid.comm.size):
            sel = owner == dst
            outgoing.append(
                (rows[sel], cols[sel], vals_arr[sel])
            )
        incoming = grid.comm.alltoall(outgoing)
        lr = np.concatenate([m[0] for m in incoming]) if incoming else rows[:0]
        lc = np.concatenate([m[1] for m in incoming]) if incoming else cols[:0]
        if incoming:
            lv = np.concatenate([m[2] for m in incoming])
        else:
            lv = vals_arr[:0]
        my_rows = row_ranges[grid.row]
        my_cols = col_ranges[grid.col]
        local = COOMatrix(
            my_rows[1] - my_rows[0],
            my_cols[1] - my_cols[0],
            lr - my_rows[0],
            lc - my_cols[0],
            lv,
        )
        return cls(grid=grid, nrows=nrows, ncols=ncols, local=local)

    # -- bookkeeping -------------------------------------------------------------

    @property
    def row_range(self) -> tuple[int, int]:
        return block_ranges(self.nrows, self.grid.q)[self.grid.row]

    @property
    def col_range(self) -> tuple[int, int]:
        return block_ranges(self.ncols, self.grid.q)[self.grid.col]

    # -- movement ----------------------------------------------------------------

    def gather_global(self) -> COOMatrix | None:
        """Gather the full matrix on world rank 0 (collective); other ranks
        get ``None``.  Intended for tests and small outputs."""
        rs, _ = self.row_range
        cs, _ = self.col_range
        payload = (self.local.rows + rs, self.local.cols + cs,
                   self.local.vals)
        blocks = self.grid.comm.gather(payload, root=0)
        if blocks is None:
            return None
        rows = np.concatenate([b[0] for b in blocks])
        cols = np.concatenate([b[1] for b in blocks])
        vals = np.concatenate([b[2] for b in blocks])
        return COOMatrix(self.nrows, self.ncols, rows, cols, vals)

    def transpose(self) -> "DistSparseMatrix":
        """Distributed transpose: block ``(i, j)`` of ``Aᵀ`` is the local
        transpose of block ``(j, i)`` of ``A`` — one pairwise exchange
        across the grid diagonal (the paper's "tr. A" component)."""
        grid = self.grid
        partner = grid.rank_of(grid.col, grid.row)
        t = self.local.transpose()
        payload = (t.rows, t.cols, t.vals, t.nrows, t.ncols)
        if partner == grid.comm.rank:
            recv = payload
        else:
            grid.comm.send(payload, dest=partner, tag=71)
            recv = grid.comm.recv(source=partner, tag=71)
        local = COOMatrix(recv[3], recv[4], recv[0], recv[1], recv[2])
        return DistSparseMatrix(
            grid=grid, nrows=self.ncols, ncols=self.nrows, local=local
        )
