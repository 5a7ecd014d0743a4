"""2-D process grid (CombBLAS-style) on top of any :class:`CommBackend`.

PASTIS requires ``p = q²`` ranks arranged in a √p x √p grid (Section V); a
rank at grid coordinates ``(pi, pj)`` owns the matrix block with row range
``pi`` and column range ``pj``.  Row and column sub-communicators carry the
SUMMA broadcasts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .backend import CommBackend

__all__ = ["ProcessGrid", "is_perfect_square", "nearest_square", "block_ranges"]


def is_perfect_square(p: int) -> bool:
    q = math.isqrt(p)
    return q * q == p


def nearest_square(p: int) -> int:
    """The perfect square nearest to ``p`` (paper: "we choose the perfect
    square integer closest to the target process count")."""
    if p < 1:
        raise ValueError("p must be positive")
    q = math.isqrt(p)
    lo, hi = q * q, (q + 1) * (q + 1)
    return lo if p - lo <= hi - p else hi


def block_ranges(n: int, q: int) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into ``q`` nearly equal contiguous ranges (the block
    decomposition of matrix rows/columns over the grid)."""
    if q <= 0:
        raise ValueError("q must be positive")
    base, extra = divmod(n, q)
    out = []
    start = 0
    for i in range(q):
        size = base + (1 if i < extra else 0)
        out.append((start, start + size))
        start += size
    return out


@dataclass
class ProcessGrid:
    """A rank's view of the √p x √p grid.

    Attributes
    ----------
    comm:
        The world communicator.
    q:
        Grid side (√p).
    row / col:
        This rank's grid coordinates (``rank == row * q + col``).
    row_comm / col_comm:
        Sub-communicators over this rank's grid row / column; ranks within
        them are ordered by grid column / row respectively.
    """

    comm: CommBackend
    q: int
    row: int
    col: int
    row_comm: CommBackend
    col_comm: CommBackend

    @classmethod
    def create(cls, comm: CommBackend) -> "ProcessGrid":
        p = comm.size
        if not is_perfect_square(p):
            raise ValueError(
                f"PASTIS requires a perfect-square rank count, got {p}"
            )
        q = math.isqrt(p)
        row, col = divmod(comm.rank, q)
        row_comm = comm.split(color=row, key=col)
        col_comm = comm.split(color=col, key=row)
        return cls(comm=comm, q=q, row=row, col=col,
                   row_comm=row_comm, col_comm=col_comm)

    def rank_of(self, row: int, col: int) -> int:
        """World rank of grid coordinates ``(row, col)``."""
        if not (0 <= row < self.q and 0 <= col < self.q):
            raise ValueError("grid coordinates out of range")
        return row * self.q + col

    def swap_across_diagonal(self, payload):
        """Exchange ``payload`` with the rank at the mirrored grid
        coordinates ``(col, row)`` and return the partner's; a rank on the
        grid diagonal is its own partner.  Collective over the grid: the
        one pairwise exchange of a distributed transpose."""
        partner = self.rank_of(self.col, self.row)
        if partner == self.comm.rank:
            return payload
        self.comm.send(payload, dest=partner, tag=71)
        return self.comm.recv(source=partner, tag=71)

    def row_block(self, n: int) -> tuple[int, int]:
        """This rank's row range of an ``n``-row distributed matrix."""
        return block_ranges(n, self.q)[self.row]

    def col_block(self, n: int) -> tuple[int, int]:
        """This rank's column range of an ``n``-column distributed matrix."""
        return block_ranges(n, self.q)[self.col]
