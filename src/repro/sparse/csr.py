"""Compressed sparse row format with typed or object values.

CSR is the workhorse for local SpGEMM: row-wise access to the left operand
and to the rows of the right operand it touches.  Values may be any Python
objects (needed by PASTIS's positional semirings), stored in an object array
aligned with ``indices``; numeric inputs keep their NumPy dtype so the
vectorized SpGEMM fast path can gather them wholesale.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .coo import COOMatrix, _as_values

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """Standard ``(indptr, indices, data)`` compressed rows.

    Column indices within a row are kept sorted; no duplicate coordinates.
    """

    __slots__ = ("nrows", "ncols", "indptr", "indices", "data")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> None:
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = _as_values(data, len(self.indices))
        if len(self.indptr) != self.nrows + 1:
            raise ValueError("indptr must have nrows + 1 entries")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr endpoints inconsistent with indices")

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSRMatrix":
        """Build from a COO matrix (must not contain duplicates)."""
        order = np.lexsort((coo.cols, coo.rows))
        rows = coo.rows[order]
        cols = coo.cols[order]
        vals = coo.vals[order]
        indptr = np.zeros(coo.nrows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(coo.nrows, coo.ncols, indptr, cols, vals)

    def to_coo(self) -> COOMatrix:
        rows = np.repeat(
            np.arange(self.nrows, dtype=np.int64), np.diff(self.indptr)
        )
        return COOMatrix(self.nrows, self.ncols, rows, self.indices.copy(),
                         self.data.copy())

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """``(column indices, values)`` of row ``i`` (views)."""
        s, e = self.indptr[i], self.indptr[i + 1]
        return self.indices[s:e], self.data[s:e]

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.indptr)

    def astype(self, dtype) -> "CSRMatrix":
        """Same matrix with values cast to ``dtype`` (typed-array entry
        point for the numeric fast path)."""
        return CSRMatrix(self.nrows, self.ncols, self.indptr.copy(),
                         self.indices.copy(), self.data.astype(dtype))

    def get(self, i: int, j: int, default: Any = None) -> Any:
        """Value at ``(i, j)`` or ``default``."""
        cols, vals = self.row(i)
        pos = np.searchsorted(cols, j)
        if pos < len(cols) and cols[pos] == j:
            return vals[pos]
        return default

    def transpose(self) -> "CSRMatrix":
        return CSRMatrix.from_coo(self.to_coo().transpose())

    def __repr__(self) -> str:  # pragma: no cover
        return f"CSRMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"
