"""Coordinate-format sparse matrix with typed or object values.

The distributed pipeline moves triples between ranks, so COO is the exchange
format; :class:`COOMatrix` supports both numeric and Python-object values
(the PASTIS positional semirings store tuples).  Numeric inputs keep their
NumPy dtype — the numeric SpGEMM fast path depends on typed value arrays
surviving every transform — and only genuinely heterogeneous values fall
back to ``dtype=object``.  Dimensions may far exceed the nonzero count —
e.g. ``A`` is |sequences| x 24^k — so shape is ``int`` based, never
materialised.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

import numpy as np

__all__ = [
    "COOMatrix", "group_coords", "in_sorted", "sorted_unique", "stable_order",
]


def _as_values(vals: Any, n: int) -> np.ndarray:
    """Coerce ``vals`` to a 1-D value array of length ``n``, preserving
    numeric dtypes and falling back to an object array for sequence-valued
    or ragged inputs (which ``np.asarray`` would reject or reshape)."""
    if isinstance(vals, np.ndarray) and vals.shape == (n,):
        return vals
    try:
        arr = np.asarray(vals)
    except ValueError:  # ragged nested sequences
        arr = None
    if arr is not None and arr.shape == (n,):
        return arr
    arr = np.empty(n, dtype=object)
    for i, v in enumerate(vals):
        arr[i] = v
    return arr


def stable_order(keys) -> np.ndarray:
    """``np.lexsort(keys)`` for integer keys: the stable permutation that
    sorts by the last key, ties broken by the one before, and so on.

    Works as LSD passes of ``np.argsort(kind="stable")`` over 16-bit
    digits, the widest integers NumPy radix-sorts; wider dtypes (and
    ``lexsort``) fall back to comparison sorts.  Each key is offset by its
    minimum first, so negative and full-range int64 keys order correctly,
    a key costs one pass per 16 bits of its value span, and a constant key
    costs none.
    """
    keys = [np.asarray(key, dtype=np.int64) for key in keys]
    order = np.arange(len(keys[0]) if keys else 0)
    if len(order) == 0:
        return order
    for key in keys:
        lo = key.min()
        bits = (int(key.max()) - int(lo)).bit_length()
        if bits == 0:
            continue
        # the wrapped int64 difference, read unsigned, is the exact offset
        digits = (key - lo).view(np.uint64)[order]
        for shift in range(0, bits, 16):
            p = np.argsort((digits >> shift).astype(np.uint16), kind="stable")
            order = order[p]
            if shift + 16 < bits:
                digits = digits[p]
    return order


def group_coords(
    rows: np.ndarray, cols: np.ndarray, tiebreak: tuple = ()
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stable coordinate grouping of a triple stream: sort by
    ``(row, col)`` with optional within-group ``tiebreak`` keys, then find
    the group boundaries.

    Returns ``(order, starts, sizes, group_rows, group_cols)``: ``order``
    permutes the stream, ``starts``/``sizes`` delimit each coordinate's
    run within the permuted stream, and ``group_rows``/``group_cols`` are
    the unique coordinates in ascending order.  ``tiebreak`` keys follow
    ``np.lexsort`` convention (least significant first) and order entries
    *within* a coordinate group; entries equal on every key keep their
    stream order.

    The sort is one :func:`stable_order` over ``(*tiebreak, cols, rows)``,
    so it costs a radix pass per 16 bits of each key's span whatever the
    matrix shape.  This is the one shared group-by under the SpGEMM
    accumulator, the symmetrization winner selection and the k-mer
    extraction of ``A``.
    """
    order = stable_order((*tiebreak, cols, rows))
    r, c = rows[order], cols[order]
    boundary = np.ones(len(r), dtype=bool)
    boundary[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(boundary)
    sizes = np.diff(np.append(starts, len(r)))
    return order, starts, sizes, r[starts], c[starts]


def sorted_unique(values) -> np.ndarray:
    """Ascending distinct values of an integer array, by sort and run scan
    (``np.unique`` hashes on NumPy >= 2.3, which is slower here)."""
    s = np.sort(np.asarray(values, dtype=np.int64))
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def in_sorted(sorted_keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership mask of ``values`` in an ascending key array, by binary
    search."""
    if len(sorted_keys) == 0:
        return np.zeros(len(values), dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, values),
                    len(sorted_keys) - 1)
    return sorted_keys[at] == values


def _reduce_sorted_coords(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, add
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold consecutive equal ``(row, col)`` groups of an already-sorted
    triple stream with ``add.reduceat``; returns the deduplicated triples.

    ``reduceat`` applies the ufunc left-to-right within each group — the
    same order as sequential accumulation — so this is the one shared
    implementation of the vectorized duplicate fold (used by
    ``COOMatrix.sum_duplicates`` and the SpGEMM numeric kernels)."""
    boundary = np.ones(len(rows), dtype=bool)
    boundary[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(boundary)
    return rows[starts], cols[starts], add.reduceat(vals, starts)


class COOMatrix:
    """Sparse matrix as parallel ``(rows, cols, vals)`` arrays.

    Duplicate coordinates are allowed until :meth:`sum_duplicates` folds them
    with a semiring ``add``.
    """

    __slots__ = ("nrows", "ncols", "rows", "cols", "vals")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        rows: np.ndarray | list,
        cols: np.ndarray | list,
        vals: np.ndarray | list,
    ) -> None:
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = _as_values(vals, len(self.rows))
        if len(self.rows) != len(self.cols) or len(self.rows) != len(self.vals):
            raise ValueError("rows/cols/vals must have equal length")
        if len(self.rows):
            if self.rows.min() < 0 or self.rows.max() >= self.nrows:
                raise ValueError("row index out of range")
            if self.cols.min() < 0 or self.cols.max() >= self.ncols:
                raise ValueError("column index out of range")

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, nrows: int, ncols: int, dtype=np.int64) -> "COOMatrix":
        z = np.empty(0, dtype=np.int64)
        return cls(nrows, ncols, z, z.copy(), np.empty(0, dtype=dtype))

    @classmethod
    def from_scipy(cls, mat) -> "COOMatrix":
        m = mat.tocoo()
        return cls(m.shape[0], m.shape[1], m.row.astype(np.int64),
                   m.col.astype(np.int64), m.data.copy())

    # -- properties ----------------------------------------------------------

    @property
    def nnz(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __iter__(self) -> Iterator[tuple[int, int, Any]]:
        for r, c, v in zip(self.rows, self.cols, self.vals):
            yield int(r), int(c), v

    def __repr__(self) -> str:  # pragma: no cover
        return f"COOMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"

    # -- transforms ----------------------------------------------------------

    def copy(self) -> "COOMatrix":
        return COOMatrix(
            self.nrows, self.ncols, self.rows.copy(), self.cols.copy(),
            self.vals.copy(),
        )

    def astype(self, dtype) -> "COOMatrix":
        """Same matrix with values cast to ``dtype`` (typed-array entry
        point for the numeric fast path)."""
        return COOMatrix(
            self.nrows, self.ncols, self.rows.copy(), self.cols.copy(),
            self.vals.astype(dtype),
        )

    def transpose(self) -> "COOMatrix":
        """Swap rows and columns (O(nnz), no value copies)."""
        return COOMatrix(
            self.ncols, self.nrows, self.cols.copy(), self.rows.copy(),
            self.vals.copy(),
        )

    def sort(self) -> "COOMatrix":
        """Entries sorted by (row, col); stable for duplicates."""
        order = stable_order((self.cols, self.rows))
        return COOMatrix(
            self.nrows, self.ncols, self.rows[order], self.cols[order],
            self.vals[order],
        )

    def sum_duplicates(self, add: Callable[[Any, Any], Any]) -> "COOMatrix":
        """Fold duplicate coordinates with the semiring ``add``.

        When ``add`` has a ufunc's ``reduceat`` (a binary ufunc, or a
        numeric spec's record fold) and the values are typed (not
        ``object``), the fold is vectorized with ``reduceat`` over the
        stable ``(row, col)`` sort — the same left-to-right order the
        generic loop uses, so results are identical.
        """
        if self.nnz == 0:
            return self.copy()
        if hasattr(add, "reduceat") and self.vals.dtype != object:
            m = self.sort()
            return COOMatrix(
                self.nrows, self.ncols,
                *_reduce_sorted_coords(m.rows, m.cols, m.vals, add),
            )
        m = self.sort()
        out_r: list[int] = []
        out_c: list[int] = []
        out_v: list[Any] = []
        cur_r, cur_c, cur_v = int(m.rows[0]), int(m.cols[0]), m.vals[0]
        for i in range(1, m.nnz):
            r, c = int(m.rows[i]), int(m.cols[i])
            if r == cur_r and c == cur_c:
                cur_v = add(cur_v, m.vals[i])
            else:
                out_r.append(cur_r)
                out_c.append(cur_c)
                out_v.append(cur_v)
                cur_r, cur_c, cur_v = r, c, m.vals[i]
        out_r.append(cur_r)
        out_c.append(cur_c)
        out_v.append(cur_v)
        return COOMatrix(self.nrows, self.ncols, out_r, out_c,
                         _as_values(out_v, len(out_v)))

    def filter(self, keep: np.ndarray) -> "COOMatrix":
        """Subset of entries selected by a boolean mask."""
        keep = np.asarray(keep, dtype=bool)
        return COOMatrix(self.nrows, self.ncols, self.rows[keep],
                         self.cols[keep], self.vals[keep])

    def map_values(self, fn: Callable[[Any], Any]) -> "COOMatrix":
        """Apply ``fn`` to every stored value."""
        vals = np.empty(self.nnz, dtype=object)
        for i, v in enumerate(self.vals):
            vals[i] = fn(v)
        return COOMatrix(self.nrows, self.ncols, self.rows.copy(),
                         self.cols.copy(), vals)

    def to_scipy(self):
        """Convert to ``scipy.sparse.csr_matrix`` (numeric values only)."""
        import scipy.sparse as sp

        vals = self.vals
        if vals.dtype == object:
            vals = np.array([float(v) for v in vals])
        return sp.coo_matrix(
            (vals, (self.rows, self.cols)), shape=self.shape
        ).tocsr()

    def to_dict(self) -> dict[tuple[int, int], Any]:
        """``{(row, col): value}`` — requires no duplicates."""
        out: dict[tuple[int, int], Any] = {}
        for r, c, v in self:
            if (r, c) in out:
                raise ValueError("duplicate coordinates; sum_duplicates first")
            out[(r, c)] = v
        return out
