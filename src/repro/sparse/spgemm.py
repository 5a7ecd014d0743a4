"""Local sparse general matrix-matrix multiply (SpGEMM) over semirings.

One scalar reference and one vectorized dispatcher:

* :func:`spgemm_hash` — Gustavson's algorithm with a per-output-row dict
  accumulator and per-element Python ``add``/``multiply``.  Slow and
  literal; every other path is validated against it.
* :func:`spgemm_coo` — the vectorized kernel, a sort-merge join on COO
  operands that never allocates anything proportional to a matrix
  dimension: the semiring's :class:`~repro.sparse.semiring.NumericSpec`
  multiplies and ``ufunc.reduceat`` folds the partial-product stream; a
  product the spec does not cover raises
  :class:`~repro.sparse.semiring.NoKernelError`.
* :func:`masked_products` — the same join restricted to a given set of
  output coordinates (a masked SpGEMM): the partial products themselves,
  unfolded, for a caller that reduces them its own way.

The two kernels are generic over :class:`~repro.sparse.semiring.Semiring`
and return a duplicate-free :class:`~repro.sparse.coo.COOMatrix`.  Both
fold the partial products of one output coordinate in the same
deterministic order (ascending inner index ``k``), so their results are
identical — bitwise, even for floating-point values.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .coo import (
    COOMatrix,
    group_coords,
    in_sorted,
    sorted_unique,
    stable_order,
)
from .csr import CSRMatrix
from .semiring import ARITHMETIC, NoKernelError, Semiring

__all__ = [
    "spgemm_hash",
    "spgemm_coo",
    "join_cartesian",
    "masked_products",
    "result_dtype",
]


# spmd: hot-loop-ok (object-dtype boxing; only reference paths call it)
def _emit(a: CSRMatrix, b: CSRMatrix, rows, cols, vals) -> COOMatrix:
    out_vals = np.empty(len(vals), dtype=object)
    for i, v in enumerate(vals):
        out_vals[i] = v
    return COOMatrix(a.nrows, b.ncols, np.asarray(rows, dtype=np.int64),
                     np.asarray(cols, dtype=np.int64), out_vals)


# spmd: hot-loop-ok (Gustavson reference kernel: per-element by design,
# cross-validates the vectorized fast paths)
def spgemm_hash(
    a: CSRMatrix, b: CSRMatrix, semiring: Semiring = ARITHMETIC
) -> COOMatrix:
    """Gustavson's algorithm with a per-row hash accumulator."""
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    rows: list[int] = []
    cols: list[int] = []
    vals: list[Any] = []
    add, mul = semiring.add, semiring.multiply
    for i in range(a.nrows):
        acc: dict[int, Any] = {}
        a_cols, a_vals = a.row(i)
        for t in range(len(a_cols)):
            kk = int(a_cols[t])
            av = a_vals[t]
            b_cols, b_vals = b.row(kk)
            for u in range(len(b_cols)):
                j = int(b_cols[u])
                p = mul(av, b_vals[u])
                if j in acc:
                    acc[j] = add(acc[j], p)
                else:
                    acc[j] = p
        for j in sorted(acc):
            rows.append(i)
            cols.append(j)
            vals.append(acc[j])
    return _emit(a, b, rows, cols, vals)


# ---------------------------------------------------------------------------
# the vectorized sort-merge join
# ---------------------------------------------------------------------------


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(starts, lengths, values)`` of the runs of equal keys in a sorted,
    non-empty array."""
    starts = np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1))
    return starts, np.diff(np.append(starts, len(keys))), keys[starts]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(s, s + n)`` over ``(starts, lengths)``."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])


def join_cartesian(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Indices ``(li, ri)`` of the per-key cartesian product of two sorted
    key arrays (the expansion step of a sort-merge join).

    For every key present in both arrays, emits one ``(li, ri)`` pair per
    element of the cross product of its occurrence ranges, left-major, keys
    ascending.  This is the inner-dimension expansion of :func:`spgemm_coo`:
    a merge of the two sides' runs of equal keys, matched with one
    ``searchsorted``.
    """
    e = np.empty(0, dtype=np.int64)
    if len(left_keys) == 0 or len(right_keys) == 0:
        return e, e.copy()
    l_start, l_cnt, l_keys = _runs(left_keys)
    r_start, r_cnt, r_keys = _runs(right_keys)
    at = np.minimum(np.searchsorted(r_keys, l_keys), len(r_keys) - 1)
    hit = r_keys[at] == l_keys
    if not hit.any():
        return e, e.copy()
    l_start, l_cnt = l_start[hit], l_cnt[hit]
    r_start, r_cnt = r_start[at[hit]], r_cnt[at[hit]]
    # every matched left element, repeated once per right partner
    fan = np.repeat(r_cnt, l_cnt)
    li = np.repeat(_ranges(l_start, l_cnt), fan)
    return li, _ranges(np.repeat(r_start, l_cnt), fan)


def _expand_coo(
    a: COOMatrix, b: COOMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The raw partial-product stream of ``A · B``: sort ``A`` by column
    and ``B`` by row (stably), expand the per-inner-index cartesian
    products, gather.

    Returns ``(rows, cols, a_vals, b_vals)`` with one entry per partial
    product, inner index ascending — so a stable group-by of the output
    coordinates folds every group in ascending-``k`` order.  Duplicate
    operand coordinates yield one partial product per occurrence pair.
    """
    a_order = stable_order((a.cols,))
    b_order = stable_order((b.rows,))
    li, ri = join_cartesian(a.cols[a_order], b.rows[b_order])
    ai, bi = a_order[li], b_order[ri]
    return a.rows[ai], b.cols[bi], a.vals[ai], b.vals[bi]


def result_dtype(semiring: Semiring, *operand_dtypes) -> Any:
    """The value dtype a product of operands with the given value dtypes
    carries, empty ones included; :class:`NoKernelError` when the
    semiring's numeric spec does not cover them."""
    spec = semiring.numeric
    if spec is None or not spec.compatible(*operand_dtypes):
        raise NoKernelError(
            f"semiring {semiring.name!r} has no spec covering operand "
            f"value dtypes "
            f"{' x '.join(str(np.dtype(d)) for d in operand_dtypes)}"
        )
    return spec.dtype


def spgemm_coo(
    a: COOMatrix, b: COOMatrix, semiring: Semiring = ARITHMETIC
) -> COOMatrix:
    """Merge-join SpGEMM directly on COO operands — the one dispatcher.

    Never allocates anything proportional to a matrix *dimension* — only to
    the nonzero counts — so it is safe for hypersparse blocks whose inner
    dimension is the 24^k k-mer space (what CombBLAS stores as DCSC).
    Every SUMMA stage of the overlap runs it, at every rank count.  The
    verdict comes from the operand value dtypes alone: a product the
    numeric spec does not cover raises
    :class:`~repro.sparse.semiring.NoKernelError` — for empty operands
    too, so it never depends on which block a rank holds.  Otherwise a
    vectorized ``multiply``, then the shared
    :func:`~repro.sparse.coo.group_coords` sort and ``add.reduceat`` per
    group — sequential accumulation in stream order, with no per-element
    Python dispatch anywhere.
    """
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    dtype = result_dtype(semiring, a.vals.dtype, b.vals.dtype)
    if a.nnz == 0 or b.nnz == 0:
        return COOMatrix.empty(a.nrows, b.ncols, dtype=dtype)
    rows, cols, a_vals, b_vals = _expand_coo(a, b)
    if len(rows) == 0:
        return COOMatrix.empty(a.nrows, b.ncols, dtype=dtype)
    spec = semiring.numeric
    vals = np.asarray(spec.multiply(a_vals, b_vals))
    order, starts, _, out_rows, out_cols = group_coords(rows, cols)
    return COOMatrix(a.nrows, b.ncols, out_rows, out_cols,
                     spec.add.reduceat(vals[order], starts))


def masked_products(
    a: COOMatrix, b: COOMatrix, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The partial products of ``A · B`` that land on the output
    coordinates ``(rows[e], cols[e])`` — the expansion of a masked SpGEMM,
    left unfolded.

    Returns ``(entry, a_vals, b_vals)``: per partial product, the index
    ``e`` of its coordinate and its two operand values, inner index
    ascending.  The coordinates must be distinct.  Only the masked rows of
    ``A`` and columns of ``B`` take part in the join, so a small mask
    costs a small join.
    """
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    rows = np.asarray(rows, dtype=np.int64)
    keys = rows * b.ncols + np.asarray(cols, dtype=np.int64)
    order = stable_order((keys,))
    keys = keys[order]
    if len(keys) == 0:
        return order, a.vals[:0], b.vals[:0]
    a = a.filter(in_sorted(sorted_unique(rows), a.rows))
    b = b.filter(in_sorted(sorted_unique(cols), b.cols))
    out_rows, out_cols, a_vals, b_vals = _expand_coo(a, b)
    out_keys = out_rows * b.ncols + out_cols
    at = np.minimum(np.searchsorted(keys, out_keys), len(keys) - 1)
    hit = keys[at] == out_keys
    return order[at[hit]], a_vals[hit], b_vals[hit]
