"""Local sparse general matrix-matrix multiply (SpGEMM) over semirings.

One scalar reference and one vectorized dispatcher:

* :func:`spgemm_hash` — Gustavson's algorithm with a per-output-row dict
  accumulator and per-element Python ``add``/``multiply``.  Slow and
  literal; every other path is validated against it.
* :func:`spgemm_coo` — the dispatcher, a sort-merge join on COO operands
  that never allocates anything proportional to a matrix dimension.  It
  has two rungs: the semiring's
  :class:`~repro.sparse.semiring.NumericSpec` (vectorized multiply +
  ``ufunc.reduceat``), then its :class:`~repro.sparse.semiring.StructSpec`
  (multi-column record values, e.g. PASTIS's ``CommonKmers``).  Both share
  one expansion prologue and differ only in how they multiply and fold the
  partial-product stream; a product neither covers raises
  :class:`~repro.sparse.semiring.NoKernelError`.

Both are generic over :class:`~repro.sparse.semiring.Semiring` and return a
duplicate-free :class:`~repro.sparse.coo.COOMatrix`.  Every formulation
folds the partial products of one output coordinate in the same
deterministic order (ascending inner index ``k``), so their results are
identical — bitwise, even for floating-point values.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .coo import COOMatrix, group_coords, stable_order
from .csr import CSRMatrix
from .semiring import ARITHMETIC, NoKernelError, Semiring

__all__ = [
    "spgemm_hash",
    "spgemm_coo",
    "join_cartesian",
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
# the vectorized sort-merge join (shared by both rungs)
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


def _rung(semiring: Semiring, *operand_dtypes):
    """``(fold, value dtype)`` of the rung that runs a product of operands
    with the given value dtypes: the numeric spec when it covers them,
    then the struct spec; :class:`NoKernelError` when neither does."""
    spec = semiring.numeric
    if spec is not None and spec.compatible(*operand_dtypes):
        return _fold_numeric, spec.dtype
    sspec = semiring.struct
    if sspec is not None and sspec.compatible(*operand_dtypes):
        return _fold_struct, sspec.dtype
    raise NoKernelError(
        f"semiring {semiring.name!r} has no spec covering operand value "
        f"dtypes {' x '.join(str(np.dtype(d)) for d in operand_dtypes)}"
    )


def result_dtype(semiring: Semiring, *operand_dtypes) -> Any:
    """The value dtype a product of the given operands carries, empty
    ones included (an int64 empty from an idle rank would knock every
    later concatenation off the record path)."""
    return _rung(semiring, *operand_dtypes)[1]


def _fold_numeric(nrows, ncols, rows, cols, a_vals, b_vals,
                  semiring: Semiring) -> COOMatrix:
    """Numeric rung: vectorized ``multiply``, then the shared
    :func:`~repro.sparse.coo.group_coords` sort and ``add.reduceat`` per
    group — the vectorized equivalent of sequential accumulation in stream
    order.  No per-element Python dispatch anywhere."""
    spec = semiring.numeric
    vals = np.asarray(spec.multiply(a_vals, b_vals))
    order, starts, _, out_rows, out_cols = group_coords(rows, cols)
    return COOMatrix(nrows, ncols, out_rows, out_cols,
                     spec.add.reduceat(vals[order], starts))


def _fold_struct(nrows, ncols, rows, cols, a_vals, b_vals,
                 semiring: Semiring) -> COOMatrix:
    """Struct rung: one record per partial product (``expand``), grouped
    by output coordinate with the spec's ``sort_key`` as the within-group
    tiebreak so the vectorized ``reduce`` sees every group in its
    canonical accumulation order."""
    spec = semiring.struct
    records = spec.expand(a_vals, b_vals)
    order, starts, sizes, out_rows, out_cols = group_coords(
        rows, cols, tiebreak=(spec.sort_key(records),)
    )
    # np.take, not records[order]: fancy indexing copies structured
    # records several times slower
    return COOMatrix(nrows, ncols, out_rows, out_cols,
                     spec.reduce(np.take(records, order), starts, sizes))


def spgemm_coo(
    a: COOMatrix, b: COOMatrix, semiring: Semiring = ARITHMETIC
) -> COOMatrix:
    """Merge-join SpGEMM directly on COO operands — the one dispatcher.

    Never allocates anything proportional to a matrix *dimension* — only to
    the nonzero counts — so it is safe for hypersparse blocks whose inner
    dimension is the 24^k k-mer space (what CombBLAS stores as DCSC).
    Every SUMMA stage of the overlap runs it, at every rank count.  Two
    rungs, chosen by the operand value dtypes alone: the numeric spec when
    it covers them, then the struct spec; a product neither covers raises
    :class:`~repro.sparse.semiring.NoKernelError` — for empty operands
    too, so the verdict never depends on which block a rank holds.
    """
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    fold, dtype = _rung(semiring, a.vals.dtype, b.vals.dtype)
    if a.nnz == 0 or b.nnz == 0:
        return COOMatrix.empty(a.nrows, b.ncols, dtype=dtype)
    rows, cols, a_vals, b_vals = _expand_coo(a, b)
    if len(rows) == 0:
        return COOMatrix.empty(a.nrows, b.ncols, dtype=dtype)
    return fold(a.nrows, b.ncols, rows, cols, a_vals, b_vals, semiring)
