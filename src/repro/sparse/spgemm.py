"""Local sparse general matrix-matrix multiply (SpGEMM) over semirings.

One scalar reference and one vectorized dispatcher:

* :func:`spgemm_hash` — Gustavson's algorithm with a per-output-row dict
  accumulator and per-element Python ``add``/``multiply``.  Slow and
  literal; every other path is validated against it.
* :func:`spgemm_coo` — the dispatcher, a sort-merge join on COO operands
  that never allocates anything proportional to a matrix dimension.  It
  walks one ladder: the semiring's
  :class:`~repro.sparse.semiring.NumericSpec` (vectorized multiply +
  ``ufunc.reduceat``), then its :class:`~repro.sparse.semiring.StructSpec`
  (multi-column record values, e.g. PASTIS's ``CommonKmers``), else the
  batched generic merge (the scalar operators as ``np.frompyfunc`` batch
  calls).  The three rungs share one expansion prologue and differ only in
  how they multiply and fold the partial-product stream.

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
from .semiring import ARITHMETIC, Semiring

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
# the vectorized sort-merge join (shared by every rung)
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
    Works for object-valued matrices too: gather never touches the values
    elementwise.
    """
    a_order = stable_order((a.cols,))
    b_order = stable_order((b.rows,))
    li, ri = join_cartesian(a.cols[a_order], b.rows[b_order])
    ai, bi = a_order[li], b_order[ri]
    return a.rows[ai], b.cols[bi], a.vals[ai], b.vals[bi]


def result_dtype(semiring: Semiring, *operand_dtypes) -> Any:
    """The value dtype a fast-path product of the given operands would
    carry: the numeric spec's dtype, else the struct spec's record dtype,
    else int64 (the legacy placeholder for empty generic results).

    Empty results must still declare the dtype the engaged kernel family
    would have produced — an int64 empty from a rank with no work would
    silently knock every later concatenation off the fast path.
    """
    spec = semiring.numeric
    if spec is not None and spec.compatible(*operand_dtypes):
        return spec.dtype
    sspec = semiring.struct
    if sspec is not None and sspec.compatible(*operand_dtypes):
        return sspec.dtype
    return np.int64


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
    sk = spec.sort_key(records) if spec.sort_key is not None else None
    order, starts, sizes, out_rows, out_cols = group_coords(
        rows, cols, tiebreak=() if sk is None else (sk,)
    )
    # np.take, not records[order]: fancy indexing copies structured
    # records several times slower
    return COOMatrix(nrows, ncols, out_rows, out_cols,
                     spec.reduce(np.take(records, order), starts, sizes))


def _boxed(arr: np.ndarray) -> np.ndarray:
    """The same values as a ``dtype=object`` array of NumPy scalars.

    ``astype(object)`` would demote typed elements to *Python* scalars
    (changing e.g. int64 overflow semantics), whereas the hash
    reference kernel sees NumPy scalars when they index a typed array —
    iterating the array (``list``) preserves exactly those.
    """
    if arr.dtype == object:
        return arr
    out = np.empty(len(arr), dtype=object)
    out[:] = list(arr)
    return out


def _fold_batched(nrows, ncols, rows, cols, a_vals, b_vals,
                  semiring: Semiring) -> COOMatrix:
    """Batched generic rung, for object semirings that declare no
    (engaging) spec: the two scalar operators run as ``np.frompyfunc``
    batch calls — one call for the multiply and one per fold *layer*
    instead of one Python-level dispatch per element.  Operand values are
    boxed as NumPy scalars first and the group sort is stable, so this is
    exactly the left fold in stream order :func:`spgemm_hash` performs."""
    mul_u = np.frompyfunc(semiring.multiply, 2, 1)
    add_u = np.frompyfunc(semiring.add, 2, 1)
    vals = mul_u(_boxed(a_vals), _boxed(b_vals))
    order, starts, sizes, out_rows, out_cols = group_coords(rows, cols)
    svals = vals[order]
    acc = svals[starts].copy()
    # spmd: hot-loop-ok (layered fold: iterations bounded by the largest
    # duplicate group, each one a whole-array frompyfunc call)
    for s in range(1, int(sizes.max())):
        has = sizes > s
        acc[has] = add_u(acc[has], svals[starts[has] + s])
    return COOMatrix(nrows, ncols, out_rows, out_cols, acc)


def spgemm_coo(
    a: COOMatrix, b: COOMatrix, semiring: Semiring = ARITHMETIC
) -> COOMatrix:
    """Merge-join SpGEMM directly on COO operands — the one dispatcher.

    Never allocates anything proportional to a matrix *dimension* — only to
    the nonzero counts — so it is safe for hypersparse blocks whose inner
    dimension is the 24^k k-mer space (what CombBLAS stores as DCSC).
    Every SUMMA stage of the overlap runs it, at every rank count.  The
    ladder: the numeric spec when it covers the operand value
    dtypes, then the struct spec when it engages, else the batched generic
    merge.  Fallback never changes results — every rung folds in the same
    order.
    """
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    if a.nnz == 0 or b.nnz == 0:
        return COOMatrix.empty(
            a.nrows, b.ncols,
            dtype=result_dtype(semiring, a.vals.dtype, b.vals.dtype),
        )
    spec = semiring.numeric
    sspec = semiring.struct
    if spec is not None and spec.compatible(a.vals.dtype, b.vals.dtype):
        fold, dtype = _fold_numeric, spec.dtype
    elif sspec is not None and sspec.engages(a.vals, b.vals):
        fold, dtype = _fold_struct, sspec.dtype
    else:
        fold, dtype = _fold_batched, object
    rows, cols, a_vals, b_vals = _expand_coo(a, b)
    if len(rows) == 0:
        return COOMatrix.empty(a.nrows, b.ncols, dtype=dtype)
    return fold(a.nrows, b.ncols, rows, cols, a_vals, b_vals, semiring)
