"""Local sparse general matrix-matrix multiply (SpGEMM) over semirings.

One scalar reference and one vectorized dispatcher:

* :func:`spgemm_hash` — Gustavson's algorithm with a per-output-row dict
  accumulator and per-element Python ``add``/``multiply``.  Slow and
  literal; every other path is validated against it.
* :func:`spgemm_coo` — the dispatcher, a sort-merge join on COO operands
  that never allocates anything proportional to a matrix dimension.  It
  walks one ladder: an explicitly requested delegated kernel when its
  coverage predicate allows, then the semiring's
  :class:`~repro.sparse.semiring.NumericSpec` (vectorized multiply +
  ``ufunc.reduceat``), then its :class:`~repro.sparse.semiring.StructSpec`
  (multi-column record values, e.g. PASTIS's ``CommonKmers``), else the
  batched generic merge (the scalar operators as ``np.frompyfunc`` batch
  calls).  All three in-repo rungs share one expansion prologue and differ
  only in how they multiply and fold the partial-product stream.
* :func:`spgemm_scipy` / :func:`spgemm_graphblas` — *delegated* kernels for
  semirings whose numeric spec declares a ``delegate`` form: the whole
  product runs as one external ``csr @ csr`` call (scipy's C++ Gustavson
  kernel, or SuiteSparse:GraphBLAS ``mxm``).

All variants are generic over :class:`~repro.sparse.semiring.Semiring` and
return a duplicate-free :class:`~repro.sparse.coo.COOMatrix`.  Every
formulation folds the partial products of one output coordinate in the same
deterministic order (ascending inner index ``k``), so their results are
identical — bitwise, even for floating-point values (scipy's SMMP kernel
walks each A-row's stored entries in ascending-``k`` order too, which is
why delegation can promise bitwise identity rather than mere closeness).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .coo import COOMatrix, group_coords
from .csr import CSRMatrix
from .semiring import ARITHMETIC, Semiring

__all__ = [
    "spgemm_hash",
    "spgemm_coo",
    "spgemm_scipy",
    "spgemm_graphblas",
    "join_cartesian",
    "result_dtype",
    "delegation_covers",
]


def _check_dims(a: CSRMatrix, b: CSRMatrix) -> None:
    if a.ncols != b.nrows:
        raise ValueError(
            f"dimension mismatch: {a.shape} x {b.shape}"
        )


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
    _check_dims(a, b)
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
# the vectorized sort-merge join (shared by every in-repo rung)
# ---------------------------------------------------------------------------


def join_cartesian(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Indices ``(li, ri)`` of the per-key cartesian product of two sorted
    key arrays (the expansion step of a sort-merge join).

    For every key present in both arrays, emits one ``(li, ri)`` pair per
    element of the cross product of its occurrence ranges, left-major, keys
    ascending.  This is the inner-dimension expansion of :func:`spgemm_coo`.
    """
    shared = np.intersect1d(left_keys, right_keys)
    if len(shared) == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy()
    l_start = np.searchsorted(left_keys, shared, side="left")
    l_end = np.searchsorted(left_keys, shared, side="right")
    r_start = np.searchsorted(right_keys, shared, side="left")
    r_end = np.searchsorted(right_keys, shared, side="right")
    l_cnt = l_end - l_start
    r_cnt = r_end - r_start
    sizes = l_cnt * r_cnt
    total = int(sizes.sum())
    if total == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy()
    # linear index within each group's product
    grp = np.repeat(np.arange(len(shared)), sizes)
    offs = np.concatenate(([0], np.cumsum(sizes)))[:-1]
    lin = np.arange(total, dtype=np.int64) - offs[grp]
    li = l_start[grp] + lin // r_cnt[grp]
    ri = r_start[grp] + lin % r_cnt[grp]
    return li, ri


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
    a_order = np.argsort(a.cols, kind="stable")
    b_order = np.argsort(b.rows, kind="stable")
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
    order, starts, _, out_rows, out_cols = group_coords(
        nrows, ncols, rows, cols
    )
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
        nrows, ncols, rows, cols,
        tiebreak=() if sk is None else (sk,),
    )
    return COOMatrix(nrows, ncols, out_rows, out_cols,
                     spec.reduce(records[order], starts, sizes))


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
    order, starts, sizes, out_rows, out_cols = group_coords(
        nrows, ncols, rows, cols
    )
    svals = vals[order]
    acc = svals[starts].copy()
    # spmd: hot-loop-ok (layered fold: iterations bounded by the largest
    # duplicate group, each one a whole-array frompyfunc call)
    for s in range(1, int(sizes.max())):
        has = sizes > s
        acc[has] = add_u(acc[has], svals[starts[has] + s])
    return COOMatrix(nrows, ncols, out_rows, out_cols, acc)


def spgemm_coo(
    a: COOMatrix,
    b: COOMatrix,
    semiring: Semiring = ARITHMETIC,
    kernel: str | None = None,
) -> COOMatrix:
    """Merge-join SpGEMM directly on COO operands — the one dispatcher.

    Never allocates anything proportional to a matrix *dimension* — only to
    the nonzero counts — so it is safe for hypersparse blocks whose inner
    dimension is the 24^k k-mer space (the situation DCSC exists for).
    Both the distributed SUMMA stages and the single-process overlap run
    it.  The ladder: the numeric spec when it covers the operand value
    dtypes, then the struct spec when it engages, else the batched generic
    merge.  Fallback never changes results — every rung folds in the same
    order.

    ``kernel`` optionally names a delegated backend (``"scipy"`` /
    ``"graphblas"``) tried first: when :func:`delegation_covers` allows and
    both blocks are duplicate-free and dense enough for a
    dimension-proportional CSR ``indptr`` to be affordable, the product
    runs as one external ``csr @ csr`` call; every other case falls back
    to the in-repo join, so the result is byte-identical either way.
    """
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    if kernel is not None and kernel not in _DELEGATES:
        raise ValueError(
            f"unknown delegated kernel {kernel!r}; expected one of "
            f"{', '.join(_DELEGATES)}"
        )
    if a.nnz == 0 or b.nnz == 0:
        return COOMatrix.empty(
            a.nrows, b.ncols,
            dtype=result_dtype(semiring, a.vals.dtype, b.vals.dtype),
        )
    if kernel is not None and delegation_covers(
            semiring, a.vals.dtype, b.vals.dtype, kernel=kernel):
        ca = _dup_free_csr(a)
        cb = _dup_free_csr(b) if ca is not None else None
        if ca is not None and cb is not None:
            return _DELEGATES[kernel](ca, cb, semiring)
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


# ---------------------------------------------------------------------------
# delegated kernels (external csr @ csr backends)
# ---------------------------------------------------------------------------

#: Product dtypes for which an external kernel's native arithmetic equals
#: the numeric kernel's ``reduceat`` arithmetic.  Two failure modes are
#: excluded: dtypes the external kernel would silently upcast (float16 →
#: float32), and sub-64-bit integers — ``np.add.reduceat`` accumulates
#: those in int64/uint64 (NumPy's default integer accumulator) while the
#: external kernel would sum natively, so dtype and overflow behaviour
#: would both diverge.
_DELEGATE_NATIVE_DTYPES = frozenset(
    np.dtype(t) for t in (np.int64, np.uint64, np.float32, np.float64)
)

#: A COO block only converts to CSR for delegation when
#: ``nrows <= max(64, ratio * nnz)`` — beyond that the block is
#: hypersparse (k-mer-space inner dimension territory) and the
#: dimension-proportional ``indptr`` the conversion needs would dwarf the
#: nonzeros, breaking :func:`spgemm_coo`'s allocation guarantee.
_DELEGATE_HYPERSPARSE_RATIO = 16


def delegation_covers(
    semiring: Semiring, a_dtype, b_dtype, kernel: str = "scipy"
) -> bool:
    """Whether a delegated kernel may run this (semiring, dtypes) product
    with a bitwise-identical result.

    Requires a :class:`~repro.sparse.semiring.NumericSpec` declaring a
    ``delegate`` form and compatible operand dtypes.  ``"pattern"``
    products never read the stored values, so any compatible dtypes do;
    ``"plus_times"`` additionally demands that the external kernel
    computes natively in ``np.result_type(a, b)`` (no silent upcast), and
    graphblas refuses float folds outright — SuiteSparse does not pin the
    accumulation order, and closeness is not identity.
    """
    if kernel not in _DELEGATES:
        return False
    spec = semiring.numeric
    if spec is None or spec.delegate is None:
        return False
    if not spec.compatible(a_dtype, b_dtype):
        return False
    if spec.delegate == "pattern":
        return True
    da, db = np.dtype(a_dtype), np.dtype(b_dtype)
    if da == object or db == object:
        return False
    out = np.result_type(da, db)
    if out not in _DELEGATE_NATIVE_DTYPES:
        return False
    if kernel == "graphblas" and out.kind == "f":
        return False
    return True


def _dup_free_csr(m: COOMatrix) -> CSRMatrix | None:
    """The CSR form of a COO block, or ``None`` when delegation must fall
    back: the block holds duplicate coordinates (CSR cannot represent
    them, and pre-folding would change pattern/bitwise semantics) or is
    too hypersparse for a dimension-proportional ``indptr``."""
    if m.nrows > max(64, _DELEGATE_HYPERSPARSE_RATIO * m.nnz):
        return None
    order = np.lexsort((m.cols, m.rows))
    r = m.rows[order]
    c = m.cols[order]
    if len(r) > 1 and bool(np.any((r[1:] == r[:-1]) & (c[1:] == c[:-1]))):
        return None
    indptr = np.zeros(m.nrows + 1, dtype=np.int64)
    np.add.at(indptr, r + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRMatrix(m.nrows, m.ncols, indptr, c, m.vals[order])


def _delegate_operands(
    a: CSRMatrix, b: CSRMatrix, semiring: Semiring, kernel: str
):
    """Validate a delegated call and return ``(spec, a_data, b_data)`` —
    the value arrays the external kernel should multiply (``pattern``
    substitutes int64 ones, so the product *counts* matching pairs)."""
    _check_dims(a, b)
    spec = semiring.numeric
    if spec is None or spec.delegate is None:
        raise TypeError(
            f"semiring {semiring.name!r} declares no delegate form"
        )
    if not delegation_covers(semiring, a.data.dtype, b.data.dtype,
                             kernel=kernel):
        raise TypeError(
            f"value dtypes ({a.data.dtype}, {b.data.dtype}) are not "
            f"delegable to {kernel!r} under the {semiring.name!r} numeric "
            f"spec (callers wanting automatic fallback should use spgemm_coo)"
        )
    if spec.delegate == "pattern":
        return spec, np.ones(a.nnz, dtype=spec.dtype), \
            np.ones(b.nnz, dtype=spec.dtype)
    return spec, a.data, b.data


def _scipy_matmat_exact(sa, sb, sp):
    """``sa @ sb`` when scipy's answer is exactly the numeric kernel's,
    else ``None``.

    scipy >= 1.15 prunes zero-valued sums from its matmat output, but this
    module's invariant is that a fold's result is a result even when it is
    the additive identity.  Strictly positive operands cannot cancel, so
    their product is returned as-is (the pattern-delegation path, whose
    data is all ones, always lands here).  Otherwise an int64 all-ones
    pattern product (whose sums are occurrence counts, never prunable)
    recovers the true intersection size: if nothing was pruned the values
    are scipy's folds verbatim — bitwise equal to ours, scipy accumulating
    in the same ascending-``k`` order.  If entries *were* pruned the
    caller must fall back to the in-repo kernel: the pruned fold results
    are IEEE signed zeros whose sign (``-0.0`` when every partial product
    is ``-0.0``) the pattern product cannot reconstruct.
    """
    c = sa @ sb
    c.sort_indices()  # scipy's matmat emits unsorted column indices
    if bool((sa.data > 0).all()) and bool((sb.data > 0).all()):
        return c
    pa = sp.csr_matrix(
        (np.ones(sa.nnz, dtype=np.int64), sa.indices, sa.indptr),
        shape=sa.shape,
    )
    pb = sp.csr_matrix(
        (np.ones(sb.nnz, dtype=np.int64), sb.indices, sb.indptr),
        shape=sb.shape,
    )
    if (pa @ pb).nnz == c.nnz:
        return c
    return None


def spgemm_scipy(
    a: CSRMatrix, b: CSRMatrix, semiring: Semiring = ARITHMETIC
) -> COOMatrix:
    """Delegated SpGEMM: one ``csr @ csr`` call into scipy's C++ Gustavson
    kernel, zero-copy in and out of this module's CSR arrays.

    Engages only for numeric specs declaring a ``delegate`` form
    (``"plus_times"``: scipy multiplies the stored values directly;
    ``"pattern"``: the values are replaced by int64 ones so the product
    counts matching pairs — COUNTING).  scipy accumulates each output
    coordinate as a left fold in ascending inner index ``k``, the same
    order as the numeric rung of :func:`spgemm_coo`, so results are
    *bitwise* identical — and when scipy's zero-sum pruning makes that
    unattainable (explicit cancellation zeros, which the in-repo kernels
    keep stored), the whole product runs on that rung instead, detected via
    :func:`_scipy_matmat_exact`.  A product with no intersection pattern
    returns the numeric kernel's canonical empty (the spec dtype, no
    coordinates, sorted).  Raises :class:`TypeError` when the semiring or
    operand dtypes are not delegable (callers wanting automatic fallback
    should pass ``kernel="scipy"`` to :func:`spgemm_coo`).
    """
    spec, a_data, b_data = _delegate_operands(a, b, semiring, "scipy")
    import scipy.sparse as sp

    sa = sp.csr_matrix((a_data, a.indices, a.indptr), shape=a.shape)
    sb = sp.csr_matrix((b_data, b.indices, b.indptr), shape=b.shape)
    c = _scipy_matmat_exact(sa, sb, sp)
    if c is None:  # scipy pruned cancellation zeros we must keep stored
        return spgemm_coo(a.to_coo(), b.to_coo(), semiring)
    if c.nnz == 0:
        return COOMatrix.empty(a.nrows, b.ncols, dtype=spec.dtype)
    out_rows = np.repeat(np.arange(c.shape[0], dtype=np.int64),
                         np.diff(c.indptr))
    return COOMatrix(a.nrows, b.ncols, out_rows,
                     np.asarray(c.indices, dtype=np.int64), c.data)


def spgemm_graphblas(
    a: CSRMatrix, b: CSRMatrix, semiring: Semiring = ARITHMETIC
) -> COOMatrix:
    """Delegated SpGEMM via python-graphblas (SuiteSparse:GraphBLAS).

    Same delegation contract as :func:`spgemm_scipy`, but restricted to
    ``pattern`` and *integer* ``plus_times`` products: SuiteSparse does
    not pin the floating-point accumulation order, and this repo's
    conformance sweep demands bitwise identity, not closeness.
    Import-guarded — raises :class:`ImportError` when python-graphblas is
    not installed; config validation surfaces that as a ``ConfigError``
    before any SUMMA stage runs.
    """
    spec, a_data, b_data = _delegate_operands(a, b, semiring, "graphblas")
    import graphblas as gb

    op = gb.semiring.plus_pair if spec.delegate == "pattern" \
        else gb.semiring.plus_times
    ga = gb.Matrix.from_csr(a.indptr, a.indices, a_data, ncols=a.ncols)
    gbm = gb.Matrix.from_csr(b.indptr, b.indices, b_data, ncols=b.ncols)
    gc = op(ga @ gbm).new()
    rows, cols, vals = gc.to_coo()
    if len(rows) == 0:
        return COOMatrix.empty(a.nrows, b.ncols, dtype=spec.dtype)
    out = COOMatrix(
        a.nrows, b.ncols,
        np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
        # the operand-derived product dtype, exactly as the numeric
        # kernel's vectorized multiply would produce it
        np.asarray(vals, dtype=np.result_type(a_data.dtype, b_data.dtype)),
    )
    return out.sort()


#: Delegated kernel name -> CSR-level kernel.  Looked up at call time so
#: tests can substitute counting or raising doubles to prove when
#: delegation does (and does not) engage.
_DELEGATES = {"scipy": spgemm_scipy, "graphblas": spgemm_graphblas}
