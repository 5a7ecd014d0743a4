"""Differential conformance harness for the local SpGEMM kernels.

A library, not a test module (no ``test_`` prefix — pytest never collects
it): ``tests/test_kernelcheck.py`` drives it.  A kernel under test is any
``(a: CSRMatrix, b: CSRMatrix, semiring) -> COOMatrix`` callable — the
scalar :func:`~repro.sparse.spgemm.spgemm_hash`, :func:`dispatch` (the
``spgemm_coo`` ladder), or a deliberately broken double.

Pieces
------
* :func:`corpus` — a seeded adversarial corpus of operand pairs per dtype
  combination: empty operands/rows/blocks, zero-size inner dimension,
  1×N / N×1 shapes, dense-ish blocks, ultra-sparse blocks, explicit and
  cancelling zeros, near-limit magnitudes, heavy accumulator collisions.
* :func:`assert_conforms` — one product checked against the scalar
  semiring reference (``spgemm_hash``): identical coordinates, and values
  byte-identical after casting the reference scalars to the kernel's
  output dtype (object outputs are compared scalar-by-scalar, *type
  included*).
* :func:`sweep_kernel` — corpus × semirings × dtypes for one kernel;
  returns how many products it checked so callers can assert the sweep
  was not vacuous.  A vectorized kernel must instead raise
  :class:`~repro.sparse.semiring.NoKernelError` on every product of a
  (semiring, dtype) pair that no spec covers (:func:`covered`).
* :func:`summa_product` — the distributed formulation: scatter the
  operands over a √p × √p grid, run SUMMA, gather the global product.
  SPMD bodies live at module level so the ``mp`` backend can pickle them
  by reference.
"""

from __future__ import annotations

import numpy as np

from repro.mpisim.backend import run_spmd
from repro.mpisim.grid import ProcessGrid
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.distmat import DistSparseMatrix
from repro.sparse.semiring import (
    ARITHMETIC,
    BOOLEAN,
    COUNTING,
    MAX_MIN,
    MAX_TIMES,
    MIN_PLUS,
    NoKernelError,
    Semiring,
)
from repro.sparse.spgemm import spgemm_coo, spgemm_hash
from repro.sparse.summa import summa

__all__ = [
    "SWEEP_SEMIRINGS",
    "SWEEP_DTYPES",
    "corpus",
    "covered",
    "dispatch",
    "reference_product",
    "assert_conforms",
    "assert_bitwise_equal",
    "sweep_kernel",
    "summa_product",
]

#: Semirings the sweep exercises — every bundled one: plus-times
#: arithmetic, value-ignoring counting, three ufunc folds, and BOOLEAN
#: (whose bool-only spec covers none of the numeric corpus).
SWEEP_SEMIRINGS = (ARITHMETIC, COUNTING, MIN_PLUS, MAX_TIMES, MAX_MIN,
                   BOOLEAN)

#: Operand dtype combinations: a tuple entry means (A dtype, B dtype).
#: int32 × int64 keeps the mixed-width promotion rules honest.
SWEEP_DTYPES = (
    np.float64,
    np.float32,
    np.int64,
    (np.int32, np.int64),
)


def _values(rng: np.random.Generator, n: int, dtype) -> np.ndarray:
    """Adversarial values: small magnitudes including exact zeros, with
    signs when the dtype has them, halves when it is a float (exactly
    representable — cross-kernel arithmetic stays bit-exact)."""
    dt = np.dtype(dtype)
    lo = -6 if dt.kind in "if" else 0
    vals = rng.integers(lo, 7, n).astype(dt)
    if dt.kind == "f":
        vals += rng.integers(0, 2, n).astype(dt) * dt.type(0.5)
    return vals


def _random_coo(
    rng: np.random.Generator, nrows: int, ncols: int, nnz: int, dtype,
    *, skip_rows: tuple[int, ...] = (), values: np.ndarray | None = None,
) -> COOMatrix:
    """A duplicate-free random block; ``skip_rows`` forces empty rows."""
    flat = np.arange(nrows * ncols)
    if skip_rows:
        flat = flat[~np.isin(flat // ncols, skip_rows)]
    idx = rng.choice(flat, size=min(nnz, len(flat)), replace=False)
    vals = _values(rng, len(idx), dtype) if values is None else values
    return COOMatrix(nrows, ncols, idx // ncols, idx % ncols, vals)


def _dense(rng: np.random.Generator, nrows: int, ncols: int,
           dtype) -> COOMatrix:
    rows, cols = np.divmod(np.arange(nrows * ncols), ncols)
    return COOMatrix(nrows, ncols, rows, cols,
                     _values(rng, nrows * ncols, dtype))


def _big(dtype):
    """A large exact magnitude whose corpus-sized products and sums still
    cannot overflow the dtype (every kernel must agree without wrapping
    or warnings): 2^b with 2b + 4 bits inside the representable range."""
    dt = np.dtype(dtype)
    if dt.kind == "f":
        return dt.type(2.0) ** 40
    return dt.type(2 ** ((8 * dt.itemsize - 2 - 4) // 2))


def corpus(dtype=np.float64, seed: int = 0):
    """The adversarial operand corpus for one dtype combination.

    ``dtype`` is a single dtype or an ``(a_dtype, b_dtype)`` pair.
    Returns ``[(name, a: CSRMatrix, b: CSRMatrix), ...]`` with compatible
    shapes, deterministically seeded — every kernel sees the same bits.
    """
    da, db = dtype if isinstance(dtype, tuple) else (dtype, dtype)
    da, db = np.dtype(da), np.dtype(db)
    rng = np.random.default_rng(seed)
    cases: list[tuple[str, CSRMatrix, CSRMatrix]] = []

    def add(name: str, a: COOMatrix, b: COOMatrix) -> None:
        assert a.ncols == b.nrows, name
        cases.append((name, CSRMatrix.from_coo(a), CSRMatrix.from_coo(b)))

    def E(m, n, dt):
        return COOMatrix.empty(m, n, dtype=dt)

    def R(m, n, nnz, dt, **kw):
        return _random_coo(rng, m, n, nnz, dt, **kw)

    add("both_empty", E(5, 4, da), E(4, 3, db))
    add("a_empty", E(6, 8, da), R(8, 5, 12, db))
    add("b_empty", R(6, 8, 12, da), E(8, 5, db))
    add("inner_dim_zero", E(5, 0, da), E(0, 4, db))
    # a touches inner indices {0, 1} only, b rows {5, 6} only -> product
    # has the full dimensions but zero intersections
    add("disjoint_inner",
        COOMatrix(4, 8, [0, 1, 2, 3], [0, 1, 0, 1], _values(rng, 4, da)),
        COOMatrix(8, 4, [5, 6, 5, 6], [0, 1, 2, 3], _values(rng, 4, db)))
    add("one_by_n", R(1, 12, 8, da), R(12, 7, 20, db))
    add("n_by_one", R(9, 12, 20, da), R(12, 1, 6, db))
    # inner dimension 1: every a-entry meets every b-entry (outer product)
    add("outer_product", R(5, 1, 3, da), R(1, 6, 4, db))
    add("single_hit",
        COOMatrix(4, 5, [2], [3], _values(rng, 1, da)),
        COOMatrix(5, 3, [3], [1], _values(rng, 1, db)))
    add("single_miss",
        COOMatrix(4, 5, [2], [3], _values(rng, 1, da)),
        COOMatrix(5, 3, [4], [1], _values(rng, 1, db)))
    add("dense_small", _dense(rng, 6, 5, da), _dense(rng, 5, 7, db))
    add("ultra_sparse", R(200, 300, 6, da), R(300, 150, 6, db))
    eye = COOMatrix(7, 7, np.arange(7), np.arange(7),
                    np.ones(7, dtype=da))
    add("identity_left", eye, R(7, 9, 25, db))
    add("square_random", R(12, 12, 40, da), R(12, 12, 40, db))
    add("rect_tall", R(40, 3, 30, da), R(3, 25, 40, db))
    add("rect_wide", R(3, 40, 40, da), R(40, 5, 30, db))
    add("empty_rows", R(10, 8, 20, da, skip_rows=(0, 4, 9)),
        R(8, 10, 20, db, skip_rows=(1, 7)))
    # dense inner column x dense inner row: every output cell accumulates
    # the full inner dimension (maximum accumulator collisions)
    add("heavy_collision",
        COOMatrix(3, 9, np.repeat(np.arange(3), 9), np.tile(np.arange(9), 3),
                  np.ones(27, dtype=da)),
        COOMatrix(9, 3, np.repeat(np.arange(9), 3), np.tile(np.arange(3), 9),
                  _values(rng, 27, db)))
    add("all_ones",
        R(8, 8, 24, da, values=np.ones(24, dtype=da)),
        R(8, 8, 24, db, values=np.ones(24, dtype=db)))
    add("all_zeros",
        R(6, 6, 14, da, values=np.zeros(14, dtype=da)),
        R(6, 6, 14, db, values=np.zeros(14, dtype=db)))
    # one output cell receives v + (0 - v): an explicit cancellation zero
    # for signed dtypes (and a wrap-to-zero for unsigned) that every
    # kernel must keep stored
    v = da.type(3)
    add("cancellation",
        COOMatrix(2, 2, [0, 0], [0, 1],
                  np.array([v, da.type(0) - v], dtype=da)),
        COOMatrix(2, 1, [0, 1], [0, 0], np.ones(2, dtype=db)))
    add("large_values",
        R(5, 5, 8, da, values=np.full(8, _big(da))),
        R(5, 5, 8, db, values=np.full(8, _big(db))))
    add("banded",
        COOMatrix(10, 10, np.arange(9), np.arange(1, 10),
                  _values(rng, 9, da)),
        COOMatrix(10, 10, np.arange(1, 10), np.arange(9),
                  _values(rng, 9, db)))
    return cases


def covered(semiring: Semiring, da, db) -> bool:
    """Whether a spec of ``semiring`` covers operand value dtypes
    ``da`` × ``db`` — i.e. whether the vectorized dispatcher has a rung
    for the product (checked against the specs, not the dispatcher)."""
    return any(
        spec is not None and spec.compatible(da, db)
        for spec in (semiring.numeric, semiring.struct)
    )


def dispatch(a: CSRMatrix, b: CSRMatrix, semiring: Semiring) -> COOMatrix:
    """The ``spgemm_coo`` ladder on corpus (CSR) operands."""
    return spgemm_coo(a.to_coo(), b.to_coo(), semiring)


def reference_product(a: CSRMatrix, b: CSRMatrix,
                      semiring: Semiring) -> COOMatrix:
    """The authoritative answer: the scalar (object-value) hash kernel,
    coordinate-sorted."""
    return spgemm_hash(a, b, semiring).sort()


def assert_conforms(got: COOMatrix, a: CSRMatrix, b: CSRMatrix,
                    semiring: Semiring, context: str = "") -> None:
    """Assert one kernel product matches the scalar semiring reference
    exactly — same coordinates, and byte-identical values once the
    reference scalars are cast into the kernel's output dtype."""
    ref = reference_product(a, b, semiring)
    got = got.sort()
    where = f" [{context}]" if context else ""
    assert got.shape == ref.shape, f"shape mismatch{where}"
    assert got.nnz == ref.nnz, (
        f"nnz {got.nnz} != reference {ref.nnz}{where}"
    )
    np.testing.assert_array_equal(got.rows, ref.rows,
                                  err_msg=f"row coords diverge{where}")
    np.testing.assert_array_equal(got.cols, ref.cols,
                                  err_msg=f"col coords diverge{where}")
    if got.vals.dtype == object:
        for k, (x, y) in enumerate(zip(got.vals, ref.vals)):
            assert type(x) is type(y), (
                f"value #{k} type {type(x).__name__} != reference "
                f"{type(y).__name__}{where}"
            )
            assert x == y, f"value #{k}: {x!r} != {y!r}{where}"
    else:
        expected = np.array(
            [got.vals.dtype.type(v) for v in ref.vals],
            dtype=got.vals.dtype,
        )
        assert got.vals.tobytes() == expected.tobytes(), (
            f"typed values not byte-identical to the reference{where}: "
            f"got {got.vals!r}, expected {expected!r}"
        )


def assert_bitwise_equal(x: COOMatrix, y: COOMatrix,
                         context: str = "") -> None:
    """Assert two typed products are the same matrix bit for bit."""
    where = f" [{context}]" if context else ""
    assert x.shape == y.shape, f"shape mismatch{where}"
    xs, ys = x.sort(), y.sort()
    np.testing.assert_array_equal(xs.rows, ys.rows,
                                  err_msg=f"row coords diverge{where}")
    np.testing.assert_array_equal(xs.cols, ys.cols,
                                  err_msg=f"col coords diverge{where}")
    assert xs.vals.dtype == ys.vals.dtype, (
        f"dtype {xs.vals.dtype} != {ys.vals.dtype}{where}"
    )
    assert xs.vals.tobytes() == ys.vals.tobytes(), (
        f"values not bitwise identical{where}"
    )


def sweep_kernel(
    multiply,
    dtypes=SWEEP_DTYPES,
    semirings=SWEEP_SEMIRINGS,
    seed: int = 0,
    vectorized: bool = True,
) -> int:
    """Run one kernel — ``multiply(a, b, semiring)`` on CSR operands — over
    the corpus × semiring × dtype grid, asserting conformance on every
    product; a ``vectorized`` kernel must raise :class:`NoKernelError`
    instead on every product of a pair no spec covers (empty operands
    included), while a scalar one runs everything.

    Returns the number of products checked (callers assert it is large
    enough that the sweep cannot silently go vacuous).
    """
    checked = 0
    for semiring in semirings:
        for dt in dtypes:
            da, db = dt if isinstance(dt, tuple) else (dt, dt)
            raises = vectorized and not covered(semiring, da, db)
            for case, a, b in corpus((da, db), seed=seed):
                context = (
                    f"kernel={multiply.__name__} "
                    f"semiring={semiring.name} case={case} "
                    f"dtypes={np.dtype(da).name}x{np.dtype(db).name}"
                )
                if raises:
                    try:
                        multiply(a, b, semiring)
                    except NoKernelError:
                        pass
                    else:
                        raise AssertionError(
                            f"no NoKernelError for an uncovered product "
                            f"[{context}]"
                        )
                else:
                    assert_conforms(multiply(a, b, semiring), a, b,
                                    semiring, context=context)
                checked += 1
    return checked


# ---------------------------------------------------------------------------
# distributed formulation (module-level SPMD body: picklable under mp/spawn)
# ---------------------------------------------------------------------------

#: Semirings hold lambdas (unpicklable), so SPMD bodies take names and
#: resolve them on the executing rank.
_SEMIRINGS_BY_NAME = {s.name: s for s in SWEEP_SEMIRINGS}


def _summa_body(comm, shape_a, shape_b, a_triples, b_triples,
                semiring_name):
    grid = ProcessGrid.create(comm)
    semiring = _SEMIRINGS_BY_NAME[semiring_name]
    mine = slice(comm.rank, None, comm.size)
    da = DistSparseMatrix.distribute(
        grid, shape_a[0], shape_a[1],
        a_triples[0][mine], a_triples[1][mine], a_triples[2][mine],
    )
    db = DistSparseMatrix.distribute(
        grid, shape_b[0], shape_b[1],
        b_triples[0][mine], b_triples[1][mine], b_triples[2][mine],
    )
    c = summa(da, db, semiring)
    return c.gather_global()


def summa_product(
    nranks: int,
    a: COOMatrix,
    b: COOMatrix,
    semiring_name: str = "arithmetic",
    comm_backend: str = "sim",
) -> COOMatrix:
    """Scatter ``a``/``b`` over a √p × √p grid (interleaved triple
    slices), run SUMMA, and return the gathered global product."""
    results = run_spmd(
        nranks, _summa_body,
        a.shape, b.shape,
        (a.rows, a.cols, a.vals), (b.rows, b.cols, b.vals),
        semiring_name,
        comm_backend=comm_backend,
    )
    return results[0]
