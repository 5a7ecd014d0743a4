"""Cross-validation of every SpGEMM formulation against every numeric
semiring fold.

The numeric fast path (`spgemm_coo`) must be indistinguishable from the
scalar hash reference on every bundled semiring, every user-defined one of
the kernel harness (one per ufunc fold), and every sparsity pattern — including empty rows and
columns, 0×N shapes, and duplicate-entry COO inputs.  These tests are the
safety net that let the kernels be rewritten freely; they also assert the
fast path's defining property: no per-element Python ``add``/``multiply``
is ever invoked for a numeric semiring.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.semirings import substitute_as_numeric_semiring
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from kernelcheck import BOOLEAN, MAX_MIN, MAX_TIMES, MIN_PLUS
from repro.sparse.semiring import ARITHMETIC, COUNTING, NoKernelError, Semiring
from repro.sparse.spgemm import spgemm_coo, spgemm_hash

#: The two semirings bundled by repro.sparse.semiring plus the
#: user-defined ones of the kernel harness: one per ufunc fold.
ALL_SEMIRINGS = [ARITHMETIC, BOOLEAN, MIN_PLUS, MAX_MIN, MAX_TIMES, COUNTING]

#: add distributes over multiply for these, so duplicate-entry COO inputs
#: must give the same product as their deduplicated form (COUNTING is
#: excluded by design: it counts entries, not values).
DISTRIBUTIVE = [ARITHMETIC, BOOLEAN, MIN_PLUS, MAX_TIMES]


def _random_pair(seed: int):
    """A random compatible CSR pair with varied (possibly degenerate)
    shapes and densities; values are small positive ints in float64."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, 16))
    k = int(rng.integers(0, 12))
    n = int(rng.integers(0, 16))
    density = float(rng.uniform(0.0, 0.45))
    a = sp.random(m, k, density=density, random_state=int(seed), format="csr")
    b = sp.random(k, n, density=density, random_state=int(seed) + 1,
                  format="csr")
    a.data[:] = rng.integers(1, 9, len(a.data))
    b.data[:] = rng.integers(1, 9, len(b.data))
    return (
        CSRMatrix.from_coo(COOMatrix.from_scipy(a)),
        CSRMatrix.from_coo(COOMatrix.from_scipy(b)),
    )


def _prepare(mat: CSRMatrix, semiring: Semiring) -> CSRMatrix:
    """Cast values into the semiring's domain (bools for BOOLEAN)."""
    if semiring is BOOLEAN:
        return mat.astype(bool)
    return mat


def _norm(d: dict, semiring: Semiring) -> dict:
    """Normalise a result dict for exact comparison across kernels."""
    if semiring is BOOLEAN:
        return {k: bool(v) for k, v in d.items()}
    return {k: float(v) for k, v in d.items()}


class TestAllKernelsAgree:
    """~50 seeded random cases: every kernel, every semiring."""

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS,
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("seed", range(8))
    def test_hash_heap_numeric_coo_agree(self, semiring, seed):
        """The scalar hash reference and the numeric rung of
        ``spgemm_coo`` agree exactly."""
        a, b = _random_pair(seed)
        a, b = _prepare(a, semiring), _prepare(b, semiring)
        ref = _norm(spgemm_hash(a, b, semiring).to_dict(), semiring)
        coo = spgemm_coo(a.to_coo(), b.to_coo(), semiring)
        assert _norm(coo.to_dict(), semiring) == ref
        # the fast path must produce typed, not object, value arrays
        assert coo.vals.dtype != object

    @pytest.mark.parametrize("seed", range(8))
    def test_scipy_agrees_on_arithmetic(self, seed):
        # scipy's csr @ csr as an independent oracle: values are strictly
        # positive, so its zero pruning is a no-op and exact equality is
        # required
        a, b = _random_pair(seed)
        a, b = a.to_coo(), b.to_coo()
        ref = COOMatrix.from_scipy(a.to_scipy() @ b.to_scipy())
        got = spgemm_coo(a, b, ARITHMETIC)
        assert _norm(got.to_dict(), ARITHMETIC) == (
            _norm(ref.to_dict(), ARITHMETIC)
        )

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS,
                             ids=lambda s: s.name)
    def test_zero_by_n_shapes(self, semiring):
        dtype = bool if semiring is BOOLEAN else np.int64
        for (m, k, n) in [(0, 5, 7), (5, 0, 7), (5, 7, 0), (0, 0, 0)]:
            a = CSRMatrix.from_coo(COOMatrix.empty(m, k, dtype=dtype))
            b = CSRMatrix.from_coo(COOMatrix.empty(k, n, dtype=dtype))
            out = spgemm_hash(a, b, semiring)
            assert out.shape == (m, n) and out.nnz == 0
            out = spgemm_coo(a.to_coo(), b.to_coo(), semiring)
            assert out.shape == (m, n) and out.nnz == 0
            # an empty product still carries the spec's value dtype
            assert out.vals.dtype == semiring.numeric.dtype

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS,
                             ids=lambda s: s.name)
    def test_empty_rows_and_cols(self, semiring):
        # row 1 and column 2 of A empty; row 0 of B empty
        a = COOMatrix(3, 4, [0, 0, 2], [0, 3, 3], [2.0, 3.0, 4.0])
        b = COOMatrix(4, 3, [1, 3, 3], [0, 0, 2], [5.0, 6.0, 7.0])
        if semiring is BOOLEAN:
            a, b = a.astype(bool), b.astype(bool)
        ac, bc = CSRMatrix.from_coo(a), CSRMatrix.from_coo(b)
        ref = _norm(spgemm_hash(ac, bc, semiring).to_dict(), semiring)
        assert _norm(spgemm_coo(a, b, semiring).to_dict(), semiring) == ref

    @pytest.mark.parametrize("semiring", DISTRIBUTIVE,
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_coo_entries(self, semiring, seed):
        """``spgemm_coo`` accepts duplicate coordinates; for distributive
        semirings the product must equal the deduplicated form's."""
        rng = np.random.default_rng(seed)
        nnz = 12
        a = COOMatrix(6, 5, rng.integers(0, 6, nnz),
                      rng.integers(0, 5, nnz),
                      rng.integers(1, 9, nnz).astype(np.float64))
        b = COOMatrix(5, 7, rng.integers(0, 5, nnz),
                      rng.integers(0, 7, nnz),
                      rng.integers(1, 9, nnz).astype(np.float64))
        if semiring is BOOLEAN:
            a, b = a.astype(bool), b.astype(bool)
        a_dedup = a.sum_duplicates(semiring.add)
        b_dedup = b.sum_duplicates(semiring.add)
        ref = _norm(
            spgemm_hash(CSRMatrix.from_coo(a_dedup),
                        CSRMatrix.from_coo(b_dedup), semiring).to_dict(),
            semiring,
        )
        got = _norm(spgemm_coo(a, b, semiring).to_dict(), semiring)
        assert got == ref


class TestPastisNumericSemiring:
    """The encoded AS semiring: generic and numeric kernels share one
    definition and must agree."""

    @pytest.mark.parametrize("seed", range(4))
    def test_as_numeric_matches_hash(self, seed):
        rng = np.random.default_rng(seed)
        a = sp.random(10, 8, density=0.3, random_state=seed, format="csr")
        s = sp.random(8, 8, density=0.3, random_state=seed + 1,
                      format="csr")
        a.data[:] = rng.integers(0, 50, len(a.data))  # positions
        s.data[:] = rng.integers(0, 5, len(s.data))   # distances
        ac = CSRMatrix.from_coo(COOMatrix.from_scipy(a)).astype(np.int64)
        sc = CSRMatrix.from_coo(COOMatrix.from_scipy(s)).astype(np.int64)
        sr = substitute_as_numeric_semiring()
        ref = {k: int(v) for k, v in spgemm_hash(ac, sc, sr)
               .to_dict().items()}
        num = spgemm_coo(ac.to_coo(), sc.to_coo(), sr)
        assert {k: int(v) for k, v in num.to_dict().items()} == ref
        assert num.vals.dtype == np.int64

    def test_encoding_preserves_min_order(self):
        pos = np.array([7, 3, 7, 0])
        dist = np.array([1, 2, 0, 1])
        enc = substitute_as_numeric_semiring().multiply(pos, dist)
        # lexicographic (distance, position) order == integer order
        order = np.lexsort((pos, dist))
        assert (np.argsort(enc, kind="stable") == order).all()


def _counted(base: Semiring):
    """Wrap a semiring's scalar ops with call counters, keeping the
    numeric spec — the fast path must leave the counters untouched."""
    calls = {"add": 0, "multiply": 0}

    def add(x, y):
        calls["add"] += 1
        return base.add(x, y)

    def mul(x, y):
        calls["multiply"] += 1
        return base.multiply(x, y)

    return Semiring(base.name + "+counted", add, mul, base.zero,
                    numeric=base.numeric), calls


class TestNoPythonDispatchOnNumericPath:
    """Acceptance: SpGEMM over a numeric semiring never calls the
    per-element Python ``add``/``multiply``."""

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS,
                             ids=lambda s: s.name)
    def test_csr_and_coo_kernels(self, semiring):
        a, b = _random_pair(3)
        a, b = _prepare(a, semiring), _prepare(b, semiring)
        counted, calls = _counted(semiring)
        out = spgemm_coo(a.to_coo(), b.to_coo(), counted)
        assert out.nnz == spgemm_hash(a, b, semiring).nnz
        assert calls == {"add": 0, "multiply": 0}, (
            f"{semiring.name}: numeric path executed Python ops {calls}"
        )

    def test_bool_under_arithmetic_raises(self):
        """Bool values under ARITHMETIC have no kernel (bool arithmetic
        saturates under NumPy ufuncs, True + True is True, not 2): the
        named error, empty operands too, without calling a scalar
        operator.  COUNTING never reads values, so it still covers them."""
        a, b = _random_pair(5)
        ab, bb = a.astype(bool).to_coo(), b.astype(bool).to_coo()
        assert not ARITHMETIC.numeric.compatible(ab.vals.dtype,
                                                 bb.vals.dtype)
        counted, calls = _counted(ARITHMETIC)
        for lhs in (ab, COOMatrix.empty(ab.nrows, ab.ncols, bool)):
            with pytest.raises(NoKernelError, match="arithmetic"):
                spgemm_coo(lhs, bb, counted)
        assert calls == {"add": 0, "multiply": 0}
        counted, calls = _counted(COUNTING)
        spgemm_coo(ab, bb, counted)
        assert calls == {"add": 0, "multiply": 0}

    def test_object_values_raise(self):
        """Object values have no kernel either: the named error, empty
        operands too, without calling a scalar operator."""
        a, b = _random_pair(5)
        x, y = a.astype(object).to_coo(), b.to_coo()
        counted, calls = _counted(ARITHMETIC)
        for lhs in (x, COOMatrix.empty(x.nrows, x.ncols, object)):
            with pytest.raises(NoKernelError, match="arithmetic"):
                spgemm_coo(lhs, y, counted)
        assert calls == {"add": 0, "multiply": 0}

    def test_summa_numeric_stage_no_python_ops(self):
        """The SUMMA local multiply + accumulate also stays vectorized."""
        from repro.mpisim import run_spmd
        from repro.mpisim.grid import ProcessGrid
        from repro.sparse.distmat import DistSparseMatrix
        from repro.sparse.summa import summa

        rng = np.random.default_rng(0)
        nnz = 40
        rows = rng.integers(0, 12, nnz)
        cols = rng.integers(0, 12, nnz)
        vals = rng.integers(1, 9, nnz).astype(np.float64)
        coo = COOMatrix(12, 12, rows, cols, vals).sum_duplicates(
            ARITHMETIC.add
        )
        counted, calls = _counted(ARITHMETIC)

        def fn(comm):
            grid = ProcessGrid.create(comm)
            mine = slice(comm.rank, None, comm.size)
            mk = lambda: DistSparseMatrix.distribute(  # noqa: E731
                grid, 12, 12, coo.rows[mine], coo.cols[mine],
                coo.vals[mine],
            )
            c = summa(mk(), mk(), counted)
            # ``calls`` is mutated in the rank's own process: report it.
            return c.gather_global(), dict(calls)

        seen = [rank_calls for _, rank_calls in run_spmd(4, fn)]
        assert len(seen) == 4
        for rank_calls in seen:
            assert rank_calls == {"add": 0, "multiply": 0}
