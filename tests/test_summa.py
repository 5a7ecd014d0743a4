"""Tests for sparse SUMMA (`repro.sparse.summa`): the distributed SpGEMM
over the simulated grid must equal the local product of the gathered
matrices, for every grid size PASTIS supports."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.mpisim.comm import run_spmd
from repro.mpisim.grid import ProcessGrid
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.distmat import DistSparseMatrix
from repro.sparse.semiring import (
    ARITHMETIC,
    COUNTING,
    MIN_PLUS,
    Semiring,
)
from repro.sparse.spgemm import spgemm_hash
from repro.sparse.summa import summa

def _random_coo(m, n, density, seed) -> COOMatrix:
    mat = sp.random(m, n, density=density, random_state=seed, format="coo")
    mat.data[:] = np.random.default_rng(seed).integers(1, 9, len(mat.data))
    return COOMatrix.from_scipy(mat)


def _summa_product(nranks: int, a: COOMatrix, b: COOMatrix,
                   semiring: Semiring) -> COOMatrix:
    """Distribute ``a``/``b`` over the grid (each rank contributing an
    interleaved slice of the triples), run SUMMA, gather on rank 0."""

    def fn(comm):
        grid = ProcessGrid.create(comm)
        mine = slice(comm.rank, None, comm.size)
        da = DistSparseMatrix.distribute(
            grid, a.nrows, a.ncols, a.rows[mine], a.cols[mine],
            a.vals[mine],
        )
        db = DistSparseMatrix.distribute(
            grid, b.nrows, b.ncols, b.rows[mine], b.cols[mine],
            b.vals[mine],
        )
        c = summa(da, db, semiring)
        assert c.nrows == a.nrows and c.ncols == b.ncols
        return c.gather_global()

    return run_spmd(nranks, fn)[0]


def _local_reference(a: COOMatrix, b: COOMatrix,
                     semiring: Semiring) -> dict:
    ref = spgemm_hash(CSRMatrix.from_coo(a), CSRMatrix.from_coo(b),
                      semiring)
    return {k: float(v) for k, v in ref.to_dict().items()}


class TestSummaEqualsLocal:
    @pytest.mark.parametrize("nranks", [1, 4, 9])
    @pytest.mark.parametrize(
        "semiring",
        [ARITHMETIC, MIN_PLUS, COUNTING],
        ids=lambda s: s.name,
    )
    def test_square(self, nranks, semiring):
        a = _random_coo(14, 14, 0.15, 3)
        b = _random_coo(14, 14, 0.15, 4)
        got = _summa_product(nranks, a, b, semiring)
        assert {k: float(v) for k, v in got.to_dict().items()} == (
            _local_reference(a, b, semiring)
        )

    @pytest.mark.parametrize("nranks", [1, 4, 9])
    def test_rectangular_uneven_blocks(self, nranks):
        # dimensions that do not divide evenly by the grid side
        a = _random_coo(10, 7, 0.3, 11)
        b = _random_coo(7, 13, 0.3, 12)
        got = _summa_product(nranks, a, b, ARITHMETIC)
        assert {k: float(v) for k, v in got.to_dict().items()} == (
            _local_reference(a, b, ARITHMETIC)
        )

    @pytest.mark.parametrize("nranks", [1, 4, 9])
    def test_empty_operand(self, nranks):
        a = COOMatrix.empty(8, 6)
        b = _random_coo(6, 8, 0.3, 5)
        got = _summa_product(nranks, a, b, ARITHMETIC)
        assert got.nnz == 0
        assert got.shape == (8, 8)

    def test_numeric_path_preserves_dtype(self):
        """The typed value arrays must survive distribute -> SUMMA ->
        gather: object arrays anywhere would silently disable the fast
        path."""
        a = _random_coo(12, 12, 0.2, 7)
        got = _summa_product(4, a, a, ARITHMETIC)
        assert got.vals.dtype != object

    def test_distribute_with_empty_rank_preserves_dtype(self):
        """A rank contributing zero triples must not promote the other
        ranks' value dtype (an empty float64 in the alltoall would)."""

        def fn(comm):
            grid = ProcessGrid.create(comm)
            if comm.rank == 0:
                rows = np.array([0, 1, 5], dtype=np.int64)
                cols = np.array([0, 3, 5], dtype=np.int64)
                vals = np.array([1, 2, 3], dtype=np.int64)
            else:
                rows = np.empty(0, dtype=np.int64)
                cols = np.empty(0, dtype=np.int64)
                vals = np.empty(0, dtype=np.int64)
            m = DistSparseMatrix.distribute(grid, 6, 6, rows, cols, vals)
            return str(m.local.vals.dtype)

        assert set(run_spmd(4, fn)) == {"int64"}


class TestSummaValidation:
    def test_dimension_mismatch(self):
        def fn(comm):
            grid = ProcessGrid.create(comm)
            a = _random_coo(6, 5, 0.3, 1)
            b = _random_coo(6, 5, 0.3, 2)
            da = DistSparseMatrix.distribute(
                grid, 6, 5, a.rows, a.cols, a.vals
            )
            db = DistSparseMatrix.distribute(
                grid, 6, 5, b.rows, b.cols, b.vals
            )
            with pytest.raises(ValueError):
                summa(da, db, ARITHMETIC)
            return True

        assert all(run_spmd(1, fn))
