"""Tests for 2-D distributed sparse matrices, transpose, and SUMMA."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.mpisim import run_spmd
from repro.mpisim.grid import ProcessGrid
from repro.sparse.coo import COOMatrix
from repro.sparse.distmat import DistSparseMatrix
from repro.sparse.semiring import (
    ARITHMETIC,
    COUNTING,
    NoKernelError,
    Semiring,
)
from repro.sparse.summa import summa


def _scatter_matrix(grid, mat, from_rank=0):
    """Rank `from_rank` contributes all triples; others none."""
    m = mat.tocoo()
    if grid.comm.rank == from_rank:
        return DistSparseMatrix.distribute(
            grid, m.shape[0], m.shape[1],
            m.row.astype(np.int64), m.col.astype(np.int64), list(m.data)
        )
    z = np.empty(0, dtype=np.int64)
    return DistSparseMatrix.distribute(
        grid, m.shape[0], m.shape[1], z, z.copy(), []
    )


def _rand(seed, shape, density=0.2):
    m = sp.random(*shape, density=density, random_state=seed, format="coo")
    m.data[:] = (np.arange(len(m.data)) % 7) + 1
    return m


class TestDistribute:
    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_distribute_gather_roundtrip(self, p):
        m = _rand(0, (17, 23))

        def fn(comm):
            grid = ProcessGrid.create(comm)
            d = _scatter_matrix(grid, m)
            return d.gather_global()

        out = run_spmd(p, fn)
        got = out[0].to_scipy()
        ref = m.tocsr()
        assert abs(got - ref).nnz == 0

    def test_contributions_from_all_ranks(self):
        # every rank contributes a disjoint slice of rows
        m = _rand(1, (16, 16))
        coo = m.tocoo()

        def fn(comm):
            grid = ProcessGrid.create(comm)
            mine = coo.row % comm.size == comm.rank
            d = DistSparseMatrix.distribute(
                grid, 16, 16,
                coo.row[mine].astype(np.int64),
                coo.col[mine].astype(np.int64),
                list(coo.data[mine]),
            )
            return d.gather_global()

        out = run_spmd(4, fn)
        assert abs(out[0].to_scipy() - m.tocsr()).nnz == 0

    def test_local_blocks_have_block_shape(self):
        def fn(comm):
            grid = ProcessGrid.create(comm)
            z = np.empty(0, dtype=np.int64)
            d = DistSparseMatrix.distribute(grid, 10, 7, z, z.copy(), [])
            return d.local.shape

        out = run_spmd(4, fn)
        assert out[0] == (5, 4)
        assert out[3] == (5, 3)


class TestTranspose:
    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_transpose_matches_scipy(self, p):
        m = _rand(4, (13, 19))

        def fn(comm):
            grid = ProcessGrid.create(comm)
            return _scatter_matrix(grid, m).transpose().gather_global()

        out = run_spmd(p, fn)
        assert abs(out[0].to_scipy() - m.tocsr().T).nnz == 0

    def test_double_transpose_identity(self):
        m = _rand(5, (11, 9))

        def fn(comm):
            grid = ProcessGrid.create(comm)
            d = _scatter_matrix(grid, m)
            return d.transpose().transpose().gather_global()

        out = run_spmd(4, fn)
        assert abs(out[0].to_scipy() - m.tocsr()).nnz == 0


class TestSumma:
    @pytest.mark.parametrize("p", [1, 4, 9])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_scipy(self, p, seed):
        a = _rand(seed, (15, 11))
        b = _rand(seed + 10, (11, 18))

        def fn(comm):
            grid = ProcessGrid.create(comm)
            da = _scatter_matrix(grid, a)
            db = _scatter_matrix(grid, b)
            return summa(da, db, ARITHMETIC).gather_global()

        out = run_spmd(p, fn)
        ref = a.tocsr() @ b.tocsr()
        ref.eliminate_zeros()
        assert abs(out[0].to_scipy() - ref).nnz == 0

    def test_dimension_mismatch(self):
        a = _rand(0, (6, 5))
        b = _rand(1, (7, 6))

        def fn(comm):
            grid = ProcessGrid.create(comm)
            da = _scatter_matrix(grid, a)
            db = _scatter_matrix(grid, b)
            try:
                summa(da, db)
            except ValueError:
                return "rejected"

        assert run_spmd(4, fn) == ["rejected"] * 4

    def test_counting_semiring_aat(self):
        # AAT over the counting semiring = common nonzeros per row pair
        a = _rand(6, (8, 12), density=0.35)

        def fn(comm):
            grid = ProcessGrid.create(comm)
            da = _scatter_matrix(grid, a)
            dat = da.transpose()
            return summa(da, dat, COUNTING).gather_global()

        out = run_spmd(4, fn)
        got = out[0].to_dict()
        pattern = a.tocsr()
        pattern.data[:] = 1
        ref = (pattern @ pattern.T).tocoo()
        ref_d = {
            (int(r), int(c)): int(v)
            for r, c, v in zip(ref.row, ref.col, ref.data)
        }
        assert got == ref_d

    def test_object_valued_semiring(self):
        """A semiring with no spec covering the operands has no SUMMA:
        every rank raises the named error before the first broadcast, so
        the grid stays in lockstep (the barrier below completes)."""
        pairs = Semiring(
            "pairs", lambda a, b: a + b, lambda a, b: ((a, b),)
        )
        a = sp.coo_matrix(
            (np.array([1, 2, 3]), ([0, 0, 1], [0, 1, 0])), shape=(2, 2)
        )
        b = sp.coo_matrix(
            (np.array([5, 6]), ([0, 1], [0, 0])), shape=(2, 1)
        )

        def fn(comm):
            grid = ProcessGrid.create(comm)
            da = _scatter_matrix(grid, a)
            db = _scatter_matrix(grid, b)
            with pytest.raises(NoKernelError, match="'pairs'"):
                summa(da, db, pairs)
            comm.barrier()
            return True

        assert run_spmd(4, fn) == [True] * 4

    def test_hypersparse_inner_dimension(self):
        # inner dimension 24^6 — must not allocate dimension-sized arrays
        K = 24**6
        a = COOMatrix(4, K, [0, 1, 2], [100, 100, K - 1], [1, 1, 1])

        def fn(comm):
            grid = ProcessGrid.create(comm)
            if comm.rank == 0:
                da = DistSparseMatrix.distribute(
                    grid, 4, K, a.rows, a.cols, list(a.vals)
                )
            else:
                z = np.empty(0, dtype=np.int64)
                da = DistSparseMatrix.distribute(grid, 4, K, z, z.copy(), [])
            dat = da.transpose()
            c = summa(da, dat, COUNTING).gather_global()
            return c.to_dict() if c is not None else None

        out = run_spmd(4, fn)
        assert out[0][(0, 1)] == 1
        assert out[0][(2, 2)] == 1
        assert (0, 2) not in out[0]
