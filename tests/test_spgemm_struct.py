"""Cross-validation of the struct expand-reduce SpGEMM family.

The struct path carries ``CommonKmers`` as struct-of-arrays record columns
(count + packed seeds) through the struct rung of `spgemm_coo`, SUMMA's
cross-stage accumulation, and the symmetrization merge.  Every formulation
must be indistinguishable from the generic object kernels — byte-identical
values after unpacking — and must never invoke the per-element Python
``add``/``multiply`` (the counting-wrapper proof, as in
``tests/test_spgemm_crossval.py``).  The empty-block family locks in dtype
preservation: an empty operand or an idle rank must still produce the
declared record dtype, or downstream concatenations would silently knock
the whole pipeline off the fast path.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from kernelcheck import dispatch
from repro.core.semirings import (
    CK_DTYPE,
    CK_SEED_NONE,
    CommonKmers,
    SEED_ENCODE_SHIFT,
    ck_merge_records,
    common_kmers_to_records,
    encode_seed_hits,
    exact_overlap_semiring,
    merge_common_kmers,
    pack_seeds,
    records_to_common_kmers,
    substitute_overlap_encoded_semiring,
    unpack_seeds,
)
from repro.mpisim.comm import run_spmd
from repro.mpisim.grid import ProcessGrid
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.distmat import DistSparseMatrix
from repro.sparse.ops import elementwise_add
from repro.sparse.semiring import ARITHMETIC, NoKernelError, Semiring
from repro.sparse.spgemm import result_dtype, spgemm_coo, spgemm_hash
from repro.sparse.summa import summa


def _as_operands(seed: int, m=10, k=8, n=10):
    """A random ``(AS, Aᵀ)``-shaped int64 pair: left values are encoded
    seed hits, right values are positions."""
    rng = np.random.default_rng(seed)
    a = sp.random(m, k, density=0.35, random_state=seed, format="csr")
    b = sp.random(k, n, density=0.35, random_state=seed + 1, format="csr")
    a.data[:] = encode_seed_hits(
        rng.integers(0, 200, len(a.data)), rng.integers(0, 5, len(a.data))
    )
    b.data[:] = rng.integers(0, 200, len(b.data))
    return (
        CSRMatrix.from_coo(COOMatrix.from_scipy(a)).astype(np.int64),
        CSRMatrix.from_coo(COOMatrix.from_scipy(b)).astype(np.int64),
    )


def _pos_operands(seed: int, m=10, k=8):
    """Random position-valued ``(A, Aᵀ)`` int64 operands (exact overlap)."""
    rng = np.random.default_rng(seed)
    a = sp.random(m, k, density=0.35, random_state=seed, format="csr")
    a.data[:] = rng.integers(0, 200, len(a.data))
    ac = CSRMatrix.from_coo(COOMatrix.from_scipy(a)).astype(np.int64)
    return ac, ac.transpose()


#: the dispatcher on this module's CSR-built operands
_spgemm = dispatch


def _ck_dict(coo: COOMatrix) -> dict:
    """``{(row, col): CommonKmers}`` regardless of value representation."""
    vals = coo.vals
    if vals.dtype == CK_DTYPE:
        vals = records_to_common_kmers(vals)
    return {
        (int(r), int(c)): v for r, c, v in zip(coo.rows, coo.cols, vals)
    }


def _counted(base: Semiring):
    """Scalar-op call counters with both specs preserved (as in
    test_spgemm_crossval)."""
    calls = {"add": 0, "multiply": 0}

    def add(x, y):
        calls["add"] += 1
        return base.add(x, y)

    def mul(x, y):
        calls["multiply"] += 1
        return base.multiply(x, y)

    return Semiring(base.name + "+counted", add, mul, base.zero,
                    numeric=base.numeric, struct=base.struct), calls


#: The packable distance range, ``(-CK_DIST_LIMIT, CK_DIST_LIMIT)``.
_DIST = (2 - (1 << 21), (1 << 21) - 1)


class TestSeedPacking:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        pi = rng.integers(0, 1 << 21, 100)
        pj = rng.integers(0, 1 << 21, 100)
        d = rng.integers(*_DIST, 100)
        # the four corners of the pack, both distance signs
        pi = np.append(pi, [0, (1 << 21) - 1, 0, (1 << 21) - 1])
        pj = np.append(pj, [0, (1 << 21) - 1, 0, (1 << 21) - 1])
        d = np.append(d, [_DIST[0], _DIST[0], _DIST[1] - 1, _DIST[1] - 1])
        packed = pack_seeds(pi, pj, d)
        assert (packed < CK_SEED_NONE).all()
        ri, rj, rd = unpack_seeds(packed)
        assert (ri == pi).all() and (rj == pj).all() and (rd == d).all()

    def test_integer_order_is_canonical_seed_order(self):
        rng = np.random.default_rng(1)
        pi = rng.integers(0, 50, 200)
        pj = rng.integers(0, 50, 200)
        d = rng.integers(-3, 4, 200)
        packed = pack_seeds(pi, pj, d)
        order = np.argsort(packed, kind="stable")
        ref = np.lexsort((pj, pi, d))
        assert (order == ref).all()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pack_seeds(np.array([1 << 21]), np.array([0]), np.array([0]))
        with pytest.raises(ValueError):
            pack_seeds(np.array([0]), np.array([-1]), np.array([0]))
        for d in (_DIST[0] - 1, _DIST[1]):
            with pytest.raises(ValueError, match="distance"):
                pack_seeds(np.array([0]), np.array([0]), np.array([d]))

    def test_sentinel_value_is_unreachable(self):
        """Regression: the all-max triple used to pack to exactly int64
        max == CK_SEED_NONE, silently vanishing a boundary seed.  The
        distance bound now reserves the sentinel."""
        lim = (1 << 21) - 1
        with pytest.raises(ValueError, match="distance"):
            pack_seeds(np.array([lim]), np.array([lim]), np.array([lim]))
        # the true maximal packable seed survives a full roundtrip
        ck = CommonKmers(1, ((lim, lim, lim - 1),))
        back = records_to_common_kmers(common_kmers_to_records([ck]))
        assert list(back) == [ck]
        assert int(pack_seeds(lim, lim, lim - 1)) < int(CK_SEED_NONE)

    def test_records_object_roundtrip(self):
        cks = [
            CommonKmers(3, ((1, 2, 0), (5, 4, 1))),
            CommonKmers(1, ((7, 7, 2),)),
            CommonKmers(2, ()),
        ]
        rec = common_kmers_to_records(cks)
        assert rec.dtype == CK_DTYPE
        assert rec["seed2"][1] == CK_SEED_NONE
        back = records_to_common_kmers(rec)
        assert list(back) == cks


class TestStructKernelsAgree:
    @pytest.mark.parametrize("seed", range(6))
    def test_encoded_overlap_matches_hash(self, seed):
        a, b = _as_operands(seed)
        sr = substitute_overlap_encoded_semiring()
        ref = _ck_dict(spgemm_hash(a, b, sr))
        got = _spgemm(a, b, sr)
        assert got.vals.dtype == CK_DTYPE
        assert _ck_dict(got) == ref

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_overlap_matches_hash(self, seed):
        a, at = _pos_operands(seed)
        sr = exact_overlap_semiring()
        ref = _ck_dict(spgemm_hash(a, at, sr))
        got = _spgemm(a, at, sr)
        assert got.vals.dtype == CK_DTYPE
        assert _ck_dict(got) == ref

    def test_negative_distance_hits_stay_on_records(self):
        """An ambiguity code's expense can be negative (BLOSUM62 scores X
        against A above X against X), so an encoded AS hit can be
        negative: the struct rung must still run, exactly."""
        rng = np.random.default_rng(5)
        a, b = _as_operands(5)
        a.data[:] = encode_seed_hits(
            rng.integers(0, 200, len(a.data)), rng.integers(-4, 3, len(a.data))
        )
        assert (a.data < 0).any()
        sr = substitute_overlap_encoded_semiring()
        got = spgemm_coo(a.to_coo(), b.to_coo(), sr)
        assert got.vals.dtype == CK_DTYPE
        assert _ck_dict(got) == _ck_dict(spgemm_hash(a, b, sr))

    def test_incompatible_operands_raise(self):
        # float64 positions have no struct kernel and no fallback: the
        # dispatcher raises the named error
        a, at = _pos_operands(2)
        af = a.astype(np.float64)
        sr = exact_overlap_semiring()
        assert not sr.struct.compatible(af.data.dtype, at.data.dtype)
        with pytest.raises(NoKernelError, match="float64"):
            _spgemm(af, at.astype(np.float64), sr)

    def test_unpackable_positions_raise(self):
        """A position beyond the seed-pack bit budget is a ValueError from
        the pack, not a silent detour to objects."""
        from repro.core.semirings import CK_SEED_LIMIT

        big = np.int64(CK_SEED_LIMIT)
        a = COOMatrix(2, 3, [0, 1], [0, 0], np.array([big, 5], np.int64))
        at = COOMatrix(3, 2, [0, 0], [0, 1], np.array([7, big], np.int64))
        with pytest.raises(ValueError, match="pos_row"):
            spgemm_coo(a, at, exact_overlap_semiring())

    def test_unpackable_encoded_hits_raise(self):
        from repro.core.semirings import CK_SEED_LIMIT

        enc = encode_seed_hits([int(CK_SEED_LIMIT) + 3], [1])
        a = COOMatrix(2, 2, [0], [0], enc)
        b = COOMatrix(2, 2, [0], [1], np.array([4], np.int64))
        with pytest.raises(ValueError, match="pos_row"):
            spgemm_coo(a, b, substitute_overlap_encoded_semiring())


class TestStructMerge:
    @pytest.mark.parametrize("seed", range(4))
    def test_elementwise_add_matches_scalar_merge(self, seed):
        a1, b1 = _as_operands(seed, m=9, k=7, n=9)
        a2, b2 = _as_operands(seed + 50, m=9, k=7, n=9)
        sr = substitute_overlap_encoded_semiring()
        x, y = _spgemm(a1, b1, sr), _spgemm(a2, b2, sr)
        assert x.vals.dtype == CK_DTYPE and y.vals.dtype == CK_DTYPE
        got = elementwise_add(x, y, sr)
        assert got.vals.dtype == CK_DTYPE
        xo = COOMatrix(x.nrows, x.ncols, x.rows, x.cols,
                       records_to_common_kmers(x.vals))
        yo = COOMatrix(y.nrows, y.ncols, y.rows, y.cols,
                       records_to_common_kmers(y.vals))
        ref = elementwise_add(xo, yo, merge_common_kmers)
        assert _ck_dict(got) == _ck_dict(ref)

    def test_merge_records_matches_scalar(self):
        rng = np.random.default_rng(7)
        mk = lambda: CommonKmers(  # noqa: E731
            int(rng.integers(1, 5)),
            tuple(
                sorted(
                    (
                        (int(rng.integers(0, 9)), int(rng.integers(0, 9)),
                         int(rng.integers(0, 3)))
                        for _ in range(int(rng.integers(0, 3)))
                    ),
                    key=lambda s: (s[2], s[0], s[1]),
                )
            ),
        )
        xs = [mk() for _ in range(40)]
        ys = [mk() for _ in range(40)]
        got = records_to_common_kmers(
            ck_merge_records(common_kmers_to_records(xs),
                             common_kmers_to_records(ys))
        )
        assert list(got) == [x.merge(y) for x, y in zip(xs, ys)]


class TestNoPythonDispatchOnStructPath:
    def test_csr_and_coo_kernels(self):
        a, b = _as_operands(3)
        counted, calls = _counted(substitute_overlap_encoded_semiring())
        out = _spgemm(a, b, counted)
        assert out.nnz > 0 and out.vals.dtype == CK_DTYPE
        assert calls == {"add": 0, "multiply": 0}

    def test_summa_struct_stage_no_python_ops(self):
        """SUMMA's block multiplies AND the cross-stage accumulation stay
        vectorized for the CommonKmers struct semiring."""
        a, b = _as_operands(4, m=12, k=12, n=12)
        ac, bc = a.to_coo(), b.to_coo()
        counted, calls = _counted(substitute_overlap_encoded_semiring())

        def fn(comm):
            grid = ProcessGrid.create(comm)
            mine = slice(comm.rank, None, comm.size)
            da = DistSparseMatrix.distribute(
                grid, ac.nrows, ac.ncols, ac.rows[mine], ac.cols[mine],
                ac.vals[mine],
            )
            db = DistSparseMatrix.distribute(
                grid, bc.nrows, bc.ncols, bc.rows[mine], bc.cols[mine],
                bc.vals[mine],
            )
            c = summa(da, db, counted)
            assert c.local.vals.dtype == CK_DTYPE
            return c.gather_global()

        got = run_spmd(4, fn)[0]
        assert calls == {"add": 0, "multiply": 0}
        ref = _ck_dict(spgemm_hash(a, b,
                                   substitute_overlap_encoded_semiring()))
        assert _ck_dict(got) == ref


class TestEmptyBlockFamily:
    """An empty operand anywhere must preserve the declared record dtype
    (the whole family of PR 1's silent fast-path knockouts)."""

    def test_result_dtype_helper(self):
        sr = substitute_overlap_encoded_semiring()
        assert result_dtype(sr, np.int64, np.int64) == CK_DTYPE
        with pytest.raises(NoKernelError):
            result_dtype(sr, object, np.int64)
        assert result_dtype(ARITHMETIC, np.float64, np.float64) == np.float64

    def test_spgemm_empty_operands_keep_struct_dtype(self):
        sr = substitute_overlap_encoded_semiring()
        for (m, k, n) in [(0, 5, 7), (5, 0, 7), (5, 7, 0), (0, 0, 0)]:
            a = CSRMatrix.from_coo(COOMatrix.empty(m, k, dtype=np.int64))
            b = CSRMatrix.from_coo(COOMatrix.empty(k, n, dtype=np.int64))
            out = spgemm_coo(a.to_coo(), b.to_coo(), sr)
            assert out.shape == (m, n) and out.nnz == 0
            assert out.vals.dtype == CK_DTYPE

    def test_spgemm_empty_operands_keep_numeric_dtype(self):
        a = CSRMatrix.from_coo(COOMatrix.empty(4, 5, dtype=np.float64))
        b = CSRMatrix.from_coo(COOMatrix.empty(5, 6, dtype=np.float64))
        assert spgemm_coo(a.to_coo(), b.to_coo(),
                          ARITHMETIC).vals.dtype == np.float64

    def test_disjoint_patterns_keep_struct_dtype(self):
        # nonzero operands whose inner indices never meet: the expansion is
        # empty even though nnz > 0
        a = COOMatrix(3, 4, [0, 1], [0, 1], np.array([5, 6], np.int64))
        b = COOMatrix(4, 3, [2, 3], [0, 2], np.array([7, 8], np.int64))
        sr = substitute_overlap_encoded_semiring()
        out = spgemm_coo(a, b, sr)
        assert out.nnz == 0 and out.vals.dtype == CK_DTYPE

    @pytest.mark.parametrize("nranks", [1, 4, 9])
    def test_summa_idle_ranks_keep_struct_dtype(self, nranks):
        """Only one corner of the grid holds data; every other rank's
        accumulator stays empty yet must carry CK_DTYPE."""
        sr = substitute_overlap_encoded_semiring()

        def fn(comm):
            grid = ProcessGrid.create(comm)
            if comm.rank == 0:
                rows = np.array([0, 1], dtype=np.int64)
                cols = np.array([0, 1], dtype=np.int64)
                avals = encode_seed_hits([3, 4], [1, 0])
                bvals = np.array([9, 8], dtype=np.int64)
            else:
                rows = cols = np.empty(0, dtype=np.int64)
                avals = bvals = np.empty(0, dtype=np.int64)
            da = DistSparseMatrix.distribute(grid, 9, 9, rows, cols, avals)
            db = DistSparseMatrix.distribute(grid, 9, 9, rows, cols, bvals)
            c = summa(da, db, sr)
            return str(c.local.vals.dtype), c.gather_global()

        results = run_spmd(nranks, fn)
        assert {dt for dt, _ in results} == {str(CK_DTYPE)}
        got = results[0][1]
        assert got.nnz > 0 and got.vals.dtype == CK_DTYPE

    @pytest.mark.parametrize("nranks", [1, 4, 9])
    def test_summa_all_empty_keeps_struct_dtype(self, nranks):
        sr = substitute_overlap_encoded_semiring()

        def fn(comm):
            grid = ProcessGrid.create(comm)
            e = np.empty(0, dtype=np.int64)
            da = DistSparseMatrix.distribute(grid, 6, 6, e, e, e.copy())
            db = DistSparseMatrix.distribute(grid, 6, 6, e, e, e.copy())
            c = summa(da, db, sr)
            return str(c.local.vals.dtype)

        assert set(run_spmd(nranks, fn)) == {str(CK_DTYPE)}

    def test_elementwise_add_mixed_representations_raise(self):
        """Records never merge with objects: one operand on records, the
        other on CommonKmers objects, is the named error either way."""
        sr = substitute_overlap_encoded_semiring()
        x = _spgemm(*_as_operands(11), sr)
        assert x.vals.dtype == CK_DTYPE
        y = COOMatrix(x.nrows, x.ncols, x.rows, x.cols,
                      records_to_common_kmers(x.vals))
        for lhs, rhs in ((x, y), (y, x)):
            with pytest.raises(NoKernelError):
                elementwise_add(lhs, rhs, sr)

    def test_elementwise_add_with_empty_struct_operand(self):
        sr = substitute_overlap_encoded_semiring()
        a1, b1 = _as_operands(9)
        x = _spgemm(a1, b1, sr)
        empty = COOMatrix.empty(x.nrows, x.ncols, dtype=CK_DTYPE)
        got = elementwise_add(x, empty, sr)
        assert got.vals.dtype == CK_DTYPE
        assert _ck_dict(got) == _ck_dict(x)
        both_empty = elementwise_add(empty, empty, sr)
        assert both_empty.nnz == 0 and both_empty.vals.dtype == CK_DTYPE
