"""Tests for the COO and CSR sparse formats."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sparse.coo import (
    COOMatrix,
    group_coords,
    sorted_unique,
    stable_order,
)
from repro.sparse.csr import CSRMatrix


def random_coo(rng, nrows=20, ncols=30, nnz=40) -> COOMatrix:
    rows = rng.integers(0, nrows, nnz)
    cols = rng.integers(0, ncols, nnz)
    vals = rng.integers(1, 100, nnz)
    coo = COOMatrix(nrows, ncols, rows, cols, vals)
    return coo.sum_duplicates(lambda a, b: a + b)


class TestCOO:
    def test_basic(self):
        m = COOMatrix(3, 4, [0, 2], [1, 3], [10, 20])
        assert m.shape == (3, 4)
        assert m.nnz == 2
        assert list(m) == [(0, 1, 10), (2, 3, 20)]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            COOMatrix(3, 3, [0], [1, 2], [5])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            COOMatrix(3, 3, [3], [0], [1])
        with pytest.raises(ValueError):
            COOMatrix(3, 3, [0], [-1], [1])

    def test_empty(self):
        m = COOMatrix.empty(5, 6)
        assert m.nnz == 0
        assert m.shape == (5, 6)

    def test_transpose(self):
        m = COOMatrix(2, 3, [0, 1], [2, 0], [7, 8])
        t = m.transpose()
        assert t.shape == (3, 2)
        assert t.to_dict() == {(2, 0): 7, (0, 1): 8}

    def test_sort_stable(self):
        m = COOMatrix(3, 3, [1, 0, 1], [0, 2, 0], ["x", "y", "z"])
        s = m.sort()
        assert s.rows.tolist() == [0, 1, 1]
        assert s.vals.tolist() == ["y", "x", "z"]  # duplicates keep order

    def test_sum_duplicates(self):
        m = COOMatrix(2, 2, [0, 0, 1], [1, 1, 0], [3, 4, 5])
        r = m.sum_duplicates(lambda a, b: a + b)
        assert r.to_dict() == {(0, 1): 7, (1, 0): 5}

    def test_sum_duplicates_object_values(self):
        vals = np.empty(2, dtype=object)
        vals[0] = (1,)
        vals[1] = (2,)
        m = COOMatrix(2, 2, [0, 0], [0, 0], vals)
        r = m.sum_duplicates(lambda a, b: a + b)
        assert r.vals[0] == (1, 2)

    def test_filter(self):
        m = COOMatrix(3, 3, [0, 1, 2], [0, 1, 2], [1, 2, 3])
        f = m.filter(np.array([True, False, True]))
        assert f.nnz == 2

    def test_map_values(self):
        m = COOMatrix(2, 2, [0, 1], [1, 0], [3, 4])
        r = m.map_values(lambda v: v * 10)
        assert sorted(v for _, _, v in r) == [30, 40]

    def test_to_dict_rejects_duplicates(self):
        m = COOMatrix(2, 2, [0, 0], [1, 1], [1, 2])
        with pytest.raises(ValueError):
            m.to_dict()

    def test_scipy_roundtrip(self):
        rng = np.random.default_rng(0)
        m = random_coo(rng)
        back = COOMatrix.from_scipy(m.to_scipy())
        assert back.to_dict() == {
            k: float(v) for k, v in m.to_dict().items()
        }

    def test_huge_dimensions_ok(self):
        # hypersparse: dimensions far beyond nnz must not allocate
        m = COOMatrix(10**6, 24**6, [5], [24**6 - 1], [1])
        assert m.nnz == 1


class TestCSR:
    def test_from_coo_roundtrip(self):
        rng = np.random.default_rng(1)
        coo = random_coo(rng)
        csr = CSRMatrix.from_coo(coo)
        assert csr.nnz == coo.nnz
        assert csr.to_coo().sort().to_dict() == coo.to_dict()

    def test_row_access(self):
        coo = COOMatrix(3, 5, [1, 1, 2], [4, 0, 2], [7, 8, 9])
        csr = CSRMatrix.from_coo(coo)
        cols, vals = csr.row(1)
        assert cols.tolist() == [0, 4]
        assert vals.tolist() == [8, 7]
        cols0, _ = csr.row(0)
        assert len(cols0) == 0

    def test_row_nnz(self):
        coo = COOMatrix(3, 5, [1, 1, 2], [4, 0, 2], [7, 8, 9])
        assert CSRMatrix.from_coo(coo).row_nnz().tolist() == [0, 2, 1]

    def test_get(self):
        coo = COOMatrix(3, 5, [1], [4], [7])
        csr = CSRMatrix.from_coo(coo)
        assert csr.get(1, 4) == 7
        assert csr.get(1, 3) is None
        assert csr.get(0, 0, default=-1) == -1

    def test_transpose(self):
        rng = np.random.default_rng(2)
        coo = random_coo(rng)
        t = CSRMatrix.from_coo(coo).transpose()
        assert t.shape == (coo.ncols, coo.nrows)
        assert t.to_coo().to_dict() == {
            (c, r): v for (r, c), v in coo.to_dict().items()
        }

    def test_bad_indptr(self):
        with pytest.raises(ValueError):
            CSRMatrix(2, 2, np.array([0, 1]), np.array([0]), np.array([1]))


_I64 = np.iinfo(np.int64)
#: int64 values biased to the edges: the extremes, small negatives and
#: duplicates, so offsets wrap and keys tie
_int64s = st.one_of(
    st.integers(int(_I64.min), int(_I64.max)),
    st.sampled_from([int(_I64.min), int(_I64.max), -1, 0, 1]),
    st.integers(-3, 3),
)


@st.composite
def _key_sets(draw):
    n = draw(st.integers(0, 40))
    nkeys = draw(st.integers(1, 3))
    keys = []
    for _ in range(nkeys):
        if draw(st.booleans()):  # constant key
            keys.append(np.full(n, draw(_int64s), dtype=np.int64))
        else:
            keys.append(np.array(draw(st.lists(_int64s, min_size=n,
                                               max_size=n)),
                                 dtype=np.int64))
    return keys


class TestStableOrder:
    @given(_key_sets())
    def test_equals_lexsort(self, keys):
        assert stable_order(keys).tolist() == np.lexsort(keys).tolist()

    def test_wide_keys(self):
        rng = np.random.default_rng(3)
        keys = [rng.integers(_I64.min, _I64.max, 5000, dtype=np.int64,
                             endpoint=True),
                rng.integers(-2**40, 2**40, 5000),
                rng.integers(0, 7, 5000)]
        assert (stable_order(keys) == np.lexsort(keys)).all()

    def test_empty_and_no_keys(self):
        e = np.empty(0, dtype=np.int64)
        assert len(stable_order([e, e])) == 0
        assert len(stable_order([])) == 0

    def test_constant_keys_keep_stream_order(self):
        assert stable_order([np.full(5, -9), np.full(5, 2**62)]).tolist() == [
            0, 1, 2, 3, 4
        ]

    @given(_key_sets())
    def test_group_coords_groups_by_last_two_keys(self, keys):
        if len(keys) < 2:
            return
        *tiebreak, cols, rows = keys
        order, starts, sizes, gr, gc = group_coords(rows, cols,
                                                    tuple(tiebreak))
        assert order.tolist() == np.lexsort(keys).tolist()
        coords = sorted(set(zip(rows.tolist(), cols.tolist())))
        assert list(zip(gr.tolist(), gc.tolist())) == coords
        assert sizes.sum() == len(rows)
        for s, z, r, c in zip(starts, sizes, gr, gc):
            assert (rows[order[s:s + z]] == r).all()
            assert (cols[order[s:s + z]] == c).all()

    @given(st.lists(_int64s, max_size=40))
    def test_sorted_unique(self, values):
        got = sorted_unique(np.array(values, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == sorted(set(values))
