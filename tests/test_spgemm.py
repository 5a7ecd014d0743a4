"""Tests for semiring SpGEMM: the hash reference and the COO-join
dispatcher."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import elementwise_add
from repro.sparse.semiring import (
    ARITHMETIC,
    BOOLEAN,
    COUNTING,
    MIN_PLUS,
    Semiring,
)
from repro.sparse.spgemm import join_cartesian, spgemm_coo, spgemm_hash


def _random_pair(seed, shape_a=(12, 9), shape_b=(9, 14), density=0.3):
    rng = np.random.default_rng(seed)
    a = sp.random(*shape_a, density=density, random_state=int(seed),
                  format="csr")
    b = sp.random(*shape_b, density=density, random_state=int(seed) + 1,
                  format="csr")
    a.data[:] = rng.integers(1, 9, len(a.data))
    b.data[:] = rng.integers(1, 9, len(b.data))
    return a, b


def _to_csr(m) -> CSRMatrix:
    return CSRMatrix.from_coo(COOMatrix.from_scipy(m))


ALL_IMPLS = [
    pytest.param(lambda a, b, s: spgemm_hash(a, b, s), id="hash"),
    pytest.param(
        lambda a, b, s: spgemm_coo(a.to_coo(), b.to_coo(), s), id="coo-join"
    ),
]


class TestArithmetic:
    @pytest.mark.parametrize("impl", ALL_IMPLS)
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy(self, impl, seed):
        a, b = _random_pair(seed)
        got = impl(_to_csr(a), _to_csr(b), ARITHMETIC).to_scipy()
        ref = a @ b
        ref.eliminate_zeros()
        assert abs(got - ref).nnz == 0

    @pytest.mark.parametrize("impl", ALL_IMPLS)
    def test_empty_operands(self, impl):
        a = CSRMatrix.from_coo(COOMatrix.empty(4, 3))
        b = CSRMatrix.from_coo(COOMatrix.empty(3, 5))
        assert impl(a, b, ARITHMETIC).nnz == 0

    @pytest.mark.parametrize("impl", ALL_IMPLS)
    def test_dimension_mismatch(self, impl):
        a = CSRMatrix.from_coo(COOMatrix.empty(4, 3))
        b = CSRMatrix.from_coo(COOMatrix.empty(5, 5))
        with pytest.raises(ValueError):
            impl(a, b, ARITHMETIC)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_property_hash_coo_agree(self, seed):
        a, b = _random_pair(seed, shape_a=(8, 6), shape_b=(6, 10))
        h1 = spgemm_hash(_to_csr(a), _to_csr(b), ARITHMETIC)
        h2 = spgemm_coo(_to_csr(a).to_coo(), _to_csr(b).to_coo(), ARITHMETIC)
        assert h1.to_dict() == h2.to_dict()


class TestSemirings:
    def test_boolean_pattern(self):
        a, b = _random_pair(3)
        got = spgemm_hash(_to_csr(a), _to_csr(b), BOOLEAN)
        ref = a @ b
        ref.eliminate_zeros()
        assert {(r, c) for r, c, _ in got} == set(
            zip(*ref.tocoo().coords)
        ) or {(r, c) for r, c, _ in got} == set(
            zip(ref.tocoo().row.tolist(), ref.tocoo().col.tolist())
        )

    def test_counting_semiring(self):
        # counting over AAT gives common-nonzero counts regardless of values
        coo = COOMatrix(3, 4, [0, 0, 1, 1, 2], [0, 1, 1, 2, 3],
                        [10, 20, 30, 40, 50])
        a = CSRMatrix.from_coo(coo)
        at = a.transpose()
        b = spgemm_hash(a, at, COUNTING).to_dict()
        assert b[(0, 1)] == 1  # share column 1
        assert b[(0, 0)] == 2
        assert (2, 0) not in b

    def test_min_plus_shortest_paths(self):
        # one step of min-plus matrix "multiplication" = path relaxation
        inf = None
        coo = COOMatrix(3, 3, [0, 0, 1], [1, 2, 2], [1, 10, 2])
        a = CSRMatrix.from_coo(coo)
        sq = spgemm_hash(a, a, MIN_PLUS).to_dict()
        assert sq[(0, 2)] == 3  # 0->1->2 beats direct 10 via multiply chain

    def test_custom_object_semiring(self):
        concat = Semiring(
            "concat", lambda a, b: a + b, lambda a, b: [(a, b)]
        )
        a = CSRMatrix.from_coo(
            COOMatrix(2, 2, [0, 0], [0, 1], ["x", "y"])
        )
        b = CSRMatrix.from_coo(
            COOMatrix(2, 1, [0, 1], [0, 0], ["u", "v"])
        )
        out = spgemm_hash(a, b, concat).to_dict()
        assert out[(0, 0)] == [("x", "u"), ("y", "v")]


class TestElementwise:
    def test_elementwise_add_merges(self):
        a = COOMatrix(2, 2, [0], [0], [1])
        b = COOMatrix(2, 2, [0, 1], [0, 1], [2, 3])
        r = elementwise_add(a, b, lambda x, y: x + y)
        assert r.to_dict() == {(0, 0): 3, (1, 1): 3}

    def test_elementwise_shape_mismatch(self):
        with pytest.raises(ValueError):
            elementwise_add(
                COOMatrix.empty(2, 2), COOMatrix.empty(3, 3), min
            )


def _join_brute(left, right):
    """Per-key cross product, left-major, keys ascending."""
    return [(i, j) for key in sorted(set(left) & set(right))
            for i, x in enumerate(left) if x == key
            for j, y in enumerate(right) if y == key]


_sorted_keys = st.lists(st.integers(-4, 4), max_size=25).map(sorted)


class TestJoinCartesian:
    @given(_sorted_keys, _sorted_keys)
    def test_matches_brute_force(self, left, right):
        li, ri = join_cartesian(np.array(left, dtype=np.int64),
                                np.array(right, dtype=np.int64))
        assert li.dtype == ri.dtype == np.int64
        assert list(zip(li.tolist(), ri.tolist())) == _join_brute(left, right)

    @pytest.mark.parametrize("left,right", [
        ([], []), ([], [1, 2]), ([1, 2], []),
        ([1, 3, 5], [2, 4, 6]),                     # disjoint, interleaved
        ([0, 0], [9, 9]),                           # disjoint, apart
        ([7, 7, 7], [7, 7]),                        # all equal
        ([-2**63, 0, 2**63 - 1], [-2**63, 2**63 - 1, 2**63 - 1]),
    ])
    def test_edge_cases(self, left, right):
        li, ri = join_cartesian(np.array(left, dtype=np.int64),
                                np.array(right, dtype=np.int64))
        assert list(zip(li.tolist(), ri.tolist())) == _join_brute(left, right)
