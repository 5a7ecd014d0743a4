"""Differential conformance tests for the local SpGEMM kernels.

Driven through the harness in ``tests/kernelcheck.py``: the scalar hash
reference and the ``spgemm_coo`` dispatcher are swept over the seeded
adversarial corpus for every (semiring, dtype) combination and must agree
exactly.  The suite also proves the harness has teeth (a deliberately
broken kernel fails the sweep), that the batched rung is what runs a
spec-less object semiring, and that the distributed SUMMA formulation
keeps the same answers across grids and comm backends.
"""

from __future__ import annotations

import numpy as np
import pytest

import kernelcheck as kc
from repro.sparse import spgemm as spg
from repro.sparse.csr import CSRMatrix
from repro.sparse.semiring import ARITHMETIC, COUNTING, Semiring
from repro.sparse.spgemm import spgemm_coo, spgemm_hash

#: Arithmetic with no numeric spec: values stay Python objects and only
#: the batched rung may run it.
NOSPEC_ARITHMETIC = Semiring(
    "nospec_arithmetic", lambda a, b: a + b, lambda a, b: a * b, 0
)


def _random_coo(m, n, nnz, dtype, seed):
    rng = np.random.default_rng(seed)
    return kc._random_coo(rng, m, n, nnz, dtype)


# ---------------------------------------------------------------------------
# the differential sweep
# ---------------------------------------------------------------------------


class TestConformanceSweep:
    @pytest.mark.parametrize("multiply", [
        pytest.param(spgemm_hash, id="hash"),
        pytest.param(kc.dispatch, id="dispatch"),
    ])
    def test_kernel_conforms_on_corpus(self, multiply):
        """Each kernel × every (semiring, dtype) combination × the full
        adversarial corpus, checked against the scalar semiring
        reference — and the sweep is provably non-vacuous."""
        checked = kc.sweep_kernel(multiply)
        assert checked == (
            len(kc.SWEEP_SEMIRINGS) * len(kc.SWEEP_DTYPES) * len(kc.corpus())
        )

    def test_corpus_is_adversarial_enough(self):
        """The acceptance floor: >= 20 named cases per dtype combination,
        unique names, deterministic across calls."""
        for dt in kc.SWEEP_DTYPES:
            cases = kc.corpus(dt)
            names = [name for name, _, _ in cases]
            assert len(names) >= 20
            assert len(set(names)) == len(names)
        first = kc.corpus(np.float64, seed=7)
        again = kc.corpus(np.float64, seed=7)
        for (n1, a1, b1), (n2, a2, b2) in zip(first, again):
            assert n1 == n2
            assert a1.data.tobytes() == a2.data.tobytes()
            assert b1.data.tobytes() == b2.data.tobytes()

    def test_broken_kernel_fails_the_sweep(self):
        """A deliberately broken kernel — it prunes explicit zeros, the
        classic bug of handing the product to a stock ``csr @ csr`` —
        must be caught by the sweep."""

        def pruning(a, b, semiring):
            out = kc.dispatch(a, b, semiring)
            return out.filter(out.vals != 0)

        with pytest.raises(AssertionError, match="kernel=pruning"):
            kc.sweep_kernel(pruning, semirings=(ARITHMETIC,),
                            dtypes=(np.float64,))


# ---------------------------------------------------------------------------
# batched object-semiring coverage
# ---------------------------------------------------------------------------


class TestBatchedObjectSemiring:
    """The batched merge is the only generic path left: it must match the
    scalar reference on object values — scalar *types* included."""

    @pytest.mark.parametrize("seed_dtype", [np.int64, np.float64])
    def test_crossval_on_corpus(self, seed_dtype):
        checked = 0
        for case, a, b in kc.corpus(seed_dtype):
            ao = CSRMatrix(a.nrows, a.ncols, a.indptr, a.indices,
                           a.data.astype(object))
            bo = CSRMatrix(b.nrows, b.ncols, b.indptr, b.indices,
                           b.data.astype(object))
            got = kc.dispatch(ao, bo, NOSPEC_ARITHMETIC)
            # (an empty operand short-circuits to the typed placeholder)
            assert got.vals.dtype == object or not (ao.nnz and bo.nnz)
            kc.assert_conforms(got, ao, bo, NOSPEC_ARITHMETIC,
                               context=f"batched object {case}")
            checked += 1
        assert checked >= 20

    def test_typed_values_stay_numpy_scalars(self):
        """_boxed must keep NumPy scalar types (int64 overflow semantics)
        rather than demoting to Python ints via astype(object)."""
        a = CSRMatrix.from_coo(_random_coo(6, 6, 12, np.int64, 8))
        got = kc.dispatch(a, a, NOSPEC_ARITHMETIC)
        assert got.nnz > 0
        assert all(type(v) is np.int64 for v in got.vals)
        ref = spgemm_hash(a, a, NOSPEC_ARITHMETIC).sort()
        for x, y in zip(got.sort().vals, ref.vals):
            assert type(x) is type(y) and x == y

    def test_nospec_dispatch_runs_batched(self, monkeypatch):
        """The no-spec path is the batched vectorized merge, not a scalar
        loop: dispatch must route through the batched rung."""
        calls = []
        real = spg._fold_batched

        def spy(nrows, ncols, rows, cols, a_vals, b_vals, semiring):
            calls.append(semiring.name)
            return real(nrows, ncols, rows, cols, a_vals, b_vals, semiring)

        monkeypatch.setattr(spg, "_fold_batched", spy)
        a = CSRMatrix.from_coo(
            _random_coo(6, 6, 10, np.int64, 2).astype(object)
        )
        kc.dispatch(a, a, NOSPEC_ARITHMETIC)
        assert calls == ["nospec_arithmetic"]


# ---------------------------------------------------------------------------
# distributed formulation: grids x comm backends
# ---------------------------------------------------------------------------


class TestDistributedSumma:
    """SUMMA produces the same gathered global product as the local
    dispatcher on every grid PASTIS supports, on the thread simulator and
    the process-per-rank backend alike.  Operand values are exact dyadics,
    so bitwise identity is order-independent and genuinely diagnostic."""

    @pytest.fixture(scope="class")
    def operands(self):
        a = _random_coo(15, 12, 60, np.float64, 21)
        b = _random_coo(12, 14, 55, np.float64, 22)
        golden = spgemm_coo(a, b, ARITHMETIC)
        counts = _random_coo(15, 12, 60, np.int64, 23)
        golden_counts = spgemm_coo(counts, counts.transpose(), COUNTING)
        return a, b, golden, counts, golden_counts

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    @pytest.mark.parametrize("nranks", [1, 4, 9])
    def test_summa_matches_local(self, operands, nranks, backend):
        a, b, golden, counts, golden_counts = operands
        got = kc.summa_product(nranks, a, b, "arithmetic",
                               comm_backend=backend)
        kc.assert_bitwise_equal(
            got, golden, context=f"arithmetic p={nranks} {backend}"
        )
        got = kc.summa_product(nranks, counts, counts.transpose(),
                               "counting", comm_backend=backend)
        kc.assert_bitwise_equal(
            got, golden_counts, context=f"counting p={nranks} {backend}"
        )
