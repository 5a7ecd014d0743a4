"""Differential conformance tests for the local SpGEMM kernels.

Driven through the harness in ``tests/kernelcheck.py``: the scalar hash
reference and the ``spgemm_coo`` dispatcher are swept over the seeded
adversarial corpus for every (semiring, dtype) combination and must agree
exactly — or, for a combination no spec covers, the dispatcher must raise
the named ``NoKernelError``.  The suite also proves the harness has teeth
(a deliberately broken kernel fails the sweep, and so does one that runs
an uncovered product), and that the distributed SUMMA formulation keeps
the same answers across grids.
"""

from __future__ import annotations

import numpy as np
import pytest

import kernelcheck as kc
from repro.sparse.semiring import ARITHMETIC, COUNTING, NoKernelError, Semiring
from repro.sparse.spgemm import spgemm_coo, spgemm_hash

#: Arithmetic with no spec at all: no operand dtype is covered.
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
        reference (the dispatcher raising on the uncovered ones) — and
        the sweep is provably non-vacuous."""
        checked = kc.sweep_kernel(multiply,
                                  vectorized=multiply is kc.dispatch)
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

    def test_uncovered_products_are_swept(self):
        """The raise branch is not vacuous: the AS stage's int64 spec
        covers no float corpus dtype, everything else covers them all —
        and a kernel that quietly runs an uncovered product (the scalar
        reference on bool operands under ARITHMETIC, posing as
        vectorized) fails the sweep."""
        uncovered = {
            (semiring.name, str(dt))
            for semiring in kc.SWEEP_SEMIRINGS for dt in kc.SWEEP_DTYPES
            if not kc.covered(semiring,
                              *(dt if isinstance(dt, tuple) else (dt, dt)))
        }
        assert uncovered == {("pastis_as_numeric", str(dt))
                             for dt in (np.float64, np.float32)}
        assert not kc.covered(ARITHMETIC, np.bool_, np.bool_)
        with pytest.raises(AssertionError, match="no NoKernelError"):
            kc.sweep_kernel(spgemm_hash, semirings=(ARITHMETIC,),
                            dtypes=(np.bool_,))

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, object])
    def test_spec_less_semiring_raises(self, dtype):
        """A semiring with no spec has no vectorized kernel for any
        operand dtype — object values included."""
        a = _random_coo(6, 6, 10, np.int64, 2).astype(dtype)
        with pytest.raises(NoKernelError, match="nospec_arithmetic"):
            spgemm_coo(a, a, NOSPEC_ARITHMETIC)
        assert issubclass(NoKernelError, TypeError)


# ---------------------------------------------------------------------------
# distributed formulation: grids
# ---------------------------------------------------------------------------


class TestDistributedSumma:
    """SUMMA produces the same gathered global product as the local
    dispatcher on every grid PASTIS supports.  Operand values are exact
    dyadics, so bitwise identity is order-independent and genuinely
    diagnostic."""

    @pytest.fixture(scope="class")
    def operands(self):
        a = _random_coo(15, 12, 60, np.float64, 21)
        b = _random_coo(12, 14, 55, np.float64, 22)
        golden = spgemm_coo(a, b, ARITHMETIC)
        counts = _random_coo(15, 12, 60, np.int64, 23)
        golden_counts = spgemm_coo(counts, counts.transpose(), COUNTING)
        return a, b, golden, counts, golden_counts

    @pytest.mark.parametrize("nranks", [1, 4, 9])
    def test_summa_matches_local(self, operands, nranks):
        a, b, golden, counts, golden_counts = operands
        got = kc.summa_product(nranks, a, b, "arithmetic")
        kc.assert_bitwise_equal(
            got, golden, context=f"arithmetic p={nranks}"
        )
        got = kc.summa_product(nranks, counts, counts.transpose(),
                               "counting")
        kc.assert_bitwise_equal(
            got, golden_counts, context=f"counting p={nranks}"
        )
