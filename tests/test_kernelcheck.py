"""Differential conformance tests for every registered SpGEMM kernel.

Driven by the registry (``repro.sparse.kernels``) through the harness in
``tests/kernelcheck.py``: every available kernel is swept over the seeded
adversarial corpus for every covered (semiring, dtype) combination and
must match the scalar semiring reference exactly.  The suite also proves
the harness has teeth (a deliberately broken kernel fails the sweep),
that delegated kernels are bitwise-identical to the numeric fast path
(the numeric rung of ``spgemm_coo``), that dispatch never delegates
uncovered work, and that the distributed SUMMA formulation keeps the same
answers across grids and comm backends.
"""

from __future__ import annotations

import numpy as np
import pytest

import kernelcheck as kc
from repro.core.config import KERNELS, ConfigError, PastisConfig
from repro.sparse import kernels as K
from repro.sparse import spgemm as spg
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.kernels import (
    DELEGATED_KERNELS,
    KernelSpec,
    available_kernels,
    get_kernel,
    kernel_available,
    kernel_requirement,
    register_kernel,
    registered_kernels,
    unregister_kernel,
)
from repro.sparse.semiring import ARITHMETIC, COUNTING, Semiring
from repro.sparse.spgemm import delegation_covers, spgemm_coo, spgemm_hash

#: Arithmetic with no numeric spec: values stay Python objects and no
#: kernel may ever delegate it.
NOSPEC_ARITHMETIC = Semiring(
    "nospec_arithmetic", lambda a, b: a + b, lambda a, b: a * b, 0
)

needs_scipy = pytest.mark.skipif(
    not kernel_available("scipy"), reason="scipy not installed"
)


def _dispatch(a: CSRMatrix, b: CSRMatrix, semiring, kernel=None) -> COOMatrix:
    """The in-repo ladder on corpus (CSR) operands — with ``kernel=None``
    the bitwise golden the delegated kernels are held to."""
    return spgemm_coo(a.to_coo(), b.to_coo(), semiring, kernel=kernel)


def _random_coo(m, n, nnz, dtype, seed):
    rng = np.random.default_rng(seed)
    return kc._random_coo(rng, m, n, nnz, dtype)


# ---------------------------------------------------------------------------
# the differential sweep
# ---------------------------------------------------------------------------


class TestConformanceSweep:
    @pytest.mark.parametrize("name", available_kernels())
    def test_kernel_conforms_on_corpus(self, name):
        """Every available kernel × its covered (semiring, dtype) slice ×
        the full adversarial corpus, checked against the scalar semiring
        reference — and the sweep is provably non-vacuous."""
        checked = kc.sweep_kernel(name)
        # even the narrowest registered kernel covers two semirings over
        # several dtype combinations: well above one full corpus
        assert checked >= len(kc.corpus()), (
            f"sweep of {name!r} checked only {checked} products"
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

    @needs_scipy
    def test_scipy_sweep_covers_both_delegable_semirings(self):
        """The delegated kernel's slice is not quietly shrinking: it must
        run the whole corpus for plus-times *and* pattern delegation."""
        for semiring in (ARITHMETIC, COUNTING):
            checked = kc.sweep_kernel("scipy", semirings=(semiring,))
            assert checked >= 4 * len(kc.corpus()), (
                f"scipy checked only {checked} {semiring.name} products"
            )

    def test_broken_kernel_fails_the_sweep(self):
        """A deliberately broken kernel — it prunes explicit zeros, the
        classic delegation bug — must be caught by the sweep."""

        def pruning(a, b, semiring):
            out = _dispatch(a, b, semiring)
            return out.filter(out.vals != 0)

        register_kernel(
            KernelSpec("broken-prune", pruning, K._covers_all)
        )
        try:
            assert "broken-prune" in registered_kernels()
            assert kernel_available("broken-prune")
            with pytest.raises(AssertionError, match="broken-prune"):
                kc.sweep_kernel("broken-prune",
                                semirings=(ARITHMETIC,),
                                dtypes=(np.float64,))
        finally:
            unregister_kernel("broken-prune")
        assert "broken-prune" not in registered_kernels()


# ---------------------------------------------------------------------------
# delegated kernels vs the numeric fast path (bitwise)
# ---------------------------------------------------------------------------


class TestDelegatedBitwiseIdentity:
    @pytest.mark.parametrize(
        "name",
        [n for n in DELEGATED_KERNELS if kernel_available(n)]
        or [pytest.param("scipy", marks=needs_scipy)],
    )
    @pytest.mark.parametrize("semiring", [ARITHMETIC, COUNTING],
                             ids=lambda s: s.name)
    def test_matches_numeric_exactly(self, name, semiring):
        """On every covered corpus product the delegated kernel and the
        in-repo numeric kernel agree bit for bit, dtype included."""
        spec = get_kernel(name)
        compared = 0
        for dt in kc.SWEEP_DTYPES:
            da, db = dt if isinstance(dt, tuple) else (dt, dt)
            for case, a, b in kc.corpus((da, db)):
                if not spec.covers(semiring, a.data.dtype, b.data.dtype):
                    continue
                kc.assert_bitwise_equal(
                    spec.fn(a, b, semiring),
                    _dispatch(a, b, semiring),
                    context=f"{name}/{semiring.name}/{case}",
                )
                compared += 1
        assert compared >= len(kc.corpus())

    @needs_scipy
    def test_empty_product_has_canonical_dtype(self):
        """Satellite regression: a delegated k-stage whose product is
        empty must return the numeric kernel's canonical empty — same
        shape, zero nnz, and the spec dtype, so SUMMA accumulation never
        sees a mismatched value dtype from an empty stage."""
        for dt in (np.float64, np.int64):
            for case in ("both_empty", "a_empty", "disjoint_inner",
                         "inner_dim_zero"):
                picked = [c for c in kc.corpus(dt) if c[0] == case]
                (name, a, b), = picked
                for semiring in (ARITHMETIC, COUNTING):
                    got = spg.spgemm_scipy(a, b, semiring)
                    ref = _dispatch(a, b, semiring)
                    assert got.nnz == ref.nnz == 0, f"{case}/{dt}"
                    assert got.vals.dtype == ref.vals.dtype, (
                        f"{case}/{np.dtype(dt).name}/{semiring.name}: "
                        f"delegated empty dtype {got.vals.dtype} != "
                        f"numeric {ref.vals.dtype}"
                    )
                    assert got.shape == ref.shape

    @needs_scipy
    def test_explicit_cancellation_zeros_are_kept(self):
        """The delegated kernel must keep the explicit zeros scipy >= 1.15
        prunes from ``csr @ csr`` output (a sum that cancels to zero stays
        a stored entry, exactly like the numeric kernel)."""
        (_, a, b), = [c for c in kc.corpus(np.float64)
                      if c[0] == "cancellation"]
        got = spg.spgemm_scipy(a, b, ARITHMETIC)
        assert got.nnz == 1 and got.vals[0] == 0.0  # stored, value zero
        kc.assert_bitwise_equal(got, _dispatch(a, b, ARITHMETIC))


# ---------------------------------------------------------------------------
# dispatch: delegation engages exactly when covered, and only then
# ---------------------------------------------------------------------------


class TestDispatchDelegation:
    def _boom(self, *args, **kwargs):
        raise AssertionError("delegated kernel invoked for uncovered work")

    def test_unknown_kernel_rejected(self):
        coo = _random_coo(5, 5, 8, np.float64, 0)
        with pytest.raises(ValueError, match="unknown delegated kernel"):
            spgemm_coo(coo, coo, ARITHMETIC, kernel="cuda")

    def test_nospec_semiring_never_delegates(self, monkeypatch):
        """A semiring with no numeric spec has no delegate form: dispatch
        must run the in-repo generic path without touching the delegated
        kernel, and still produce the reference answer."""
        monkeypatch.setitem(spg._DELEGATES, "scipy", self._boom)
        a = CSRMatrix.from_coo(
            _random_coo(8, 8, 20, np.int64, 1).astype(object)
        )
        got = _dispatch(a, a, NOSPEC_ARITHMETIC, kernel="scipy")
        kc.assert_conforms(got, a, a, NOSPEC_ARITHMETIC,
                           context="nospec dispatch")

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
        _dispatch(a, a, NOSPEC_ARITHMETIC, kernel="scipy")
        assert calls == ["nospec_arithmetic"]

    def test_uncovered_dtype_never_delegates(self, monkeypatch):
        """int32 x int32 plus-times falls outside the native-dtype window
        (the reference accumulates in int64, scipy would sum in int32):
        dispatch must fall back to the in-repo kernels."""
        assert not delegation_covers(ARITHMETIC, np.int32, np.int32,
                                     kernel="scipy")
        monkeypatch.setitem(spg._DELEGATES, "scipy", self._boom)
        a = CSRMatrix.from_coo(_random_coo(8, 8, 20, np.int32, 3))
        got = _dispatch(a, a, ARITHMETIC, kernel="scipy")
        kc.assert_conforms(got, a, a, ARITHMETIC,
                           context="int32 fallback")

    def test_duplicate_coordinates_never_delegate(self, monkeypatch):
        """COO blocks with duplicate coordinates cannot become CSR, so
        spgemm_coo must fall back — byte-identically."""
        monkeypatch.setitem(spg._DELEGATES, "scipy", self._boom)
        rows = np.array([0, 0, 1, 2, 2, 2])
        cols = np.array([1, 1, 0, 2, 2, 1])
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        dup = COOMatrix(3, 3, rows, cols, vals)
        clean = _random_coo(3, 3, 5, np.float64, 4)
        got = spgemm_coo(dup, clean, ARITHMETIC, kernel="scipy")
        ref = spgemm_coo(dup, clean, ARITHMETIC)
        kc.assert_bitwise_equal(got, ref, context="dup fallback")

    def test_hypersparse_blocks_never_delegate(self, monkeypatch):
        """Hypersparse blocks (the 24^k k-mer dimension) must not pay the
        dimension-proportional CSR indptr: spgemm_coo falls back to the
        sort-merge-join path."""
        monkeypatch.setitem(spg._DELEGATES, "scipy", self._boom)
        n = 10_000_000
        a = COOMatrix(4, n, [0, 1, 2], [5, 999_999, n - 1],
                      np.ones(3, dtype=np.float64))
        b = COOMatrix(n, 4, [5, 999_999, n - 1], [1, 2, 3],
                      np.ones(3, dtype=np.float64))
        got = spgemm_coo(a, b, ARITHMETIC, kernel="scipy")
        ref = spgemm_coo(a, b, ARITHMETIC)
        kc.assert_bitwise_equal(got, ref, context="hypersparse fallback")

    @needs_scipy
    def test_delegation_engages_when_covered(self, monkeypatch):
        """The positive control for the fallback tests above: covered
        work genuinely reaches the delegated kernel."""
        calls = []
        real = spg.spgemm_scipy

        def counting(a, b, semiring):
            calls.append(semiring.name)
            return real(a, b, semiring)

        monkeypatch.setitem(spg._DELEGATES, "scipy", counting)
        coo = _random_coo(8, 8, 20, np.float64, 5)
        spgemm_coo(coo, coo, ARITHMETIC, kernel="scipy")
        coo = _random_coo(8, 8, 20, np.int64, 6)
        spgemm_coo(coo, coo, COUNTING, kernel="scipy")
        assert calls == ["arithmetic", "counting"]

    @needs_scipy
    def test_summa_threads_delegation_to_kernels(self, monkeypatch):
        """kernel= flows from SUMMA down to the per-stage local products:
        under the sim backend (shared module state) the delegated kernel
        is invoked at least once per rank-stage with covered operands."""
        calls = []
        real = spg.spgemm_scipy

        def counting(a, b, semiring):
            calls.append((a.shape, b.shape))
            return real(a, b, semiring)

        monkeypatch.setitem(spg._DELEGATES, "scipy", counting)
        a = _random_coo(14, 14, 40, np.float64, 7)
        got = kc.summa_product(4, a, a, "arithmetic", kernel="scipy")
        assert calls, "SUMMA never reached the delegated kernel"
        kc.assert_bitwise_equal(
            got,
            spgemm_coo(a, a, ARITHMETIC),
            context="summa sim delegation",
        )


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
            got = _dispatch(ao, bo, NOSPEC_ARITHMETIC)
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
        got = _dispatch(a, a, NOSPEC_ARITHMETIC)
        assert got.nnz > 0
        assert all(type(v) is np.int64 for v in got.vals)
        ref = spgemm_hash(a, a, NOSPEC_ARITHMETIC).sort()
        for x, y in zip(got.sort().vals, ref.vals):
            assert type(x) is type(y) and x == y


# ---------------------------------------------------------------------------
# distributed formulation: grids x comm backends
# ---------------------------------------------------------------------------


@needs_scipy
class TestDistributedDelegation:
    """The delegated kernel produces the same gathered global product as
    the single-process numeric kernel on every grid PASTIS supports, on
    the thread simulator and the process-per-rank backend alike.  Operand
    values are exact dyadics, so bitwise identity is order-independent
    and genuinely diagnostic."""

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
    def test_scipy_summa_matches_numeric(self, operands, nranks, backend):
        a, b, golden, counts, golden_counts = operands
        got = kc.summa_product(nranks, a, b, "arithmetic",
                               kernel="scipy", comm_backend=backend)
        kc.assert_bitwise_equal(
            got, golden, context=f"arithmetic p={nranks} {backend}"
        )
        got = kc.summa_product(nranks, counts, counts.transpose(),
                               "counting", kernel="scipy",
                               comm_backend=backend)
        kc.assert_bitwise_equal(
            got, golden_counts, context=f"counting p={nranks} {backend}"
        )


# ---------------------------------------------------------------------------
# registry + config surface (graceful fallback when packages are missing)
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_registry_shape(self):
        assert set(available_kernels()) <= set(registered_kernels())
        for name in ("hash", "dispatch"):
            assert name in available_kernels()  # pure numpy: always there
        for name in DELEGATED_KERNELS:
            assert name in registered_kernels()
            assert name in KERNELS  # config knob exposes every delegate

    def test_availability_tracks_installed_packages(self):
        import importlib.util

        for name in DELEGATED_KERNELS:
            spec = get_kernel(name)
            assert kernel_available(name) == (
                importlib.util.find_spec(spec.requires) is not None
            )

    def test_kernel_requirement_names_pip_package(self):
        assert kernel_requirement("scipy") == "scipy"
        assert kernel_requirement("graphblas") == "python-graphblas"
        assert kernel_requirement("hash") is None
        assert kernel_requirement("no-such-kernel") is None

    def test_unknown_kernel_name_rejected(self):
        with pytest.raises(ValueError, match="unknown spgemm kernel"):
            get_kernel("carrier-pigeon")
        assert not kernel_available("carrier-pigeon")

    def test_missing_package_is_named_at_config_time(self, monkeypatch):
        """Graceful fallback: with the backing packages stubbed absent,
        the delegated kernels drop out of available_kernels() and the
        config rejects them with a ConfigError naming the pip package —
        never an ImportError mid-SUMMA."""
        monkeypatch.setattr(K, "_package_present", lambda name: False)
        assert set(DELEGATED_KERNELS).isdisjoint(available_kernels())
        for name in DELEGATED_KERNELS:
            assert not kernel_available(name)
            with pytest.raises(ConfigError) as exc_info:
                PastisConfig(kernel=name)
            msg = str(exc_info.value)
            assert name in msg
            assert kernel_requirement(name) in msg
            assert "pip install" in msg

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)

    @needs_scipy
    def test_available_delegate_accepted_by_config(self):
        assert PastisConfig(kernel="scipy").kernel == "scipy"
