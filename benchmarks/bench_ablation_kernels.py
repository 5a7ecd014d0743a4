"""Ablation benchmarks on the core kernels.

Not a paper figure — these measure the actual Python kernels of this
reproduction so the fitted cost-model rates can be sanity-checked, and they
quantify the design choices DESIGN.md calls out:

* SpGEMM strategy: the hash reference vs the COO-join dispatcher;
* alignment kernels: Smith-Waterman vs gapped x-drop vs ungapped
  (the XD-beats-SW speed claim at kernel level);
* substitute-k-mer search vs brute-force enumeration.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.align.smith_waterman import smith_waterman
from repro.align.ungapped import ungapped_align
from repro.align.xdrop import xdrop_align
from repro.bio.alphabet import encode_sequence
from repro.bio.generate import mutate, random_protein
from repro.kmers.substitutes import (
    brute_force_substitutes,
    substitute_kmers_batch,
)
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.semiring import COUNTING
from repro.sparse.spgemm import spgemm_coo, spgemm_hash


def _spgemm_operands(seed=0, n=60, k=40, density=0.15):
    a = sp.random(n, k, density=density, random_state=seed, format="csr")
    a.data[:] = 1 + (np.arange(len(a.data)) % 5)
    ac = CSRMatrix.from_coo(COOMatrix.from_scipy(a))
    return ac, ac.transpose()


class TestSpGEMMStrategies:
    def test_hash(self, benchmark):
        a, at = _spgemm_operands()
        out = benchmark(spgemm_hash, a, at, COUNTING)
        assert out.nnz > 0

    def test_coo_join(self, benchmark):
        a, at = _spgemm_operands()
        out = benchmark(spgemm_coo, a.to_coo(), at.to_coo(), COUNTING)
        assert out.nnz > 0


class TestAlignmentKernels:
    @pytest.fixture(scope="class")
    def pair(self):
        s = random_protein(150, 0)
        a = encode_sequence(s)
        b = encode_sequence(mutate(s, 0.15, 0.02, 1))
        return a, b

    def test_smith_waterman(self, benchmark, pair):
        a, b = pair
        res = benchmark(smith_waterman, a, b)
        assert res.score > 0

    def test_smith_waterman_score_only(self, benchmark, pair):
        a, b = pair
        res = benchmark(smith_waterman, a, b, traceback=False)
        assert res.score > 0

    def test_xdrop(self, benchmark, pair):
        a, b = pair
        res = benchmark(xdrop_align, a, b, 10, 10, 6, 49)
        assert res.score > 0

    def test_ungapped(self, benchmark, pair):
        a, b = pair
        res = benchmark(ungapped_align, a, b, 10, 10, 6)
        assert res.score > 0


class TestSubstituteSearch:
    """The lattice search as form S runs it — one batch of distinct roots
    (a single-root call would time call overhead) — against the oracle."""

    @pytest.fixture(scope="class")
    def roots(self):
        return np.random.default_rng(0).choice(24**6, size=256, replace=False)

    @pytest.mark.parametrize("m", [25, 50])
    def test_batch_search(self, benchmark, roots, m):
        ids, _ = benchmark(substitute_kmers_batch, roots, 6, m)
        assert ids.shape == (256, m)

    def test_brute_force_small_k(self, benchmark):
        # |Sigma|^3 = 13824 enumeration — the oracle the search replaces
        root = encode_sequence("AVG")
        out = benchmark(brute_force_substitutes, root, 25)
        assert len(out) == 25
