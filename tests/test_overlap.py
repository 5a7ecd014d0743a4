"""Tests for overlap detection: A/S construction and candidate pairs."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio.generate import make_family, random_protein
from repro.bio.scoring import BLOSUM62
from repro.bio.sequences import SequenceStore
from repro.core import overlap
from repro.core.config import PastisConfig
from repro.core.overlap import (
    CandidatePairs,
    build_a_triples,
    build_s_triples,
    find_candidate_pairs,
    find_candidate_pairs_semiring,
    pairs_from_block,
)
from repro.core.semirings import (
    MAX_SEEDS,
    CommonKmers,
    common_kmers_to_records,
)
from repro.kmers.encoding import kmer_id_from_string
from repro.mpisim.grid import block_ranges
from repro.sparse.coo import COOMatrix


class TestBuildA:
    def test_triples(self, small_store):
        rows, cols, vals = build_a_triples(small_store, 3)
        avg = kmer_id_from_string("AVG")
        # AVG occurs in sequences 0, 1, 3
        assert set(rows[cols == avg].tolist()) == {0, 1, 3}

    def test_row_offset(self, small_store):
        rows, _, _ = build_a_triples(small_store, 3, row_offset=100)
        assert rows.min() >= 100

    def test_positions_are_first_occurrence(self, small_store):
        rows, cols, vals = build_a_triples(small_store, 3)
        avg = kmer_id_from_string("AVG")
        sel = (rows == 0) & (cols == avg)
        assert vals[sel][0] == 0  # AVG at position 0 (also at 8)


class TestBuildS:
    def test_identity_included(self):
        kid = kmer_id_from_string("AAC")
        rows, cols, dists = build_s_triples(
            np.array([kid]), 3, 2, BLOSUM62
        )
        d = {(r, c): v for r, c, v in zip(rows, cols, dists)}
        assert d[(kid, kid)] == 0

    def test_m_substitutes_per_row(self):
        kid = kmer_id_from_string("AAC")
        rows, _, _ = build_s_triples(np.array([kid]), 3, 5, BLOSUM62)
        assert len(rows) == 6  # identity + 5

    def test_m_zero_only_identity(self):
        kid = kmer_id_from_string("AAC")
        rows, cols, dists = build_s_triples(np.array([kid]), 3, 0, BLOSUM62)
        assert len(rows) == 1
        assert dists[0] == 0

    def test_restrict_to_prunes_absent_columns(self):
        kid = kmer_id_from_string("AAC")
        present = np.array(sorted([kid, kmer_id_from_string("SAC")]))
        rows, cols, dists = build_s_triples(
            np.array([kid]), 3, 10, BLOSUM62, restrict_to=present
        )
        assert set(cols.tolist()) <= set(present.tolist())
        assert kmer_id_from_string("SAC") in cols.tolist()

    def test_restricted_equals_filtered_unrestricted(self, small_store):
        _, cols, _ = build_a_triples(small_store, 3)
        vocab = np.unique(cols)
        full = build_s_triples(vocab, 3, 10, BLOSUM62)
        keep = np.isin(full[1], vocab)
        assert not keep.all()  # the restriction does drop columns
        restricted = build_s_triples(vocab, 3, 10, BLOSUM62,
                                     restrict_to=vocab)
        for got, want in zip(restricted, full):
            assert got.dtype == np.int64
            assert np.array_equal(got, want[keep])

    @pytest.mark.parametrize("restrict", [False, True])
    def test_chunks_equal_one_call(self, small_store, monkeypatch, restrict):
        # chunks of 4 roots (4 * 11 entries): ragged last chunk included
        _, cols, _ = build_a_triples(small_store, 3)
        vocab = np.unique(cols)
        assert len(vocab) % 4
        restrict_to = vocab if restrict else None
        whole = build_s_triples(vocab, 3, 10, BLOSUM62, restrict_to)
        monkeypatch.setattr(overlap, "_S_CHUNK_ENTRIES", 4 * 11)
        chunked = build_s_triples(vocab, 3, 10, BLOSUM62, restrict_to)
        for got, want in zip(chunked, whole):
            assert np.array_equal(got, want)

    def test_no_roots(self):
        for restrict_to in (None, np.array([5])):
            triples = build_s_triples(np.array([], dtype=np.int64), 3, 4,
                                      BLOSUM62, restrict_to)
            assert [(len(a), a.dtype) for a in triples] == [(0, np.int64)] * 3

    def test_distances_match_substitute_search(self):
        kid = kmer_id_from_string("AAC")
        rows, cols, dists = build_s_triples(np.array([kid]), 3, 3, BLOSUM62)
        sac = kmer_id_from_string("SAC")
        sel = cols == sac
        assert dists[sel][0] == 3


class TestExactPairs:
    def test_known_pairs(self, small_store):
        cfg = PastisConfig(k=3, substitutes=0)
        pairs = find_candidate_pairs(small_store, cfg)
        ps = pairs.pair_set()
        assert (0, 1) in ps   # share AVG and DMI
        assert (0, 3) in ps   # near duplicates
        assert (2, 3) not in ps  # WWWWYYYY shares nothing
        assert all(i < j for i, j in ps)

    def test_counts(self, small_store):
        cfg = PastisConfig(k=3, substitutes=0)
        pairs = find_candidate_pairs(small_store, cfg).sort()
        d = {(int(i), int(j)): int(c)
             for i, j, c in zip(pairs.ri, pairs.rj, pairs.counts)}
        # s0=AVGDMIKRAVG, s3=AVGDMIKRAV share all 8 3-mers of s3
        assert d[(0, 3)] == 8

    def test_seed_positions_valid(self, small_store):
        cfg = PastisConfig(k=3, substitutes=0)
        pairs = find_candidate_pairs(small_store, cfg)
        for p in range(pairs.npairs):
            i, j = int(pairs.ri[p]), int(pairs.rj[p])
            for (pi, pj) in pairs.seeds_of(p):
                ki = small_store.encoded(i)[pi:pi + 3]
                kj = small_store.encoded(j)[pj:pj + 3]
                assert (ki == kj).all()  # exact mode: seeds really match

    def test_ck_threshold(self, small_store):
        cfg = PastisConfig(k=3, substitutes=0)
        pairs = find_candidate_pairs(small_store, cfg)
        kept = pairs.apply_ck_threshold(1)
        assert kept.npairs <= pairs.npairs
        assert (kept.counts > 1).all()

    def test_ck_none_is_noop(self, small_store):
        cfg = PastisConfig(k=3, substitutes=0)
        pairs = find_candidate_pairs(small_store, cfg)
        assert pairs.apply_ck_threshold(None) is pairs

    def test_no_pairs_when_nothing_shared(self):
        store = SequenceStore(["AVGDMI", "WWWWWW", "PPPPPP"])
        cfg = PastisConfig(k=3, substitutes=0)
        assert find_candidate_pairs(store, cfg).npairs == 0


class TestSubstitutePairs:
    def test_substitutes_find_more(self):
        # family members with moderate divergence: substitutes raise the
        # number of candidate pairs (the paper's recall mechanism)
        fam = make_family(6, 60, 0.35, 0, indel_rate=0.0)
        store = SequenceStore(fam)
        exact = find_candidate_pairs(store, PastisConfig(k=4, substitutes=0))
        subs = find_candidate_pairs(store, PastisConfig(k=4, substitutes=8))
        assert subs.npairs >= exact.npairs
        assert exact.pair_set() <= subs.pair_set()

    def test_exact_pairs_survive_through_identity(self, small_store):
        cfg0 = PastisConfig(k=3, substitutes=0)
        cfg5 = PastisConfig(k=3, substitutes=5)
        exact = find_candidate_pairs(small_store, cfg0)
        subs = find_candidate_pairs(small_store, cfg5)
        assert exact.pair_set() <= subs.pair_set()

    def test_counts_at_least_exact(self, small_store):
        cfg0 = PastisConfig(k=3, substitutes=0)
        cfg5 = PastisConfig(k=3, substitutes=5)
        e = find_candidate_pairs(small_store, cfg0).sort()
        s = find_candidate_pairs(small_store, cfg5).sort()
        se = {(int(i), int(j)): int(c)
              for i, j, c in zip(e.ri, e.rj, e.counts)}
        ss = {(int(i), int(j)): int(c)
              for i, j, c in zip(s.ri, s.rj, s.counts)}
        for pair, c in se.items():
            assert ss[pair] >= c


def assert_same_pairs(got, ref):
    """Exact equality of ``n`` and all six CandidatePairs arrays."""
    for f in fields(CandidatePairs):
        assert np.array_equal(getattr(got, f.name), getattr(ref, f.name)), (
            f"{f.name} differs"
        )


class TestAgainstSemiringReference:
    @pytest.mark.parametrize("subs", [0, 4])
    def test_family_store(self, subs):
        fam = make_family(5, 50, 0.25, 1, indel_rate=0.01)
        fam += [random_protein(45, 2)]
        store = SequenceStore(fam)
        cfg = PastisConfig(k=4, substitutes=subs)
        assert_same_pairs(
            find_candidate_pairs(store, cfg),
            find_candidate_pairs_semiring(store, cfg),
        )

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        subs=st.sampled_from([0, 3, 8]),
        k=st.sampled_from([3, 4]),
    )
    def test_property_paths_agree(self, seed, subs, k):
        rng = np.random.default_rng(seed)
        # a family, two singletons, and one sequence too short for a k-mer
        seqs = make_family(4, 40, 0.3, rng) + [
            random_protein(35, rng), random_protein(20, rng), "AV",
        ]
        store = SequenceStore(seqs)
        cfg = PastisConfig(k=k, substitutes=subs)
        assert_same_pairs(
            find_candidate_pairs(store, cfg),
            find_candidate_pairs_semiring(store, cfg),
        )


def _random_symmetric_b(rng, n):
    """Entries ``(row, col, CommonKmers)`` of a random ``n x n`` ``B`` with
    a symmetric pattern (some diagonal entries included) and symmetric
    counts; the two directions of a pair carry *independent* seeds, so a
    wrong orientation cannot cancel out."""
    def value(count):
        seeds = sorted(
            {(int(rng.integers(60)), int(rng.integers(60)),
              int(rng.integers(4)))
             for _ in range(int(rng.integers(1, MAX_SEEDS + 1)))},
            key=lambda s: (s[2], s[0], s[1]),
        )
        return CommonKmers(count, tuple(seeds))

    entries = []
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.6:
                count = int(rng.integers(1, 6))
                entries.append((i, j, value(count)))
                if i != j:
                    entries.append((j, i, value(count)))
    order = rng.permutation(len(entries))
    return [entries[t] for t in order]


def _reference_block_pairs(entries, rs, cs, above_diagonal):
    """The parent commit's distributed step 7, kept as the oracle: Fig.-11
    triangle selection plus the per-pair seed-orientation loop."""
    out = []
    for r, c, ck in entries:
        if r < c or (r == c and above_diagonal):
            gi, gj = rs + r, cs + c
            if gi == gj:
                continue  # global self-pair
            lo, hi = (gi, gj) if gi < gj else (gj, gi)
            seeds = [(pi, pj) if gi == lo else (pj, pi)
                     for pi, pj, _d in ck.seeds]
            out.append((lo, hi, ck.count, seeds))
    return out


class TestPairsFromBlock:
    """``pairs_from_block`` is the one ``B`` -> CandidatePairs step of both
    pipelines: over any q x q blocking it must cover exactly the pairs of
    the whole-matrix call, oriented ``(lo, hi)``, with the seeds of the
    parent's orientation loop — on records and on objects alike."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 9),
           as_records=st.booleans())
    def test_blocks_cover_whole_matrix_once(self, seed, n, as_records):
        entries = _random_symmetric_b(np.random.default_rng(seed), n)

        def block(rlo, rhi, clo, chi):
            local = [(r - rlo, c - clo, v) for r, c, v in entries
                     if rlo <= r < rhi and clo <= c < chi]
            vals = np.empty(len(local), dtype=object)
            vals[:] = [v for _, _, v in local]
            coo = COOMatrix(
                rhi - rlo, chi - clo,
                np.array([r for r, _, _ in local], dtype=np.int64),
                np.array([c for _, c, _ in local], dtype=np.int64),
                common_kmers_to_records(vals) if as_records else vals,
            )
            return local, coo

        def key_counts(pairs):
            return sorted(zip(pairs.ri.tolist(), pairs.rj.tolist(),
                              pairs.counts.tolist()))

        whole = pairs_from_block(n, block(0, n, 0, n)[1])
        expected = {(r, c) for r, c, _ in entries if r < c}
        assert set(zip(whole.ri.tolist(), whole.rj.tolist())) == expected

        for q in (1, 2, 3):
            ranges = block_ranges(n, q)
            union = []
            for pi, (rlo, rhi) in enumerate(ranges):
                for pj, (clo, chi) in enumerate(ranges):
                    local, coo = block(rlo, rhi, clo, chi)
                    got = pairs_from_block(
                        n, coo, rlo, clo, owns_diagonal=pi < pj
                    )
                    assert got.n == n
                    assert (got.ri < got.rj).all()
                    # entry order kept, seeds by the parent's swap rule
                    assert [
                        (int(got.ri[p]), int(got.rj[p]),
                         int(got.counts[p]), got.seeds_of(p))
                        for p in range(got.npairs)
                    ] == _reference_block_pairs(local, rlo, clo, pi < pj)
                    union.extend(key_counts(got))
            # every off-diagonal pair exactly once, with the same counts
            assert sorted(union) == key_counts(whole)
