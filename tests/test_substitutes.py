"""Tests for the m-nearest substitute k-mer search (Algorithms 1-3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio.alphabet import BASE_TO_INDEX, decode_sequence, encode_sequence
from repro.bio.scoring import BLOSUM62, PAM250
from repro.kmers import substitutes
from repro.kmers.encoding import encode_kmer
from repro.kmers.substitutes import (
    brute_force_substitutes,
    find_substitute_kmers,
    kmer_distance,
    substitute_kmer_ids,
    substitute_kmers_batch,
)


def _dist_of(results):
    return [s.distance for s in results]


class TestKmerDistance:
    def test_identity_zero(self):
        r = encode_sequence("AVGDMI")
        assert kmer_distance(r, r) == 0

    def test_paper_sac(self):
        # AAC -> SAC: expense 3 (match 17 -> 14)
        assert kmer_distance(encode_sequence("AAC"),
                             encode_sequence("SAC")) == 3

    def test_paper_ssc(self):
        assert kmer_distance(encode_sequence("AAC"),
                             encode_sequence("SSC")) == 6

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kmer_distance(encode_sequence("AA"), encode_sequence("AAC"))


class TestPaperExamples:
    def test_aac_nearest_are_single_A_substitutions(self):
        root = encode_sequence("AAC")
        subs = find_substitute_kmers(root, 2)
        # SAC and ASC, both at distance 3
        got = {decode_sequence(np.array(s.indices)) for s in subs}
        assert got == {"SAC", "ASC"}
        assert all(s.distance == 3 for s in subs)

    def test_multi_substitution_beats_expensive_single(self):
        # paper: {T|C|G}{T|C|G}C (distance 8) is closer to AAC than AA*
        # with a substituted C (distance >= 10)
        root = encode_sequence("AAC")
        ttc = encode_sequence("TTC")
        aam = encode_sequence("AAM")
        assert kmer_distance(root, ttc) == 8
        assert kmer_distance(root, aam) == 10
        subs = find_substitute_kmers(root, 400)
        names = [decode_sequence(np.array(s.indices)) for s in subs]
        assert "TTC" in names
        assert "AAM" in names
        assert names.index("TTC") < names.index("AAM")

    def test_root_never_returned(self):
        root = encode_sequence("AVG")
        subs = find_substitute_kmers(root, 100)
        assert all(tuple(root) != s.indices for s in subs)


class TestSearch:
    def test_m_zero(self):
        assert find_substitute_kmers(encode_sequence("AVG"), 0) == []

    def test_m_negative(self):
        with pytest.raises(ValueError):
            find_substitute_kmers(encode_sequence("AVG"), -1)

    def test_empty_kmer(self):
        assert find_substitute_kmers(np.array([], dtype=np.int64), 5) == []

    def test_bad_index(self):
        with pytest.raises(ValueError):
            find_substitute_kmers(np.array([0, 99]), 3)

    def test_distances_non_decreasing(self):
        subs = find_substitute_kmers(encode_sequence("AVGD"), 50)
        d = _dist_of(subs)
        assert d == sorted(d)

    def test_exactly_m_results(self):
        subs = find_substitute_kmers(encode_sequence("AVG"), 25)
        assert len(subs) == 25

    def test_all_distinct(self):
        subs = find_substitute_kmers(encode_sequence("AVG"), 60)
        assert len({s.indices for s in subs}) == len(subs)

    def test_k1_exhausts_alphabet(self):
        subs = find_substitute_kmers(np.array([0]), 100)
        assert len(subs) == 23  # |Sigma| - 1 candidates exist

    def test_ambiguity_code_negative_distances(self):
        # X scores -1 vs itself, 0 vs A/S/T: substitutes are *closer* than
        # the root itself under the expense definition
        subs = find_substitute_kmers(encode_sequence("XXX"), 5)
        assert subs[0].distance < 0

    def test_substitute_kmer_ids(self):
        from repro.kmers.encoding import kmer_id_from_string

        pairs = substitute_kmer_ids(kmer_id_from_string("AAC"), 3, 2)
        ids = {p[0] for p in pairs}
        assert kmer_id_from_string("SAC") in ids
        assert kmer_id_from_string("ASC") in ids
        assert all(d == 3 for _, d in pairs)


def _id_dist(results):
    return [(s.kmer_id, s.distance) for s in results]


@st.composite
def _root_and_m(draw):
    """A root over the whole alphabet (ambiguity rows included) with an
    ``m`` up to 60 — or, where the oracle's full enumeration stays cheap,
    one that exhausts the ``24^k - 1`` candidates."""
    indices = draw(st.lists(st.integers(0, 23), min_size=1, max_size=4))
    m = st.integers(1, 60)
    if len(indices) <= 2:
        exhaust = 24 ** len(indices) - 1
        m = st.one_of(m, st.integers(exhaust, exhaust + 3))
    return np.array(indices, dtype=np.int64), draw(m)


class TestAgainstBruteForce:
    """The search returns exactly what the oracle enumerates: the same
    substitutes, the same distances, in the same ``(distance, id)``
    order."""

    @pytest.mark.parametrize("kmer", ["AAC", "AVG", "WCM", "RR", "KE"])
    @pytest.mark.parametrize("m", [1, 5, 20])
    def test_known_kmers(self, kmer, m):
        root = encode_sequence(kmer)
        assert find_substitute_kmers(root, m) == brute_force_substitutes(
            root, m
        )

    @pytest.mark.parametrize("kmer", ["XXX", "BZ", "X*A", "*"])
    @pytest.mark.parametrize("m", [5, 30])
    def test_ambiguity_rows(self, kmer, m):
        # negative expenses: the root is not at option index 0, and can
        # rank below every one of the m nearest
        root = encode_sequence(kmer)
        assert find_substitute_kmers(root, m) == brute_force_substitutes(
            root, m
        )

    @settings(max_examples=60, deadline=None)
    @given(root_m=_root_and_m(), scoring=st.sampled_from([BLOSUM62, PAM250]))
    def test_property_ordered_equality(self, root_m, scoring):
        root, m = root_m
        brute = brute_force_substitutes(root, m, scoring)
        assert find_substitute_kmers(root, m, scoring=scoring) == brute
        assert substitute_kmer_ids(
            encode_kmer(root), len(root), m, scoring=scoring
        ) == _id_dist(brute)

    @settings(max_examples=20, deadline=None)
    @given(
        indices=st.lists(st.integers(0, 23), min_size=2, max_size=3),
        m=st.integers(1, 25),
    )
    def test_property_every_result_verifies(self, indices, m):
        root = np.array(indices, dtype=np.int64)
        for s in find_substitute_kmers(root, m):
            assert kmer_distance(root, np.array(s.indices)) == s.distance

    def test_k13_without_an_oracle(self):
        # 24^13 k-mers: no enumeration, and distance * 24^k no longer fits
        # int64, so this is the two-key cut
        root = np.random.default_rng(5).integers(0, 24, 13)
        subs = find_substitute_kmers(root, 25)
        assert len(subs) == 25
        assert tuple(root) not in {s.indices for s in subs}
        for s in subs:
            assert kmer_distance(root, np.array(s.indices)) == s.distance
        keys = [(s.distance, s.kmer_id) for s in subs]
        assert all(a < b for a, b in zip(keys, keys[1:]))  # sorted, distinct
        # nothing cheaper was missed among the single substitutions
        worst = subs[-1].distance
        cheaper = {
            (*root[:i], b, *root[i + 1:])
            for i in range(13) for b in range(24)
            if b != root[i] and kmer_distance(
                root, np.array((*root[:i], b, *root[i + 1:]))) < worst
        }
        assert cheaper <= {s.indices for s in subs}

    def test_two_key_cut_equals_packed_cut(self):
        rng = np.random.default_rng(2)
        dist = rng.integers(-6, 12, (300, 9))
        ids = rng.permuted(
            np.tile(np.arange(300), (9, 1)), axis=1
        ).T  # distinct per column
        for top in (1, 26, 300):
            packed = substitutes._nearest(dist, ids, top, 24**3, True)
            two_key = substitutes._nearest(dist, ids, top, 24**3, False)
            for a, b in zip(packed, two_key):
                assert np.array_equal(a, b)


class TestBatch:
    """``substitute_kmers_batch`` is the concatenation of its single-root
    calls, whatever the order of the roots and wherever the chunk
    boundaries fall."""

    K, M = 3, 7

    def _singles(self, roots):
        return [substitute_kmer_ids(int(r), self.K, self.M) for r in roots]

    def _rows(self, roots):
        ids, dist = substitute_kmers_batch(roots, self.K, self.M)
        assert ids.dtype == dist.dtype == np.int64
        return [list(zip(i, d)) for i, d in zip(ids.tolist(), dist.tolist())]

    def test_equals_singles_in_any_order(self):
        rng = np.random.default_rng(0)
        roots = rng.integers(0, 24**self.K, 40)  # duplicates allowed
        expected = self._singles(roots)
        assert self._rows(roots) == expected
        perm = rng.permutation(len(roots))
        assert self._rows(roots[perm]) == [expected[i] for i in perm]

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_chunk_boundaries(self, monkeypatch, delta):
        chunk = 8
        monkeypatch.setattr(
            substitutes, "_CHUNK_CELLS",
            chunk * len(substitutes._lattice(self.K, self.M)),
        )
        roots = np.random.default_rng(1).integers(
            0, 24**self.K, 2 * chunk + delta
        )
        assert self._rows(roots) == self._singles(roots)

    def test_shapes_at_the_edges(self):
        ids, dist = substitute_kmers_batch([], 3, 5)
        assert ids.shape == dist.shape == (0, 5)
        ids, dist = substitute_kmers_batch([7, 8], 3, 0)
        assert ids.shape == dist.shape == (2, 0)
        # tiny k: only 24^k - 1 candidates exist
        ids, _ = substitute_kmers_batch([0, 5], 1, 100)
        assert ids.shape == (2, 23)
        assert sorted(ids[1].tolist()) == [b for b in range(24) if b != 5]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            substitute_kmers_batch([1], 3, -1)
        with pytest.raises(ValueError):
            substitute_kmers_batch([24**3], 3, 5)
        with pytest.raises(ValueError):
            substitute_kmers_batch([-1], 3, 5)
        for k in (0, 14):
            with pytest.raises(ValueError):
                substitute_kmers_batch([0], k, 5)
