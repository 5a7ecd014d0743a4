"""Tests for the m-nearest substitute k-mer search (Algorithms 1-3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio.alphabet import ALPHABET_SIZE, decode_sequence, encode_sequence
from repro.bio.scoring import BLOSUM62, PAM250
from repro.kmers import substitutes
from repro.kmers.encoding import encode_kmer, kmer_space_size
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

    @pytest.mark.parametrize("root, candidate", [
        ([-1, 0], [0, 0]),  # would read C[-1] = the '*' row
        ([0, 0], [0, 24]),  # would raise a bare IndexError
    ])
    def test_bad_index_names_the_range(self, root, candidate):
        with pytest.raises(ValueError, match="0..23"):
            kmer_distance(root, candidate)


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

    def test_pam250_k12_two_key_steps(self):
        # PAM250 costs reach 25: the packed key already overflows at k=12
        scoring = PAM250
        max_cost = int(np.abs(scoring.expense_matrix().costs).max())
        assert (12 * max_cost + 1) * 24**12 >= 2**63
        root = np.random.default_rng(7).integers(0, 24, 12)
        subs = find_substitute_kmers(root, 40, scoring)
        assert len(subs) == 40
        for s in subs:
            assert kmer_distance(root, s.indices, scoring) == s.distance
        keys = [(s.distance, s.kmer_id) for s in subs]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        ids, dist = lattice_substitutes([encode_kmer(root)], 12, 40, scoring)
        assert keys == list(zip(dist[0].tolist(), ids[0].tolist()))

    def test_two_key_cut_equals_packed_cut(self, monkeypatch):
        # the two-key steps from the first step on (limit 1) and from the
        # third on (24^4), against the all-packed fold
        roots = np.random.default_rng(2).integers(0, 24**5, 40)
        cases = [(s, m) for s in (BLOSUM62, PAM250) for m in (0, 1, 25, 300)]
        packed = [substitute_kmers_batch(roots, 5, m, s) for s, m in cases]
        for limit in (1, 24**4):
            monkeypatch.setattr(substitutes, "_KEY_LIMIT", limit)
            for (scoring, m), expected in zip(cases, packed):
                got = substitute_kmers_batch(roots, 5, m, scoring)
                for a, b in zip(got, expected):
                    assert np.array_equal(a, b)


def _lattice(k: int, m: int) -> np.ndarray:
    """Every option-index vector ``j`` (one row each, shape ``(L, k)``) with
    ``prod(j + 1) <= m + 1`` and ``j < 24`` — a superset of the ``m + 1``
    nearest candidates of any root (see :func:`lattice_substitutes`)."""
    vecs = np.zeros((1, 0), dtype=np.intp)
    prod = np.ones(1, dtype=np.int64)
    for _ in range(k):
        fanout = np.minimum(ALPHABET_SIZE, (m + 1) // prod)
        parent = np.repeat(np.arange(len(prod)), fanout)
        j = np.arange(len(parent)) - np.repeat(
            np.cumsum(fanout) - fanout, fanout
        )
        vecs = np.column_stack((vecs[parent], j))
        prod = prod[parent] * (j + 1)
    return vecs


def _nearest(
    dist: np.ndarray, ids: np.ndarray, top: int, space: int, packable: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The ``top`` first entries of every column of the ``(L, P)`` arrays
    ``(dist, ids)`` in ``(distance, id)`` order, as ``(dist, ids)`` of shape
    ``(P, top)``.

    The fused key ``distance * 24^k + id`` allows a partition instead of a
    full sort, but overflows int64 for large ``k`` (``24^13`` is within a
    factor 11 of ``2^63``): ``packable`` says whether it fits."""
    if packable:
        key = np.ascontiguousarray((dist * space + ids).T)
        key.partition(top - 1, axis=1)
        key = np.sort(key[:, :top], axis=1)
        return key // space, key % space
    dist, ids = dist.T, ids.T
    order = np.lexsort((ids, dist), axis=1)[:, :top]
    return (np.take_along_axis(dist, order, axis=1),
            np.take_along_axis(ids, order, axis=1))


def lattice_substitutes(kmer_ids, k, m, scoring=BLOSUM62):
    """The lattice search, an oracle where brute force cannot enumerate:
    every root scores the whole lattice ``{j : prod(j_i + 1) <=
    m + 1}`` of option-index vectors (it holds the ``m + 1`` nearest, by
    the pair bound's argument over k lists at once), one ``(L, P)`` gather
    per position, then one cut.  Same contract as
    :func:`substitute_kmers_batch`, in one chunk."""
    space = kmer_space_size(k)
    roots = np.asarray(kmer_ids, dtype=np.int64).ravel()
    E = scoring.expense_matrix()
    costs_t = E.costs.T.astype(np.int64)
    bases_t = E.bases.T.astype(np.int64)
    place = ALPHABET_SIZE ** np.arange(k - 1, -1, -1, dtype=np.int64)
    packable = (k * int(np.abs(costs_t).max()) + 1) * space < 2**63
    lattice = np.ascontiguousarray(_lattice(k, m).T)  # (k, L)
    top = min(m + 1, space)
    root = roots[:, None]
    digits = (root // place) % ALPHABET_SIZE  # (P, k)
    dist = np.zeros((lattice.shape[1], len(root)), dtype=np.int64)
    ids = np.zeros_like(dist)
    for i in range(k):
        dist += costs_t[:, digits[:, i]].take(lattice[i], axis=0)
        ids += (bases_t[:, digits[:, i]] * place[i]).take(lattice[i], axis=0)
    dist, ids = _nearest(dist, ids, top, space, packable)
    drop = ids == root
    drop[:, -1] |= ~drop.any(axis=1)
    return (ids[~drop].reshape(len(root), top - 1),
            dist[~drop].reshape(len(root), top - 1))


def _roots_over_the_alphabet(k, n, seed):
    """``n`` random roots over all 24 letters, plus roots made of the
    ambiguity codes ``BZX*`` alone, where substitutes can be negative."""
    rng = np.random.default_rng(seed)
    letters = np.vstack((rng.integers(0, 24, (n, k)),
                         rng.integers(20, 24, (4, k))))
    return letters @ (ALPHABET_SIZE ** np.arange(k - 1, -1, -1))


class TestAgainstLattice:
    """The fold returns exactly what the earlier lattice search returns, at
    the k where brute force cannot enumerate ``24^k`` candidates."""

    @pytest.mark.parametrize("scoring", [BLOSUM62, PAM250],
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("k", range(5, 13))
    def test_array_equal(self, k, scoring):
        roots = _roots_over_the_alphabet(k, 12, seed=k)
        for m in (0, 1, 10, 23, 24, 25, 100):
            got = substitute_kmers_batch(roots, k, m, scoring)
            expected = lattice_substitutes(roots, k, m, scoring)
            for a, b in zip(got, expected):
                assert np.array_equal(a, b), (k, scoring.name, m)

    def test_array_equal_m1000(self):
        roots = _roots_over_the_alphabet(6, 4, seed=0)
        got = substitute_kmers_batch(roots, 6, 1000)
        expected = lattice_substitutes(roots, 6, 1000)
        for a, b in zip(got, expected):
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
            chunk * len(substitutes._rank_pairs(self.M + 1)[0]),
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
