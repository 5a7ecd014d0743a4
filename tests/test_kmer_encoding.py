"""Tests for base-24 k-mer ids and extraction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bio.alphabet import encode_sequence
from repro.bio.sequences import SequenceStore
from repro.kmers.encoding import (
    MAX_K,
    decode_kmer,
    encode_kmer,
    kmer_id_from_string,
    kmer_space_size,
    kmer_string_from_id,
)
from repro.kmers.extraction import sequence_kmers, store_kmers


def unique_sequence_kmers(encoded, k):
    """Per-sequence definition of one row of ``A``: the distinct k-mer ids
    of a sequence, ascending, with the first start position of each — the
    oracle :func:`store_kmers` is checked against."""
    ids, pos = sequence_kmers(encoded, k)
    if ids.size == 0:
        return ids, pos
    uniq, first = np.unique(ids, return_index=True)
    return uniq, pos[first]


def store_kmers_oracle(store, k):
    rows, cols, vals = [], [], []
    for i in range(len(store)):
        ids, pos = unique_sequence_kmers(store.encoded(i), k)
        rows.append(np.full(len(ids), i, dtype=np.int64))
        cols.append(ids)
        vals.append(pos)
    return tuple(np.concatenate(x) if x else np.empty(0, np.int64)
                 for x in (rows, cols, vals))


def assert_store_kmers_match(store, k):
    got = store_kmers(store, k)
    want = store_kmers_oracle(store, k)
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert g.tolist() == w.tolist()


#: sequences over a three-letter alphabet, so k-mers repeat within and
#: across sequences; lengths straddle k (shorter, exactly k, longer)
_sequences = st.lists(
    st.text(alphabet="AVW", min_size=1, max_size=14), min_size=1, max_size=8
)


class TestEncoding:
    def test_paper_example_rcq(self):
        # Section V-B: RCQ -> 1*24^2 + 4*24 + 5 = 677
        assert kmer_id_from_string("RCQ") == 677

    def test_first_and_last(self):
        assert kmer_id_from_string("AAA") == 0
        assert kmer_id_from_string("***") == 24**3 - 1

    def test_space_size(self):
        assert kmer_space_size(6) == 24**6

    def test_space_size_bounds(self):
        with pytest.raises(ValueError):
            kmer_space_size(0)
        with pytest.raises(ValueError):
            kmer_space_size(MAX_K + 1)

    def test_decode_basic(self):
        assert kmer_string_from_id(677, 3) == "RCQ"

    def test_decode_out_of_range(self):
        with pytest.raises(ValueError):
            decode_kmer(24**3, 3)
        with pytest.raises(ValueError):
            decode_kmer(-1, 3)

    def test_encode_bad_index(self):
        with pytest.raises(ValueError):
            encode_kmer(np.array([0, 24, 1]))

    @given(
        st.lists(st.integers(0, 23), min_size=1, max_size=8).map(np.array)
    )
    def test_roundtrip(self, indices):
        kid = encode_kmer(indices)
        assert (decode_kmer(kid, len(indices)) == indices).all()

    @given(st.integers(1, 6))
    def test_bijection_boundaries(self, k):
        hi = kmer_space_size(k) - 1
        assert encode_kmer(decode_kmer(0, k)) == 0
        assert encode_kmer(decode_kmer(hi, k)) == hi


class TestExtraction:
    def test_count(self):
        enc = encode_sequence("AVGDMIKR")
        ids, pos = sequence_kmers(enc, 3)
        assert len(ids) == 6  # L - k + 1
        assert pos.tolist() == list(range(6))

    def test_ids_correct(self):
        enc = encode_sequence("AVGD")
        ids, _ = sequence_kmers(enc, 3)
        assert ids[0] == kmer_id_from_string("AVG")
        assert ids[1] == kmer_id_from_string("VGD")

    def test_short_sequence(self):
        enc = encode_sequence("AV")
        ids, pos = sequence_kmers(enc, 3)
        assert len(ids) == 0
        assert len(pos) == 0

    def test_exact_length(self):
        enc = encode_sequence("AVG")
        ids, pos = sequence_kmers(enc, 3)
        assert len(ids) == 1 and pos[0] == 0

    def test_unique_keeps_first_position(self):
        # AVG appears at 0 and 5 in AVGAVAVG? craft: AVGXAVG
        enc = encode_sequence("AVGWAVG")
        ids, pos = unique_sequence_kmers(enc, 3)
        avg = kmer_id_from_string("AVG")
        where = np.nonzero(ids == avg)[0]
        assert len(where) == 1
        assert pos[where[0]] == 0

    def test_unique_sorted_ids(self):
        enc = encode_sequence("WKRAVGDMI")
        ids, _ = unique_sequence_kmers(enc, 3)
        assert (np.diff(ids) > 0).all()

    def test_store_kmers(self, small_store):
        rows, cols, vals = store_kmers(small_store, 3)
        assert len(rows) == len(cols) == len(vals)
        # row 2 is WWWWYYYY: kmers WWW(x2, deduped), WWY, WYY, YYY...
        r2 = rows == 2
        assert r2.sum() == len(np.unique(cols[r2]))

    def test_store_kmers_positions_valid(self, small_store):
        rows, cols, vals = store_kmers(small_store, 3)
        for r, v in zip(rows, vals):
            assert 0 <= v <= small_store.length(int(r)) - 3

    def test_store_kmers_empty_store(self):
        rows, cols, vals = store_kmers(SequenceStore(["AV"]), 3)
        assert len(rows) == 0
        assert_store_kmers_match(SequenceStore(["AV"]), 3)
        assert_store_kmers_match(SequenceStore([]), 3)

    @given(_sequences, st.integers(1, 5))
    def test_store_kmers_matches_per_sequence_definition(self, seqs, k):
        assert_store_kmers_match(SequenceStore(seqs), k)

    def test_store_kmers_beyond_fused_key_range(self):
        # len(store) * 24**k exceeds int64: a fused row * 24**k + id key
        # would overflow; the grouping must not care
        k = MAX_K
        seqs = ["AVWKRD*ZBXAVWKRD*ZBXAVWKR", "*" * k, "Y" * (k + 3)] * 5
        store = SequenceStore(seqs)
        assert len(store) * kmer_space_size(k) > np.iinfo(np.int64).max
        assert_store_kmers_match(store, k)
        rows, cols, _ = store_kmers(store, k)
        assert cols.max() == kmer_space_size(k) - 1  # the all-'*' k-mer

    def test_store_kmers_sequences_shorter_than_k(self):
        store = SequenceStore(["AV", "AVGD", "A", "AVG", "AV"])
        rows, cols, vals = store_kmers(store, 3)
        assert rows.tolist() == [1, 1, 3]
        assert vals.tolist() == [0, 1, 0]
        assert_store_kmers_match(store, 3)
