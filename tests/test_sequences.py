"""Tests for SequenceStore and DistributedIndex."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bio.fasta import FastaError, FastaRecord
from repro.bio.sequences import DistributedIndex, SequenceStore


class TestSequenceStore:
    def test_basic(self):
        s = SequenceStore(["AVG", "KRAVGP"], ids=["a", "b"])
        assert len(s) == 2
        assert s.total_residues == 9
        assert s.length(0) == 3
        assert s.length(1) == 6
        assert s.sequence(0) == "AVG"
        assert s.sequence(1) == "KRAVGP"
        assert s.ids == ["a", "b"]

    def test_default_ids(self):
        s = SequenceStore(["AVG"])
        assert s.ids == ["seq0"]

    def test_lengths_array(self):
        s = SequenceStore(["AVG", "KR", "WWWW"])
        assert s.lengths().tolist() == [3, 2, 4]

    def test_encoded_is_view(self):
        s = SequenceStore(["AVG", "KR"])
        enc = s.encoded(1)
        assert enc.base is s.buffer or enc.base.base is s.buffer

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            SequenceStore(["AVG", ""])

    def test_empty_record_names_the_record(self):
        records = [FastaRecord(i, i, seq)
                   for i, seq in (("a", "MKVL"), ("b", ""), ("c", "MKVL"))]
        with pytest.raises(FastaError,
                           match=r"^record 2 \('b'\): empty sequence$"):
            SequenceStore.from_records(records)

    def test_id_length_mismatch(self):
        with pytest.raises(ValueError):
            SequenceStore(["AVG"], ids=["a", "b"])

    def test_iter(self):
        s = SequenceStore(["AVG", "KR"])
        parts = list(s)
        assert len(parts) == 2
        assert len(parts[0]) == 3

    def test_subset(self):
        s = SequenceStore(["AVG", "KR", "WWWW"], ids=["a", "b", "c"])
        sub = s.subset([2, 0])
        assert sub.ids == ["c", "a"]
        assert sub.sequence(0) == "WWWW"
        assert sub.sequence(1) == "AVG"

    def test_from_records(self):
        recs = [FastaRecord("x", "x d", "AVG"), FastaRecord("y", "y", "KR")]
        s = SequenceStore.from_records(recs)
        assert s.ids == ["x", "y"]
        assert s.sequence(1) == "KR"

    def test_from_encoded_roundtrip(self):
        s1 = SequenceStore(["AVG", "KR"])
        s2 = SequenceStore.from_encoded(s1.buffer, s1.offsets, s1.ids)
        assert s2.sequence(0) == "AVG"
        assert s2.sequence(1) == "KR"

    def test_from_encoded_bad_offsets(self):
        s1 = SequenceStore(["AVG"])
        with pytest.raises(ValueError):
            SequenceStore.from_encoded(s1.buffer, s1.offsets, ["a", "b"])


class TestDistributedIndex:
    def test_basic(self):
        idx = DistributedIndex.from_counts([3, 0, 2, 5])
        assert idx.total == 10
        assert idx.nranks == 4
        assert idx.rank_range(0) == (0, 3)
        assert idx.rank_range(1) == (3, 3)
        assert idx.rank_range(3) == (5, 10)

    def test_owner(self):
        idx = DistributedIndex.from_counts([3, 0, 2, 5])
        assert idx.owner(0) == 0
        assert idx.owner(2) == 0
        assert idx.owner(3) == 2  # rank 1 owns nothing
        assert idx.owner(4) == 2
        assert idx.owner(9) == 3

    def test_owner_out_of_range(self):
        idx = DistributedIndex.from_counts([2, 2])
        with pytest.raises(IndexError):
            idx.owner(4)
        with pytest.raises(IndexError):
            idx.owner(-1)

    def test_owners_vectorised(self):
        idx = DistributedIndex.from_counts([3, 0, 2, 5])
        gids = np.array([0, 3, 4, 9])
        assert idx.owners(gids).tolist() == [0, 2, 2, 3]

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            DistributedIndex.from_counts([3, -1])

    def test_local_global_roundtrip(self):
        idx = DistributedIndex.from_counts([3, 0, 2, 5])
        for g in range(idx.total):
            r, l = idx.to_local(g)
            assert idx.to_global(r, l) == g

    def test_to_global_out_of_range(self):
        idx = DistributedIndex.from_counts([3, 2])
        with pytest.raises(IndexError):
            idx.to_global(0, 3)

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=10))
    def test_property_owner_consistent(self, counts):
        idx = DistributedIndex.from_counts(counts)
        for g in range(idx.total):
            r = idx.owner(g)
            lo, hi = idx.rank_range(r)
            assert lo <= g < hi
