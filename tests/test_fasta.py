"""Tests for FASTA I/O and the byte-balanced parallel chunk reader."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio.fasta import (
    FastaError,
    FastaRecord,
    chunk_boundaries,
    parse_fasta_text,
    read_fasta,
    read_fasta_chunk,
    write_fasta,
)
from repro.bio.sequences import MAX_SEQUENCE_LENGTH, SequenceStore

SIMPLE = """>seq1 first protein
AVGDMI
>seq2
KRAVG
PDMIW
>seq3 third
WWWW
"""


class TestParsing:
    def test_parse_basic(self):
        recs = parse_fasta_text(SIMPLE)
        assert [r.id for r in recs] == ["seq1", "seq2", "seq3"]
        assert recs[0].sequence == "AVGDMI"
        assert recs[1].sequence == "KRAVGPDMIW"  # multi-line joined
        assert recs[0].description == "seq1 first protein"

    def test_parse_lowercase_uppercased(self):
        recs = parse_fasta_text(">x\navg\n")
        assert recs[0].sequence == "AVG"

    def test_parse_no_header_raises(self):
        with pytest.raises(ValueError):
            parse_fasta_text("AVGDMI\n")

    def test_parse_empty(self):
        assert parse_fasta_text("") == []

    def test_record_len(self):
        assert len(FastaRecord("a", "a", "AVG")) == 3

    def test_roundtrip_file(self, tmp_path):
        path = tmp_path / "t.fasta"
        n = write_fasta(path, [("a desc", "AVGDMI"), ("b", "KR")])
        assert n == 2
        recs = read_fasta(path)
        assert recs[0].id == "a"
        assert recs[0].description == "a desc"
        assert recs[0].sequence == "AVGDMI"
        assert recs[1].sequence == "KR"

    def test_write_line_width(self, tmp_path):
        path = tmp_path / "t.fasta"
        write_fasta(path, [("a", "A" * 130)], line_width=60)
        lines = path.read_text().splitlines()
        assert lines[1] == "A" * 60
        assert lines[3] == "A" * 10


class TestChunking:
    def test_boundaries_cover_everything(self):
        bounds = chunk_boundaries(100, 7)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 100
        for (s1, e1), (s2, e2) in zip(bounds, bounds[1:]):
            assert e1 == s2

    def test_boundaries_balanced(self):
        bounds = chunk_boundaries(100, 7)
        sizes = [e - s for s, e in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_boundaries_invalid(self):
        with pytest.raises(ValueError):
            chunk_boundaries(10, 0)

    def test_chunks_partition_records(self):
        data = SIMPLE.encode()
        for nchunks in (1, 2, 3, 5, 10):
            chunks = [
                read_fasta_chunk(data, s, e)
                for s, e in chunk_boundaries(len(data), nchunks)
            ]
            merged = [r for c in chunks for r in c]
            assert [r.id for r in merged] == ["seq1", "seq2", "seq3"]
            assert [r.sequence for r in merged] == [
                "AVGDMI", "KRAVGPDMIW", "WWWW"
            ]

    def test_small_overlap_still_completes_records(self):
        data = (">a\n" + "A" * 500 + "\n>b\nKR\n").encode()
        chunks = [
            read_fasta_chunk(data, s, e, overlap=16)
            for s, e in chunk_boundaries(len(data), 4)
        ]
        merged = [r for c in chunks for r in c]
        assert [r.id for r in merged] == ["a", "b"]
        assert merged[0].sequence == "A" * 500

    def test_chunk_out_of_range(self):
        data = SIMPLE.encode()
        assert read_fasta_chunk(data, len(data) + 5, len(data) + 10) == []

    def test_parallel_file(self, tmp_path):
        path = tmp_path / "t.fasta"
        write_fasta(path, [(f"s{i}", "AVG" * (i + 1)) for i in range(17)])
        serial = read_fasta(path)
        data = path.read_bytes()
        for n in (1, 3, 4, 9):
            chunks = [
                read_fasta_chunk(data, s, e)
                for s, e in chunk_boundaries(len(data), n)
            ]
            assert len(chunks) == n
            merged = [r for c in chunks for r in c]
            assert [r.id for r in merged] == [r.id for r in serial]
            assert [r.sequence for r in merged] == [
                r.sequence for r in serial
            ]

    @settings(max_examples=30, deadline=None)
    @given(
        seqs=st.lists(
            st.text(alphabet="ARNDCQEG", min_size=1, max_size=80),
            min_size=1,
            max_size=20,
        ),
        nchunks=st.integers(1, 12),
    )
    def test_property_chunks_equal_serial(self, seqs, nchunks):
        text = "".join(f">s{i}\n{s}\n" for i, s in enumerate(seqs))
        data = text.encode()
        serial = parse_fasta_text(text)
        chunks = [
            read_fasta_chunk(data, s, e, overlap=8)
            for s, e in chunk_boundaries(len(data), nchunks)
        ]
        merged = [r for c in chunks for r in c]
        assert [(r.id, r.sequence) for r in merged] == [
            (r.id, r.sequence) for r in serial
        ]


class TestSequenceLengthLimit:
    """A sequence must be shorter than the CommonKmers seed pack's
    distance bound: every way a store is built refuses a longer one with a
    :class:`FastaError` naming the record, so no rank ever meets a
    position the pack cannot hold."""

    def test_limit_is_the_seed_pack_bound(self):
        from repro.core.semirings import CK_DIST_LIMIT

        assert MAX_SEQUENCE_LENGTH == int(CK_DIST_LIMIT)

    def test_hand_built_store(self):
        SequenceStore(["A" * (MAX_SEQUENCE_LENGTH - 1)])  # the longest
        with pytest.raises(FastaError, match=(
            rf"record 2 \('giant'\): length {MAX_SEQUENCE_LENGTH} "
        )):
            SequenceStore(["AVG", "K" * MAX_SEQUENCE_LENGTH],
                          ids=["ok", "giant"])

    def test_fasta_file_and_chunked_parse(self, tmp_path):
        path = tmp_path / "giant.fasta"
        write_fasta(path, [("ok", "AVGDMK"),
                           ("giant", "W" * (MAX_SEQUENCE_LENGTH + 5))])
        with pytest.raises(FastaError, match=r"record 2 \('giant'\)"):
            SequenceStore.from_records(read_fasta(path))
        data = path.read_bytes()
        failed = 0
        for start, end in chunk_boundaries(len(data), 4):
            records = read_fasta_chunk(data, start, end)
            if "giant" in [r.id for r in records]:
                with pytest.raises(FastaError, match="'giant'"):
                    SequenceStore.from_records(records)
                failed += 1
        assert failed == 1
