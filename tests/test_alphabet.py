"""Tests for the protein alphabet and sequence encoding."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bio.alphabet import (
    ALPHABET_SIZE,
    BACKGROUND_FREQUENCIES,
    BASE_TO_INDEX,
    CANONICAL_AMINO_ACIDS,
    INDEX_TO_BASE,
    PROTEIN_ALPHABET,
    decode_sequence,
    encode_sequence,
    is_valid_sequence,
)

protein_strings = st.text(alphabet=PROTEIN_ALPHABET, min_size=1, max_size=200)


class TestAlphabet:
    def test_size_is_24(self):
        assert ALPHABET_SIZE == 24
        assert len(PROTEIN_ALPHABET) == 24

    def test_paper_order(self):
        # the paper's indexing example relies on this exact order
        assert PROTEIN_ALPHABET == "ARNDCQEGHILKMFPSTWYVBZX*"

    def test_no_duplicate_symbols(self):
        assert len(set(PROTEIN_ALPHABET)) == 24

    def test_canonical_prefix(self):
        assert CANONICAL_AMINO_ACIDS == PROTEIN_ALPHABET[:20]
        assert "*" not in CANONICAL_AMINO_ACIDS

    def test_index_maps_inverse(self):
        for c, i in BASE_TO_INDEX.items():
            assert INDEX_TO_BASE[i] == c

    def test_specific_indices(self):
        assert BASE_TO_INDEX["A"] == 0
        assert BASE_TO_INDEX["R"] == 1
        assert BASE_TO_INDEX["*"] == 23

    def test_background_frequencies_normalised(self):
        assert BACKGROUND_FREQUENCIES.shape == (20,)
        assert BACKGROUND_FREQUENCIES.sum() == pytest.approx(1.0)
        assert (BACKGROUND_FREQUENCIES > 0).all()


class TestEncoding:
    def test_encode_basic(self):
        enc = encode_sequence("ARN")
        assert enc.tolist() == [0, 1, 2]
        assert enc.dtype == np.int8

    def test_encode_lowercase(self):
        assert encode_sequence("arn").tolist() == [0, 1, 2]

    def test_encode_invalid_raises(self):
        with pytest.raises(ValueError, match="invalid protein characters"):
            encode_sequence("AR7")

    def test_decode_basic(self):
        assert decode_sequence(np.array([0, 1, 2])) == "ARN"

    def test_decode_empty(self):
        assert decode_sequence(np.array([], dtype=np.int8)) == ""

    def test_decode_out_of_range(self):
        with pytest.raises(ValueError):
            decode_sequence(np.array([24]))
        with pytest.raises(ValueError):
            decode_sequence(np.array([-1]))

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64])
    def test_decode_all_letters_roundtrip(self, dtype):
        idx = np.arange(ALPHABET_SIZE, dtype=dtype)
        assert decode_sequence(idx) == PROTEIN_ALPHABET
        assert decode_sequence(idx[::-1]) == PROTEIN_ALPHABET[::-1]
        assert decode_sequence(encode_sequence(PROTEIN_ALPHABET)) == (
            PROTEIN_ALPHABET
        )

    def test_decode_rejects_any_out_of_range_index(self):
        # one bad index anywhere fails the whole call, never a partial string
        for bad in ([0, 1, 24], [-1, 0, 1], [23, 127, 0]):
            with pytest.raises(ValueError, match="out of alphabet range"):
                decode_sequence(np.array(bad, dtype=np.int8))

    @given(protein_strings)
    def test_roundtrip(self, s):
        assert decode_sequence(encode_sequence(s)) == s

    def test_is_valid(self):
        assert is_valid_sequence("AVGDMI")
        assert is_valid_sequence("B*ZX")
        assert not is_valid_sequence("AVG MI")
        assert not is_valid_sequence("")
        assert not is_valid_sequence("AVG7")
