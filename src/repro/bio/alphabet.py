"""Protein alphabet used throughout the PASTIS reproduction.

The paper uses the 24-letter protein alphabet ``ARNDCQEGHILKMFPSTWYVBZX*``
(20 canonical amino acids, the ambiguity codes B and Z, the unknown code X,
and the stop/translation symbol ``*``), giving a k-mer space of size 24^k
(Section IV-A and V-B of the paper).

Bases are indexed 0..23 in the order above; the index of a base is exactly
the digit used by the base-24 k-mer encoding in :mod:`repro.kmers.encoding`.
"""

from __future__ import annotations

import numpy as np

#: The canonical PASTIS protein alphabet, in paper order.
PROTEIN_ALPHABET: str = "ARNDCQEGHILKMFPSTWYVBZX*"

#: Number of symbols in the alphabet (|Sigma| = 24 in the paper).
ALPHABET_SIZE: int = len(PROTEIN_ALPHABET)

#: The 20 canonical amino acids (used by sequence generators).
CANONICAL_AMINO_ACIDS: str = PROTEIN_ALPHABET[:20]

#: base character -> index 0..23
BASE_TO_INDEX: dict[str, int] = {c: i for i, c in enumerate(PROTEIN_ALPHABET)}

#: index 0..23 -> base character
INDEX_TO_BASE: dict[int, str] = {i: c for i, c in enumerate(PROTEIN_ALPHABET)}

# Lookup table from alphabet index to ASCII byte (the inverse of the next).
_INDEX_TO_ASCII = np.frombuffer(PROTEIN_ALPHABET.encode("ascii"), np.uint8)

# Lookup table from ASCII byte value to alphabet index; -1 for invalid bytes.
_ASCII_TO_INDEX = np.full(256, -1, dtype=np.int8)
for _c, _i in BASE_TO_INDEX.items():
    _ASCII_TO_INDEX[ord(_c)] = _i
    _ASCII_TO_INDEX[ord(_c.lower())] = _i
_ASCII_TO_INDEX[ord("*")] = BASE_TO_INDEX["*"]

#: Background amino-acid frequencies (Robinson & Robinson style), used by the
#: synthetic sequence generators.  Order follows ``CANONICAL_AMINO_ACIDS``.
BACKGROUND_FREQUENCIES: np.ndarray = np.array(
    [
        0.078,  # A
        0.051,  # R
        0.045,  # N
        0.054,  # D
        0.019,  # C
        0.043,  # Q
        0.063,  # E
        0.074,  # G
        0.022,  # H
        0.052,  # I
        0.090,  # L
        0.057,  # K
        0.022,  # M
        0.039,  # F
        0.052,  # P
        0.071,  # S
        0.059,  # T
        0.013,  # W
        0.032,  # Y
        0.064,  # V
    ],
    dtype=np.float64,
)
BACKGROUND_FREQUENCIES = BACKGROUND_FREQUENCIES / BACKGROUND_FREQUENCIES.sum()


def encode_sequence(seq: str) -> np.ndarray:
    """Encode a protein string into an ``int8`` array of alphabet indices.

    Raises ``ValueError`` if the sequence contains a character outside the
    24-letter alphabet (case-insensitive).
    """
    raw = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
    idx = _ASCII_TO_INDEX[raw]
    if (idx < 0).any():
        bad = {seq[i] for i in np.nonzero(idx < 0)[0][:5]}
        raise ValueError(f"invalid protein characters: {sorted(bad)}")
    return idx.astype(np.int8)


def decode_sequence(indices: np.ndarray) -> str:
    """Inverse of :func:`encode_sequence`."""
    arr = np.asarray(indices)
    if arr.size == 0:
        return ""
    if arr.min() < 0 or arr.max() >= ALPHABET_SIZE:
        raise ValueError("index out of alphabet range")
    return _INDEX_TO_ASCII[arr].tobytes().decode("ascii")


def is_valid_sequence(seq: str) -> bool:
    """True when every character of ``seq`` is in the protein alphabet."""
    if not seq:
        return False
    raw = np.frombuffer(seq.encode("ascii", errors="replace"), dtype=np.uint8)
    return bool((_ASCII_TO_INDEX[raw] >= 0).all())
