"""Biological substrate: alphabet, scoring matrices, FASTA I/O, sequence
storage, and synthetic dataset generators."""

from .alphabet import (
    ALPHABET_SIZE,
    BASE_TO_INDEX,
    CANONICAL_AMINO_ACIDS,
    INDEX_TO_BASE,
    PROTEIN_ALPHABET,
    decode_sequence,
    encode_sequence,
    is_valid_sequence,
)
from .fasta import (
    FastaRecord,
    chunk_boundaries,
    parse_fasta_text,
    read_fasta,
    read_fasta_chunk,
    write_fasta,
)
from .generate import (
    FamilyDataset,
    make_family,
    metaclust_like,
    mutate,
    random_protein,
    scope_like,
)
from .scoring import (
    BLOSUM45,
    BLOSUM62,
    BLOSUM80,
    PAM250,
    ExpenseMatrix,
    ScoringMatrix,
    get_matrix,
)
from .sequences import DistributedIndex, SequenceStore

__all__ = [
    "ALPHABET_SIZE",
    "BASE_TO_INDEX",
    "CANONICAL_AMINO_ACIDS",
    "INDEX_TO_BASE",
    "PROTEIN_ALPHABET",
    "decode_sequence",
    "encode_sequence",
    "is_valid_sequence",
    "FastaRecord",
    "chunk_boundaries",
    "parse_fasta_text",
    "read_fasta",
    "read_fasta_chunk",
    "write_fasta",
    "FamilyDataset",
    "make_family",
    "metaclust_like",
    "mutate",
    "random_protein",
    "scope_like",
    "BLOSUM45",
    "BLOSUM62",
    "BLOSUM80",
    "PAM250",
    "ExpenseMatrix",
    "ScoringMatrix",
    "get_matrix",
    "DistributedIndex",
    "SequenceStore",
]
