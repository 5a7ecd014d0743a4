"""K-mer machinery: base-24 encoding, extraction, and the m-nearest
substitute k-mer search of paper Algorithms 1-3."""

from .encoding import (
    MAX_K,
    decode_kmer,
    encode_kmer,
    kmer_id_from_string,
    kmer_space_size,
    kmer_string_from_id,
)
from .extraction import sequence_kmers, store_kmers
from .substitutes import (
    SubstituteKmer,
    brute_force_substitutes,
    find_substitute_kmers,
    kmer_distance,
    substitute_kmer_ids,
    substitute_kmers_batch,
)

__all__ = [
    "MAX_K",
    "decode_kmer",
    "encode_kmer",
    "kmer_id_from_string",
    "kmer_space_size",
    "kmer_string_from_id",
    "sequence_kmers",
    "store_kmers",
    "SubstituteKmer",
    "brute_force_substitutes",
    "find_substitute_kmers",
    "kmer_distance",
    "substitute_kmer_ids",
    "substitute_kmers_batch",
]
