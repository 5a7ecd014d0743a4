"""Vectorised extraction of k-mer ids and starting positions from sequences.

A protein of length L contributes its L-k+1 overlapping k-mers (Section
IV-C).  PASTIS stores the *starting position* of each k-mer as the matrix
value (Section IV-A); when a k-mer occurs several times in one sequence we
keep the first (lowest) position, matching one-nonzero-per-(row, column).
"""

from __future__ import annotations

import numpy as np

from ..bio.alphabet import ALPHABET_SIZE
from ..bio.sequences import SequenceStore
from ..sparse.coo import group_coords
from .encoding import _check_k

__all__ = ["sequence_kmers", "store_kmers"]


def sequence_kmers(encoded: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All k-mer ids of an encoded sequence with their start positions.

    Returns ``(ids, positions)`` of length ``max(L - k + 1, 0)``; duplicates
    are retained in sequence order.
    """
    _check_k(k)
    seq = np.asarray(encoded, dtype=np.int64)
    n = len(seq) - k + 1
    if n <= 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    # Rolling base-24 evaluation: ids[p] = sum seq[p + j] * 24^(k-1-j)
    weights = ALPHABET_SIZE ** np.arange(k - 1, -1, -1, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(seq, k)
    ids = windows @ weights
    return ids, np.arange(n, dtype=np.int64)


def store_kmers(
    store: SequenceStore, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triples ``(row, kmer_id, position)`` for every sequence of a
    store — the raw ingredients of matrix ``A`` — sorted by ``(row, id)``.

    One window slides over the store's contiguous residue buffer; windows
    that cross a sequence boundary are dropped, and a stable group-by on
    ``(row, id)`` keeps each k-mer's first position in its sequence.
    """
    offsets = store.offsets
    lengths = np.diff(offsets)
    ids, starts = sequence_kmers(store.buffer[offsets[0]:offsets[-1]], k)
    rows = np.repeat(np.arange(len(store), dtype=np.int64), lengths)[:len(ids)]
    pos = starts - (offsets[rows] - offsets[0])
    keep = pos + k <= lengths[rows]
    rows, ids, pos = rows[keep], ids[keep], pos[keep]
    order, first, _, out_rows, out_ids = group_coords(rows, ids)
    return out_rows, out_ids, pos[order[first]]
