"""Sequence storage mirroring PASTIS's buffer-plus-offsets design.

Section V-A: PASTIS stores a pointer to the character buffer of its sequences
in each process, records identifier/data start offsets, and computes a
parallel prefix sum of per-process sequence counts so every process knows
which ranks own which global sequence ids.

:class:`SequenceStore` is the single-address-space version of that structure:
one contiguous ``int8`` buffer of encoded residues plus offset arrays, with
O(1) slicing by local index.  :class:`DistributedIndex` captures the prefix
sums used for global-id -> owner-rank resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .alphabet import decode_sequence, encode_sequence
from .fasta import FastaError, FastaRecord

__all__ = [
    "MAX_SEQUENCE_LENGTH",
    "SequenceStore",
    "DistributedIndex",
    "check_unique_ids",
]

#: Sequences must be strictly shorter than this: it is the seed
#: pack's distance bound (``repro.core.semirings.CK_DIST_LIMIT``, 2^21 - 1),
#: which keeps every k-mer position inside the pack too — ~60x the longest
#: known protein.
MAX_SEQUENCE_LENGTH = (1 << 21) - 1


def check_unique_ids(ids: Iterable[str]) -> None:
    """Raise :class:`FastaError` naming the first repeated id and its two
    1-based record numbers: a repeat would make the by-id edge list
    ambiguous."""
    first: dict[str, int] = {}
    for number, ident in enumerate(ids, 1):
        if first.setdefault(ident, number) != number:
            raise FastaError(
                f"duplicate sequence id {ident!r}: records "
                f"{first[ident]} and {number}"
            )


class SequenceStore:
    """Immutable collection of encoded protein sequences.

    Residues live in a single contiguous buffer; sequence ``i`` occupies
    ``buffer[offsets[i]:offsets[i + 1]]``.  Ids are kept in a parallel list.
    An empty sequence, an invalid residue or a length of
    :data:`MAX_SEQUENCE_LENGTH` or more raises :class:`FastaError` naming
    the record.
    """

    __slots__ = ("_buffer", "_offsets", "_ids")

    def __init__(self, sequences: Iterable[str], ids: Sequence[str] | None = None):
        encoded = []
        for number, seq in enumerate(sequences, 1):
            try:
                enc = encode_sequence(seq)
                if len(enc) == 0:
                    raise ValueError("empty sequence")
                if len(enc) >= MAX_SEQUENCE_LENGTH:
                    raise ValueError(
                        f"length {len(enc)} reaches the limit "
                        f"{MAX_SEQUENCE_LENGTH} (the seed pack's bound)"
                    )
            except ValueError as exc:
                ident = f"seq{number - 1}" if ids is None else ids[number - 1]
                raise FastaError(
                    f"record {number} ({ident!r}): {exc}"
                ) from None
            encoded.append(enc)
        lengths = np.array([len(e) for e in encoded], dtype=np.int64)
        self._offsets = np.concatenate(([0], np.cumsum(lengths)))
        self._buffer = (
            np.concatenate(encoded) if encoded else np.empty(0, dtype=np.int8)
        )
        if ids is None:
            ids = [f"seq{i}" for i in range(len(encoded))]
        ids = list(ids)
        if len(ids) != len(encoded):
            raise ValueError("ids and sequences must have equal length")
        self._ids = ids

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[FastaRecord]) -> "SequenceStore":
        """A store of parsed records; a repeated id raises
        :class:`FastaError` (:func:`check_unique_ids`)."""
        recs = list(records)
        ids = [r.id for r in recs]
        check_unique_ids(ids)
        return cls((r.sequence for r in recs), ids)

    @classmethod
    def from_encoded(
        cls, buffer: np.ndarray, offsets: np.ndarray, ids: Sequence[str]
    ) -> "SequenceStore":
        """Zero-copy construction from an existing buffer + offsets."""
        store = cls.__new__(cls)
        store._buffer = np.asarray(buffer, dtype=np.int8)
        store._offsets = np.asarray(offsets, dtype=np.int64)
        store._ids = list(ids)
        if len(store._offsets) != len(store._ids) + 1:
            raise ValueError("offsets must have len(ids) + 1 entries")
        return store

    # -- accessors ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def total_residues(self) -> int:
        """Total number of residues across all sequences (byte volume)."""
        return int(self._offsets[-1])

    @property
    def buffer(self) -> np.ndarray:
        return self._buffer

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets

    @property
    def ids(self) -> list[str]:
        return self._ids

    def length(self, i: int) -> int:
        return int(self._offsets[i + 1] - self._offsets[i])

    def lengths(self) -> np.ndarray:
        """Array of all sequence lengths."""
        return np.diff(self._offsets)

    def encoded(self, i: int) -> np.ndarray:
        """Encoded residues of sequence ``i`` (a view, not a copy)."""
        return self._buffer[self._offsets[i] : self._offsets[i + 1]]

    def sequence(self, i: int) -> str:
        """Decoded string of sequence ``i``."""
        return decode_sequence(self.encoded(i))

    def __iter__(self) -> Iterator[np.ndarray]:
        for i in range(len(self)):
            yield self.encoded(i)

    def subset(self, indices: Sequence[int]) -> "SequenceStore":
        """New store with the selected sequences (copies the residues)."""
        idx = list(indices)
        return SequenceStore(
            (self.sequence(i) for i in idx), [self._ids[i] for i in idx]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SequenceStore(n={len(self)}, residues={self.total_residues})"
        )


@dataclass(frozen=True)
class DistributedIndex:
    """Global-id bookkeeping from per-rank sequence counts.

    ``starts[r]`` is the first global sequence id owned by rank ``r``; it is
    the exclusive prefix sum that PASTIS computes cooperatively so "each
    process is aware what sequences are stored by which processes".
    """

    counts: np.ndarray  # per-rank sequence counts
    starts: np.ndarray  # exclusive prefix sums, len = nranks + 1

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "DistributedIndex":
        c = np.asarray(counts, dtype=np.int64)
        if (c < 0).any():
            raise ValueError("negative counts")
        return cls(counts=c, starts=np.concatenate(([0], np.cumsum(c))))

    @property
    def total(self) -> int:
        return int(self.starts[-1])

    @property
    def nranks(self) -> int:
        return len(self.counts)

    def owner(self, global_id: int) -> int:
        """Rank owning ``global_id`` (O(log p) binary search)."""
        if not 0 <= global_id < self.total:
            raise IndexError(f"global id {global_id} out of range")
        return int(np.searchsorted(self.starts, global_id, side="right") - 1)

    def owners(self, global_ids: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`owner`."""
        gids = np.asarray(global_ids, dtype=np.int64)
        if gids.size and (gids.min() < 0 or gids.max() >= self.total):
            raise IndexError("global id out of range")
        return np.searchsorted(self.starts, gids, side="right") - 1

    def to_local(self, global_id: int) -> tuple[int, int]:
        """``(rank, local index)`` of a global id."""
        r = self.owner(global_id)
        return r, global_id - int(self.starts[r])

    def to_global(self, rank: int, local_id: int) -> int:
        """Global id of local index ``local_id`` on ``rank``."""
        if not 0 <= local_id < self.counts[rank]:
            raise IndexError("local id out of range")
        return int(self.starts[rank]) + local_id

    def rank_range(self, rank: int) -> tuple[int, int]:
        """Half-open global-id range ``[start, end)`` owned by ``rank``."""
        return int(self.starts[rank]), int(self.starts[rank + 1])
