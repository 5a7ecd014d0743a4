"""FASTA input/output with PASTIS-style byte-balanced parallel chunking.

Section V-A of the paper: each process reads an equal *byte* range of the
FASTA file (plus a user-defined overlap), skips any partial record at the
start of its chunk, and parses past the end of its chunk to finish the last
record it owns.  Balancing bytes (total sequence length) rather than sequence
counts is what balances the parse time.

This module implements both the plain serial reader/writer and the chunked
reader the distributed pipeline calls on each rank's byte range
(:func:`chunk_boundaries` + :func:`read_fasta_chunk`).
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "FastaError",
    "FastaRecord",
    "read_fasta",
    "write_fasta",
    "parse_fasta_text",
    "chunk_boundaries",
    "read_fasta_chunk",
]

#: Default extra bytes read past a chunk boundary to complete a record
#: (the paper's "user defined extra amount of bytes").
DEFAULT_OVERLAP_BYTES = 4096


class FastaError(ValueError):
    """Unusable FASTA input: data before the first header, or a record
    (named in the message) with an invalid residue or a repeated id."""


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA record: identifier (text up to first whitespace), full
    description line, and the concatenated sequence."""

    id: str
    description: str
    sequence: str

    def __len__(self) -> int:
        return len(self.sequence)


def _records_from_lines(lines: Iterable[str]) -> Iterator[FastaRecord]:
    header: str | None = None
    parts: list[str] = []
    for line in lines:
        line = line.rstrip("\r\n")
        if not line:
            continue
        if line.startswith(">"):
            if header is not None:
                yield _make_record(header, parts)
            header = line[1:]
            parts = []
        else:
            if header is None:
                raise FastaError("FASTA data does not start with a '>' header")
            parts.append(line.strip())
    if header is not None:
        yield _make_record(header, parts)


def _make_record(header: str, parts: list[str]) -> FastaRecord:
    seq = "".join(parts).upper()
    ident = header.split()[0] if header.split() else ""
    return FastaRecord(id=ident, description=header, sequence=seq)


def parse_fasta_text(text: str) -> list[FastaRecord]:
    """Parse FASTA records from an in-memory string."""
    return list(_records_from_lines(io.StringIO(text)))


def read_fasta(path: str | os.PathLike) -> list[FastaRecord]:
    """Read every record of a FASTA file (:class:`FastaError` if it is
    not ASCII text)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return list(_records_from_lines(fh))
    except UnicodeDecodeError as exc:
        raise FastaError(
            f"{os.fspath(path)}: not ASCII text "
            f"(byte {exc.object[exc.start]:#04x})"
        ) from None


def write_fasta(
    path: str | os.PathLike,
    records: Iterable[FastaRecord | tuple[str, str]],
    line_width: int = 60,
) -> int:
    """Write records (``FastaRecord`` or ``(id, sequence)`` tuples) to a
    FASTA file; returns the number of records written."""
    n = 0
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            if isinstance(rec, FastaRecord):
                header, seq = rec.description, rec.sequence
            else:
                header, seq = rec
            fh.write(f">{header}\n")
            for i in range(0, len(seq), line_width):
                fh.write(seq[i : i + line_width] + "\n")
            n += 1
    return n


def chunk_boundaries(total_bytes: int, nchunks: int) -> list[tuple[int, int]]:
    """Even byte split of ``[0, total_bytes)`` into ``nchunks`` ranges.

    Mirrors the paper's partitioning: every process gets an equal number of
    bytes (the remainder spread over the first ranks), which balances parse
    work regardless of per-sequence length variation.
    """
    if nchunks <= 0:
        raise ValueError("nchunks must be positive")
    base, extra = divmod(total_bytes, nchunks)
    bounds = []
    start = 0
    for r in range(nchunks):
        size = base + (1 if r < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def read_fasta_chunk(
    data: bytes,
    start: int,
    end: int,
    overlap: int = DEFAULT_OVERLAP_BYTES,
) -> list[FastaRecord]:
    """Parse the records *owned* by the byte range ``[start, end)``.

    A record is owned by the chunk in which its ``>`` header byte lies.  The
    reader skips a partial record at the chunk start and reads past ``end``
    (bounded by ``overlap`` increments) to finish its last record, exactly as
    described in Section V-A.
    """
    n = len(data)
    start = max(0, min(start, n))
    end = max(start, min(end, n))
    if start >= n:
        return []

    # Find the first header at or after `start` that begins a line.
    pos = start
    while True:
        idx = data.find(b">", pos, end)
        if idx == -1:
            return []
        if idx == 0 or data[idx - 1 : idx] == b"\n":
            first = idx
            break
        pos = idx + 1

    # Find the first owned header at or after `end` — records starting there
    # belong to the next chunk.  Extend the scan window by `overlap` steps.
    stop = n
    scan_end = end
    while scan_end < n:
        window_end = min(n, scan_end + max(overlap, 1))
        idx = data.find(b">", scan_end, window_end)
        while idx != -1 and not (idx == 0 or data[idx - 1 : idx] == b"\n"):
            idx = data.find(b">", idx + 1, window_end)
        if idx != -1:
            stop = idx
            break
        scan_end = window_end
    else:
        stop = n
    if scan_end >= n:
        stop = min(stop, n)

    # A header exactly at `end` is owned by the next chunk.
    text = data[first:stop].decode("ascii")
    return parse_fasta_text(text)
