"""Overlapped remote-sequence exchange (paper Section V-C, Fig. 9-10).

After the 1-D byte-balanced read, sequences live where the file chunks
landed, but the 2-D decomposition of ``B`` means the rank at grid position
``(pi, pj)`` must align pairs drawn from row-block ``pi`` x column-block
``pj`` — up to ``2n/√p`` sequences, most of them remote.  Rather than wait
for ``B`` to know exactly which are needed, PASTIS requests the *full range*
it might need, immediately after reading, with non-blocking sends/receives;
an ``MPI_Waitall`` after ``B`` is computed guarantees delivery.  The paper's
"wait" dissection component is exactly that waitall.

Every rank can compute everyone's plan deterministically from the 1-D
distribution (prefix sums) and the 2-D block ranges, so no negotiation
round-trip is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bio.sequences import DistributedIndex, SequenceStore
from ..mpisim.backend import CommBackend, Request
from ..mpisim.grid import ProcessGrid, block_ranges
from ..sparse.coo import sorted_unique

__all__ = ["SequenceExchange", "needed_ranges", "start_exchange"]

_TAG_SEQS = 55


def needed_ranges(grid: ProcessGrid, rank: int, n: int) -> list[tuple[int, int]]:
    """Global-id ranges rank ``rank`` needs: its grid row block plus its
    grid column block of an ``n x n`` matrix ``B``."""
    q = grid.q
    pi, pj = divmod(rank, q)
    ranges = block_ranges(n, q)
    row_r, col_r = ranges[pi], ranges[pj]
    if row_r == col_r:
        return [row_r]
    return sorted([row_r, col_r])


def _intersect(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return (lo, hi) if lo < hi else (0, 0)


def _pack(store: SequenceStore, local_ids: np.ndarray, gid0: int):
    """Pack sequences as (global ids, concatenated buffer, offsets)."""
    bufs = [store.encoded(int(i)) for i in local_ids]
    lengths = np.array([len(b) for b in bufs], dtype=np.int64)
    buf = (
        np.concatenate(bufs) if bufs else np.empty(0, dtype=np.int8)
    )
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    gids = local_ids.astype(np.int64) + gid0
    return gids, buf, offsets


@dataclass
class SequenceExchange:
    """In-flight exchange: completed when :meth:`finish` returns.

    ``cache`` maps global sequence id -> encoded residues; locally owned
    sequences are preloaded so lookups never go remote twice.
    """

    recv_requests: list[Request]
    cache: dict[int, np.ndarray] = field(default_factory=dict)

    def finish(self) -> dict[int, np.ndarray]:
        """MPI_Waitall: drain every pending receive into the cache."""
        for req in self.recv_requests:
            gids, buf, offsets = req.wait()
            for t in range(len(gids)):
                self.cache[int(gids[t])] = buf[offsets[t] : offsets[t + 1]]
        self.recv_requests = []
        return self.cache


def start_exchange(
    comm: CommBackend,
    grid: ProcessGrid,
    index: DistributedIndex,
    local_store: SequenceStore,
    n: int,
) -> SequenceExchange:
    """Post all sends and receives for this rank (non-blocking).

    Collective in the sense that every rank must call it, but it returns
    immediately; overlap compute with it and call ``finish`` afterwards.
    """
    me = comm.rank
    my_owned = index.rank_range(me)
    # sends: every rank whose needed ranges intersect what I own
    for dst in range(comm.size):
        if dst == me:
            continue
        send_ids: list[np.ndarray] = []
        for rng in needed_ranges(grid, dst, n):
            lo, hi = _intersect(rng, my_owned)
            if hi > lo:
                send_ids.append(np.arange(lo - my_owned[0],
                                          hi - my_owned[0]))
        if send_ids:
            local_ids = sorted_unique(np.concatenate(send_ids))
            comm.isend(
                _pack(local_store, local_ids, my_owned[0]),
                dest=dst,
                tag=_TAG_SEQS,
            )
    # receives: every rank owning part of what I need
    exchange = SequenceExchange(recv_requests=[])
    for src in range(comm.size):
        if src == me:
            continue
        src_owned = index.rank_range(src)
        overlaps = any(
            _intersect(rng, src_owned)[1] > _intersect(rng, src_owned)[0]
            for rng in needed_ranges(grid, me, n)
        )
        if overlaps:
            exchange.recv_requests.append(comm.irecv(src, tag=_TAG_SEQS))
    # preload my own sequences
    for li in range(len(local_store)):
        exchange.cache[my_owned[0] + li] = local_store.encoded(li)
    return exchange
