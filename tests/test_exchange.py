"""Tests for the overlapped remote-sequence exchange
(`repro.core.exchange`): plan computation, full round-trip delivery, and
the empty-payload edge cases that appear when ranks own no sequences."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bio.fasta import chunk_boundaries, read_fasta_chunk
from repro.bio.generate import scope_like
from repro.bio.sequences import DistributedIndex, SequenceStore
from repro.core.distributed import store_to_fasta_bytes
from repro.core.exchange import needed_ranges, start_exchange
from repro.mpisim.comm import run_spmd
from repro.mpisim.grid import ProcessGrid, block_ranges


@pytest.fixture(scope="module")
def store() -> SequenceStore:
    return scope_like(
        n_families=3, members_per_family=(3, 3), length_range=(30, 50),
        divergence=0.2, seed=9,
    ).store


def _spmd_exchange(nranks: int, store: SequenceStore):
    """Run parse + prefix sums + exchange on ``nranks`` ranks; returns the
    per-rank ``(cache, owned_range)``."""
    fasta = store_to_fasta_bytes(store)

    def fn(comm):
        grid = ProcessGrid.create(comm)
        s, e = chunk_boundaries(len(fasta), comm.size)[comm.rank]
        local = SequenceStore.from_records(read_fasta_chunk(fasta, s, e))
        counts = comm.allgather(len(local))
        index = DistributedIndex.from_counts(counts)
        ex = start_exchange(comm, grid, index, local, index.total)
        cache = ex.finish()
        return cache, index.rank_range(comm.rank)

    return run_spmd(nranks, fn)


class TestNeededRanges:
    def test_diagonal_rank_has_single_range(self):
        def fn(comm):
            grid = ProcessGrid.create(comm)
            return needed_ranges(grid, comm.rank, 90)

        out = run_spmd(9, fn)
        q = 3
        ranges = block_ranges(90, q)
        for rank in range(9):
            pi, pj = divmod(rank, q)
            expected = (
                [ranges[pi]] if pi == pj
                else sorted([ranges[pi], ranges[pj]])
            )
            assert out[rank] == expected

    def test_ranges_cover_row_and_col_block(self):
        def fn(comm):
            grid = ProcessGrid.create(comm)
            return needed_ranges(grid, comm.rank, 50)

        out = run_spmd(4, fn)
        ranges = block_ranges(50, 2)
        for rank, got in enumerate(out):
            pi, pj = divmod(rank, 2)
            covered = set()
            for lo, hi in got:
                covered.update(range(lo, hi))
            want = set(range(*ranges[pi])) | set(range(*ranges[pj]))
            assert covered == want


class TestRoundTrip:
    @pytest.mark.parametrize("nranks", [1, 4, 9])
    def test_delivers_exactly_needed_content(self, store, nranks):
        results = _spmd_exchange(nranks, store)
        n = len(store)
        # global reference encodings from the undistributed store
        for rank, (cache, owned) in enumerate(results):
            grid_q = int(np.sqrt(nranks))
            pi, pj = divmod(rank, grid_q)
            ranges = block_ranges(n, grid_q)
            needed = set(range(*ranges[pi])) | set(range(*ranges[pj]))
            # everything needed (plus everything owned) is in the cache
            assert needed | set(range(*owned)) == set(cache)
            for gid in needed:
                np.testing.assert_array_equal(
                    cache[gid], store.encoded(gid),
                    err_msg=f"rank {rank} got wrong bytes for seq {gid}",
                )

    def test_finish_is_idempotent(self, store):
        fasta = store_to_fasta_bytes(store)

        def fn(comm):
            grid = ProcessGrid.create(comm)
            s, e = chunk_boundaries(len(fasta), comm.size)[comm.rank]
            local = SequenceStore.from_records(
                read_fasta_chunk(fasta, s, e)
            )
            counts = comm.allgather(len(local))
            index = DistributedIndex.from_counts(counts)
            ex = start_exchange(comm, grid, index, local, index.total)
            first = dict(ex.finish())
            second = ex.finish()
            assert second == first
            assert ex.recv_requests == []
            return True

        assert all(run_spmd(4, fn))


class TestEmptyPayloads:
    def test_more_ranks_than_sequences(self):
        """With 2 sequences on 9 ranks most ranks own nothing: their sends
        are skipped entirely and the exchange must still complete with
        every rank holding the full needed range."""
        tiny = SequenceStore(["AVGDMIKRAVG", "AVGPDMIWKL"], ids=["a", "b"])
        results = _spmd_exchange(9, tiny)
        for rank, (cache, owned) in enumerate(results):
            pi, pj = divmod(rank, 3)
            ranges = block_ranges(2, 3)
            needed = set(range(*ranges[pi])) | set(range(*ranges[pj]))
            assert needed <= set(cache)
            for gid in needed:
                np.testing.assert_array_equal(cache[gid],
                                              tiny.encoded(gid))

    def test_single_rank_never_communicates(self, store):
        results = _spmd_exchange(1, store)
        cache, owned = results[0]
        assert owned == (0, len(store))
        assert set(cache) == set(range(len(store)))
