"""Conformance suite for the :class:`CommBackend` interface on its one
transport, one process per rank.

The runtime must implement MPI's semantics — p2p ``(source, tag)``
matching in FIFO order, non-blocking handles, collectives, ``split`` with
its call-count validation, watchdog timeouts and failure propagation.
The collectives are written once on
:class:`~repro.mpisim.backend.CommBackend`; this suite checks them over
the process transport of :mod:`repro.mpisim.mpcomm`.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.mpisim import ProcessGrid, SpmdError, run_spmd
from repro.mpisim.tracing import CommTracer


def spmd(nranks, fn, *args, timeout=60.0, tracer=None):
    return run_spmd(nranks, fn, *args, timeout=timeout, tracer=tracer)


# ---------------------------------------------------------------------------
# SPMD bodies
# ---------------------------------------------------------------------------


def _ring(comm):
    """Ring exchange of a (big ndarray, control) payload — the big array
    rides the shared-memory path."""
    big = np.arange(50_000, dtype=np.int64) * (comm.rank + 1)
    nxt = (comm.rank + 1) % comm.size
    prv = (comm.rank - 1) % comm.size
    comm.send((big, "ctl", comm.rank), nxt, tag=3)
    arr, word, src = comm.recv(source=prv, tag=3)
    assert word == "ctl" and src == prv
    assert arr.dtype == np.int64 and arr.shape == (50_000,)
    assert arr[1] == prv + 1
    return int(arr[2])


def _tag_matching(comm):
    """Messages match on (source, tag) in FIFO order per channel, and
    ANY_SOURCE receives do not steal a tag-mismatched message."""
    if comm.rank == 0:
        comm.send("a1", 1, tag=1)
        comm.send("b", 1, tag=2)
        comm.send("a2", 1, tag=1)
        return None
    if comm.rank == 1:
        assert comm.recv(source=0, tag=2) == "b"
        assert comm.recv(tag=1) == "a1"  # ANY_SOURCE, FIFO within tag
        assert comm.recv(source=0, tag=1) == "a2"
    return None


def _isend_irecv(comm):
    reqs = [
        comm.isend((comm.rank, dst), dst, tag=9)
        for dst in range(comm.size)
    ]
    rreqs = [comm.irecv(source=src, tag=9) for src in range(comm.size)]
    vals = comm.waitall(rreqs)
    comm.waitall(reqs)
    assert vals == [(src, comm.rank) for src in range(comm.size)]
    done, _ = comm.irecv(tag=12345).test()
    assert not done  # nothing queued on that tag
    return None


def _tryrecv(comm):
    """tryrecv never blocks and drains queued matches one per call."""
    ok, val = comm.tryrecv(tag=5)
    assert not ok and val is None
    comm.barrier()
    if comm.rank == 0:
        for i in range(3):
            comm.send(i, 1, tag=5)
    comm.barrier()
    if comm.rank == 1:
        got = []
        while True:
            ok, val = comm.tryrecv(source=0, tag=5)
            if not ok:
                break
            got.append(val)
        assert got == [0, 1, 2]
    return None


def _collectives(comm):
    root = 1 % comm.size
    assert comm.bcast(
        comm.rank if comm.rank == root else None, root=root
    ) == root
    assert comm.allgather(comm.rank) == list(range(comm.size))
    g = comm.gather(comm.rank * 2, root=0)
    assert (g == [2 * r for r in range(comm.size)]) if comm.rank == 0 \
        else g is None
    objs = [f"s{r}" for r in range(comm.size)] if comm.rank == 0 else None
    assert comm.scatter(objs, root=0) == f"s{comm.rank}"
    a2a = comm.alltoall([(comm.rank, dst) for dst in range(comm.size)])
    assert a2a == [(src, comm.rank) for src in range(comm.size)]
    red = comm.reduce(comm.rank, lambda a, b: a + b, root=0)
    total = sum(range(comm.size))
    assert (red == total) if comm.rank == 0 else red is None
    assert comm.allreduce(comm.rank, lambda a, b: a + b) == total
    assert comm.exscan(1) == comm.rank
    comm.barrier()
    return None


def _split_grid(comm):
    """ProcessGrid (two splits per rank) works on the bare interface, and
    sub-communicator traffic does not cross between groups."""
    grid = ProcessGrid.create(comm)
    assert grid.row_comm.size == grid.q and grid.col_comm.size == grid.q
    rows = grid.row_comm.allgather(comm.rank)
    assert rows == [grid.row * grid.q + c for c in range(grid.q)]
    # p2p inside the row sub-communicator
    nxt = (grid.col + 1) % grid.q
    prv = (grid.col - 1) % grid.q
    grid.row_comm.send(("row", comm.rank), nxt, tag=4)
    word, world_src = grid.row_comm.recv(source=prv, tag=4)
    assert word == "row" and world_src == grid.rank_of(grid.row, prv)
    cols = grid.col_comm.allgather(comm.rank)
    assert cols == [r * grid.q + grid.col for r in range(grid.q)]
    return None


def _split_reversed_key(comm):
    """key reverses rank order within the group."""
    sub = comm.split(color=0, key=-comm.rank)
    assert sub.rank == comm.size - 1 - comm.rank
    assert sub.allgather(comm.rank) == list(range(comm.size))[::-1]
    return None


def _split_mismatch(comm):
    """Unequal split call counts must raise, not silently cross-pair."""
    comm.split(color=0)
    if comm.rank == 0:
        comm.split(color=0)
    else:
        comm.barrier()
    return None


def _one_rank_raises(comm):
    comm.barrier()
    if comm.rank == comm.size - 1:
        raise ValueError("kapow")
    comm.barrier()
    return comm.rank


def _recv_never_satisfied(comm):
    if comm.rank == 0:
        comm.recv(source=1, tag=404)
    return None


def _barrier_amid_traffic(comm):
    """Rank 0 waits in a barrier nobody else enters, while rank 1 keeps
    rank 2 busy with point-to-point traffic for longer than the timeout."""
    if comm.rank == 0:
        comm.barrier()
    elif comm.rank == 1:
        for i in range(30):
            comm.send(i, 2, tag=7)
            time.sleep(0.1)
    else:
        for _ in range(30):
            comm.recv(source=1, tag=7)
    return None


def _late_barrier_victim(comm):
    """Rank 1's receive can never match and times out first; rank 0,
    arriving late at a barrier (its deadline 0.4 s after rank 1's), only
    aborts because of it."""
    if comm.rank == 1:
        comm.recv(source=0, tag=404)
    else:
        time.sleep(0.4)
        comm.barrier()
    return None


def _none_result(comm):
    comm.barrier()
    return None


def _nested_ndarray_payload(comm):
    """Arrays above and below the shared-memory threshold, nested in
    containers and non-contiguous, round-trip exactly."""
    if comm.rank == 0:
        big = np.arange(40_000, dtype=np.float64).reshape(200, 200)
        payload = {
            "big": big,
            "view": big[::2, ::3],  # non-contiguous
            "small": np.array([1, 2, 3], dtype=np.int8),
            "empty": np.empty((0, 4), dtype=np.float32),
            "meta": ("k", 42),
        }
        comm.send(payload, 1, tag=8)
    elif comm.rank == 1:
        got = comm.recv(source=0, tag=8)
        big = np.arange(40_000, dtype=np.float64).reshape(200, 200)
        np.testing.assert_array_equal(got["big"], big)
        np.testing.assert_array_equal(got["view"], big[::2, ::3])
        assert got["small"].tolist() == [1, 2, 3]
        assert got["empty"].shape == (0, 4)
        assert got["meta"] == ("k", 42)
    comm.barrier()
    return None


def _traced(comm):
    comm.send(np.zeros(100, dtype=np.uint8), (comm.rank + 1) % comm.size,
              tag=2, kind="rebal")
    comm.recv(tag=2)
    comm.allgather(comm.rank)
    return None


# ---------------------------------------------------------------------------
# the conformance matrix
# ---------------------------------------------------------------------------


class TestConformance:
    def test_ring_exchange(self):
        out = spmd(4, _ring)
        assert out == [2 * ((r - 1) % 4 + 1) for r in range(4)]

    def test_tag_and_source_matching(self):
        spmd(2, _tag_matching)

    def test_isend_irecv_waitall(self):
        spmd(3, _isend_irecv)

    def test_tryrecv_drains_without_blocking(self):
        spmd(2, _tryrecv)

    def test_collectives(self):
        spmd(4, _collectives)

    def test_single_rank_world(self):
        assert spmd(1, _collectives) == [None]

    def test_process_grid_splits(self):
        spmd(4, _split_grid)

    def test_split_key_order(self):
        spmd(3, _split_reversed_key)

    def test_split_call_count_mismatch_raises(self):
        """Satellite regression: ranks disagreeing on the number of
        split() calls must fail loudly."""
        with pytest.raises(SpmdError, match="split"):
            spmd(2, _split_mismatch, timeout=10.0)

    def test_failure_propagates_with_cause(self):
        with pytest.raises(SpmdError, match="kapow") as exc_info:
            spmd(4, _one_rank_raises)
        assert exc_info.value.__cause__ is not None

    def test_deadlock_times_out(self):
        with pytest.raises(SpmdError):
            spmd(2, _recv_never_satisfied, timeout=0.5)

    def test_collective_deadline_not_rearmed_by_traffic(self):
        """A blocked collective times out ``timeout`` after the call even
        while unrelated sends keep waking the waiters."""
        t0 = time.monotonic()
        with pytest.raises(SpmdError,
                           match=r"collective.*timed out after 0\.5s"):
            spmd(3, _barrier_amid_traffic, timeout=0.5)
        assert time.monotonic() - t0 < 2.0

    def test_root_cause_blamed_over_aborted_victim(self):
        """The rank whose receive timed out is reported, not the rank
        that was aborted because of it."""
        with pytest.raises(SpmdError) as exc_info:
            spmd(2, _late_barrier_victim, timeout=0.5)
        msg = str(exc_info.value)
        assert "rank 1" in msg and "recv(" in msg, msg

    def test_none_results_are_not_missing(self):
        assert spmd(4, _none_result) == [None] * 4

    def test_ndarray_payload_roundtrip(self):
        spmd(2, _nested_ndarray_payload)

    def test_tracer_collects_from_every_rank(self):
        tracer = CommTracer()
        spmd(4, _traced, tracer=tracer)
        kinds = tracer.messages_by_kind()
        assert kinds.get("rebal") == 4
        assert kinds.get("allgather") == 4 * 3


def _where_am_i(comm):
    return threading.get_ident(), os.getpid()


def _slow_compute(comm, seconds):
    time.sleep(seconds)  # no comm call: nothing but a run deadline can end it
    return comm.allreduce(7, max)


def _raises_kapow(comm):
    raise ValueError("kapow")


class TestSingleRankRunsInline:
    """``run_spmd(1, fn)`` calls ``fn`` in the caller's thread and process:
    a 1-rank run inherits no thread, no fork and no whole-run watchdog."""

    def test_runs_in_the_calling_thread_and_process(self):
        assert spmd(1, _where_am_i) == [
            (threading.get_ident(), os.getpid())
        ]

    def test_slow_is_not_stuck(self):
        # 5x the timeout of pure compute: "did not terminate" at the
        # parent commit, whose join deadline was 2 x timeout
        assert spmd(1, _slow_compute, 1.0, timeout=0.2) == [7]

    def test_unmatched_recv_still_times_out(self):
        t0 = time.monotonic()
        with pytest.raises(SpmdError, match="timed out after 0.3s"):
            spmd(1, _recv_never_satisfied, timeout=0.3)
        assert time.monotonic() - t0 < 2.0

    def test_failure_is_an_spmd_error_with_the_original_cause(self):
        with pytest.raises(SpmdError, match="rank 0 failed.*kapow") as exc_info:
            spmd(1, _raises_kapow)
        cause = exc_info.value.__cause__
        assert type(cause) is ValueError and cause.args == ("kapow",)


class TestPipelineTraceTotals:
    """The tracer's record of the real pipeline is pinned: same message
    count, same byte total — ``CommTracer.summary()`` and the α–β
    seconds in ``graph.meta["commcost"]`` are computed from it, so a
    tracing regression moves these numbers."""

    @pytest.mark.parametrize("knobs, totals", [
        (dict(k=5), (67, 788_568)),
        # the sym. exchange carries 8-byte counts plus seeds for the
        # CK-passing entries only
        (dict(k=5, substitutes=4, common_kmer_threshold=1,
              align_balance="greedy"), (116, 1_754_404)),
    ], ids=["exact", "subs-ck-greedy"])
    def test_summary_totals_pinned(self, knobs, totals):
        from repro.bio.generate import scope_like
        from repro.core.config import PastisConfig
        from repro.core.distributed import run_pastis_distributed

        store = scope_like(n_families=6, seed=3).store
        tracer = CommTracer()
        # sanitizer off: its teardown audit is traced too, and it also
        # ships the shared-memory segment ledger
        config = PastisConfig(comm_sanitize=False, **knobs)
        run_pastis_distributed(store, config, nranks=4, tracer=tracer)
        summary = tracer.summary()
        assert (summary["total_messages"], summary["total_bytes"]) == totals


class TestOneTransport:
    def test_other_transport_names_rejected(self):
        from repro.perfmodel.calibrate import calibrate_comm_model

        for name in ("sim", "carrier-pigeon"):
            with pytest.raises(ValueError, match="'mp' is the only"):
                run_spmd(2, _none_result, comm_backend=name)
            with pytest.raises(ValueError, match="'mp' is the only"):
                calibrate_comm_model(backend=name)
        assert run_spmd(2, _none_result, comm_backend="mp") == [None] * 2

    def test_single_rank_run_loads_no_process_machinery(self, tmp_path):
        """A 1-rank pipeline run imports neither ``multiprocessing`` nor
        its ``shared_memory`` module: both are loaded only where
        processes or segments are created."""
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import sys\n"
            "from repro.bio.generate import scope_like\n"
            "from repro.core.config import PastisConfig\n"
            "from repro.core.pipeline import pastis_pipeline\n"
            "store = scope_like(n_families=2, seed=1).store\n"
            "g = pastis_pipeline(store, PastisConfig(k=5))\n"
            "assert g.nedges > 0\n"
            "print(sorted(m for m in ('multiprocessing',\n"
            "    'multiprocessing.shared_memory') if m in sys.modules))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=tmp_path,
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"
