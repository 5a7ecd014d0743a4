"""Tests for the SPMD runtime (one process per rank)."""

import os
import pickle
import queue
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.mpisim import ANY_SOURCE, SpmdError, run_spmd
from repro.mpisim.grid import (
    ProcessGrid,
    block_ranges,
    is_perfect_square,
    nearest_square,
)
from repro.mpisim.tracing import SUMMARY_SCHEMA, CommTracer, payload_bytes


class TestPointToPoint:
    def test_send_recv(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send({"x": 1}, dest=1)
                return None
            return comm.recv(source=0)

        assert run_spmd(2, fn)[1] == {"x": 1}

    def test_fifo_order(self):
        def fn(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1)
                return None
            return [comm.recv(source=0) for _ in range(5)]

        assert run_spmd(2, fn)[1] == [0, 1, 2, 3, 4]

    def test_tags_match_independently(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            b = comm.recv(source=0, tag=2)
            a = comm.recv(source=0, tag=1)
            return (a, b)

        assert run_spmd(2, fn)[1] == ("a", "b")

    def test_any_source(self):
        def fn(comm):
            if comm.rank == 2:
                got = {comm.recv(source=ANY_SOURCE) for _ in range(2)}
                return got
            comm.send(comm.rank, dest=2)
            return None

        assert run_spmd(3, fn)[2] == {0, 1}

    def test_isend_irecv_waitall(self):
        def fn(comm):
            reqs = []
            for dst in range(comm.size):
                if dst != comm.rank:
                    comm.isend(comm.rank * 10, dest=dst)
            for src in range(comm.size):
                if src != comm.rank:
                    reqs.append(comm.irecv(source=src))
            return sorted(r.wait() for r in reqs)

        out = run_spmd(3, fn)
        assert out[0] == [10, 20]
        assert out[2] == [0, 10]

    def test_bad_destination(self):
        with pytest.raises(SpmdError):
            run_spmd(2, lambda comm: comm.send(1, dest=5))


class TestRunSpmdFailureModes:
    """Regression: a rank stuck in pure compute never observes the abort
    flag (only communication calls check it), so the driver used to
    return a results list containing ``None`` silently."""

    def test_stuck_compute_rank_raises(self):
        def body(comm):
            if comm.rank == 1:
                while True:  # pure compute, no comm calls
                    time.sleep(0.005)
            return comm.rank

        with pytest.raises(SpmdError, match="did not terminate"):
            run_spmd(2, body, timeout=0.2)

    def test_stuck_rank_named_over_victim_timeout(self):
        """The stuck rank must be diagnosed even when another rank
        recorded a timeout failure first — that rank is a victim of the
        stuck one, and blaming it would hide the root cause."""

        def body(comm):
            if comm.rank == 0:
                return comm.recv(source=1)  # victim: times out waiting
            while True:                     # the actual culprit
                time.sleep(0.005)

        with pytest.raises(SpmdError,
                           match=r"ranks \[1\] did not terminate"):
            run_spmd(2, body, timeout=0.1)

    def test_dead_rank_named_with_its_exit_code(self):
        """A rank that dies without reporting is named with the exit code
        of its process, not as a hang."""

        def body(comm):
            if comm.rank == 1:
                os._exit(3)  # no result, no exception: a hard crash
            return comm.rank

        with pytest.raises(SpmdError,
                           match=r"ranks \[1\] terminated without "
                                 r"producing a result \(exit codes \[3\]\)"):
            run_spmd(2, body, timeout=5.0)

    def test_late_results_are_read(self):
        """Ranks that return after the 2 x timeout cap, within the
        shutdown grace, have queued their results: they are read, not
        reported missing."""

        def body(comm):
            time.sleep(2.3)  # pure compute past the cap
            return comm.rank

        assert run_spmd(2, body, timeout=1.0) == [0, 1]

    def test_failing_rank_mid_send_does_not_hang(self):
        """Rank 0 fails while its 8 MiB envelope to rank 1 is still
        flowing into the pipe, and rank 1 fails without reading it: the
        runner used to block forever reading the torn envelope.  Run in
        a subprocess, so a regression fails instead of hanging."""
        program = (
            "import time\n"
            "import numpy as np\n"
            "from repro.mpisim import run_spmd\n"
            "def body(comm):\n"
            "    if comm.rank == 0:\n"
            "        comm.send(np.zeros(1 << 20), 1, tag=3)\n"
            "        time.sleep(0.2)\n"
            "    raise RuntimeError(f'rank {comm.rank} fails')\n"
            "run_spmd(2, body, timeout=5.0)\n"
        )
        t0 = time.monotonic()
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        out = subprocess.run([sys.executable, "-c", program],
                             capture_output=True, text=True, timeout=20,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 1
        assert "rank 0 failed: RuntimeError('rank 0 fails')" in out.stderr
        assert time.monotonic() - t0 < 5.0

    def test_none_result_is_legitimate(self):
        # fn returning None must not be mistaken for an unfilled slot
        assert run_spmd(2, lambda comm: None) == [None, None]


class TestCollectives:
    def test_barrier(self):
        assert run_spmd(4, lambda comm: comm.barrier()) == [None] * 4

    def test_bcast(self):
        def fn(comm):
            return comm.bcast("payload" if comm.rank == 1 else None, root=1)

        assert run_spmd(3, fn) == ["payload"] * 3

    def test_allgather(self):
        out = run_spmd(4, lambda comm: comm.allgather(comm.rank ** 2))
        assert out == [[0, 1, 4, 9]] * 4

    def test_gather(self):
        out = run_spmd(3, lambda comm: comm.gather(comm.rank, root=1))
        assert out[0] is None
        assert out[1] == [0, 1, 2]

    def test_alltoall(self):
        def fn(comm):
            return comm.alltoall(
                [comm.rank * 10 + dst for dst in range(comm.size)]
            )

        out = run_spmd(3, fn)
        assert out[0] == [0, 10, 20]
        assert out[2] == [2, 12, 22]

    def test_repeated_collectives(self):
        def fn(comm):
            total = 0
            for i in range(20):
                total += sum(comm.allgather(i))
            return total

        out = run_spmd(3, fn)
        assert out == [sum(3 * i for i in range(20))] * 3

    def test_numpy_payloads(self):
        def fn(comm):
            arr = np.full(10, comm.rank)
            gathered = comm.allgather(arr)
            return sum(int(g.sum()) for g in gathered)

        assert run_spmd(3, fn) == [30] * 3


class TestSplit:
    def test_split_groups(self):
        def fn(comm):
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            return (sub.size, sub.rank,
                    sum(sub.allgather(comm.rank)))

        out = run_spmd(4, fn)
        assert out[0] == (2, 0, 2)   # ranks 0, 2
        assert out[1] == (2, 0, 4)   # ranks 1, 3
        assert out[3] == (2, 1, 4)

    def test_split_key_order(self):
        def fn(comm):
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        out = run_spmd(3, fn)
        assert out == [2, 1, 0]


class TestSatelliteFixes:
    """Regressions for comm-layer bugs fixed while hardening the layer
    into the :class:`CommBackend` interface."""

    def test_shutdown_joins_share_one_deadline(self):
        """Worst-case hang detection must be ~timeout, not
        O(nranks * timeout): the driver used to join each rank with its
        own ``timeout * 2`` budget sequentially."""

        def body(comm):
            time.sleep(3.0)  # pure compute: abort cannot reach it
            return None

        t0 = time.perf_counter()
        with pytest.raises(SpmdError, match="did not terminate"):
            run_spmd(4, body, timeout=0.25)
        elapsed = time.perf_counter() - t0
        # shared deadline: ~timeout*2 + grace; the old sequential joins
        # needed 4 * (timeout*2) + 4 * grace ≈ 3s
        assert elapsed < 2.0, f"shutdown joins took {elapsed:.2f}s"

    def test_split_call_count_mismatch_raises(self):
        """Ranks calling split() an unequal number of times used to pair
        silently into wrong sub-communicator backends (the registry was
        keyed by a per-instance counter); now every rank raises."""

        def body(comm):
            comm.split(color=0)
            if comm.rank == 0:
                comm.split(color=0)  # second split meets rank 1's barrier
            else:
                comm.barrier()

        with pytest.raises(SpmdError, match="split"):
            run_spmd(2, body, timeout=5.0)

    def test_recv_rescans_mailbox_after_deadline(self):
        """A message delivered between a timed-out wait and the deadline
        check must be consumed, not reported as a spurious timeout."""
        from repro.mpisim.backend import _CHAN_P2P
        from repro.mpisim.mpcomm import _MPTransport

        class LateInbox(queue.Queue):
            def get(self, block=True, timeout=None):
                if block:
                    # the waiter wakes after the deadline and the message
                    # has already landed — exactly the race the final
                    # drain closes
                    time.sleep(0.08)
                    self.put(("world", _CHAN_P2P, 1, 5,
                              pickle.dumps("late")))
                    raise queue.Empty
                return super().get(block, timeout)

        tp = _MPTransport(0, [LateInbox()], threading.Event(), 0.05, None)
        assert tp.recv_env("world", _CHAN_P2P, 1, 5, "recv") == (1, "late")

    def test_recv_timeout_not_postponed_by_unrelated_traffic(self):
        """The receive deadline is fixed at call time: a peer spamming
        other tags used to restart the full timeout on every notify,
        postponing deadlock detection indefinitely."""
        def body(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=42)  # never sent
                return None
            for i in range(60):
                comm.send(i, dest=0, tag=1)  # unrelated chatter
                time.sleep(0.02)
            return None

        t0 = time.perf_counter()
        with pytest.raises(SpmdError):
            run_spmd(2, body, timeout=0.3)
        assert time.perf_counter() - t0 < 1.2


class TestErrors:
    def test_exception_propagates(self):
        def fn(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            comm.barrier()

        with pytest.raises(SpmdError, match="rank 1"):
            run_spmd(3, fn)

    def test_deadlock_times_out(self):
        def fn(comm):
            comm.recv(source=(comm.rank + 1) % comm.size)

        with pytest.raises(SpmdError):
            run_spmd(2, fn, timeout=0.5)

    def test_invalid_nranks(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda comm: None)


class TestTracing:
    def test_p2p_traced(self):
        tracer = CommTracer()

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100, dtype=np.float64), dest=1)
            else:
                comm.recv(source=0)

        run_spmd(2, fn, tracer=tracer)
        assert tracer.total_messages == 1
        assert tracer.total_bytes >= 800

    def test_collective_traced(self):
        tracer = CommTracer()
        run_spmd(3, lambda comm: comm.allgather(comm.rank), tracer=tracer)
        assert tracer.messages_by_kind()["allgather"] == 6  # 3 * (3-1)

    def test_barrier_traced_like_a_gather_of_nothing(self):
        # one zero-byte message from each non-root rank to rank 0, so a
        # hoistable barrier loop moves the pinned pipeline totals
        tracer = CommTracer()
        run_spmd(4, lambda comm: comm.barrier(), tracer=tracer)
        assert sorted((r.src, r.dst, r.nbytes) for r in tracer.records) \
            == [(1, 0, 0), (2, 0, 0), (3, 0, 0)]
        assert tracer.messages_by_kind() == {"barrier": 3}

    def test_payload_bytes(self):
        assert payload_bytes(np.zeros(10, dtype=np.int64)) >= 80
        assert payload_bytes(b"abcd") == 20
        assert payload_bytes({"a": 1}) > 0

    def test_payload_bytes_counts_each_array_once(self):
        """The same ndarray referenced twice in one payload crosses the
        wire once — the sizer must charge its buffer exactly once."""
        a = np.zeros(1000, dtype=np.float64)
        single = payload_bytes(a)
        aliased = payload_bytes((a, a))
        distinct = payload_bytes((a, a.copy()))
        assert single <= aliased < single + 256  # one buffer + envelope
        assert distinct >= 2 * single

    def test_summary_schema(self):
        tracer = CommTracer()

        def fn(comm):
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            sub.bcast(np.zeros(8), root=0)
            comm.send(b"x", dest=(comm.rank + 1) % comm.size)
            comm.recv(source=(comm.rank - 1) % comm.size)

        run_spmd(4, fn, tracer=tracer)
        doc = tracer.summary()
        assert doc["schema"] == SUMMARY_SCHEMA
        keys = [(g["comm"], g["op"], g["kind"]) for g in doc["groups"]]
        assert keys == sorted(keys)
        # the split's allgather, both colours' bcasts, and the
        # ring sends each aggregate into their own (comm, op, kind) group
        assert ("world", "allgather", "allgather") in keys
        assert ("world/0.0", "bcast", "bcast") in keys
        assert ("world/0.1", "bcast", "bcast") in keys
        assert ("world", "send", "p2p") in keys
        assert doc["total_messages"] == sum(
            g["messages"] for g in doc["groups"]
        ) == tracer.total_messages
        assert doc["total_bytes"] == sum(
            g["bytes"] for g in doc["groups"]
        ) == tracer.total_bytes

    def test_max_rank_volume(self):
        tracer = CommTracer()
        tracer.record(0, 1, 100, "p2p")
        tracer.record(0, 2, 50, "p2p")
        assert tracer.max_rank_volume() == 150
        tracer.clear()
        assert tracer.total_messages == 0


class TestGrid:
    def test_is_perfect_square(self):
        assert is_perfect_square(1)
        assert is_perfect_square(9)
        assert not is_perfect_square(8)

    def test_nearest_square_paper_values(self):
        # the paper runs on 64, 121, 256, 529, 1024, 2025 nodes — the
        # perfect squares nearest to 64, 128, 256, 512, 1024, 2048
        assert nearest_square(128) == 121
        assert nearest_square(512) == 529
        assert nearest_square(2048) == 2025
        assert nearest_square(64) == 64

    def test_nearest_square_invalid(self):
        with pytest.raises(ValueError):
            nearest_square(0)

    def test_block_ranges(self):
        r = block_ranges(10, 3)
        assert r == [(0, 4), (4, 7), (7, 10)]
        assert block_ranges(2, 3) == [(0, 1), (1, 2), (2, 2)]

    def test_grid_coordinates(self):
        def fn(comm):
            g = ProcessGrid.create(comm)
            assert g.rank_of(g.row, g.col) == comm.rank
            return (g.row, g.col, g.row_comm.size, g.col_comm.size)

        out = run_spmd(9, fn)
        assert out[4] == (1, 1, 3, 3)
        assert out[2] == (0, 2, 3, 3)

    def test_grid_requires_square(self):
        with pytest.raises(SpmdError):
            run_spmd(6, lambda comm: ProcessGrid.create(comm))

    def test_row_col_blocks(self):
        def fn(comm):
            g = ProcessGrid.create(comm)
            return (g.row_block(10), g.col_block(7))

        out = run_spmd(4, fn)
        assert out[0] == ((0, 5), (0, 4))
        assert out[3] == ((5, 10), (4, 7))

    def test_rank_of_bounds(self):
        def fn(comm):
            g = ProcessGrid.create(comm)
            try:
                g.rank_of(5, 0)
            except ValueError:
                return "ok"

        assert run_spmd(4, fn) == ["ok"] * 4
