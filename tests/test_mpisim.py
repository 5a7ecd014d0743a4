"""Tests for the SPMD runtime (one process per rank)."""

import os
import queue
import threading
import time

import numpy as np
import pytest

from repro.mpisim import ANY_SOURCE, CommBackend, SpmdError, run_spmd
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
            vals = CommBackend.waitall(reqs)
            return sorted(vals)

        out = run_spmd(3, fn)
        assert out[0] == [10, 20]
        assert out[2] == [0, 10]

    def test_bad_destination(self):
        with pytest.raises(SpmdError):
            run_spmd(2, lambda comm: comm.send(1, dest=5))


class TestRequestTest:
    """Regression: ``Request.test()`` used to return ``(False, None)``
    unconditionally for any pending request; it now performs a real
    non-blocking completion check (polling the inbox), which the
    alignment rebalance stage depends on."""

    def test_pending_then_completed(self):
        def fn(comm):
            if comm.rank == 1:
                req = comm.irecv(source=0, tag=7)
                before = req.test()          # nothing sent yet
                comm.send("go", dest=0)      # unblock the sender
                comm.recv(source=0, tag=8)   # message 7 is now queued too
                mid = req.test()             # completes without blocking
                after = req.test()           # latched
                return before, mid, after, req.wait()
            comm.recv(source=1)
            comm.send("payload", dest=1, tag=7)
            comm.send("fence", dest=1, tag=8)
            return None

        before, mid, after, waited = run_spmd(2, fn)[1]
        assert before == (False, None)
        assert mid == (True, "payload")
        assert after == (True, "payload")
        assert waited == "payload"

    def test_test_consumes_matching_message_once(self):
        def fn(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=9)  # fence: both sends delivered
                r1 = comm.irecv(source=0, tag=3)
                r2 = comm.irecv(source=0, tag=3)
                ok1, v1 = r1.test()
                ok2, v2 = r2.test()
                return ok1, v1, ok2, v2
            comm.send("first", dest=1, tag=3)
            comm.send("second", dest=1, tag=3)
            comm.send(None, dest=1, tag=9)
            return None

        ok1, v1, ok2, v2 = run_spmd(2, fn)[1]
        # FIFO per channel: each test() pops exactly one matching message
        assert (ok1, v1) == (True, "first")
        assert (ok2, v2) == (True, "second")

    def test_test_respects_source_and_tag(self):
        def fn(comm):
            if comm.rank == 2:
                comm.recv(source=0, tag=9)  # fence
                wrong = comm.irecv(source=1, tag=5).test()
                right = comm.irecv(source=0, tag=5).test()
                return wrong, right
            if comm.rank == 0:
                comm.send("hit", dest=2, tag=5)
                comm.send(None, dest=2, tag=9)
            return None

        wrong, right = run_spmd(3, fn)[2]
        assert wrong == (False, None)
        assert right == (True, "hit")

    def test_isend_request_is_complete(self):
        def fn(comm):
            if comm.rank == 0:
                req = comm.isend(1, dest=1)
                return req.test()
            return comm.recv(source=0)

        assert run_spmd(2, fn)[0] == (True, None)


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

    def test_scatter(self):
        def fn(comm):
            objs = [f"r{i}" for i in range(comm.size)] if comm.rank == 0 \
                else None
            return comm.scatter(objs, root=0)

        assert run_spmd(3, fn) == ["r0", "r1", "r2"]

    def test_scatter_wrong_length(self):
        def fn(comm):
            objs = [1] if comm.rank == 0 else None
            return comm.scatter(objs, root=0)

        with pytest.raises(SpmdError):
            run_spmd(2, fn)

    def test_alltoall(self):
        def fn(comm):
            return comm.alltoall(
                [comm.rank * 10 + dst for dst in range(comm.size)]
            )

        out = run_spmd(3, fn)
        assert out[0] == [0, 10, 20]
        assert out[2] == [2, 12, 22]

    def test_reduce(self):
        out = run_spmd(
            4, lambda comm: comm.reduce(comm.rank + 1, lambda a, b: a * b)
        )
        assert out[0] == 24
        assert out[1] is None

    def test_allreduce(self):
        out = run_spmd(
            4, lambda comm: comm.allreduce(comm.rank, lambda a, b: a + b)
        )
        assert out == [6] * 4

    def test_exscan(self):
        out = run_spmd(4, lambda comm: comm.exscan(comm.rank + 1))
        assert out == [0, 1, 3, 6]

    def test_repeated_collectives(self):
        def fn(comm):
            total = 0
            for i in range(20):
                total += comm.allreduce(i, lambda a, b: a + b)
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
                    sub.allreduce(comm.rank, lambda a, b: a + b))

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
        from repro.mpisim.mpcomm import _CHAN_P2P, _MPTransport, _dumps

        class LateInbox(queue.Queue):
            def get(self, block=True, timeout=None):
                if block:
                    # the waiter wakes after the deadline and the message
                    # has already landed — exactly the race the final
                    # drain closes
                    time.sleep(0.08)
                    self.put(("world", _CHAN_P2P, 1, 5,
                              _dumps("late", iter(()))))
                    raise queue.Empty
                return super().get(block, timeout)

        tp = _MPTransport(0, [LateInbox()], threading.Event(), 0.05, None,
                          "unused-")
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
            comm.send(b"x", dest=(comm.rank + 1) % comm.size, kind="ring")
            comm.recv(source=(comm.rank - 1) % comm.size)

        run_spmd(4, fn, tracer=tracer)
        doc = tracer.summary()
        assert doc["schema"] == SUMMARY_SCHEMA
        keys = [(g["comm"], g["op"], g["kind"]) for g in doc["groups"]]
        assert keys == sorted(keys)
        # the split fingerprint allgather, both colours' bcasts, and the
        # ring sends each aggregate into their own (comm, op, kind) group
        assert ("world", "allgather", "allgather") in keys
        assert ("world/0.0", "bcast", "bcast") in keys
        assert ("world/0.1", "bcast", "bcast") in keys
        assert ("world", "send", "ring") in keys
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
