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
import pickle
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.analysis.report import FINDING_CODES
from repro.mpisim import ProcessGrid, SpmdError, run_spmd
from repro.mpisim.backend import ANY_SOURCE
from repro.mpisim.mpcomm import Wait, diagnose_waits
from repro.mpisim.tracing import CommTracer


def spmd(nranks, fn, *args, timeout=60.0, tracer=None):
    return run_spmd(nranks, fn, *args, timeout=timeout, tracer=tracer)


# ---------------------------------------------------------------------------
# SPMD bodies
# ---------------------------------------------------------------------------


def _ring(comm):
    """Ring exchange of a (big ndarray, control) payload — the big array
    rides the inbox pipe like any payload."""
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
    vals = [r.wait() for r in rreqs]
    assert [r.wait() for r in reqs] == [None] * comm.size
    assert vals == [(src, comm.rank) for src in range(comm.size)]
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
    a2a = comm.alltoall([(comm.rank, dst) for dst in range(comm.size)])
    assert a2a == [(src, comm.rank) for src in range(comm.size)]
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


def _diverge(comm):
    """The last rank enters a different collective than its peers."""
    comm.bcast("warmup", root=0)
    if comm.rank == comm.size - 1:
        comm.barrier()
    else:
        comm.allgather(comm.rank)
    return comm.rank


def _row_diverge(comm):
    """World rank 3 (row rank 1 of row 1 on a 2 x 2 grid) diverges on
    its row communicator."""
    grid = ProcessGrid.create(comm)
    grid.row_comm.bcast("warmup", root=0)
    if comm.rank == 3:
        grid.row_comm.barrier()
    else:
        grid.row_comm.allgather(comm.rank)
    return comm.rank


def _barrier_against_row_bcast(comm):
    """World rank 0 enters a world barrier while its row peer enters a
    ``row_comm`` bcast: the two rounds are on different communicators,
    so no round sees both ops and the wait-for graph names them."""
    grid = ProcessGrid.create(comm)
    if comm.rank == 0:
        comm.barrier()
    else:
        grid.row_comm.bcast("payload", root=0)
    return comm.rank


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
    """Large and small arrays, nested in containers and non-contiguous,
    round-trip exactly."""
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


#: pickled bytes each send of this process's transport carried, by op
#: (filled by a ``send_env`` wrapper that the forked ranks inherit)
_moved: Counter = Counter()


def _alltoall_64k(comm):
    """An alltoall of ``size`` distinct 64 KiB arrays; returns the bytes
    this rank's transport moved per op."""
    _moved.clear()
    got = comm.alltoall([np.full(1 << 13, comm.size * comm.rank + d)
                         for d in range(comm.size)])
    assert [int(a[0]) for a in got] == [comm.size * s + comm.rank
                                        for s in range(comm.size)]
    return dict(_moved)


def _traced(comm):
    comm.send(np.zeros(100, dtype=np.uint8), (comm.rank + 1) % comm.size,
              tag=2)
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

    def test_collective_timeout_names_the_op(self):
        """A collective's timeout names the op its rank entered, next to
        the communicator and the round's generation."""
        with pytest.raises(SpmdError,
                           match=r"collective barrier\(\) \(comm='world', "
                                 r"generation \d+\) timed out after 0\.5s"):
            spmd(4, _barrier_against_row_bcast, timeout=0.5)

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
        assert kinds.get("p2p") == 4
        assert kinds.get("allgather") == 4 * 3


class TestLockstepCheck:
    """Every collective's exchange round compares the op names the ranks
    entered, in every run: a divergence raises the named error in
    the round where it happens, instead of silently crossing values
    between two collectives of the same shape."""

    @pytest.mark.parametrize("nranks", [2, 4])
    def test_divergent_collective_named(self, nranks):
        t0 = time.monotonic()
        with pytest.raises(SpmdError) as exc_info:
            spmd(nranks, _diverge, timeout=60.0)
        assert time.monotonic() - t0 < 2.0
        msg = str(exc_info.value)
        assert "[rank-divergent-collective]" in msg
        assert "barrier" in msg and "allgather" in msg
        if nranks == 4:
            assert "world rank(s) 3 diverged" in msg

    def test_row_comm_divergence_names_world_ranks(self):
        t0 = time.monotonic()
        with pytest.raises(SpmdError) as exc_info:
            spmd(4, _row_diverge, timeout=60.0)
        assert time.monotonic() - t0 < 2.0
        msg = str(exc_info.value)
        assert "[rank-divergent-collective]" in msg
        assert "world rank(s) 3 diverged" in msg
        assert "world rank 2: allgather()" in msg


def _slow_rank_before_barrier(comm):
    """Rank 0 computes 2.5 s before a barrier its peers wait in: slow
    work, not a deadlock."""
    if comm.rank == 0:
        time.sleep(2.5)
    comm.barrier()
    return comm.rank


def _self_recv(comm):
    return comm.recv(source=0, tag=9)


def _coded(msg: str) -> list[str]:
    """The finding codes ``msg`` names."""
    return [code for code in FINDING_CODES if f"[{code}]" in msg]


def _error_of(nranks, fn, timeout) -> str:
    with pytest.raises(SpmdError) as exc_info:
        spmd(nranks, fn, timeout=timeout)
    return str(exc_info.value)


class TestWaitForGraph:
    """A run whose receive timed out is named from every blocked rank's
    wait: a deadlock across different collectives, or through a recv
    nothing is in flight to, carries its code; a chain that ends at a
    rank outside communication names that rank, with no code."""

    def test_slow_rank_is_named_without_a_code(self):
        msg = _error_of(4, _slow_rank_before_barrier, 1.0)
        assert ("the waits end at world rank(s) [0], outside "
                "communication") in msg, msg
        assert _coded(msg) == [], msg

    def test_traffic_is_not_a_deadlock(self):
        # rank 1 is sending, not waiting, when rank 0's barrier expires
        msg = _error_of(3, _barrier_amid_traffic, 0.5)
        assert "outside communication" in msg, msg
        assert _coded(msg) == [], msg

    def test_waits_on_different_communicators_diverge(self):
        msg = _error_of(4, _barrier_against_row_bcast, 0.5)
        assert _coded(msg) == ["rank-divergent-collective"], msg
        assert ("world rank 1 in collective bcast() (comm='world/0.0', "
                "generation 0) misses world rank(s) [0]") in msg

    def test_recv_with_nothing_in_flight_is_unmatched(self):
        msg = _error_of(2, _late_barrier_victim, 0.5)
        assert ("[unmatched-recv] nothing is in flight to world rank 1 in "
                "recv(comm='world', source=0, tag=404)") in msg, msg

    def test_inline_rank_waiting_on_itself(self):
        msg = _error_of(1, _self_recv, 0.3)
        assert ("[unmatched-recv] nothing is in flight to world rank 0 in "
                "recv(comm='world', source=0, tag=9)") in msg, msg

    def test_majority_op_names_the_diverging_rank(self):
        # the SUMMA mutant's graph: rank 0 in a world barrier, the others
        # in row / column bcasts that miss it (or each other)
        waits = {
            0: Wait("world", "barrier", 6, None, None, (1, 2, 3)),
            1: Wait("world/0.0", "bcast", 0, None, None, (0,)),
            2: Wait("world/1.0", "bcast", 0, None, None, (0,)),
            3: Wait("world/1.1", "bcast", 0, None, None, (1,)),
        }
        msg = diagnose_waits(waits, dict.fromkeys(waits, ({}, {})), ())
        assert msg.startswith("wait-for graph: [rank-divergent-collective] "
                              "world rank(s) 0 diverged"), msg

    def test_wildcard_recv_needs_one_live_source(self):
        # rank 0 waits for anyone; rank 2 is computing, so rank 0 (and
        # rank 1, which waits on rank 0) may still complete
        waits = {0: Wait("world", "recv", None, ANY_SOURCE, 5, (0, 1, 2)),
                 1: Wait("world", "recv", None, 0, 5, (0,))}
        msg = diagnose_waits(waits, dict.fromkeys(waits, ({}, {})), ())
        assert "world rank(s) [2], outside communication" in msg, msg
        assert _coded(msg) == [], msg

    def test_a_message_in_flight_is_not_an_unmatched_recv(self):
        # rank 0 waits on rank 1 while rank 2's tag-5 message to it sits
        # unmatched; rank 1 waits in a barrier on rank 0
        waits = {0: Wait("world", "recv", None, 1, 5, (1,)),
                 1: Wait("world", "barrier", 0, None, None, (0,))}
        ledgers = {0: ({}, {}), 1: ({}, {}),
                   2: ({("world", 0, 5): 1}, {})}
        msg = diagnose_waits(waits, ledgers, (2,))
        assert "world rank(s) [0, 1] wait on each other" in msg, msg
        assert _coded(msg) == [], msg


def _where_am_i(comm):
    return threading.get_ident(), os.getpid()


def _slow_compute(comm, seconds):
    time.sleep(seconds)  # no comm call: nothing but a run deadline can end it
    return max(comm.allgather(7))


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
            spmd(1, _self_recv, timeout=0.3)
        assert time.monotonic() - t0 < 2.0

    def test_source_outside_the_communicator_fails_at_once(self):
        # the same check send makes: recv(source=1) on a 1-rank world
        # raises instead of waiting out the timeout
        t0 = time.monotonic()
        with pytest.raises(SpmdError,
                           match=r"ValueError\('bad source rank 1'\)"):
            spmd(1, _recv_never_satisfied, timeout=60.0)
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
    tracing regression moves these numbers.  The teardown audit adds no
    traffic: the runner reads each rank's ledger from its result."""

    EXACT = dict(k=5)
    # the sym. exchange carries 8-byte counts plus seeds for the
    # CK-passing entries only
    SUBS = dict(k=5, substitutes=4, common_kmer_threshold=1,
                align_balance="greedy")

    @pytest.mark.parametrize("knobs, totals", [
        pytest.param(EXACT, (67, 788_256), id="exact"),
        pytest.param(SUBS, (125, 1_756_810), id="subs-ck-greedy"),
    ])
    def test_summary_totals_pinned(self, knobs, totals):
        from repro.bio.generate import scope_like
        from repro.core.config import PastisConfig
        from repro.core.distributed import run_pastis_distributed

        store = scope_like(n_families=6, seed=3).store
        tracer = CommTracer()
        config = PastisConfig(**knobs)
        run_pastis_distributed(store, config, nranks=4, tracer=tracer)
        summary = tracer.summary()
        assert (summary["total_messages"], summary["total_bytes"]) == totals


class TestMovedBytes:
    def test_alltoall_moves_only_its_traced_bytes(self, monkeypatch):
        """Each rank sends every peer only the part meant for it, so the
        pickled bytes an alltoall moves are its traced bytes (plus the
        envelope), not the whole contribution matrix."""
        from repro.mpisim.backend import _CHAN_COLL
        from repro.mpisim.mpcomm import _MPTransport

        send_env = _MPTransport.send_env

        def counting(self, comm_id, chan, dst_world, src, tag, obj):
            op = obj[0] if chan == _CHAN_COLL else f"channel {chan}"
            _moved[op] += len(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
            send_env(self, comm_id, chan, dst_world, src, tag, obj)

        monkeypatch.setattr(_MPTransport, "send_env", counting)
        tracer = CommTracer()
        moved = spmd(4, _alltoall_64k, tracer=tracer)
        traced: Counter = Counter()
        for rec in tracer.records:
            assert rec.op == "alltoall"
            traced[rec.src] += rec.nbytes
        for rank, per_op in enumerate(moved):
            assert sum(per_op.values()) <= 1.1 * traced[rank], \
                (rank, traced[rank], per_op)
            assert set(per_op) == {"alltoall"}, per_op


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
        """A 1-rank pipeline run does not import ``multiprocessing``: it
        is loaded only where processes are created."""
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
            "print('multiprocessing' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=tmp_path,
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"
