"""Tests for :mod:`repro.analysis` — the per-file checkers of the static
analyzer — and the runtime checks that share its finding codes.

The static half works on seeded faults, each run through the one entry
point (``verify_source``): each checker gets a small source snippet
carrying exactly the defect it exists to catch, plus a pragma'd variant
proving the allowlist works, plus a clean variant proving no false
positive.  (The one whole-tree run lives in
``tests/test_verify.py``.)

The runtime half runs real SPMD programs at 1, 2, 3 and 4 ranks: a
divergent collective must raise a named :class:`SpmdError` (the lockstep
check when the ranks meet in one round, the wait-for graph when one
waits on peers that returned), and an unmatched send of any size must be
reported by the runner's teardown audit at once, which every run passes
through (the golden suite's distributed runs are its zero-false-positive
check).
"""

from __future__ import annotations

import textwrap
import time

import numpy as np
import pytest

from repro.analysis.report import FINDING_CODES, Finding, pragma_map
from repro.analysis.verify import verify_source
from repro.mpisim.backend import SpmdError, payload_digest, run_spmd


def codes(violations: list[Finding]) -> list[str]:
    return [v.code for v in violations]


def src(text: str) -> str:
    return textwrap.dedent(text)


# ---------------------------------------------------------------------------
# rank-divergent collectives, at helper depth 0 (deeper: test_verify.py)
# ---------------------------------------------------------------------------


def _rank_branch(comm):
    if comm.rank == 0:
        comm.barrier()


def _tainted_while(comm):
    # rank flows through a tuple unpack into the loop condition
    me, _peer = comm.rank, 1 - comm.rank
    while me < 1:
        comm.allgather(me)
        me += 10


def _uniform_branch(comm, n):
    # branching on a value every rank computes identically is fine
    if n > 4:
        comm.barrier()
    return n


class TestLintRankDivergence:
    """A collective only some ranks enter is the run's to name: the rank
    in it waits on peers that returned, and the wait-for graph names it
    within a second of the receive deadline."""

    def _named(self, body) -> str:
        t0 = time.monotonic()
        with pytest.raises(SpmdError) as exc:
            run_spmd(3, body, timeout=0.3)
        assert time.monotonic() - t0 < 1.3
        msg = str(exc.value)
        assert ("[rank-divergent-collective] world rank(s) 0 diverged"
                in msg), msg
        return msg

    def test_direct_rank_branch_flagged(self):
        assert "collective barrier()" in self._named(_rank_branch)

    def test_tainted_variable_and_while_flagged(self):
        assert "collective allgather()" in self._named(_tainted_while)

    def test_uniform_branch_not_flagged(self):
        assert run_spmd(3, _uniform_branch, 5) == [5] * 3

    def test_retired_pragma_is_unknown(self):
        # the static check is gone, so its pragma suppresses nothing
        out = verify_source(src("""
            def body(comm):
                if comm.rank == 0:  # spmd: rank-divergent-ok (probe)
                    comm.barrier()
        """), "repro/core/x.py")
        assert codes(out) == ["unknown-pragma"]

    def test_def_line_pragma_covers_whole_function(self):
        out = verify_source(src("""
            # the whole body is the reference path
            # spmd: hot-loop-ok (reference kernel)
            def body(rows):
                for r in rows:
                    pass
                while rows:
                    rows.pop()
        """), "repro/align/engine.py")
        assert out == []


# ---------------------------------------------------------------------------
# per-element Python loops in hot modules
# ---------------------------------------------------------------------------


class TestLintHotLoop:
    def test_per_element_loop_flagged_in_hot_module(self):
        body = src("""
            def kernel(vals):
                out = []
                for i, v in enumerate(vals):
                    out.append(v * 2)
                return out
        """)
        assert codes(verify_source(body, "repro/sparse/spgemm.py")) == [
            "python-hot-loop"
        ]
        # the same loop in a cold module is fine
        assert verify_source(body, "repro/core/graph.py") == []

    def test_per_sequence_loop_flagged_in_kmer_extraction(self):
        out = verify_source(src("""
            def store_kmers(store, k):
                rows = []
                for i in range(len(store)):
                    rows.append(unique_sequence_kmers(store.encoded(i), k))
                return rows
        """), "repro/kmers/extraction.py")
        assert codes(out) == ["python-hot-loop"]

    def test_pragma_on_outer_loop_covers_nested(self):
        out = verify_source(src("""
            def kernel(rows):
                # spmd: hot-loop-ok (reference path)
                for r in rows:
                    for v in r:
                        pass
        """), "repro/align/engine.py")
        assert out == []


# ---------------------------------------------------------------------------
# broad excepts
# ---------------------------------------------------------------------------


class TestLintTagsAndExcepts:
    def test_broad_except_flagged_and_narrow_ok(self):
        out = verify_source(src("""
            def risky():
                try:
                    work()
                except Exception:
                    pass

            def careful():
                try:
                    work()
                except (ValueError, KeyError):
                    pass

            def rethrows():
                try:
                    work()
                except Exception as exc:
                    raise RuntimeError("ctx") from exc
        """), "repro/core/x.py")
        assert codes(out) == ["broad-except"]
        assert out[0].line == 5


# ---------------------------------------------------------------------------
# pragma hygiene
# ---------------------------------------------------------------------------


class TestLintPragmasAndRepo:
    def test_unknown_pragma_flagged(self):
        out = verify_source(
            "x = 1  # spmd: tyop-ok (misspelled)\n", "repro/core/x.py"
        )
        assert codes(out) == ["unknown-pragma"]
        assert "tyop-ok" in out[0].message

    def test_every_check_has_a_pragma(self):
        # every static code but the two that report on the pragmas
        # themselves can be allowlisted in place
        static = {c for c, info in FINDING_CODES.items()
                  if "verify" in info.tools}
        assert set(pragma_map()) == static - {
            "unknown-pragma", "unused-pragma",
        }
        assert len(set(pragma_map().values())) == len(pragma_map())

    def test_unused_lint_pragma_flagged(self):
        out = verify_source(
            "x = 1  # spmd: hot-loop-ok (stale leftover)\n",
            "repro/core/x.py",
        )
        assert codes(out) == ["unused-pragma"]
        assert "hot-loop-ok" in out[0].message

    def test_working_pragma_is_not_unused(self):
        out = verify_source(src("""
            def kernel(rows):
                for r in rows:  # spmd: hot-loop-ok (reference)
                    pass
        """), "repro/align/engine.py")
        assert out == []

    @pytest.mark.parametrize("pragma", sorted(pragma_map().values()))
    def test_stale_pragma_of_any_static_code_flagged(self, pragma):
        # one run audits the whole vocabulary: no code's stale pragma is
        # somebody else's business
        out = verify_source(
            f"x = 1  # spmd: {pragma} (suppresses nothing)\n",
            "repro/core/x.py",
        )
        assert codes(out) == ["unused-pragma"]
        assert pragma in out[0].message


# ---------------------------------------------------------------------------
# runtime checks: fingerprints
# ---------------------------------------------------------------------------


class TestPayloadDigest:
    def test_digests_are_structural(self):
        assert payload_digest(None) == "None"
        assert payload_digest(np.zeros(4, dtype=np.int64)) == \
            "ndarray[<i8](4,)"
        assert payload_digest(b"abc") == "bytes[3]"
        assert payload_digest({"a": 1, "b": 2}) == "dict[2]"
        assert payload_digest((1, "x")) == "tuple[2](int, str)"

    def test_digest_never_reads_data(self):
        a = payload_digest(np.arange(8))
        b = payload_digest(np.arange(8) * 1000)
        assert a == b


# ---------------------------------------------------------------------------
# runtime checks: SPMD bodies (module-level for the spawn start method)
# ---------------------------------------------------------------------------


def _clean_body(comm):
    """A representative mix: collectives, a split with subcomm traffic,
    and matched p2p — must pass the teardown audit silently."""
    total = sum(comm.allgather(comm.rank))
    row = comm.split(comm.rank % 2, key=comm.rank)
    row_sum = sum(row.allgather(comm.rank))
    nxt = (comm.rank + 1) % comm.size
    prv = (comm.rank - 1) % comm.size
    comm.send(np.arange(4096, dtype=np.int64), nxt, tag=5)
    arr = comm.recv(source=prv, tag=5)
    comm.barrier()
    return total, row_sum, arr


def _diverge_body(comm):
    comm.bcast("warmup", root=0)
    if comm.rank == comm.size - 1:
        comm.barrier()
    else:
        comm.allgather(comm.rank)
    return comm.rank


def _unmatched_body(comm):
    if comm.rank == 0:
        comm.send("orphan", 1, tag=99)
    comm.barrier()
    return comm.rank


def _large_orphan_body(comm):
    # 1 MiB that nobody receives: it fills the receiver's inbox pipe, so
    # its sender's exit waits until the runner forces it down
    comm.barrier()
    if comm.rank == 0:
        comm.send(np.zeros(1 << 17, dtype=np.int64), 1, tag=99)
    return comm.rank


def _self_send_body(comm):
    comm.send("orphan", 0, tag=99)
    return comm.rank


# ---------------------------------------------------------------------------
# runtime checks: behaviour
# ---------------------------------------------------------------------------


class TestSanitizerRuntime:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_mismatched_collective_raises_named_error(self, nranks):
        with pytest.raises(SpmdError) as exc:
            run_spmd(nranks, _diverge_body, timeout=60.0)
        msg = str(exc.value)
        assert "comm sanitizer: collective mismatch" in msg
        # runtime findings carry the same code the static tools use
        assert "[rank-divergent-collective]" in msg
        assert "barrier" in msg and "allgather" in msg
        if nranks == 4:
            # with a clear majority the lone diverger is named
            assert "world rank(s) 3 diverged" in msg

    def test_unmatched_send_reported_at_teardown(self):
        with pytest.raises(SpmdError) as exc:
            run_spmd(4, _unmatched_body, timeout=60.0)
        msg = str(exc.value)
        assert "teardown audit failed" in msg
        assert "[unmatched-send]" in msg
        assert ("1 unmatched send(s) to world rank 1 "
                "(comm 'world', tag 99) from rank(s) [0]") in msg

    def test_clean_run_passes_audit(self):
        # _clean_body sends a 32 KiB ndarray round a ring and every send
        # is received: the audit must stay silent, and the array arrives
        out = run_spmd(2, _clean_body, timeout=60.0)
        assert [int(arr[7]) for _total, _row, arr in out] == [7, 7]

    def test_large_orphan_send_reported_at_once(self):
        start = time.monotonic()
        with pytest.raises(SpmdError) as exc:
            run_spmd(2, _large_orphan_body, timeout=60.0)
        elapsed = time.monotonic() - start
        assert ("[unmatched-send] 1 unmatched send(s) to world rank 1 "
                "(comm 'world', tag 99) from rank(s) [0]") in str(exc.value)
        assert elapsed < 2.0, f"orphan send held the run {elapsed:.2f}s"

    def test_inline_rank_audited(self):
        # the single rank runs inline, in this process, and is audited
        # all the same
        with pytest.raises(SpmdError) as exc:
            run_spmd(1, _self_send_body, timeout=60.0)
        assert ("[unmatched-send] 1 unmatched send(s) to world rank 0 "
                "(comm 'world', tag 99) from rank(s) [0]") in str(exc.value)
