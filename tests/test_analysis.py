"""Tests for :mod:`repro.analysis` — the per-file checkers of the static
analyzer and the runtime comm sanitizer.

The static half works on seeded faults, each run through the one entry
point (``verify_source`` / ``verify_sources``): each checker gets a small
source snippet carrying exactly the defect it exists to catch, plus a
pragma'd variant proving the allowlist works, plus a clean variant
proving no false positive.  (The one whole-tree run lives in
``tests/test_verify.py``.)

The sanitizer half runs real SPMD programs at 2 and 4 ranks: a
divergent collective must raise a named
:class:`SpmdError` (instead of deadlocking into the watchdog), unmatched
sends and leaked shared-memory segments must be reported by the teardown
audit, and a full ``run_pastis_distributed`` must pass byte-identical
with the sanitizer on (zero false positives).
"""

from __future__ import annotations

import textwrap
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.report import FINDING_CODES, Finding, pragma_map
from repro.analysis.sanitizer import payload_digest
from repro.analysis.verify import verify_source, verify_sources
from repro.bio.generate import scope_like
from repro.core.config import PastisConfig
from repro.core.distributed import run_pastis_distributed
from repro.mpisim.backend import SpmdError, run_spmd


def codes(violations: list[Finding]) -> list[str]:
    return [v.code for v in violations]


def src(text: str) -> str:
    return textwrap.dedent(text)


# ---------------------------------------------------------------------------
# rank-divergent collectives, at helper depth 0 (deeper: test_verify.py)
# ---------------------------------------------------------------------------


class TestLintRankDivergence:
    def test_direct_rank_branch_flagged(self):
        out = verify_source(src("""
            def body(comm):
                if comm.rank == 0:
                    comm.barrier()
        """), "repro/core/x.py")
        assert codes(out) == ["rank-divergent-collective"]
        assert "barrier" in out[0].message

    def test_tainted_variable_and_while_flagged(self):
        # rank flows through a tuple unpack into the loop condition
        out = verify_source(src("""
            def body(comm):
                me, peer = comm.rank, 1 - comm.rank
                while me < 1:
                    comm.allgather(me)
                    me += 10
        """), "repro/core/x.py")
        assert codes(out) == ["rank-divergent-collective"]

    def test_uniform_branch_not_flagged(self):
        # branching on a value every rank computes identically is fine
        out = verify_source(src("""
            def body(comm, n):
                if n > 4:
                    comm.barrier()
        """), "repro/core/x.py")
        assert out == []

    def test_pragma_suppresses(self):
        out = verify_source(src("""
            def body(comm):
                if comm.rank == 0:  # spmd: rank-divergent-ok (probe)
                    comm.barrier()
        """), "repro/core/x.py")
        assert out == []

    def test_def_line_pragma_covers_whole_function(self):
        out = verify_source(src("""
            # the whole body is intentionally divergent
            # spmd: rank-divergent-ok (fault-injection helper)
            def body(comm):
                if comm.rank == 0:
                    comm.barrier()
                if comm.rank == 1:
                    comm.allgather(None)
        """), "repro/core/x.py")
        assert out == []


# ---------------------------------------------------------------------------
# nondeterminism in plan code
# ---------------------------------------------------------------------------


class TestLintPlanNondeterminism:
    def test_set_iteration_flagged_in_plan_module(self):
        out = verify_source(src("""
            def plan(tasks):
                seen = {t.key for t in tasks}
                return [k for k in seen]
        """), "repro/core/balance.py")
        assert codes(out) == ["plan-nondeterminism"]

    def test_sorted_set_not_flagged(self):
        out = verify_source(src("""
            def plan(tasks):
                seen = {t.key for t in tasks}
                return sorted(seen)
        """), "repro/core/balance.py")
        assert out == []

    def test_clock_flagged_in_plan_module_only(self):
        body = src("""
            import time

            def cost():
                return time.perf_counter()
        """)
        assert codes(verify_source(body, "repro/perfmodel/x.py")) == [
            "plan-nondeterminism"
        ]
        # the same code outside a plan module is nobody's business
        assert verify_source(body, "repro/align/x.py") == []

    def test_unseeded_rng_flagged_seeded_ok(self):
        out = verify_source(src("""
            import numpy as np

            def jitter():
                return np.random.default_rng().random()

            def stable():
                return np.random.default_rng(7).random()
        """), "repro/perfmodel/x.py")
        assert codes(out) == ["plan-nondeterminism"]
        assert out[0].line == 5


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
# duplicate p2p tags and broad excepts
# ---------------------------------------------------------------------------


class TestLintTagsAndExcepts:
    def test_duplicate_tag_across_files_flagged(self):
        out = verify_sources([
            ("repro/core/a.py", "EXCHANGE_TAG = 55\n"),
            ("repro/core/b.py", "def f(c):\n    c.send(1, 0, tag=55)\n"),
        ])
        assert codes(out) == ["duplicate-p2p-tag"] * 2
        assert {v.path for v in out} == {"repro/core/a.py",
                                         "repro/core/b.py"}

    def test_same_tag_within_one_file_not_flagged(self):
        out = verify_sources([
            ("repro/core/a.py",
             "MY_TAG = 55\n\ndef f(c):\n    c.send(1, 0, tag=55)\n"),
        ])
        assert out == []

    def test_constant_named_tag_collision_resolved(self):
        # the tag rides a module constant in one file and a literal in
        # the other: the resolver must see they collide
        out = verify_sources([
            ("repro/core/a.py", src("""
                STEAL_TAG = 78

                def f(c):
                    c.send(1, 0, tag=STEAL_TAG)
            """)),
            ("repro/core/b.py",
             "def g(c):\n    c.recv(0, tag=78)\n"),
        ])
        assert codes(out) == ["duplicate-p2p-tag"] * 3
        assert any("tag=STEAL_TAG" in v.message for v in out)

    def test_shared_imported_constant_is_one_protocol(self):
        # two modules using the *same* imported constant are one
        # protocol, not a collision
        out = verify_sources([
            ("repro/core/a.py", src("""
                EXCH_TAG = 55

                def f(c):
                    c.send(1, 0, tag=EXCH_TAG)
            """)),
            ("repro/core/b.py", src("""
                from .a import EXCH_TAG

                def g(c):
                    c.recv(0, tag=EXCH_TAG)
            """)),
        ])
        assert out == []

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
        # every static code but the three that report on the pragmas and
        # the parse themselves can be allowlisted in place
        static = {c for c, info in FINDING_CODES.items()
                  if "verify" in info.tools}
        assert set(pragma_map()) == static - {
            "unknown-pragma", "unused-pragma", "syntax-error",
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
# sanitizer: fingerprints
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
# sanitizer: SPMD bodies (module-level for the spawn start method)
# ---------------------------------------------------------------------------


def _clean_body(comm):
    """A representative mix: collectives, a split with subcomm traffic,
    and matched p2p — must pass the sanitizer silently."""
    total = comm.allreduce(comm.rank, lambda a, b: a + b)
    row = comm.split(comm.rank % 2, key=comm.rank)
    row_sum = sum(row.allgather(comm.rank))
    nxt = (comm.rank + 1) % comm.size
    prv = (comm.rank - 1) % comm.size
    comm.send(np.arange(4096, dtype=np.int64), nxt, tag=5)
    arr = comm.recv(source=prv, tag=5)
    comm.barrier()
    return (total, row_sum, int(arr[7]))


def _diverge_body(comm):
    comm.bcast("warmup", root=0)
    if comm.rank == comm.size - 1:  # spmd: rank-divergent-ok (seeded fault)
        comm.barrier()
    else:
        comm.allgather(comm.rank)
    return comm.rank


def _unmatched_body(comm):
    if comm.rank == 0:  # spmd: rank-divergent-ok (seeded fault)
        comm.send("orphan", 1, tag=99)
    comm.barrier()
    return comm.rank


def _leak_body(comm):
    # a >= 8 KiB ndarray rides the mpcomm shared-memory path; nobody
    # receives it, so the segment is created and never unlinked
    if comm.rank == 0:  # spmd: rank-divergent-ok (seeded fault)
        comm.send(np.zeros(8192, dtype=np.int64), 1, tag=99)
    comm.barrier()
    return comm.rank


def _pipeline_body_not_needed():  # pragma: no cover
    pass


# ---------------------------------------------------------------------------
# sanitizer: behaviour
# ---------------------------------------------------------------------------


class TestSanitizerRuntime:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_clean_run_matches_unsanitized(self, nranks):
        bare = run_spmd(nranks, _clean_body, timeout=60.0)
        checked = run_spmd(nranks, _clean_body, comm_sanitize=True,
                           timeout=60.0)
        assert checked == bare

    @pytest.mark.parametrize("nranks", [2, 4])
    def test_mismatched_collective_raises_named_error(self, nranks):
        with pytest.raises(SpmdError) as exc:
            run_spmd(nranks, _diverge_body, comm_sanitize=True,
                     timeout=60.0)
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
            run_spmd(4, _unmatched_body, comm_sanitize=True,
                     timeout=60.0)
        msg = str(exc.value)
        assert "teardown audit failed" in msg
        assert "[unmatched-send]" in msg
        assert ("1 unmatched send(s) to world rank 1 "
                "(comm 'world', tag 99) from rank(s) [0]") in msg

    def test_unsanitized_orphan_send_passes(self):
        # the same program is silently accepted without the sanitizer —
        # this asymmetry is the tool's reason to exist
        out = run_spmd(4, _unmatched_body, timeout=60.0)
        assert out == [0, 1, 2, 3]


class TestSanitizerShmAudit:
    def test_leaked_segment_reported_on_mp(self):
        with pytest.raises(SpmdError) as exc:
            run_spmd(2, _leak_body, comm_sanitize=True, timeout=60.0)
        msg = str(exc.value)
        assert "[shm-leak]" in msg
        assert "leaked shared-memory segment(s)" in msg
        assert "created by rank(s) [0]" in msg
        # the orphan send is reported by the same audit
        assert "unmatched send(s)" in msg

    def test_received_segments_do_not_leak(self):
        # _clean_body ships a 32 KiB ndarray ring through shared memory
        # and every segment is consumed: the audit must stay silent
        out = run_spmd(2, _clean_body, comm_sanitize=True, timeout=60.0)
        assert len(out) == 2


# ---------------------------------------------------------------------------
# sanitizer: zero false positives on the real pipeline
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_data():
    return scope_like(
        n_families=3, members_per_family=(3, 3), length_range=(40, 60),
        divergence=0.15, seed=11,
    )


class TestSanitizerOnPipeline:
    def test_full_distributed_run_byte_identical(self, pipeline_data):
        store = pipeline_data.store
        base = PastisConfig(k=5, comm_sanitize=False)
        graph = run_pastis_distributed(store, base, nranks=4)
        checked = run_pastis_distributed(
            store, replace(base, comm_sanitize=True), nranks=4
        )
        assert np.array_equal(checked.ri, graph.ri)
        assert np.array_equal(checked.rj, graph.rj)
        assert np.array_equal(checked.weights, graph.weights)


# ---------------------------------------------------------------------------
# knob threading: CLI flag and environment default
# ---------------------------------------------------------------------------


class TestSanitizeKnob:
    def test_cli_flag_sets_config(self):
        from repro.cli import build_parser, config_from_args

        on = config_from_args(build_parser().parse_args(
            ["in.fa", "-o", "out.tsv", "--comm-sanitize"]
        ))
        assert on.comm_sanitize is True

    def test_env_default(self, monkeypatch):
        from repro.cli import build_parser, config_from_args

        monkeypatch.setenv("REPRO_COMM_SANITIZE", "1")
        cfg = config_from_args(build_parser().parse_args(
            ["in.fa", "-o", "out.tsv"]
        ))
        assert cfg.comm_sanitize is True
        monkeypatch.setenv("REPRO_COMM_SANITIZE", "0")
        cfg = config_from_args(build_parser().parse_args(
            ["in.fa", "-o", "out.tsv"]
        ))
        assert cfg.comm_sanitize is False
