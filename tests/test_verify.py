"""Tests for the static SPMD analyzer's whole-program half
(:mod:`repro.analysis.verify` and its substrate modules).

The backbone is seeded faults no per-scope pass can see: a divergent
collective behind one or two helper calls, taint through a return value
or a parameter, a send whose partner lives a module away.  The rest
covers the substrate (project index, symbol resolution, call graph,
taint laundering), the pragma/baseline suppression surfaces, the JSON
schema and exit-code contract, the fault corpus on the shipped SPMD
source, and the two whole-repo gates: the shipped tree analyzes clean
(the one whole-tree run of tier-1), and the committed baseline file is
valid and empty.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.callgraph import CallGraph, ProjectIndex, read_tree
from repro.analysis.dataflow import (
    COLLECTIVE_OPS,
    RECV_OPS,
    SEND_OPS,
    RankTaint,
)
from repro.analysis.report import (
    BASELINE_SCHEMA,
    FINDING_CODES,
    SCHEMA,
    Finding,
    load_baseline,
)
from repro.analysis.schedule import ScheduleAnalysis
from repro.analysis.verify import (
    main as verify_main,
    verify_paths,
    verify_source,
    verify_sources,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def src(text: str) -> str:
    return textwrap.dedent(text)


def codes(findings) -> list[str]:
    return [f.code for f in findings]


def build(named):
    index = ProjectIndex.build_from_sources(named)
    graph = CallGraph(index)
    return index, graph, RankTaint(index, graph)


# ---------------------------------------------------------------------------
# seeded interprocedural faults (invisible to any per-scope pass)
# ---------------------------------------------------------------------------

ONE_DEEP = src("""
    def helper(comm):
        comm.barrier()

    def body(comm):
        if comm.rank == 0:
            helper(comm)
""")

TWO_DEEP = src("""
    def inner(comm):
        comm.bcast(None, root=0)

    def mid(comm):
        inner(comm)

    def body(comm):
        if comm.rank == 0:
            mid(comm)
""")

UNMATCHED_2DEEP = [
    ("repro/core/proto.py", src("""
        ORPHAN_TAG = 91

        def fire(comm, peer):
            comm.send(b"x", peer, tag=ORPHAN_TAG)
    """)),
    ("repro/core/x.py", src("""
        from .proto import fire

        def mid(comm):
            fire(comm, 1)

        def body(comm):
            mid(comm)
            comm.barrier()
    """)),
]


class TestCatchesWhatLintMisses:
    def test_divergent_collective_one_helper_deep(self):
        named = [("repro/core/x.py", ONE_DEEP)]
        out = verify_sources(named)
        assert codes(out) == ["rank-divergent-collective"]
        assert out[0].line == 6                   # at the branch
        assert "barrier" in out[0].message

    def test_divergent_collective_two_helpers_deep(self):
        named = [("repro/core/x.py", TWO_DEEP)]
        out = verify_sources(named)
        assert codes(out) == ["rank-divergent-collective"]
        assert "bcast" in out[0].message

    def test_taint_returned_through_helper(self):
        # the branch test itself is laundered through a helper's return
        named = [("repro/core/x.py", src("""
            def leader(comm):
                return comm.rank == 0

            def body(comm):
                if leader(comm):
                    comm.barrier()
        """))]
        assert codes(verify_sources(named)) == [
            "rank-divergent-collective"
        ]

    def test_taint_through_helper_parameter(self):
        # rank enters a helper via its parameter and guards a collective
        named = [("repro/core/x.py", src("""
            def guarded(comm, me):
                if me == 0:
                    comm.barrier()

            def body(comm):
                guarded(comm, comm.rank)
        """))]
        assert codes(verify_sources(named)) == [
            "rank-divergent-collective"
        ]

    def test_unmatched_send_two_helpers_and_a_module_away(self):
        out = verify_sources(UNMATCHED_2DEEP)
        assert codes(out) == ["unmatched-send"]
        assert out[0].path == "repro/core/proto.py"
        assert "ORPHAN_TAG" in out[0].message

    def test_rank_bounded_loop_with_collective(self):
        named = [("repro/core/x.py", src("""
            def body(comm):
                for _ in range(comm.rank):
                    comm.barrier()
        """))]
        assert codes(verify_sources(named)) == [
            "rank-divergent-collective"
        ]


# ---------------------------------------------------------------------------
# precision: what the verifier must NOT flag
# ---------------------------------------------------------------------------


class TestPrecision:
    def test_symmetric_arms_pass(self):
        # both arms run the same collective sequence (through different
        # helpers): rank-dependent control, uniform schedule
        out = verify_source(src("""
            def a(comm):
                comm.barrier()

            def b(comm):
                comm.barrier()

            def body(comm):
                if comm.rank == 0:
                    a(comm)
                else:
                    b(comm)
        """))
        assert out == []

    def test_collective_results_launder_taint(self):
        # allgather/bcast/allreduce results are uniform by construction,
        # so branching on them is fine even though the argument is
        # rank-local
        out = verify_source(src("""
            def body(comm):
                counts = comm.allgather(comm.rank)
                total = comm.allreduce(comm.rank, max)
                if max(counts) > 2 and total > 1:
                    comm.barrier()
        """))
        assert out == []

    def test_attribute_access_does_not_launder_rank_in(self):
        # grid.q is uniform even when grid also carries grid.row — the
        # SUMMA k-loop pattern must not be flagged
        out = verify_source(src("""
            def body(grid, comm):
                q = grid.q
                for t in range(q):
                    comm.bcast(None, root=t)
                if grid.row == 0:
                    pass
        """))
        assert out == []

    def test_rank_guarded_p2p_is_not_divergence(self):
        # asymmetric send/recv under a rank branch is how protocols are
        # written; only *collective* asymmetry is divergence
        out = verify_source(src("""
            def body(comm):
                if comm.rank == 0:
                    comm.send(b"x", 1, tag=3)
                else:
                    comm.recv(source=0, tag=3)
                comm.barrier()
        """))
        assert out == []

    def test_matched_cross_module_pair_passes(self):
        out = verify_sources([
            ("repro/core/proto.py", src("""
                PAIR_TAG = 91

                def fire(comm, peer):
                    comm.send(b"x", peer, tag=PAIR_TAG)

                def take(comm, peer):
                    return comm.recv(source=peer, tag=PAIR_TAG)
            """)),
            ("repro/core/x.py", src("""
                from .proto import fire, take

                def body(comm):
                    if comm.rank == 0:
                        fire(comm, 1)
                    else:
                        take(comm, 0)
            """)),
        ])
        assert out == []

    def test_dynamic_tag_matches_anything(self):
        # a computed tag cannot be checked statically: under-report
        out = verify_source(src("""
            def body(comm, job):
                comm.send(b"x", 1, tag=job * 2)
        """))
        assert out == []


class TestUnmatchedRecvAndSuppression:
    def test_unmatched_recv_is_a_warning(self):
        out = verify_source(src("""
            def body(comm):
                return comm.recv(source=0, tag=44)
        """))
        assert codes(out) == ["unmatched-recv"]
        assert out[0].severity == "warning"

    def test_pragma_suppresses_verifier_finding(self):
        out = verify_source(src("""
            def helper(comm):
                comm.barrier()

            def body(comm):
                if comm.rank == 0:  # spmd: rank-divergent-ok (probe)
                    helper(comm)
        """))
        assert out == []

    def test_unmatched_send_pragma(self):
        out = verify_source(src("""
            def body(comm):
                # spmd: unmatched-send-ok (sink rank drains later)
                comm.send(b"x", 1, tag=93)
        """))
        assert out == []

    def test_used_pragma_of_either_tool_not_reported(self):
        # the pragma suppresses a per-file finding only; the whole-program
        # half must see that usage and not call it stale
        out = verify_sources([("repro/sparse/spgemm.py", src("""
            def kernel(rows):
                for r in rows:  # spmd: hot-loop-ok (reference)
                    pass
        """))])
        assert out == []

    def test_syntax_error_reported(self):
        out = verify_source("def broken(:\n")
        assert codes(out) == ["syntax-error"]


# ---------------------------------------------------------------------------
# fault corpus: text mutants of the shipped SPMD source
# ---------------------------------------------------------------------------

_SPMD_FILES = (
    "core/distributed.py", "core/balance.py", "core/exchange.py",
    "sparse/summa.py",
    # what those four import comm objects and block layouts from
    "mpisim/grid.py", "sparse/distmat.py",
)

_RANK_GUARDED_BARRIER = "    if {0}.rank == 0:\n        {0}.barrier()\n"

#: name -> (file, anchor text, replacement, the one code it must yield);
#: ``{anchor}`` in a replacement keeps the anchor, so the mutant inserts
_MUTANTS = {
    "divergent-barrier-depth0-pastis_rank": (
        "core/distributed.py", "    n = index.total\n",
        "{anchor}" + _RANK_GUARDED_BARRIER.format("comm"),
        "rank-divergent-collective"),
    "divergent-barrier-depth1-block_pairs": (
        "core/distributed.py", '    with _timed(timings, "tr. A"):\n',
        _RANK_GUARDED_BARRIER.format("comm") + "{anchor}",
        "rank-divergent-collective"),
    "divergent-barrier-depth2-summa": (
        "sparse/summa.py", "    inner_ranges = block_ranges(a.ncols, q)\n",
        "{anchor}" + _RANK_GUARDED_BARRIER.format("grid.comm"),
        "rank-divergent-collective"),
    "allgather-in-rank-bounded-loop": (
        "core/distributed.py", "    n = index.total\n",
        "{anchor}    for _ in range(comm.rank):\n"
        "        comm.allgather(n)\n",
        "rank-divergent-collective"),
    "rebal-irecv-removed": (
        "core/balance.py", "comm.irecv(src, tag=_TAG_REBAL)", "None",
        "unmatched-send"),
    "rebal-tag-collides-with-exchange": (
        "core/balance.py", "_TAG_REBAL = 77\n", "_TAG_REBAL = 55\n",
        "duplicate-p2p-tag"),
    "set-iterated-in-greedy_plan": (
        "core/balance.py", "    for neg_cost, src, idx in pool:\n",
        "    for neg_cost, src, idx in set(pool):\n",
        "plan-nondeterminism"),
    "bcast-of-a-module-constant": (
        "core/balance.py", "    plan = greedy_plan(comm.allgather(costs))\n",
        "    comm.bcast(_TAG_REBAL, root=0)\n{anchor}",
        "redundant-collective"),
    "per-element-isend-in-plan_and_ship": (
        "core/balance.py", "    plan = greedy_plan(comm.allgather(costs))\n",
        "{anchor}    for task in tasks:\n"
        "        comm.isend(task, dest=0, tag=_TAG_REBAL)\n",
        "per-element-send"),
}


@pytest.fixture(scope="module")
def spmd_sources():
    root = REPO_ROOT / "src" / "repro"
    return dict(read_tree([root / rel for rel in _SPMD_FILES]))


class TestFaultCorpus:
    """The static slice of the tool x fault matrix: each fault seeded
    into the *real* pipeline source is reported under its own code, and
    under no other."""

    def test_shipped_spmd_source_is_clean(self, spmd_sources):
        assert verify_sources(list(spmd_sources.items())) == []

    @pytest.mark.parametrize("name", sorted(_MUTANTS))
    def test_mutant_yields_exactly_its_code(self, spmd_sources, name):
        rel, anchor, replacement, code = _MUTANTS[name]
        path = f"repro/{rel}"
        source = spmd_sources[path]
        assert source.count(anchor) == 1, f"anchor moved: {anchor!r}"
        mutated = dict(spmd_sources)
        mutated[path] = source.replace(
            anchor, replacement.replace("{anchor}", anchor))
        out = verify_sources(list(mutated.items()))
        assert set(codes(out)) == {code}, [f.render() for f in out]


# ---------------------------------------------------------------------------
# substrate: index, resolution, call graph, op tables
# ---------------------------------------------------------------------------


class TestSubstrate:
    def test_module_name_anchors_out_of_tree_paths(self):
        # absolute CLI arguments outside the installed tree must still
        # resolve imports: anchor at the first "repro" path component
        from repro.analysis.callgraph import module_name as fn

        assert fn("repro/core/balance.py") == "repro.core.balance"
        assert fn("repro/core/__init__.py") == "repro.core"
        assert (fn("/tmp/work/repro/demo/helpers.py")
                == "repro.demo.helpers")

    def test_symbol_resolution_chain(self):
        index, graph, _ = build([
            ("repro/pkg/helpers.py", src("""
                def leaf(comm):
                    comm.barrier()
            """)),
            ("repro/pkg/mid.py", src("""
                from .helpers import leaf

                def relay(comm):
                    leaf(comm)
            """)),
            ("repro/main.py", src("""
                from pkg.mid import relay

                def top(comm):
                    relay(comm)
            """)),
        ])
        reach = graph.reachable(["repro.pkg.mid.relay"])
        assert "repro.pkg.helpers.leaf" in reach

    def test_method_and_nested_resolution(self):
        index, graph, _ = build([("repro/m.py", src("""
            class Widget:
                def ping(self, comm):
                    comm.barrier()

                def run(self, comm):
                    self.ping(comm)

            def outer(comm):
                def inner():
                    comm.barrier()
                inner()
        """))])
        assert ("repro.m.Widget.ping"
                in graph.reachable(["repro.m.Widget.run"]))
        assert ("repro.m.outer.<locals>.inner"
                in graph.reachable(["repro.m.outer"]))

    def test_run_spmd_argument_is_an_entry(self):
        named = [("repro/m.py", src("""
            from repro.mpisim.backend import run_spmd

            def body(comm):
                comm.barrier()

            def launch():
                return run_spmd(4, body)
        """))]
        index, graph, taint = build(named)
        assert "repro.m.body" in graph.spmd_entries
        sched = ScheduleAnalysis(index, graph, taint)
        assert "repro.m.body" in sched.entry_points

    def test_constant_resolution_identity(self):
        index, _, _ = build([
            ("repro/a.py", "STEAL_TAG = 78\n"),
            ("repro/b.py", "from .a import STEAL_TAG\n"),
        ])
        import ast as _ast
        mod_b = index.modules["repro.b"]
        expr = _ast.parse("STEAL_TAG", mode="eval").body
        assert index.resolve_int_constant(mod_b, expr) == \
            ("repro.a.STEAL_TAG", 78)

    def test_op_tables_mirror_backend(self):
        from repro.mpisim.backend import COMM_OP_KINDS

        assert COLLECTIVE_OPS == {
            op for op, kind in COMM_OP_KINDS.items()
            if kind == "collective"
        }
        assert SEND_OPS == {op for op, kind in COMM_OP_KINDS.items()
                            if kind == "send"}
        assert RECV_OPS == {op for op, kind in COMM_OP_KINDS.items()
                            if kind == "recv"}

    def test_every_finding_code_has_severity_and_tools(self):
        for code, info in FINDING_CODES.items():
            assert info.severity in ("error", "warning"), code
            assert info.tools, code


# ---------------------------------------------------------------------------
# the whole repo, the committed baseline, and the CLI contract
# ---------------------------------------------------------------------------


class TestRepoAndCli:
    def test_repo_verifies_clean(self):
        out = verify_paths()
        assert out == [], "\n".join(f.render() for f in out)

    def test_committed_baseline_is_valid_and_empty(self):
        fingerprints = load_baseline(REPO_ROOT / "spmd-baseline.json")
        assert fingerprints == set()

    def test_cli_exit_codes_and_text(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(comm):\n    comm.barrier()\n")
        assert verify_main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out
        bad = tmp_path / "deep.py"
        bad.write_text(ONE_DEEP)
        assert verify_main([str(bad)]) == 1
        assert "rank-divergent-collective" in capsys.readouterr().out

    def test_cli_json_document(self, tmp_path, capsys):
        bad = tmp_path / "deep.py"
        bad.write_text(ONE_DEEP)
        out_file = tmp_path / "findings.json"
        rc = verify_main([str(bad), "--format", "json",
                          "--output", str(out_file)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == SCHEMA
        assert doc["tool"] == "verify"
        assert doc["counts"]["error"] == 1
        entry = doc["findings"][0]
        assert entry["code"] == "rank-divergent-collective"
        assert entry["severity"] == "error"
        assert entry["fingerprint"]
        # the artifact file carries the identical document
        assert json.loads(out_file.read_text()) == doc

    def test_baseline_accepts_old_flags_new(self, tmp_path, capsys):
        target = tmp_path / "deep.py"
        target.write_text(ONE_DEEP)
        baseline = tmp_path / "baseline.json"
        assert verify_main([str(target), "--write-baseline",
                            str(baseline)]) == 0
        doc = json.loads(baseline.read_text())
        assert doc["schema"] == BASELINE_SCHEMA
        assert len(doc["findings"]) == 1
        capsys.readouterr()

        # the baselined finding no longer fails the run
        assert verify_main([str(target), "--baseline",
                            str(baseline)]) == 0
        assert "baselined" in capsys.readouterr().out

        # fingerprints are line-insensitive: shifting the file keeps
        # the old finding suppressed
        target.write_text("# a new leading comment\n" + ONE_DEEP)
        assert verify_main([str(target), "--baseline",
                            str(baseline)]) == 0
        capsys.readouterr()

        # ... but a genuinely new finding still fails
        target.write_text(ONE_DEEP + src("""
            def extra(comm):
                comm.send(b"x", 1, tag=93)
                comm.barrier()
        """))
        assert verify_main([str(target), "--baseline",
                            str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "unmatched-send" in out
        assert "rank-divergent-collective" not in out

    def test_unusable_baseline_exits_2(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("def f(comm):\n    comm.barrier()\n")
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert verify_main([str(target), "--baseline",
                            str(bogus)]) == 2

    def test_fingerprint_normalises_line_references(self):
        a = Finding("repro/x.py", 5, "c", "branch at line 5 diverges")
        b = Finding("repro/x.py", 9, "c", "branch at line 9 diverges")
        assert a.fingerprint() == b.fingerprint()
