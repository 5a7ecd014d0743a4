"""Tests for the static SPMD analyzer (:mod:`repro.analysis.verify`)
and for the runtime that took over its interprocedural checks.

The seeded faults the analyzer's retired rank-taint and schedule engines
were built for — a divergent collective behind one or two helper calls,
taint through a return value or a parameter, a recv nobody sends to —
are run here instead, and the runner's wait-for graph must name them;
their precision cases must run clean.  The rest covers the project
index, the pragma/baseline suppression surfaces, the JSON schema and
exit-code contract, the tool x fault matrix on the shipped tree (which
static code and which run name each seeded fault, and so which codes
the analyzer keeps), and the two whole-repo gates: the shipped tree
analyzes clean (the one whole-tree run of tier-1), and the committed
baseline file is valid and empty.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.analysis.index import ProjectIndex, read_tree
from repro.analysis.report import (
    BASELINE_SCHEMA,
    FINDING_CODES,
    SCHEMA,
    Finding,
    load_baseline,
)
from repro.analysis.verify import (
    main as verify_main,
    verify_paths,
    verify_source,
    verify_sources,
)
from repro.mpisim.backend import SpmdError, run_spmd
from repro.mpisim.grid import ProcessGrid

REPO_ROOT = Path(__file__).resolve().parents[1]


def src(text: str) -> str:
    return textwrap.dedent(text)


def codes(findings) -> list[str]:
    return [f.code for f in findings]


def deadlock(nranks: int, body, timeout: float = 0.3) -> str:
    """The error a run of ``body`` raises; it must come within a second
    of the receive deadline."""
    t0 = time.monotonic()
    with pytest.raises(SpmdError) as exc_info:
        run_spmd(nranks, body, timeout=timeout)
    assert time.monotonic() - t0 < timeout + 1.0
    return str(exc_info.value)


# ---------------------------------------------------------------------------
# seeded interprocedural faults: the run names them at any helper depth
# ---------------------------------------------------------------------------


def _barrier(comm):
    comm.barrier()


def _bcast_inner(comm):
    comm.bcast(None, root=0)


def _bcast_mid(comm):
    _bcast_inner(comm)


def _one_deep(comm):
    if comm.rank == 0:
        _barrier(comm)


def _two_deep(comm):
    if comm.rank == 0:
        _bcast_mid(comm)


def _leader(comm):
    return comm.rank == 0


def _taint_returned(comm):
    # the branch test is laundered through a helper's return
    if _leader(comm):
        comm.barrier()


def _guarded(comm, me):
    if me == 0:
        comm.barrier()


def _taint_parameter(comm):
    # rank enters a helper via its parameter and guards a collective
    _guarded(comm, comm.rank)


def _rank_bounded_loop(comm):
    for _ in range(comm.rank):
        comm.barrier()


DIVERGED = "[rank-divergent-collective] world rank(s) {} diverged"


class TestCatchesWhatLintMisses:
    """A collective only some ranks enter, however deep in helpers: the
    rank that entered it waits on peers that returned, and the wait-for
    graph names it."""

    def test_divergent_collective_one_helper_deep(self):
        msg = deadlock(3, _one_deep)
        assert DIVERGED.format(0) in msg
        assert "collective barrier()" in msg

    def test_divergent_collective_two_helpers_deep(self):
        msg = deadlock(3, _two_deep)
        assert DIVERGED.format(0) in msg
        assert "collective bcast()" in msg

    def test_taint_returned_through_helper(self):
        assert DIVERGED.format(0) in deadlock(3, _taint_returned)

    def test_taint_through_helper_parameter(self):
        assert DIVERGED.format(0) in deadlock(3, _taint_parameter)

    def test_rank_bounded_loop_with_collective(self):
        assert DIVERGED.format(1) in deadlock(2, _rank_bounded_loop)


# ---------------------------------------------------------------------------
# precision: rank-dependent control flow with a uniform schedule runs clean
# ---------------------------------------------------------------------------


def _arm_a(comm):
    comm.barrier()


def _arm_b(comm):
    comm.barrier()


def _symmetric_arms(comm):
    # both arms run the same collective sequence, through different
    # helpers
    if comm.rank == 0:
        _arm_a(comm)
    else:
        _arm_b(comm)
    return comm.rank


def _branch_on_collective_results(comm):
    counts = comm.allgather(comm.rank)
    total = max(comm.allgather(comm.rank))
    if max(counts) > 2 and total > 1:
        comm.barrier()
    return total


def _grid_k_loop(comm):
    # the SUMMA k-loop pattern: grid.q is uniform, grid.row is not
    grid = ProcessGrid.create(comm)
    for t in range(grid.q):
        comm.bcast(t, root=t)
    return grid.row


def _rank_guarded_p2p(comm):
    got = None
    if comm.rank == 0:
        comm.send(b"x", 1, tag=3)
    else:
        got = comm.recv(source=0, tag=3)
    comm.barrier()
    return got


PAIR_TAG = 91


def _fire(comm, peer):
    comm.send(b"x", peer, tag=PAIR_TAG)


def _take(comm, peer):
    return comm.recv(source=peer, tag=PAIR_TAG)


def _matched_pair(comm):
    if comm.rank == 0:
        return _fire(comm, 1)
    return _take(comm, 0)


def _computed_tag(comm, job):
    if comm.rank == 0:
        return comm.send(b"x", 1, tag=job * 2)
    return comm.recv(source=0, tag=job * 2)


class TestPrecision:
    """What must not be flagged: rank-dependent control flow whose
    collective schedule is uniform, and rank-guarded p2p that matches,
    run to completion."""

    def test_symmetric_arms_pass(self):
        assert run_spmd(2, _symmetric_arms) == [0, 1]

    def test_collective_results_launder_taint(self):
        assert run_spmd(4, _branch_on_collective_results) == [3] * 4

    def test_attribute_access_does_not_launder_rank_in(self):
        assert run_spmd(4, _grid_k_loop) == [0, 0, 1, 1]

    def test_rank_guarded_p2p_is_not_divergence(self):
        assert run_spmd(2, _rank_guarded_p2p) == [None, b"x"]

    def test_matched_cross_module_pair_passes(self):
        assert run_spmd(2, _matched_pair) == [None, b"x"]

    def test_dynamic_tag_matches_anything(self):
        assert run_spmd(2, _computed_tag, 7) == [None, b"x"]


def _recv_nobody_sends(comm):
    return comm.recv(source=0, tag=44)


class TestUnmatchedRecvAndSuppression:
    def test_unmatched_recv_is_named(self):
        # rank 0 waits on itself, rank 1 on rank 0; nothing is in
        # flight on tag 44
        msg = deadlock(2, _recv_nobody_sends)
        assert ("[unmatched-recv] nothing is in flight to world rank 0 "
                "in recv(comm='world', source=0, tag=44), world rank 1 "
                "in recv(comm='world', source=0, tag=44)") in msg

    def test_pragma_suppresses_verifier_finding(self):
        out = verify_sources([
            ("repro/core/a.py", "EXCHANGE_TAG = 55  # spmd: tag-ok (probe)\n"),
            ("repro/core/b.py",
             "def f(c):\n    c.send(1, 0, tag=55)  # spmd: tag-ok (probe)\n"),
        ])
        assert out == []

    def test_used_pragma_of_either_tool_not_reported(self):
        # the pragma suppresses a per-file finding; the one audit must
        # see that usage and not call it stale
        out = verify_sources([("repro/sparse/spgemm.py", src("""
            def kernel(rows):
                for r in rows:  # spmd: hot-loop-ok (reference)
                    pass
        """))])
        assert out == []

    def test_unparsable_module_is_a_usage_error(self, tmp_path, capsys):
        # no run gets past importing it either: exit 2, not a finding
        with pytest.raises(SyntaxError):
            verify_source("def broken(:\n")
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        assert verify_main([str(bad)]) == 2
        assert f"error: {bad}:1:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the tool x fault matrix: text mutants of the shipped source
# ---------------------------------------------------------------------------

#: the runtime verdicts that name nothing: the watchdog expires unnamed,
#: or the mutated tree runs, and tier-1 passes, with the fault in it
TIMEOUT, MISSED = "timeout", "missed"
#: the mutant is no fault: its run's edges equal the shipped tree's,
#: and tier-1 passes
CORRECT = "correct"

#: the tier-1 test that sees traffic a mutant adds or reshapes
PINS = ("tests/test_comm_backends.py::TestPipelineTraceTotals::"
        "test_summary_totals_pinned[subs-ck-greedy]")

_SPMD_FILES = (
    "core/distributed.py", "core/balance.py", "core/exchange.py",
    "sparse/summa.py",
    # what those four import comm objects and block layouts from
    "mpisim/grid.py", "sparse/distmat.py",
)


@dataclass(frozen=True)
class Mutant:
    """One fault seeded into the shipped tree, and what names it.

    ``edits`` are ``(file under repro/, anchor, replacement)``; an
    ``{anchor}`` in the replacement keeps the anchor.  ``static`` is the
    one code ``verify`` reports on the mutated tree, ``None`` for none.
    ``runtime`` is what the mutated tree's run gives: a finding code
    the run raises as a named :class:`SpmdError`, the id of the tier-1
    test that fails, :data:`TIMEOUT`, :data:`MISSED` or :data:`CORRECT`.
    ``retired`` is the deleted static code that reported the fault
    before; the runtime verdict is what that deletion rests on, so only
    these rows run their oracle in tier-1.  ``names`` are phrases the
    run's error must contain.
    """

    edits: tuple[tuple[str, str, str], ...]
    static: str | None
    runtime: str
    retired: str | None = None
    names: tuple[str, ...] = ()


def _guarded_barrier(comm: str) -> str:
    return f"    if {comm}.rank == 0:\n        {comm}.barrier()\n"


_ISEND = (
    "            comm.isend(\n"
    "                _pack(local_store, local_ids, my_owned[0]),\n"
    "                dest=dst,\n"
    "                tag=_TAG_SEQS,\n"
    "            )\n"
)
_IRECV = ("            exchange.recv_requests.append("
          "comm.irecv(src, tag=_TAG_SEQS))\n")
_SWAP = ("        self.comm.send(payload, dest=partner, tag=71)\n"
         "        return self.comm.recv(source=partner, tag=71)\n")
_N = "    n = index.total\n"
_Q = "    inner_ranges = block_ranges(a.ncols, q)\n"

_DIVERGENT = "rank-divergent-collective"

MATRIX = {
    # a collective only some ranks enter: the lockstep check names it
    # when the ranks meet on one communicator ...
    "divergent-barrier-depth0-pastis_rank": Mutant(
        (("core/distributed.py", _N, "{anchor}" + _guarded_barrier("comm")),),
        None, _DIVERGENT, retired=_DIVERGENT),
    "divergent-barrier-depth1-block_pairs": Mutant(
        (("core/distributed.py", '    with _timed(timings, "tr. A"):\n',
          _guarded_barrier("comm") + "{anchor}"),),
        None, _DIVERGENT, retired=_DIVERGENT),
    "allgather-in-rank-bounded-loop": Mutant(
        (("core/distributed.py", _N, "{anchor}    for _ in range(comm.rank):\n"
          "        comm.allgather(n)\n"),),
        None, _DIVERGENT, retired=_DIVERGENT),
    # ... and the wait-for graph when they wait on different ones
    "divergent-barrier-depth2-summa": Mutant(
        (("sparse/summa.py", _Q, "{anchor}" + _guarded_barrier("grid.comm")),),
        None, _DIVERGENT, retired=_DIVERGENT,
        names=(f"[{_DIVERGENT}] world rank(s) 0 diverged",)),
    # p2p: a send nobody receives is the teardown audit's, or the missing
    # sequences fail the exchange's test; a recv nobody sends to is the
    # wait-for graph's; a tag two protocols share while neither is in
    # flight, only the analyzer's
    "exchange-isend-duplicated": Mutant(
        (("core/exchange.py", _ISEND, _ISEND + _ISEND),),
        None, "unmatched-send"),
    "exchange-irecv-removed": Mutant(
        (("core/exchange.py", _IRECV, "            pass\n"),),
        None,
        "tests/test_distributed.py::TestExchange::"
        "test_exchange_delivers_all_needed",
        retired="unmatched-send"),
    "isend-skipped-in-start_exchange": Mutant(
        (("core/exchange.py", _ISEND, "            pass\n"),),
        None, "unmatched-recv", retired="unmatched-recv",
        names=("[unmatched-recv] nothing is in flight to " + ", ".join(
            f"world rank {r} in recv(comm='world', source={s}, tag=55)"
            for r, s in ((0, 1), (1, 0), (2, 0), (3, 1))),)),
    "swap-tag-collides-with-exchange": Mutant(
        (("mpisim/grid.py", _SWAP, _SWAP.replace("tag=71", "tag=55")),),
        "duplicate-p2p-tag", PINS),
    "pingpong-tag-collides-with-exchange": Mutant(
        (("perfmodel/calibrate.py", "_TAG_PING = 93\n",
          "_TAG_PING = 55\n"),),
        "duplicate-p2p-tag", MISSED),
    # plan nondeterminism: a set of integer tuples iterates in one order
    # on every rank, and an entropy source fails the plan's own test
    "set-iterated-in-greedy_plan": Mutant(
        (("core/balance.py", "    for neg_cost, src, idx in pool:\n",
          "    for neg_cost, src, idx in set(pool):\n"),),
        None, CORRECT, retired="plan-nondeterminism"),
    "random-shuffle-in-greedy_plan": Mutant(
        (("core/balance.py",
          "    # pass 3: pack the surplus onto the least-loaded ranks\n",
          "{anchor}    import random\n    random.shuffle(pool)\n"),),
        None,
        "tests/test_balance.py::TestGreedyPlan::"
        "test_deterministic_and_balanced",
        retired="plan-nondeterminism"),
    # wasted or reshaped traffic moves the pinned trace totals
    "bcast-of-a-module-constant": Mutant(
        (("core/exchange.py", "    my_owned = index.rank_range(me)\n",
          "    comm.bcast(_TAG_SEQS, root=0)\n{anchor}"),),
        None, PINS, retired="redundant-collective"),
    "per-element-send-in-swap_across_diagonal": Mutant(
        (("mpisim/grid.py", _SWAP,
          "        for part in payload:\n"
          "            self.comm.send(part, dest=partner, tag=71)\n"
          "        return tuple(self.comm.recv(source=partner, tag=71)\n"
          "                     for _part in payload)\n"),),
        None, PINS, retired="per-element-send"),
    "grid-loop-bcast-in-summa": Mutant(
        (("sparse/summa.py", _Q, "{anchor}    for _t in range(grid.q):\n"
          "        grid.comm.bcast(None, root=0)\n"),),
        None, PINS, retired="grid-loop-collective"),
    "barrier-loop-in-summa": Mutant(
        (("sparse/summa.py", _Q, "{anchor}    for _t in range(q):\n"
          "        grid.comm.barrier()\n"),),
        None, PINS),
    "list-envelope-in-exchange": Mutant(
        (("core/exchange.py", "_pack(local_store, local_ids, my_owned[0]),",
          "[*_pack(local_store, local_ids, my_owned[0])],"),),
        None, PINS),
    # faults that leave every result unchanged
    "per-window-loop-in-sequence_kmers": Mutant(
        (("kmers/extraction.py", "    ids = windows @ weights\n",
          "    ids = np.empty(n, dtype=np.int64)\n    for p in range(n):\n"
          "        ids[p] = windows[p] @ weights\n"),),
        "python-hot-loop", MISSED),
    "broad-except-in-payload_bytes": Mutant(
        (("mpisim/tracing.py",
          "    except (pickle.PicklingError, TypeError, AttributeError):\n",
          "    except Exception:\n"),),
        "broad-except", MISSED),
    "misspelled-pragma": Mutant(
        (("core/exchange.py", "_TAG_SEQS = 55\n",
          "_TAG_SEQS = 55  # spmd: tag-okay (reserved)\n"),),
        "unknown-pragma", MISSED),
    "stale-pragma": Mutant(
        (("core/exchange.py", "_TAG_SEQS = 55\n",
          "_TAG_SEQS = 55  # spmd: tag-ok (reserved)\n"),),
        "unused-pragma", MISSED),
}


def _mutate(sources: dict[str, str], mutant: Mutant) -> dict[str, str]:
    """``sources`` (keyed ``repro/<rel>``) with the mutant's edits."""
    out = dict(sources)
    for rel, anchor, replacement in mutant.edits:
        path = f"repro/{rel}"
        assert out[path].count(anchor) == 1, f"anchor moved: {anchor!r}"
        out[path] = out[path].replace(
            anchor, replacement.replace("{anchor}", anchor))
    return out


#: the oracle's receive deadline (seconds)
_TIMEOUT = 5.0

#: the runtime oracle: the subs-CK-greedy pipeline on 4 ranks, its
#: edges on stdout and the seconds ``run_spmd`` took on stderr
_PIPELINE = f"""\
import sys, time
from repro.bio.generate import scope_like
from repro.core.config import PastisConfig
from repro.core.distributed import pastis_rank, store_to_fasta_bytes
from repro.mpisim.backend import run_spmd
store = scope_like(n_families=6, seed=3).store
config = PastisConfig(k=5, substitutes=4, common_kmer_threshold=1,
                      align_balance="greedy")
t0 = time.monotonic()
try:
    ranks = run_spmd(4, pastis_rank, store_to_fasta_bytes(store), config,
                     timeout={_TIMEOUT})
finally:
    print(f"run_spmd: {{time.monotonic() - t0:.3f}}s", file=sys.stderr)
print(sorted(e for r in ranks for e in r.edges))
"""


def _run(src_root: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=REPO_ROOT, capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src_root)},
    )


def _runtime_verdict_holds(mutant: Mutant, tree: Path) -> None:
    if mutant.runtime.startswith("tests/"):
        out = _run(tree, "-m", "pytest", "-q", "-rf", "-p",
                   "no:cacheprovider", mutant.runtime)
        assert f"FAILED {mutant.runtime}" in out.stdout, out.stdout[-2000:]
        return
    out = _run(tree, "-c", _PIPELINE)
    if mutant.runtime == CORRECT:
        shipped = _run(REPO_ROOT / "src", "-c", _PIPELINE)
        assert out.returncode == shipped.returncode == 0, out.stderr
        assert out.stdout == shipped.stdout
    else:
        assert f"[{mutant.runtime}]" in out.stderr, out.stderr[-2000:]
        took = float(re.search(r"run_spmd: ([\d.]+)s", out.stderr)[1])
        assert took < _TIMEOUT + 1.0, took
    for phrase in mutant.names:
        assert phrase in out.stderr, out.stderr[-2000:]


@pytest.fixture(scope="module")
def shipped_sources():
    return dict(read_tree([REPO_ROOT / "src" / "repro"]))


class TestToolFaultMatrix:
    """Each fault seeded into the *real* tree, with the code the static
    analyzer reports and what its run gives.  A static code is kept only
    while some row names it and no run does."""

    def test_shipped_spmd_source_is_clean(self, shipped_sources):
        spmd = [(f"repro/{rel}", shipped_sources[f"repro/{rel}"])
                for rel in _SPMD_FILES]
        assert verify_sources(spmd) == []

    @pytest.mark.parametrize("name", sorted(MATRIX))
    def test_row(self, shipped_sources, tmp_path, name):
        mutant = MATRIX[name]
        mutated = _mutate(shipped_sources, mutant)
        files = {f"repro/{rel}" for rel in _SPMD_FILES}
        files |= {f"repro/{rel}" for rel, _a, _r in mutant.edits}
        out = verify_sources([(p, mutated[p]) for p in sorted(files)])
        assert set(codes(out)) == ({mutant.static} - {None}), \
            [f.render() for f in out]
        if mutant.retired is None:
            return
        tree = tmp_path / "src"
        shutil.copytree(REPO_ROOT / "src" / "repro", tree / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        for path, text in mutated.items():
            if text != shipped_sources[path]:
                (tree / path).write_text(text, encoding="utf-8")
        _runtime_verdict_holds(mutant, tree)

    def test_every_static_code_names_what_no_run_does(self):
        # the deletion rule: a static code stays only while some fault
        # is named by it and by no run (a timeout names nothing)
        unnamed = (TIMEOUT, MISSED)
        for name, m in MATRIX.items():
            assert (m.runtime in FINDING_CODES or m.runtime == CORRECT
                    or m.runtime in unnamed
                    or m.runtime.startswith("tests/")), name
            # no fault is left that nothing names
            assert m.static is not None or m.runtime not in unnamed, name
        needed = {m.static for m in MATRIX.values()
                  if m.static is not None and m.runtime in unnamed}
        assert needed == {code for code, info in FINDING_CODES.items()
                          if "verify" in info.tools}


# ---------------------------------------------------------------------------
# substrate: the project index, the op table
# ---------------------------------------------------------------------------


class TestSubstrate:
    def test_module_name_anchors_out_of_tree_paths(self):
        # absolute CLI arguments outside the installed tree must still
        # resolve imports: anchor at the first "repro" path component
        from repro.analysis.index import module_name as fn

        assert fn("repro/core/balance.py") == "repro.core.balance"
        assert fn("repro/core/__init__.py") == "repro.core"
        assert (fn("/tmp/work/repro/demo/helpers.py")
                == "repro.demo.helpers")

    def test_constant_resolution_identity(self):
        index = ProjectIndex.build_from_sources([
            ("repro/a.py", "STEAL_TAG = 78\n"),
            ("repro/b.py", "from .a import STEAL_TAG\n"),
        ])
        import ast as _ast
        mod_b = index.modules["repro.b"]
        expr = _ast.parse("STEAL_TAG", mode="eval").body
        assert index.resolve_int_constant(mod_b, expr) == \
            ("repro.a.STEAL_TAG", 78)

    def test_op_tables_mirror_backend(self):
        # the benchmark's probes sort traced ops by this table: it names
        # every comm operation of the backend, and nothing else
        from repro.mpisim.backend import COMM_OP_KINDS, CommBackend

        ops = {name for name, attr in vars(CommBackend).items()
               if callable(attr) and not name.startswith("_")}
        assert set(COMM_OP_KINDS) == ops
        assert set(COMM_OP_KINDS.values()) == {"send", "recv", "collective"}

    def test_every_finding_code_has_severity_and_tools(self):
        # the table is the matrix's: a code is static exactly when some
        # row's static verdict is it, runtime when some run raises it
        static = {m.static for m in MATRIX.values()} - {None}
        runtime = {m.runtime for m in MATRIX.values()} & set(FINDING_CODES)
        for code, info in FINDING_CODES.items():
            assert info.severity in ("error", "warning"), code
            assert ("verify" in info.tools) == (code in static), code
            assert ("runtime" in info.tools) == (code in runtime), code
            assert set(info.tools) <= {"verify", "runtime"}, code
        assert static <= set(FINDING_CODES)


# ---------------------------------------------------------------------------
# the whole repo, the committed baseline, and the CLI contract
# ---------------------------------------------------------------------------


#: one broad-except finding (a warning)
SWALLOW = src("""
    def f():
        try:
            work()
        except Exception:
            pass
""")


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
        bad = tmp_path / "swallow.py"
        bad.write_text(SWALLOW)
        assert verify_main([str(bad)]) == 1
        assert "broad-except" in capsys.readouterr().out

    def test_cli_json_document(self, tmp_path, capsys):
        bad = tmp_path / "swallow.py"
        bad.write_text(SWALLOW)
        out_file = tmp_path / "findings.json"
        rc = verify_main([str(bad), "--format", "json",
                          "--output", str(out_file)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == SCHEMA
        assert doc["tool"] == "verify"
        assert doc["counts"] == {"error": 0, "warning": 1}
        entry = doc["findings"][0]
        assert entry["code"] == "broad-except"
        assert entry["severity"] == "warning"
        assert entry["fingerprint"]
        # the artifact file carries the identical document
        assert json.loads(out_file.read_text()) == doc

    def test_baseline_accepts_old_flags_new(self, tmp_path, capsys):
        target = tmp_path / "swallow.py"
        target.write_text(SWALLOW)
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
        target.write_text("# a new leading comment\n" + SWALLOW)
        assert verify_main([str(target), "--baseline",
                            str(baseline)]) == 0
        capsys.readouterr()

        # ... but a genuinely new finding still fails
        target.write_text(SWALLOW + src("""
            def extra():
                try:
                    work()
                except:
                    pass
        """))
        assert verify_main([str(target), "--baseline",
                            str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "bare 'except:'" in out
        assert "'except Exception:'" not in out

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
