"""Tests for the static SPMD analyzer (:mod:`repro.analysis.verify`)
and for the runtime that took over its interprocedural checks.

The seeded faults the analyzer's retired rank-taint and schedule engines
were built for — a divergent collective behind one or two helper calls,
taint through a return value or a parameter, a recv nobody sends to —
are run here instead, and the runner's wait-for graph must name them;
their precision cases must run clean.  The rest covers pragma
suppression, the exit-code contract, the tool x fault matrix on the
shipped tree (which static code and which run name each seeded fault,
and so which codes the analyzer keeps), and the whole-repo gate: the
shipped tree analyzes clean (the one whole-tree run of tier-1).
"""

from __future__ import annotations

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

from repro.analysis.report import FINDING_CODES
from repro.analysis.verify import (
    main as verify_main,
    read_tree,
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
        out = verify_source(src("""
            def f(c):
                try:
                    c.barrier()
                except Exception:  # spmd: broad-except-ok (probe)
                    pass
        """))
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
    # wait-for graph's; a tag two in-flight protocols share fails the
    # pinned-totals run, and the calibration ping-pong's tag shares no
    # inbox with the pipeline's (it runs in a world of its own)
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
        None, PINS, retired="duplicate-p2p-tag"),
    "pingpong-tag-collides-with-exchange": Mutant(
        (("perfmodel/calibrate.py", "_TAG_PING = 93\n",
          "_TAG_PING = 55\n"),),
        None, CORRECT, retired="duplicate-p2p-tag"),
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
          "_TAG_SEQS = 55  # spmd: broad-except-okay (reserved)\n"),),
        "unknown-pragma", MISSED),
    "stale-pragma": Mutant(
        (("core/exchange.py", "_TAG_SEQS = 55\n",
          "_TAG_SEQS = 55  # spmd: broad-except-ok (reserved)\n"),),
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
#: edges on stdout and the seconds ``run_spmd`` took on stderr, then one
#: round of the comm-model calibration's ping-pong and allgather runs
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
from repro.perfmodel.calibrate import calibrate_comm_model
calibrate_comm_model(rounds=1)
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
# substrate: the op table, the finding-code table
# ---------------------------------------------------------------------------


class TestSubstrate:
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
# the whole repo and the CLI contract
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

    def test_cli_exit_codes_and_text(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(comm):\n    comm.barrier()\n")
        assert verify_main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out
        bad = tmp_path / "swallow.py"
        bad.write_text(SWALLOW)
        assert verify_main([str(bad)]) == 1
        assert "broad-except" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--format", "--baseline",
                                      "--write-baseline", "--output"])
    def test_retired_options_are_usage_errors(self, flag, capsys):
        # the analyzer prints text only and keeps no baseline
        with pytest.raises(SystemExit) as exc:
            verify_main([flag, "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
