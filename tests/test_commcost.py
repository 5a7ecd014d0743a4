"""Tests for the four comm-performance checks
(:mod:`repro.analysis.commperf`), run through the analyzer's one entry
point (:func:`repro.analysis.verify.verify_sources`).

Seeded faults the schedule and per-file checkers cannot see — a
collective every rank could have computed locally, a hoistable collective
in a grid-scaled loop, one message per element, a pickled list of
ndarrays — each with the precision case right next to it (SUMMA's
rotating root, a constant-trip loop, a packed payload, a rank-conditional
value that *must* be broadcast), and the pragma surface.  What the real
pipeline ships is measured, not predicted: see
``tests/test_comm_backends.py::TestPipelineTraceTotals``.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.verify import verify_sources


def src(text: str) -> str:
    return textwrap.dedent(text)


def codes(findings) -> list[str]:
    return [f.code for f in findings]


# ---------------------------------------------------------------------------
# seeded faults, each reported under exactly its own code
# ---------------------------------------------------------------------------


REDUNDANT = [("repro/f1.py", src("""
    CONFIG = 7

    def body(comm):
        comm.bcast(CONFIG, root=0)
"""))]

GRID_LOOP = [("repro/f2.py", src("""
    import numpy as np

    def body(comm):
        buf = np.zeros(8, dtype=np.float64)
        for i in range(comm.size):
            comm.bcast(buf, root=0)
"""))]

PER_ELEMENT = [("repro/f3.py", src("""
    import numpy as np

    def body(comm):
        parts = [np.zeros(4, dtype=np.float64)
                 for _ in range(comm.size)]
        if comm.rank == 0:
            for part in parts:
                comm.send(part, dest=1, tag=5)
        else:
            comm.recv(source=0, tag=5)
"""))]

ENVELOPE = [("repro/f4.py", src("""
    import numpy as np

    def body(comm):
        if comm.rank == 0:
            comm.send([np.zeros(4), np.ones(4)], dest=1, tag=9)
        else:
            comm.recv(source=0, tag=9)
"""))]


class TestSeededFaults:

    @pytest.mark.parametrize("named,code", [
        (REDUNDANT, "redundant-collective"),
        (GRID_LOOP, "grid-loop-collective"),
        (PER_ELEMENT, "per-element-send"),
        (ENVELOPE, "pickled-envelope"),
    ], ids=["redundant", "grid-loop", "per-element", "envelope"])
    def test_commcost_catches_what_lint_and_verify_miss(
            self, named, code):
        # no per-file or schedule checker ("lint", "verify") sees these
        # four; only the comm-performance walk does
        assert codes(verify_sources(named)) == [code]

    def test_loop_dependent_root_passes(self):
        # SUMMA's rotating root: the collective is loop-dependent
        named = [("repro/ok.py", src("""
            import numpy as np

            def body(comm):
                buf = np.zeros(8, dtype=np.float64)
                for t in range(comm.size):
                    comm.bcast(buf, root=t)
        """))]
        findings = verify_sources(named)
        assert "grid-loop-collective" not in codes(findings)

    def test_constant_trip_loop_passes(self):
        named = [("repro/ok2.py", src("""
            import numpy as np

            def body(comm):
                buf = np.zeros(8, dtype=np.float64)
                for _ in range(3):
                    comm.bcast(buf, root=0)
        """))]
        findings = verify_sources(named)
        assert "grid-loop-collective" not in codes(findings)

    def test_packed_send_passes_envelope_check(self):
        # a helper that flattens into one ndarray is the fixed form
        named = [("repro/ok3.py", src("""
            import numpy as np

            def _pack(parts):
                return np.concatenate(parts)

            def body(comm):
                if comm.rank == 0:
                    comm.send(_pack([np.zeros(4)]), dest=1, tag=9)
                else:
                    comm.recv(source=0, tag=9)
        """))]
        findings = verify_sources(named)
        assert "pickled-envelope" not in codes(findings)

    def test_rank_conditional_bcast_not_redundant(self):
        # taint has no control-dependence: a value computed on rank 0
        # only *must* still be broadcast — the analyzer must not key
        # the redundancy check on untaintedness
        named = [("repro/ok4.py", src("""
            def expensive():
                return 42

            def body(comm):
                model = None
                if comm.rank == 0:
                    model = expensive()
                model = comm.bcast(model, root=0)
                return model
        """))]
        findings = verify_sources(named)
        assert "redundant-collective" not in codes(findings)


# ---------------------------------------------------------------------------
# pragmas
# ---------------------------------------------------------------------------


class TestSuppression:

    def test_pragma_suppresses_commcost_finding(self):
        named = [("repro/p1.py", src("""
            CONFIG = 7

            def body(comm):
                # spmd: redundant-collective-ok (handshake by design)
                comm.bcast(CONFIG, root=0)
        """))]
        findings = verify_sources(named)
        assert codes(findings) == []
