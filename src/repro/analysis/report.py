"""Shared reporting layer of the analysis subsystem.

One naming scheme ties the SPMD correctness tools together: the static
analyzer (:mod:`repro.analysis.verify`) and the runtime checks report
under the stable finding codes of :data:`FINDING_CODES`.  The runtime
names three: ``rank-divergent-collective`` (every collective's lockstep
check, :class:`~repro.mpisim.backend.CommBackend`, and the runner's
wait-for graph when ranks block in different collectives),
``unmatched-recv`` (the wait-for graph) and ``unmatched-send`` (the
runner's teardown audit, :func:`~repro.mpisim.mpcomm.teardown_audit`).
A code's ``tools`` say which of them names it; each row is earned by a
row of the tool x fault matrix (``tests/test_verify.py``).
``docs/analysis.md`` renders the full table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "FINDING_CODES",
    "CodeInfo",
    "Finding",
    "pragma_map",
]


@dataclass(frozen=True)
class CodeInfo:
    """One row of the finding-code table."""

    severity: str           # "error" | "warning"
    pragma: str | None      # the spmd pragma code that allowlists it
    tools: tuple[str, ...]  # which of verify / runtime emit it
    description: str


#: the stable finding-code table shared by the analyzer and the runtime
#: checks (``runtime``: every collective's lockstep check, the runner's
#: wait-for graph of a run that timed out and its teardown audit, all
#: on in every run)
FINDING_CODES: Mapping[str, CodeInfo] = {
    "rank-divergent-collective": CodeInfo(
        "error", None, ("runtime",),
        "ranks entered different collectives: met in one exchange round "
        "(the lockstep check), or deadlocked waiting in different "
        "collectives or on a rank that returned (the wait-for graph)",
    ),
    "unmatched-send": CodeInfo(
        "error", None, ("runtime",),
        "a p2p send that no rank ever received (runtime teardown audit)",
    ),
    "unmatched-recv": CodeInfo(
        "error", None, ("runtime",),
        "a deadlocked p2p recv with nothing in flight to it on its "
        "(comm, tag) (the wait-for graph)",
    ),
    "python-hot-loop": CodeInfo(
        "warning", "hot-loop-ok", ("verify",),
        "a per-element Python loop in a vectorized kernel module",
    ),
    "broad-except": CodeInfo(
        "warning", "broad-except-ok", ("verify",),
        "a broad except handler that neither re-raises nor inspects "
        "the exception",
    ),
    "unknown-pragma": CodeInfo(
        "warning", None, ("verify",),
        "a '# spmd:' pragma naming no known suppression code",
    ),
    "unused-pragma": CodeInfo(
        "warning", None, ("verify",),
        "a '# spmd:' pragma that no longer suppresses any finding",
    ),
}


def pragma_map() -> dict[str, str]:
    """``check code -> pragma`` for the codes that have one."""
    return {
        code: info.pragma
        for code, info in FINDING_CODES.items()
        if info.pragma is not None
    }


@dataclass(frozen=True)
class Finding:
    """One finding, pointing at a source line."""

    path: str
    line: int
    code: str
    message: str

    @property
    def severity(self) -> str:
        return FINDING_CODES[self.code].severity

    def render(self) -> str:
        return (f"{self.path}:{self.line}: [{self.code}] "
                f"{self.severity}: {self.message}")
