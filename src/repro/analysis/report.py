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

This module also owns the analyzer's machine surface:

* :class:`Finding` — one finding with a severity (from the code table)
  and a line-number-insensitive *fingerprint*, so a finding keeps its
  identity while unrelated edits shift the file around it;
* :func:`render_json` — the ``repro.analysis.findings/v1`` schema
  emitted by ``verify --format json``;
* baseline files (:func:`load_baseline` / :func:`write_baseline` /
  :func:`diff_baseline`) — a committed list of accepted fingerprints
  that lets CI fail only on *new* findings (see the rebaseline guide in
  ``docs/analysis.md``).

Exit-code contract of the CLI: ``0`` — clean (no findings, or none
outside the baseline); ``1`` — at least one (new) finding; ``2`` —
usage or internal error (argparse, unreadable baseline).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

__all__ = [
    "FINDING_CODES",
    "SCHEMA",
    "BASELINE_SCHEMA",
    "CodeInfo",
    "Finding",
    "diff_baseline",
    "load_baseline",
    "pragma_map",
    "render_json",
    "severity_of",
    "write_baseline",
]

#: schema identifier stamped into every JSON findings document
SCHEMA = "repro.analysis.findings/v1"
#: schema identifier of committed baseline files
BASELINE_SCHEMA = "repro.analysis.baseline/v1"


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
    "duplicate-p2p-tag": CodeInfo(
        "error", "tag-ok", ("verify",),
        "the same p2p tag value (literal or resolved module constant) "
        "used by distinct protocols in different modules",
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


def severity_of(code: str) -> str:
    """Severity of a finding code (unknown codes default to error)."""
    info = FINDING_CODES.get(code)
    return info.severity if info is not None else "error"


def pragma_map() -> dict[str, str]:
    """``check code -> pragma`` for the codes that have one."""
    return {
        code: info.pragma
        for code, info in FINDING_CODES.items()
        if info.pragma is not None
    }


#: line references inside messages are normalised away so a fingerprint
#: survives unrelated edits shifting the file
_LINE_REF_RE = re.compile(r"\bline \d+")


@dataclass(frozen=True)
class Finding:
    """One finding, pointing at a source line."""

    path: str
    line: int
    code: str
    message: str

    @property
    def severity(self) -> str:
        return severity_of(self.code)

    def fingerprint(self) -> str:
        """Stable identity: hash of (code, path, normalised message) —
        deliberately *not* the line number, so pure line drift neither
        breaks a baseline match nor lets a finding hide."""
        text = "|".join(
            (self.code, self.path, _LINE_REF_RE.sub("line N", self.message))
        )
        return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        return (f"{self.path}:{self.line}: [{self.code}] "
                f"{self.severity}: {self.message}")

    def as_json(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }


def render_json(
    tool: str,
    findings: Sequence[Finding],
    baseline: "set[str] | None" = None,
    suppressed: int = 0,
) -> dict:
    """The ``repro.analysis.findings/v1`` document the CLI emits."""
    counts: dict[str, int] = {"error": 0, "warning": 0}
    for f in findings:
        counts[f.severity] = counts.get(f.severity, 0) + 1
    doc = {
        "schema": SCHEMA,
        "tool": tool,
        "findings": [f.as_json() for f in findings],
        "counts": counts,
    }
    if baseline is not None:
        doc["baseline"] = {
            "applied": True,
            "size": len(baseline),
            "suppressed": suppressed,
        }
    return doc


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def load_baseline(path: str | Path) -> set[str]:
    """Accepted fingerprints of a committed baseline file."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: not a {BASELINE_SCHEMA} baseline "
            f"(schema={doc.get('schema')!r})"
        )
    return {entry["fingerprint"] for entry in doc.get("findings", [])}


def write_baseline(path: str | Path, findings: Sequence[Finding]) -> None:
    """Write the current findings as the new accepted baseline (full
    entries, not bare hashes, so the file reviews like a report)."""
    doc = {
        "schema": BASELINE_SCHEMA,
        "findings": [f.as_json() for f in findings],
    }
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def diff_baseline(
    findings: Sequence[Finding], baseline: set[str]
) -> tuple[list[Finding], int]:
    """``(new findings, suppressed count)`` against a baseline."""
    new = [f for f in findings if f.fingerprint() not in baseline]
    return new, len(findings) - len(new)
