"""The static SPMD analyzer: ``python -m repro.analysis.verify [paths]``.

One run parses each module once and runs every static checker over it:

* the per-file checkers (:mod:`repro.analysis.filechecks`):
  ``python-hot-loop`` and ``broad-except``;
* pragma hygiene: ``unknown-pragma``, and one ``unused-pragma`` audit
  over both codes above — each finding is suppressed through the one
  pragma index of its file, so a pragma is stale exactly when no checker
  needed it.

Each code is kept because some fault of the tool x fault matrix
(``tests/test_verify.py::TestToolFaultMatrix``) is named by it and by no
tier-1 run: a per-element loop in a kernel and a swallowed exception
(both leave every result unchanged), and a misspelled or stale pragma.
What a run already names is left to the run: a rank-divergent
collective or a recv nobody sends to (the runner's wait-for graph,
:func:`repro.mpisim.mpcomm.diagnose_waits`), a send nobody receives
(the teardown audit), a p2p tag two protocols share, a hoistable or
redundant collective (the pinned trace totals) and a nondeterministic
plan (the tier-1 tests).  The code table is
:data:`repro.analysis.report.FINDING_CODES` (``docs/analysis.md``).

Suppression is ``# spmd: <code>-ok (reason)`` on or above the flagged
line.  Findings print one per line.  Exit codes: ``0`` clean, ``1``
findings, ``2`` usage error (argparse, or a module that does not parse:
no run of that tree gets past importing it either).
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Sequence

from .filechecks import PragmaIndex, file_findings
from .report import Finding

__all__ = [
    "main",
    "read_tree",
    "verify_paths",
    "verify_source",
    "verify_sources",
]


def read_tree(
    paths: Sequence[str | Path] | None = None
) -> list[tuple[str, str]]:
    """``(path, source)`` pairs of files/directories (default: the
    installed ``repro`` tree), with paths relative to the package parent
    (``repro/...``) — the batch the analyzer runs on."""
    package = Path(__file__).resolve().parents[1]
    roots = [Path(p) for p in paths] if paths else [package]
    files: list[Path] = []
    for root in roots:
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
        else:
            files.append(root)
    named = []
    for f in files:
        try:
            rel = str(f.resolve().relative_to(package.parent))
        except ValueError:
            rel = str(f)
        named.append((rel.replace("\\", "/"), f.read_text(encoding="utf-8")))
    return named


def verify_sources(
    named_sources: Sequence[tuple[str, str]]
) -> list[Finding]:
    """Analyze ``(path, source)`` pairs; a module that does not parse
    raises its :class:`SyntaxError`."""
    findings: list[Finding] = []
    for path, source in named_sources:
        tree = ast.parse(source, filename=path)
        pragmas = PragmaIndex(path, source, tree)
        # two sites on one line may make one finding twice; report it once
        for finding in dict.fromkeys(file_findings(path, tree)):
            if not pragmas.suppressed(finding.code, finding.line):
                findings.append(finding)
        findings.extend(pragmas.bad)
        findings.extend(pragmas.unused_findings())
    findings.sort(key=lambda f: (f.path, f.line, f.code, f.message))
    return findings


def verify_source(source: str, filename: str = "repro/x.py"
                  ) -> list[Finding]:
    """Analyze one in-memory module (tests seeding synthetic faults)."""
    return verify_sources([(filename, source)])


def verify_paths(
    paths: Sequence[str | Path] | None = None
) -> list[Finding]:
    """Analyze files/directories (default: the installed ``repro``
    tree), reporting paths relative to the package parent."""
    return verify_sources(read_tree(paths))


def main(argv: Sequence[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.analysis.verify",
        description="static SPMD analyzer: per-file checks and the "
        "pragma audit in one run "
        "(exit 0 clean, 1 findings, 2 usage error)",
    )
    ap.add_argument("paths", nargs="*",
                    help="files or directories to analyze (default: the "
                    "installed repro package)")
    args = ap.parse_args(argv)

    try:
        findings = verify_paths(args.paths or None)
    except SyntaxError as exc:
        print(f"error: {exc.filename}:{exc.lineno}: {exc.msg}",
              file=sys.stderr)
        return 2
    for f in findings:
        print(f.render())
    print(f"{len(findings)} finding(s)" if findings else "clean: no findings")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
