"""The static SPMD analyzer: ``python -m repro.analysis.verify``.

One run parses the tree once into the project index
(:mod:`repro.analysis.index`) and runs every static checker over it:

* the per-file checkers (:mod:`repro.analysis.filechecks`):
  ``python-hot-loop``, ``duplicate-p2p-tag``, ``broad-except``;
* pragma hygiene: ``unknown-pragma``, and one ``unused-pragma`` audit
  over every code above — each finding is suppressed through the one
  pragma index of its file, so a pragma is stale exactly when no checker
  needed it.  A module that does not parse is a usage error (exit 2).

Each code is kept because some fault of the tool x fault matrix
(``tests/test_verify.py::TestToolFaultMatrix``) is named by it and by no
tier-1 run: a p2p tag shared by two protocols, a per-element loop in a
kernel and a swallowed exception (all three leave every result
unchanged).  What a run already names is left to the run: a
rank-divergent collective or a recv nobody sends to (the runner's
wait-for graph, :func:`repro.mpisim.mpcomm.diagnose_waits`), a send
nobody receives (the teardown audit), a hoistable or redundant
collective (the pinned trace totals) and a nondeterministic plan (the
tier-1 tests).  The code table is
:data:`repro.analysis.report.FINDING_CODES` (``docs/analysis.md``).

Suppression is ``# spmd: <code>-ok (reason)`` on or above the flagged
line.  For findings that are accepted long-term, a committed baseline
is the better tool::

    python -m repro.analysis.verify --write-baseline spmd-baseline.json
    python -m repro.analysis.verify --baseline spmd-baseline.json

With ``--baseline``, only findings whose (line-insensitive) fingerprint
is absent from the file fail the run — CI stays green across unrelated
edits and red on any *new* finding.  Exit codes: ``0`` clean (or all
findings baselined), ``1`` new findings, ``2`` usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .filechecks import PragmaIndex, duplicate_tag_findings, file_findings
from .index import ProjectIndex, read_tree
from .report import (
    Finding,
    diff_baseline,
    load_baseline,
    render_json,
    write_baseline,
)

__all__ = [
    "main",
    "verify_paths",
    "verify_source",
    "verify_sources",
]


def verify_sources(
    named_sources: Sequence[tuple[str, str]]
) -> list[Finding]:
    """Analyze ``(path, source)`` pairs as one whole program."""
    index = ProjectIndex.build_from_sources(named_sources)
    raw: list[Finding] = []
    for mod in index.modules.values():
        raw.extend(file_findings(mod))
    raw.extend(duplicate_tag_findings(index))

    pragmas = {
        mod.path: PragmaIndex(mod.path, mod.source, mod.tree)
        for mod in index.modules.values()
    }
    findings: list[Finding] = []
    # two sites on one line may make one finding twice; report it once
    for finding in dict.fromkeys(raw):
        if not pragmas[finding.path].suppressed(finding.code, finding.line):
            findings.append(finding)
    for px in pragmas.values():
        findings.extend(px.bad)
        findings.extend(px.unused_findings())

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
        "(exit 0 clean, 1 new findings, 2 usage error)",
    )
    ap.add_argument("paths", nargs="*",
                    help="files or directories to analyze (default: the "
                    "installed repro package)")
    ap.add_argument("--format", choices=("text", "json"), default="text",
                    help="output format (json emits the "
                    "repro.analysis.findings/v1 document)")
    ap.add_argument("--baseline", metavar="FILE",
                    help="fail only on findings not fingerprinted in "
                    "this committed baseline file")
    ap.add_argument("--write-baseline", metavar="FILE",
                    help="accept the current findings: write them as "
                    "the new baseline and exit 0")
    ap.add_argument("--output", metavar="FILE",
                    help="additionally write the JSON findings document "
                    "to FILE (for CI artifacts)")
    args = ap.parse_args(argv)

    try:
        findings = verify_paths(args.paths or None)
    except SyntaxError as exc:
        print(f"error: {exc.filename}:{exc.lineno}: {exc.msg}",
              file=sys.stderr)
        return 2

    if args.write_baseline:
        write_baseline(args.write_baseline, findings)
        print(f"wrote {args.write_baseline}: "
              f"{len(findings)} accepted finding(s)")
        return 0

    baseline = None
    new, suppressed = findings, 0
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: unusable baseline: {exc}", file=sys.stderr)
            return 2
        new, suppressed = diff_baseline(findings, baseline)

    doc = render_json("verify", new, baseline, suppressed)
    if args.output:
        Path(args.output).write_text(
            json.dumps(doc, indent=2) + "\n", encoding="utf-8"
        )
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for f in new:
            print(f.render())
        tail = (f" ({suppressed} baselined)" if args.baseline else "")
        print(f"{len(new)} finding(s){tail}" if new
              else f"clean: no findings{tail}")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
