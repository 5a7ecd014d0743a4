"""Per-file checkers and the ``# spmd:`` pragma index.

Two AST checkers that need no more than one parsed module, each tied
to one way the pipeline's contract has historically been broken, run by
``python -m repro.analysis.verify``, the one analyzer.  Each names a
fault no tier-1 run does (the tool x fault matrix,
``tests/test_verify.py::TestToolFaultMatrix``):

``python-hot-loop``
    A per-element Python ``for``/``while`` loop in the vectorized kernel
    modules (``sparse/spgemm.py``, ``align/engine.py`` and
    ``kmers/extraction.py``).  The intended per-row / per-lane /
    reference loops carry pragmas; anything new is a performance
    regression that leaves every result unchanged.

``broad-except``
    ``except:`` / ``except Exception:`` handlers that neither re-raise
    nor inspect the exception — the pattern that made tracer bugs vanish
    silently; a run only shows it once something raises.

Pragmas
-------
Intentional violations are allowlisted with a ``# spmd:`` comment on the
flagged line, the line above, or the enclosing statement (a pragma on a
``def`` line covers the whole function; one on an outer loop covers its
nested loops)::

    def spgemm_hash(...):  # spmd: hot-loop-ok (reference kernel)
        ...
    except Exception:  # spmd: broad-except-ok (the caller re-raises)
        ...

The full pragma vocabulary is the finding-code table in
:mod:`repro.analysis.report` (rendered in ``docs/analysis.md``); a
parenthesised reason is encouraged and several codes may be
comma-separated.  Unknown codes are themselves flagged
(``unknown-pragma``), and a pragma that no longer suppresses anything is
flagged too (``unused-pragma``), so typos cannot silently disable a
check and stale suppressions cannot rot in place.  Every finding of
every checker is suppressed through the one :class:`PragmaIndex` of its
file, so one audit at the end of the run covers every code.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from typing import Iterable, Iterator

from .report import Finding, pragma_map

__all__ = [
    "PragmaIndex",
    "file_findings",
]

#: pragma -> code over the whole vocabulary
_PRAGMA_CHECKS = {p: c for c, p in pragma_map().items()}

#: modules whose kernels are vectorized (per-element loops are suspect)
_HOT_MODULE_MARKERS = (
    "sparse/spgemm.py", "align/engine.py", "kmers/extraction.py",
)

_PRAGMA_RE = re.compile(r"#\s*spmd:\s*(.+?)\s*$")


# ---------------------------------------------------------------------------
# pragma parsing, suppression spans, and usage tracking
# ---------------------------------------------------------------------------


def _comment_tokens(source: str) -> Iterator[tuple[int, str]]:
    """``(line, text)`` of every real comment (tokenized, so ``# spmd:``
    inside a string or docstring is never mistaken for a pragma)."""
    readline = io.StringIO(source).readline
    try:
        for tok in tokenize.generate_tokens(readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string
    except (tokenize.TokenError, IndentationError):
        return


@dataclass
class _PragmaEntry:
    """One ``# spmd: <code>`` declaration and whether anything used it."""

    code: str
    decl_line: int
    anchor_lines: frozenset[int]
    used: bool = False


class PragmaIndex:
    """Parsed pragmas of one module, with suppression-usage tracking.

    Every checker suppresses through the one index of its file, so
    ``unused-pragma`` only fires on suppressions no finding needs.
    """

    def __init__(self, path: str, source: str, tree: ast.AST):
        self.path = path
        self.entries: list[_PragmaEntry] = []
        #: unknown-pragma findings raised while parsing
        self.bad: list[Finding] = []
        self._parse(source)
        by_line: dict[int, dict[str, _PragmaEntry]] = {}
        for e in self.entries:
            for ln in e.anchor_lines:
                by_line.setdefault(ln, {})[e.code] = e
        self._by_line = by_line
        #: (entry, span start, span end): a pragma on a statement's
        #: first line (or right above it) covers the whole statement, so
        #: a ``def``-line pragma covers the function and an outer-loop
        #: pragma covers its nested loops
        self._spans: list[tuple[_PragmaEntry, int, int]] = []
        for node in ast.walk(tree) if self.entries else ():
            if not isinstance(node, (ast.stmt, ast.excepthandler)):
                continue
            lineno = node.lineno
            end = getattr(node, "end_lineno", lineno) or lineno
            for ln in (lineno, lineno - 1):
                for entry in by_line.get(ln, {}).values():
                    self._spans.append((entry, lineno, end))

    def _parse(self, source: str) -> None:
        if "spmd:" not in source:
            return  # most modules: nothing to tokenize for
        comments = dict(_comment_tokens(source))
        for lineno, text in comments.items():
            m = _PRAGMA_RE.search(text)
            if not m:
                continue
            # a pragma inside a comment block also anchors at the
            # block's last line, so it attaches to the statement right
            # below it even when the explanation spans several lines
            anchor = lineno
            while anchor + 1 in comments:
                anchor += 1
            # a "(" starts the free-form reason and ends the code list
            head = m.group(1).partition("(")[0]
            for token in head.split(","):
                name = token.strip()
                if not name:
                    continue
                code = _PRAGMA_CHECKS.get(name)
                if code is None:
                    self.bad.append(Finding(
                        self.path, lineno, "unknown-pragma",
                        f"unknown spmd pragma {name!r}; known: "
                        + ", ".join(sorted(_PRAGMA_CHECKS)),
                    ))
                    continue
                self.entries.append(_PragmaEntry(
                    code, lineno, frozenset({lineno, anchor}),
                ))

    def suppressed(self, code: str, line: int) -> bool:
        """Is a ``code`` finding at ``line`` allowlisted?  Marks every
        covering pragma as used."""
        hit = False
        for ln in (line, line - 1):
            entry = self._by_line.get(ln, {}).get(code)
            if entry is not None:
                entry.used = True
                hit = True
        for entry, lo, hi in self._spans:
            if entry.code == code and lo <= line <= hi:
                entry.used = True
                hit = True
        return hit

    def unused_findings(self) -> list[Finding]:
        """``unused-pragma`` findings for the still-unused pragmas
        (deduplicated per declaration)."""
        pragma_of = pragma_map()
        seen: set[tuple[int, str]] = set()
        out: list[Finding] = []
        for e in self.entries:
            if e.used:
                continue
            key = (e.decl_line, e.code)
            if key in seen:
                continue
            seen.add(key)
            out.append(Finding(
                self.path, e.decl_line, "unused-pragma",
                f"'# spmd: {pragma_of[e.code]}' suppresses no "
                f"{e.code} finding; remove the stale pragma or "
                f"restore the code it described",
            ))
        return out


# ---------------------------------------------------------------------------
# the per-file checkers
# ---------------------------------------------------------------------------


def _module_matches(path: str, markers: Iterable[str]) -> bool:
    norm = "/" + path.replace("\\", "/").lstrip("/")
    return any(("/" + m) in norm for m in markers)


def _dotted_name(node: ast.AST) -> str | None:
    """``grid.row_comm`` -> "grid.row_comm" for Name/Attribute chains."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


class _FileChecks:
    """All single-file checkers over one parsed module."""

    def __init__(self, path: str, tree: ast.Module):
        self.path = path
        self.tree = tree
        self.findings: list[Finding] = []

    def _flag(self, code: str, line: int, message: str) -> None:
        self.findings.append(Finding(self.path, line, code, message))

    def run(self) -> list[Finding]:
        self._check_broad_except()
        if _module_matches(self.path, _HOT_MODULE_MARKERS):
            self._check_hot_loops()
        return self.findings

    # -- hot loops in vectorized kernels --------------------------------

    def _check_hot_loops(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                kind = ("while" if isinstance(node, ast.While) else "for")
                self._flag(
                    "python-hot-loop", node.lineno,
                    f"python {kind}-loop in a vectorized kernel module; "
                    f"vectorize it or allowlist with "
                    f"'# spmd: hot-loop-ok (reason)'",
                )

    # -- broad excepts ----------------------------------------------------

    def _check_broad_except(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                broad = "bare 'except:'"
            else:
                names = set()
                types = (node.type.elts
                         if isinstance(node.type, ast.Tuple)
                         else [node.type])
                for t in types:
                    dotted = _dotted_name(t)
                    if dotted:
                        names.add(dotted.rsplit(".", 1)[-1])
                caught = names & {"Exception", "BaseException"}
                if not caught:
                    continue
                broad = f"'except {sorted(caught)[0]}:'"
            if self._handler_engages(node):
                continue
            self._flag(
                "broad-except", node.lineno,
                f"{broad} swallows the failure without re-raising or "
                f"inspecting it; catch a narrow type, or allowlist "
                f"with '# spmd: broad-except-ok (reason)'",
            )

    @staticmethod
    def _handler_engages(handler: ast.ExceptHandler) -> bool:
        """A broad handler is fine when it re-raises or actually uses the
        bound exception (logging, wrapping, reporting)."""
        for stmt in handler.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise):
                    return True
                if (handler.name is not None
                        and isinstance(node, ast.Name)
                        and node.id == handler.name):
                    return True
        return False


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def file_findings(path: str, tree: ast.Module) -> list[Finding]:
    """The single-file checks of one parsed module (unsuppressed)."""
    return _FileChecks(path, tree).run()
