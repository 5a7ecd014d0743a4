"""Static communication-schedule extraction and matching.

For every SPMD entry point (the rebalance stage, the SUMMA k-loop,
anything handed to ``run_spmd``), this pass collects
the comm operations the entry's call closure performs **in program
order**, then checks the two halves of the SPMD contract statically:

* **Collective-sequence uniformity** — at every ``if``/``while``/
  ``for`` guarded by a rank-tainted value (per
  :class:`repro.analysis.dataflow.RankTaint`), the *collective*
  sequences of the two arms must be structurally identical, with
  resolved helper calls inlined (cycle-guarded) so a divergent
  ``bcast`` two helpers deep is still seen.  Arms that run the same
  collectives are fine — rank-guarded *p2p* asymmetry is how protocols
  are written and is never flagged here.
* **P2p send/recv matching** — every send site is matched against the
  recv sites of the same entry closure by tag (literal, or a
  module-level integer constant resolved through imports); an
  unmatched send is a potential deadlock (error), an unmatched recv a
  potential hang (warning).  Sites whose tag cannot be resolved
  statically match anything — the checker under-reports rather than
  false-positives.  Peer expressions are classified (constant /
  rank-derived / dynamic) as finding metadata only.

Findings are only *reported* for pipeline code: the comm-backend
implementation modules and the analysis package itself (which
implement collectives in terms of p2p, wrap comms, and are
legitimately rank-divergent inside) are indexed for resolution but
excluded from findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .callgraph import CallGraph, FunctionInfo, ProjectIndex
from .dataflow import (
    COLLECTIVE_OPS,
    RECV_OPS,
    SEND_OPS,
    RankTaint,
    comm_op_of,
)
from .report import Finding

__all__ = [
    "EXCLUDED_PATH_MARKERS",
    "ScheduleAnalysis",
    "excluded",
]

#: modules indexed for resolution but never reported against: the comm
#: transport implements collectives via internal p2p and root-divergent
#: logic by design, and the analysis package wraps comms itself
EXCLUDED_PATH_MARKERS = (
    "repro/analysis/",
    "repro/mpisim/mpcomm.py",
    "repro/mpisim/backend.py",
)


def excluded(path: str) -> bool:
    """Is ``path`` indexed for resolution only, never reported against?"""
    norm = path.replace("\\", "/")
    return any(m in norm for m in EXCLUDED_PATH_MARKERS)


# ---------------------------------------------------------------------------
# the comm-effects tree
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One direct comm-op call site."""

    op: str
    kind: str              # "send" | "recv" | "collective"
    lineno: int
    call: ast.Call
    fn: FunctionInfo


@dataclass
class CallSite:
    """A resolved call to another indexed function."""

    qualname: str
    lineno: int


@dataclass
class Branch:
    lineno: int
    tainted: bool
    then: list = field(default_factory=list)
    orelse: list = field(default_factory=list)


@dataclass
class Loop:
    lineno: int
    tainted: bool
    body: list = field(default_factory=list)
    #: the ``for``/``while`` statement: the comm-performance checks read
    #: the loop variable and the ``range(...)`` bound off it
    node: ast.stmt | None = None


def _op_kind(op: str) -> str:
    if op in SEND_OPS:
        return "send"
    if op in RECV_OPS:
        return "recv"
    return "collective"


# ---------------------------------------------------------------------------
# p2p site description
# ---------------------------------------------------------------------------

#: positional index of the tag argument per op (after self)
_TAG_ARG_INDEX = {"send": 2, "isend": 2, "recv": 1, "irecv": 1,
                  "tryrecv": 1}
#: positional index of the peer (dest/source) argument per op
_PEER_ARG_INDEX = {"send": 1, "isend": 1, "recv": 0, "irecv": 0,
                   "tryrecv": 0}
_PEER_KEYWORD = {"send": "dest", "isend": "dest", "recv": "source",
                 "irecv": "source", "tryrecv": "source"}


@dataclass
class P2pSite:
    """One send/recv site with its statically resolved tag and peer."""

    op: Op
    #: ("const", value) for a literal or resolved constant tag (missing
    #: tag arguments default to 0, as in the backend signatures);
    #: ("dyn",) when the tag is computed — matches anything
    tag: tuple
    tag_label: str       # how the tag was written ("tag=_TAG_REBAL", ...)
    peer_class: str      # "constant" | "rank-derived" | "dynamic"

    @property
    def path(self) -> str:
        return self.op.fn.path

    @property
    def site_id(self) -> tuple[str, int, str]:
        return (self.path, self.op.lineno, self.op.op)


# ---------------------------------------------------------------------------
# the analysis
# ---------------------------------------------------------------------------


class ScheduleAnalysis:
    """Schedule extraction + both static checks over a project."""

    def __init__(self, index: ProjectIndex, graph: CallGraph,
                 taint: RankTaint):
        self.index = index
        self.graph = graph
        self.taint = taint
        #: qualname -> comm-effects tree (in program order)
        self.trees: dict[str, list] = {
            qual: self._body_items(fn, fn.node.body)
            for qual, fn in index.functions.items()
        }
        self._sig_cache: dict[str, tuple] = {}
        self._direct_ops: dict[str, list[Op]] = {
            qual: list(_flatten_ops(tree))
            for qual, tree in self.trees.items()
        }
        self.entry_points: list[str] = self._find_entry_points()

    # -- tree extraction ---------------------------------------------------

    def _body_items(self, fn: FunctionInfo,
                    stmts: Sequence[ast.stmt]) -> list:
        items: list = []
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.If):
                items.extend(self._expr_items(fn, stmt.test))
                items.append(Branch(
                    stmt.lineno,
                    self.taint.expr_tainted(fn, stmt.test),
                    self._body_items(fn, stmt.body),
                    self._body_items(fn, stmt.orelse),
                ))
            elif isinstance(stmt, ast.While):
                body = self._expr_items(fn, stmt.test)
                body += self._body_items(fn, stmt.body)
                body += self._body_items(fn, stmt.orelse)
                items.append(Loop(
                    stmt.lineno,
                    self.taint.expr_tainted(fn, stmt.test), body,
                    node=stmt,
                ))
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                items.extend(self._expr_items(fn, stmt.iter))
                body = self._body_items(fn, stmt.body)
                body += self._body_items(fn, stmt.orelse)
                items.append(Loop(
                    stmt.lineno,
                    self.taint.expr_tainted(fn, stmt.iter), body,
                    node=stmt,
                ))
            elif isinstance(stmt, ast.Try):
                items.extend(self._body_items(fn, stmt.body))
                for handler in stmt.handlers:
                    items.extend(self._body_items(fn, handler.body))
                items.extend(self._body_items(fn, stmt.orelse))
                items.extend(self._body_items(fn, stmt.finalbody))
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    items.extend(
                        self._expr_items(fn, item.context_expr))
                items.extend(self._body_items(fn, stmt.body))
            else:
                for expr in ast.iter_child_nodes(stmt):
                    if isinstance(expr, ast.expr):
                        items.extend(self._expr_items(fn, expr))
        return items

    def _expr_items(self, fn: FunctionInfo, expr: ast.AST) -> list:
        items: list = []
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            op = comm_op_of(node)
            if op is not None:
                items.append(Op(op, _op_kind(op), node.lineno, node, fn))
                continue
            callee = self.index.resolve_call(fn, fn.module, node)
            if callee is not None:
                items.append(CallSite(callee.qualname, node.lineno))
        return items

    # -- collective signatures (calls inlined, cycle-guarded) --------------

    def _fn_sig(self, qualname: str, stack: frozenset[str]) -> tuple:
        if qualname in stack:
            return ()
        if qualname in self._sig_cache and not stack:
            return self._sig_cache[qualname]
        sig = self._items_sig(
            self.trees.get(qualname, ()), stack | {qualname}
        )
        if not stack:
            self._sig_cache[qualname] = sig
        return sig

    def _items_sig(self, items, stack: frozenset[str]) -> tuple:
        sig: list = []
        for it in items:
            if isinstance(it, Op):
                if it.kind == "collective":
                    sig.append(("op", it.op))
            elif isinstance(it, CallSite):
                sig.extend(self._fn_sig(it.qualname, stack))
            elif isinstance(it, Loop):
                sub = self._items_sig(it.body, stack)
                if sub:
                    sig.append(("loop", sub))
            elif isinstance(it, Branch):
                then = self._items_sig(it.then, stack)
                orelse = self._items_sig(it.orelse, stack)
                if then == orelse:
                    sig.extend(then)  # same either way: part of the line
                elif then or orelse:
                    sig.append(("branch", then, orelse))
        return tuple(sig)

    # -- check 1: collective uniformity across rank-tainted control --------

    def divergence_findings(self) -> list[Finding]:
        findings: list[Finding] = []
        for qual, fn in self.index.functions.items():
            if excluded(fn.path):
                continue
            self._walk_divergence(fn, self.trees[qual], findings)
        return findings

    def _walk_divergence(self, fn: FunctionInfo, items,
                         findings: list[Finding]) -> None:
        stack = frozenset({fn.qualname})
        for it in items:
            if isinstance(it, Branch):
                if it.tainted:
                    then = self._items_sig(it.then, stack)
                    orelse = self._items_sig(it.orelse, stack)
                    if then != orelse:
                        findings.append(Finding(
                            fn.path, it.lineno,
                            "rank-divergent-collective",
                            f"collective sequence diverges across a "
                            f"rank-derived branch in {fn.qualname} "
                            f"(true arm: {_sig_text(then)}; false arm: "
                            f"{_sig_text(orelse)}, helpers inlined); "
                            f"all ranks must execute the same "
                            f"collective sequence",
                        ))
                self._walk_divergence(fn, it.then, findings)
                self._walk_divergence(fn, it.orelse, findings)
            elif isinstance(it, Loop):
                if it.tainted:
                    sub = self._items_sig(it.body, stack)
                    if sub:
                        findings.append(Finding(
                            fn.path, it.lineno,
                            "rank-divergent-collective",
                            f"collective sequence {_sig_text(sub)} "
                            f"inside a loop bounded by a rank-derived "
                            f"value in {fn.qualname} (helpers "
                            f"inlined); ranks would execute different "
                            f"collective counts",
                        ))
                self._walk_divergence(fn, it.body, findings)

    # -- entry points ------------------------------------------------------

    def _has_direct_ops(self, qual: str) -> bool:
        return bool(self._direct_ops.get(qual))

    def _comm_active(self, qual: str) -> bool:
        return any(self._has_direct_ops(q)
                   for q in self.graph.reachable([qual]))

    def _find_entry_points(self) -> list[str]:
        active = {q for q in self.index.functions
                  if self._comm_active(q)}
        roots = {q for q in self.graph.spmd_entries if q in active}
        for qual in active:
            callers = self.graph.callers.get(qual, set())
            if not callers & active:
                roots.add(qual)
        covered = self.graph.reachable(sorted(roots))
        # cycles can leave comm-active functions with only comm-active
        # callers and no root above them; make them roots themselves
        for qual in sorted(active - covered):
            if qual not in self.graph.reachable(sorted(roots)):
                roots.add(qual)
        return sorted(roots)

    # -- check 2: p2p matching per entry closure ---------------------------

    def _p2p_sites(self, qual: str) -> Iterator[P2pSite]:
        fn = self.index.functions[qual]
        for op in self._direct_ops.get(qual, ()):
            if op.kind == "collective":
                continue
            yield self._describe_site(fn, op)

    def _describe_site(self, fn: FunctionInfo, op: Op) -> P2pSite:
        call = op.call
        tag_expr: ast.AST | None = None
        for kw in call.keywords:
            if kw.arg == "tag":
                tag_expr = kw.value
        if tag_expr is None:
            idx = _TAG_ARG_INDEX[op.op]
            if idx < len(call.args):
                tag_expr = call.args[idx]
        if tag_expr is None:
            tag, label = ("const", 0), "default tag 0"
        elif (isinstance(tag_expr, ast.Constant)
                and type(tag_expr.value) is int):
            tag, label = ("const", tag_expr.value), f"tag={tag_expr.value}"
        else:
            resolved = self.index.resolve_int_constant(fn.module, tag_expr)
            if resolved is not None:
                identity, value = resolved
                tag = ("const", value)
                label = f"tag={identity.rsplit('.', 1)[-1]}={value}"
            else:
                tag, label = ("dyn",), "dynamic tag"

        peer_expr: ast.AST | None = None
        for kw in call.keywords:
            if kw.arg == _PEER_KEYWORD[op.op]:
                peer_expr = kw.value
        if peer_expr is None:
            idx = _PEER_ARG_INDEX[op.op]
            if idx < len(call.args):
                peer_expr = call.args[idx]
        if peer_expr is None:
            peer_class = "constant"  # recv() defaults to ANY_SOURCE
        elif isinstance(peer_expr, ast.Constant):
            peer_class = "constant"
        elif (self.index.resolve_int_constant(fn.module, peer_expr)
                is not None):
            peer_class = "constant"
        elif self.taint.expr_tainted(fn, peer_expr):
            peer_class = "rank-derived"
        else:
            peer_class = "dynamic"
        return P2pSite(op, tag, label, peer_class)

    def matching_findings(self) -> list[Finding]:
        #: site_id -> (site, [roots containing it], [roots unmatched in])
        status: dict[tuple, tuple[P2pSite, list[str], list[str]]] = {}
        for root in self.entry_points:
            closure = self.graph.reachable([root])
            sites = [s for q in sorted(closure)
                     for s in self._p2p_sites(q)]
            send_tags = {s.tag for s in sites if s.op.kind == "send"}
            recv_tags = {s.tag for s in sites if s.op.kind == "recv"}
            dyn_send = ("dyn",) in send_tags
            dyn_recv = ("dyn",) in recv_tags
            for site in sites:
                if site.op.kind == "send":
                    matched = (site.tag == ("dyn",) or dyn_recv
                               or site.tag in recv_tags)
                else:
                    matched = (site.tag == ("dyn",) or dyn_send
                               or site.tag in send_tags)
                entry = status.setdefault(
                    site.site_id, (site, [], [])
                )
                entry[1].append(root)
                if not matched:
                    entry[2].append(root)

        findings: list[Finding] = []
        for site, containing, unmatched_in in status.values():
            # a site reachable from several entries is a problem only if
            # *no* closure gives it a partner
            if len(unmatched_in) < len(containing) or not unmatched_in:
                continue
            if excluded(site.path):
                continue
            op = site.op
            if op.kind == "send":
                findings.append(Finding(
                    site.path, op.lineno, "unmatched-send",
                    f"{op.op}() with {site.tag_label} "
                    f"(peer: {site.peer_class}) in {op.fn.qualname} "
                    f"has no matching recv site in the schedule of "
                    f"entry {', '.join(sorted(unmatched_in))}; an "
                    f"unreceived send strands its payload and can "
                    f"deadlock teardown",
                ))
            else:
                findings.append(Finding(
                    site.path, op.lineno, "unmatched-recv",
                    f"{op.op}() with {site.tag_label} "
                    f"(peer: {site.peer_class}) in {op.fn.qualname} "
                    f"has no send site posting that tag in the "
                    f"schedule of entry "
                    f"{', '.join(sorted(unmatched_in))}; the receive "
                    f"can never complete",
                ))
        return findings

    def findings(self) -> list[Finding]:
        out = self.divergence_findings() + self.matching_findings()
        out.sort(key=lambda f: (f.path, f.line, f.code, f.message))
        return out


def _flatten_ops(items) -> Iterator[Op]:
    for it in items:
        if isinstance(it, Op):
            yield it
        elif isinstance(it, Branch):
            yield from _flatten_ops(it.then)
            yield from _flatten_ops(it.orelse)
        elif isinstance(it, Loop):
            yield from _flatten_ops(it.body)


def _sig_text(sig: tuple) -> str:
    if not sig:
        return "none"
    parts: list[str] = []
    for node in sig:
        if node[0] == "op":
            parts.append(node[1])
        elif node[0] == "loop":
            parts.append(f"loop[{_sig_text(node[1])}]")
        elif node[0] == "branch":
            parts.append(
                f"branch[{_sig_text(node[1])} | {_sig_text(node[2])}]"
            )
    return ", ".join(parts)
