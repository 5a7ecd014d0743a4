"""Forward-dataflow fixpoint engine with an interprocedural rank-taint
lattice.

The analyzer's one notion of a "rank-derived" value.  Taint flows

* into a helper through its parameters (call-site arguments that are
  rank-derived in the caller taint the callee's parameter names),
* out of a helper through its return value (a function whose returns
  are rank-derived taints every call-site result),
* and through local assignments to a fixpoint within each scope.

Two refinements matter for precision on real SPMD code and are the
reason the verifier false-positives less than a naive object-taint
model would:

* **Laundering** — the results of ``bcast``/``allgather`` and
  ``barrier`` are *uniform across ranks* by construction, so a call
  result like ``counts = comm.allgather(len(mine))`` is clean even
  though its argument is rank-local.  Conversely ``recv``/``gather``/
  ``alltoall`` results are per-rank and taint.  This requires the
  expression evaluator to be recursive (a flat walk would see the
  ``.rank`` inside the laundering call's argument and taint anyway).
* **No taint through attribute access** — ``grid.q`` is uniform even
  when ``grid`` also carries ``grid.row``; only the rank-identifying
  attribute names themselves (:data:`RANK_ATTRS`) are taint sources.
  Without this the SUMMA k-loop bound would be tainted and every bcast
  in the k-loop falsely flagged.

The engine computes, to a global fixpoint: per-function
:class:`TaintSummary` (does it return taint; which parameters flow to
its return), per-function parameter taint from all resolved call
sites, and the per-function tainted-name environment the schedule
analysis queries via :meth:`RankTaint.branch_test_tainted`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Sequence

from .callgraph import CallGraph, FunctionInfo, ProjectIndex

__all__ = [
    "COLLECTIVE_OPS",
    "LAUNDERING_OPS",
    "RANK_ATTRS",
    "RECV_OPS",
    "SEND_OPS",
    "TAINTING_RESULT_OPS",
    "RankTaint",
    "TaintSummary",
    "comm_op_of",
]

#: collectives of the CommBackend surface (mirrors
#: ``repro.mpisim.backend.COMM_OP_KINDS``; a unit test cross-checks)
COLLECTIVE_OPS = frozenset({
    "barrier", "bcast", "allgather", "gather", "alltoall", "split",
})
SEND_OPS = frozenset({"send", "isend"})
RECV_OPS = frozenset({"recv", "irecv"})

#: collectives whose *result* is uniform across ranks (root-broadcast or
#: every rank's contribution): calling them launders taint away
LAUNDERING_OPS = frozenset({"bcast", "allgather", "barrier"})
#: comm ops whose result differs per rank: calling them introduces taint
TAINTING_RESULT_OPS = frozenset({"gather", "alltoall"} | RECV_OPS)

#: attribute names whose value identifies the executing rank (world
#: rank and the process-grid coordinates)
RANK_ATTRS = frozenset({"rank", "world_rank", "row", "col"})

_FIXPOINT_LIMIT = 40


def receiver_ident(func: ast.Attribute) -> str | None:
    """Terminal identifier of the receiver of an attribute access
    (``grid.comm.bcast`` -> ``comm``, ``self.allgather`` -> ``self``)."""
    recv = func.value
    if isinstance(recv, ast.Name):
        return recv.id
    if isinstance(recv, ast.Attribute):
        return recv.attr
    return None


def looks_like_comm(ident: str | None) -> bool:
    return ident is not None and ("comm" in ident.lower()
                                  or ident in ("self", "world"))


def comm_op_of(call: ast.Call) -> str | None:
    """The CommBackend op a call expression performs, or ``None``."""
    func = call.func
    if (isinstance(func, ast.Attribute)
            and func.attr in (COLLECTIVE_OPS | SEND_OPS | RECV_OPS)
            and looks_like_comm(receiver_ident(func))):
        return func.attr
    return None


def _match_targets(
    tgt: ast.AST, value: ast.AST
) -> Iterator[tuple[str, ast.AST]]:
    if isinstance(tgt, ast.Name):
        yield tgt.id, value
    elif isinstance(tgt, (ast.Tuple, ast.List)):
        elts = None
        if (isinstance(value, (ast.Tuple, ast.List))
                and len(value.elts) == len(tgt.elts)):
            elts = value.elts
        for i, sub in enumerate(tgt.elts):
            yield from _match_targets(sub, elts[i] if elts else value)


def _assignment_pairs(stmt: ast.stmt) -> Iterator[tuple[str, ast.AST]]:
    if isinstance(stmt, ast.Assign):
        for tgt in stmt.targets:
            yield from _match_targets(tgt, stmt.value)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        if getattr(stmt, "value", None) is not None:
            yield from _match_targets(stmt.target, stmt.value)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield from _match_targets(stmt.target, stmt.iter)


def _returns(fn: FunctionInfo) -> Iterator[ast.expr]:
    for stmt in fn.own_statements():
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            yield stmt.value


@dataclass(frozen=True)
class TaintSummary:
    """Caller-visible taint behaviour of one function."""

    #: the function's return value is rank-derived on its own (reads
    #: ``.rank``, a per-rank comm result, or a tainted-returning callee)
    returns_tainted: bool = False
    #: parameter indices whose taint flows through to the return value
    tainting_params: frozenset[int] = frozenset()


_EMPTY_SUMMARY = TaintSummary()


class RankTaint:
    """Interprocedural rank-taint over a :class:`ProjectIndex`.

    After construction: ``env[qualname]`` is the set of rank-tainted
    local names of each function, ``summaries[qualname]`` its
    :class:`TaintSummary`, and ``param_taint[qualname]`` the parameter
    indices tainted by at least one resolved call site.
    """

    def __init__(self, index: ProjectIndex, graph: CallGraph):
        self.index = index
        self.graph = graph
        self.env: dict[str, frozenset[str]] = {}
        self.summaries: dict[str, TaintSummary] = {}
        self.param_taint: dict[str, set[int]] = {}
        self._compute()

    # -- public queries ----------------------------------------------------

    def tainted_names(self, fn: FunctionInfo) -> frozenset[str]:
        return self.env.get(fn.qualname, frozenset())

    def expr_tainted(self, fn: FunctionInfo, expr: ast.AST) -> bool:
        """Is an expression of ``fn``'s body rank-derived?  (Used by the
        schedule analysis on branch and loop tests.)"""
        return self._eval(fn, self.tainted_names(fn), expr, sources=True)

    # -- the global fixpoint -----------------------------------------------

    def _compute(self) -> None:
        for _ in range(_FIXPOINT_LIMIT):
            changed = False

            for qual, fn in self.index.functions.items():
                seed = {
                    p for i, p in enumerate(fn.params)
                    if i in self.param_taint.get(qual, ())
                }
                if fn.parent is not None:  # closures see enclosing taint
                    seed |= self.env.get(fn.parent.qualname, frozenset())
                env = self._scope_env(fn, seed, sources=True)
                if env != self.env.get(qual):
                    self.env[qual] = env
                    changed = True

                summary = self._summarise(fn)
                if summary != self.summaries.get(qual):
                    self.summaries[qual] = summary
                    changed = True

            if self._propagate_call_args():
                changed = True
            if not changed:
                return

    def _summarise(self, fn: FunctionInfo) -> TaintSummary:
        env = self.env.get(fn.qualname, frozenset())
        returns_tainted = any(
            self._eval(fn, env, r, sources=True) for r in _returns(fn)
        )
        tainting: set[int] = set()
        for i, param in enumerate(fn.params):
            env_i = self._scope_env(fn, {param}, sources=False)
            if any(self._eval(fn, env_i, r, sources=False)
                   for r in _returns(fn)):
                tainting.add(i)
        return TaintSummary(returns_tainted, frozenset(tainting))

    def _propagate_call_args(self) -> bool:
        """Taint callee parameters from every resolved call site whose
        argument is tainted in the caller."""
        changed = False
        for qual, fn in self.index.functions.items():
            env = self.env.get(qual, frozenset())
            for node, callee in self.graph.call_sites[qual]:
                for idx, arg in self._bind_args(callee, node):
                    if not self._eval(fn, env, arg, sources=True):
                        continue
                    bucket = self.param_taint.setdefault(
                        callee.qualname, set()
                    )
                    if idx not in bucket:
                        bucket.add(idx)
                        changed = True
        return changed

    @staticmethod
    def _bind_args(
        callee: FunctionInfo, call: ast.Call
    ) -> Iterator[tuple[int, ast.expr]]:
        """Map call arguments to callee parameter indices (a bound
        method call's positional args start at the param after self)."""
        params = callee.params
        offset = 0
        if (callee.cls is not None and params
                and params[0] in ("self", "cls")
                and isinstance(call.func, ast.Attribute)):
            offset = 1
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            idx = i + offset
            if idx < len(params):
                yield idx, arg
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in params:
                yield params.index(kw.arg), kw.value

    # -- intraprocedural environment ---------------------------------------

    def _scope_env(
        self, fn: FunctionInfo, seed: set[str] | frozenset[str],
        sources: bool,
    ) -> frozenset[str]:
        tainted = set(seed)
        for _ in range(10):
            changed = False
            for stmt in fn.own_statements():
                for name, value in _assignment_pairs(stmt):
                    if (name not in tainted
                            and self._eval(fn, tainted, value, sources)):
                        tainted.add(name)
                        changed = True
            if not changed:
                break
        return frozenset(tainted)

    # -- the recursive expression evaluator --------------------------------

    def _eval(
        self, fn: FunctionInfo, env: "set[str] | frozenset[str]",
        expr: ast.AST, sources: bool,
    ) -> bool:
        """Is ``expr`` rank-derived?  With ``sources=False`` the
        intrinsic sources (rank attrs, per-rank comm results, callee
        returns) are switched off so only flow from ``env`` names is
        measured — that isolates parameter->return flow for summaries."""
        if isinstance(expr, ast.Constant):
            return False
        if isinstance(expr, ast.Name):
            return expr.id in env
        if isinstance(expr, ast.Attribute):
            # the attribute itself is the only source: object taint does
            # NOT flow through attribute access (grid.q is uniform even
            # though grid also carries grid.row)
            return sources and expr.attr in RANK_ATTRS
        if isinstance(expr, ast.Call):
            return self._call_tainted(fn, env, expr, sources)
        if isinstance(expr, ast.Lambda):
            return False
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            parts: list[ast.expr] = []
            for attr in ("elt", "key", "value"):
                sub = getattr(expr, attr, None)
                if sub is not None:
                    parts.append(sub)
            for gen in expr.generators:
                parts.append(gen.iter)
                parts.extend(gen.ifs)
            return any(self._eval(fn, env, p, sources) for p in parts)
        return any(
            self._eval(fn, env, child, sources)
            for child in ast.iter_child_nodes(expr)
            if isinstance(child, ast.expr)
        )

    def _call_tainted(
        self, fn: FunctionInfo, env: "set[str] | frozenset[str]",
        call: ast.Call, sources: bool,
    ) -> bool:
        op = comm_op_of(call)
        if op is not None:
            if op in TAINTING_RESULT_OPS:
                return sources
            # laundering collectives produce rank-uniform results, and
            # send/isend/split results carry no rank either way
            return False
        callee = self.index.resolve_call(fn, fn.module, call)
        if callee is not None:
            summary = self.summaries.get(callee.qualname, _EMPTY_SUMMARY)
            if sources and summary.returns_tainted:
                return True
            for idx, arg in self._bind_args(callee, call):
                if (idx in summary.tainting_params
                        and self._eval(fn, env, arg, sources)):
                    return True
            return False
        # unresolved call: conservatively tainted if any argument or the
        # receiver expression is
        parts: list[ast.expr] = list(call.args)
        parts.extend(kw.value for kw in call.keywords)
        if isinstance(call.func, ast.Attribute):
            parts.append(call.func.value)
        return any(self._eval(fn, env, p, sources) for p in parts)
