"""Comm-performance checks over the schedule trees.

Where the schedule checkers of :mod:`repro.analysis.schedule` police
communication *correctness*, these four flag communication that is
correct but wasteful.  They are one walk over each function's
comm-effects tree (:class:`~repro.analysis.schedule.ScheduleAnalysis`)
carrying the stack of enclosing loops, and every test is syntactic:

* ``redundant-collective`` — bcast/allgather/allreduce of a payload
  that is syntactically rank-uniform (a literal or a module constant):
  every rank already holds the value.  Deliberately *not* keyed on the
  rank-taint lattice: taint does not track control dependence, so a
  value computed under ``if comm.rank == 0:`` and then broadcast looks
  untainted even though the broadcast is essential.
* ``grid-loop-collective`` — a collective inside a ``for`` loop whose
  ``range(...)`` bound names the grid (``grid.q``, ``comm.size``) where
  no argument mentions the loop variable: the iterations are identical
  and the collective is hoistable.  SUMMA's rotating ``root=t`` passes
  because ``t`` is an argument; ``range(3)`` passes because its trip
  count does not grow with the grid.
* ``per-element-send`` — a send/isend inside a loop whose payload is
  exactly the loop variable (or an indexing by it): one message per
  element is alpha-dominated; batch or use alltoall.
* ``pickled-envelope`` — a send/isend whose payload is a list of
  ndarrays: the pickle codec copies each element; a single flat ndarray
  uses the zero-copy buffer path.

What the pipeline *actually* ships is a function of the nonzeros in the
SUMMA blocks, so no static pass sizes it: measured messages and bytes
per ``(comm, op)`` are a runtime fact of
:meth:`repro.mpisim.tracing.CommTracer.summary`, and the measured
alpha-beta seconds live in ``graph.meta["commcost"]``.
"""

from __future__ import annotations

import ast

from .callgraph import FunctionInfo, ProjectIndex
from .dataflow import SEND_OPS, looks_like_comm, receiver_ident
from .report import Finding
from .schedule import Branch, Loop, Op, ScheduleAnalysis, excluded

__all__ = ["comm_perf_findings"]

#: collectives whose result every rank could compute locally when the
#: payload is uniform (the redundant-collective candidates)
_UNIFORM_REDUNDANT_OPS = frozenset({"bcast", "allgather", "allreduce"})

#: numpy array constructors (the pickled-envelope element test)
_NP_CTORS = frozenset({"zeros", "ones", "empty", "full", "arange"})

_PAYLOAD_DEPTH = 6


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _grid_bound(loop: Loop) -> str | None:
    """The ``range(...)`` argument that makes a ``for`` loop's trip count
    scale with the process grid (``grid.q``, ``comm.size``), rendered;
    ``None`` for every other loop."""
    node = loop.node
    if not isinstance(node, (ast.For, ast.AsyncFor)):
        return None
    it = node.iter
    if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
            and it.func.id == "range"):
        return None
    for arg in it.args:
        for sub in ast.walk(arg):
            if not isinstance(sub, ast.Attribute):
                continue
            if sub.attr == "q" or (
                    sub.attr == "size"
                    and looks_like_comm(receiver_ident(sub))):
                return ast.unparse(arg)
    return None


def _loop_target(loop: Loop) -> str | None:
    node = loop.node
    if (isinstance(node, (ast.For, ast.AsyncFor))
            and isinstance(node.target, ast.Name)):
        return node.target.id
    return None


def _is_element_of(payload: ast.AST, target: str) -> bool:
    if isinstance(payload, ast.Name) and payload.id == target:
        return True
    if isinstance(payload, ast.Subscript):
        return target in _names_in(payload.slice)
    return False


def _unique_return(fn: FunctionInfo) -> ast.expr | None:
    returns = [stmt.value for stmt in fn.own_statements()
               if isinstance(stmt, ast.Return) and stmt.value is not None]
    return returns[0] if len(returns) == 1 else None


class _CommPerf:
    """The four checks, sharing the per-function assignment maps."""

    def __init__(self, index: ProjectIndex, schedule: ScheduleAnalysis):
        self.index = index
        self.schedule = schedule
        self.findings: list[Finding] = []
        self._assigns: dict[str, dict[str, list[ast.AST]]] = {}

    def run(self) -> list[Finding]:
        for qual, fn in self.index.functions.items():
            if not excluded(fn.path):
                self._walk(fn, self.schedule.trees[qual], ())
        return self.findings

    def _walk(self, fn: FunctionInfo, items, loops: tuple) -> None:
        for it in items:
            if isinstance(it, Op):
                self._check_site(fn, it, loops)
            elif isinstance(it, Branch):
                self._walk(fn, it.then, loops)
                self._walk(fn, it.orelse, loops)
            elif isinstance(it, Loop):
                self._walk(fn, it.body, loops + (it,))

    def _unique_assignment(self, fn: FunctionInfo,
                           name: str) -> ast.AST | None:
        """The value of ``name`` if the function assigns it exactly once
        (plain single-target assignment)."""
        by_name = self._assigns.get(fn.qualname)
        if by_name is None:
            by_name = self._assigns[fn.qualname] = {}
            for stmt in fn.own_statements():
                if (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)):
                    by_name.setdefault(stmt.targets[0].id, []).append(
                        stmt.value)
                elif (isinstance(stmt, (ast.AugAssign, ast.AnnAssign))
                        and isinstance(stmt.target, ast.Name)):
                    by_name.setdefault(stmt.target.id, []).append(
                        stmt.value if stmt.value is not None
                        else stmt.target)
        values = by_name.get(name)
        return values[0] if values is not None and len(values) == 1 \
            else None

    # -- the per-site checks -----------------------------------------------

    def _flag(self, fn: FunctionInfo, op: Op, code: str,
              message: str) -> None:
        self.findings.append(Finding(fn.path, op.lineno, code, message))

    def _check_site(self, fn: FunctionInfo, op: Op, loops: tuple) -> None:
        call = op.call
        payload = call.args[0] if call.args and not isinstance(
            call.args[0], ast.Starred) else None

        if op.op in _UNIFORM_REDUNDANT_OPS and payload is not None:
            desc = self._uniform_desc(fn, payload)
            if desc is not None:
                self._flag(
                    fn, op, "redundant-collective",
                    f"{op.op}() of the rank-uniform payload {desc} in "
                    f"{fn.qualname}: every rank already holds the "
                    f"value, so the collective only costs latency; "
                    f"compute it locally or allowlist with "
                    f"'# spmd: redundant-collective-ok (reason)'",
                )

        if op.kind == "collective" and op.op not in ("barrier", "split"):
            for loop in loops:
                bound = _grid_bound(loop)
                if bound is None:
                    continue
                target = _loop_target(loop)
                if target is not None and target in _names_in(call):
                    continue
                self._flag(
                    fn, op, "grid-loop-collective",
                    f"{op.op}() inside a loop over range({bound}), "
                    f"which grows with the process grid, in "
                    f"{fn.qualname} uses no loop-dependent argument: "
                    f"the repeated collective is hoistable; allowlist "
                    f"with '# spmd: grid-loop-collective-ok (reason)'",
                )
                break

        if op.op not in SEND_OPS or payload is None:
            return
        if loops:
            target = _loop_target(loops[-1])
            if target is not None and _is_element_of(payload, target):
                self._flag(
                    fn, op, "per-element-send",
                    f"{op.op}() in {fn.qualname} ships one element of "
                    f"the iterated sequence per message: per-message "
                    f"latency dominates; batch the elements into one "
                    f"payload or use alltoall; allowlist with "
                    f"'# spmd: per-element-send-ok (reason)'",
                )
        if self._is_ndarray_list(fn, payload, 0):
            self._flag(
                fn, op, "pickled-envelope",
                f"{op.op}() in {fn.qualname} sends a list of "
                f"ndarrays: the general pickle codec copies each "
                f"element; pack them into one flat ndarray to use "
                f"the zero-copy buffer path; allowlist with "
                f"'# spmd: pickled-envelope-ok (reason)'",
            )

    def _uniform_desc(self, fn: FunctionInfo,
                      payload: ast.AST) -> str | None:
        """A rendering of the payload if it is syntactically uniform
        across ranks (literal or module constant), else ``None``.  A
        literal ``None`` is the no-payload placeholder, not a value."""
        if isinstance(payload, ast.Constant):
            return None if payload.value is None else repr(payload.value)
        hit = self.index.resolve_int_constant(fn.module, payload)
        if hit is not None:
            identity, value = hit
            return f"{identity.rsplit('.', 1)[-1]} (= {value})"
        return None

    def _is_ndarray_list(self, fn: FunctionInfo, expr: ast.AST,
                         depth: int) -> bool:
        if depth > _PAYLOAD_DEPTH:
            return False
        if isinstance(expr, ast.List) and expr.elts:
            return all(self._is_ndarrayish(fn, e, depth + 1)
                       for e in expr.elts)
        if isinstance(expr, ast.ListComp):
            return self._is_ndarrayish(fn, expr.elt, depth + 1)
        if isinstance(expr, ast.Name):
            value = self._unique_assignment(fn, expr.id)
            if value is not None:
                return self._is_ndarray_list(fn, value, depth + 1)
        return False

    def _is_ndarrayish(self, fn: FunctionInfo, expr: ast.AST,
                       depth: int) -> bool:
        """Does ``expr`` build an ndarray — a numpy constructor call,
        directly, through a uniquely assigned local, or through the
        unique return of a resolved helper?"""
        if depth > _PAYLOAD_DEPTH:
            return False
        if isinstance(expr, ast.Call):
            func = expr.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.attr in _NP_CTORS
                    and (func.value.id == "np" or fn.module.imports.get(
                        func.value.id) == "numpy")):
                return True
            callee = self.index.resolve_call(fn, fn.module, expr)
            value = _unique_return(callee) if callee is not None else None
            return value is not None and self._is_ndarrayish(
                callee, value, depth + 1)
        if isinstance(expr, ast.Name):
            value = self._unique_assignment(fn, expr.id)
            return value is not None and self._is_ndarrayish(
                fn, value, depth + 1)
        return False


def comm_perf_findings(index: ProjectIndex,
                       schedule: ScheduleAnalysis) -> list[Finding]:
    """The four comm-performance checks over every reported-against
    function of the project (unsuppressed)."""
    return _CommPerf(index, schedule).run()
