"""Project-wide module index, symbol resolver and call graph.

The whole-program verifier needs to see *through* helper calls: a
rank-divergent collective hidden inside ``helper(comm)``, or a send
whose partner recv lives in another module, is invisible to any
per-file pass.  This module builds the substrate the interprocedural
analyses (:mod:`repro.analysis.dataflow`,
:mod:`repro.analysis.schedule`) walk:

* :class:`ProjectIndex` — every module under ``src/repro`` parsed once,
  with its functions (top-level, methods, and nested ``def``\\ s),
  imports (absolute and relative, any nesting depth), and module-level
  integer constants (the tag-name resolution the duplicate-tag checker
  and the p2p matcher share); every checker of the analyzer reads this
  one parse;
* a symbol resolver mapping a call expression in one module to the
  :class:`FunctionInfo` it names — bare names through local scopes and
  ``from``-imports, ``module.func`` and ``Class.method`` attributes,
  ``self.method`` inside classes;
* :class:`CallGraph` — resolved call edges with line numbers, reverse
  edges, and the functions passed by name into ``run_spmd``-style
  dispatchers (the SPMD entry points the schedule analysis roots at).

Everything is stdlib ``ast``; nothing imports the code under analysis.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

__all__ = [
    "CallGraph",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "dotted_name",
    "iter_scope",
    "module_name",
    "read_tree",
]


def _default_root() -> Path:
    # .../src/repro/analysis/callgraph.py -> .../src/repro
    return Path(__file__).resolve().parents[1]


def read_tree(
    paths: Sequence[str | Path] | None = None
) -> list[tuple[str, str]]:
    """``(path, source)`` pairs of files/directories (default: the
    installed ``repro`` tree), with paths relative to the package parent
    (``repro/...``) — the batch the analyzer runs on."""
    roots = [Path(p) for p in paths] if paths else [_default_root()]
    files: list[Path] = []
    for root in roots:
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
        else:
            files.append(root)
    base = _default_root().parent
    named = []
    for f in files:
        try:
            rel = str(f.resolve().relative_to(base))
        except ValueError:
            rel = str(f)
        named.append((rel.replace("\\", "/"), f.read_text(encoding="utf-8")))
    return named


def module_name(rel_path: str) -> str:
    """``repro/core/balance.py`` -> ``repro.core.balance``;
    ``repro/core/__init__.py`` -> ``repro.core``.  Paths outside the
    installed tree (e.g. absolute CLI arguments) are anchored at their
    first ``repro`` component so cross-module imports still resolve."""
    parts = rel_path.replace("\\", "/").removesuffix(".py").split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(p for p in parts if p)


@dataclass
class FunctionInfo:
    """One function (or method, or nested def) of the indexed project."""

    qualname: str              # e.g. "repro.core.balance.plan_and_ship"
    module: "ModuleInfo"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None = None     # enclosing class name, if a method
    parent: "FunctionInfo | None" = None  # enclosing function, if nested
    nested: dict[str, "FunctionInfo"] = field(default_factory=dict)

    @property
    def params(self) -> tuple[str, ...]:
        a = self.node.args
        names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        return tuple(names)

    @property
    def path(self) -> str:
        return self.module.path

    @property
    def lineno(self) -> int:
        return self.node.lineno

    def own_statements(self) -> Iterator[ast.stmt]:
        """This function's statements, not descending into nested
        defs/classes (they are separate :class:`FunctionInfo` scopes)."""
        yield from iter_scope(self.node.body)


def iter_scope(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements of one scope, not descending into nested defs/classes
    (they are separate scopes)."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for name in ("body", "orelse", "finalbody"):
            block = getattr(stmt, name, None)
            if block:
                yield from iter_scope(block)
        for handler in getattr(stmt, "handlers", None) or []:
            yield from iter_scope(handler.body)


def dotted_name(node: ast.AST) -> str | None:
    """``grid.row_comm`` -> "grid.row_comm" for Name/Attribute chains."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


@dataclass
class ModuleInfo:
    """One parsed module of the project."""

    name: str                  # dotted module name
    path: str                  # repo-relative path ("repro/core/...py")
    tree: ast.Module
    source: str
    #: local qualifier ("f" or "Cls.f") -> function
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: local binding -> dotted target ("np" -> "numpy",
    #: "plan_and_ship" -> "repro.core.balance.plan_and_ship")
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level integer constants (simple ``NAME = <int>`` assigns)
    constants: dict[str, int] = field(default_factory=dict)
    #: constant name -> line of its defining assignment
    constant_lines: dict[str, int] = field(default_factory=dict)

    @property
    def package(self) -> str:
        return self.name.rsplit(".", 1)[0] if "." in self.name else ""


def _collect_imports(mod: ModuleInfo) -> None:
    """Record every import binding, at any nesting depth (the pipeline
    uses function-level imports to break cycles; resolution should see
    them too).  Relative imports resolve against the module's package."""
    is_pkg = mod.path.endswith("__init__.py")
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.partition(".")[0]
                mod.imports[bound] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                # level 1 = this package; each extra level climbs one
                parts = mod.name.split(".")
                if not is_pkg:
                    parts = parts[:-1]
                climb = node.level - 1
                parts = parts[: len(parts) - climb] if climb else parts
                base = ".".join(parts)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                mod.imports[bound] = (
                    f"{base}.{alias.name}" if base else alias.name
                )


def _collect_constants(mod: ModuleInfo) -> None:
    for stmt in mod.tree.body:
        if (isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and type(stmt.value.value) is int):
            mod.constants[stmt.targets[0].id] = stmt.value.value
            mod.constant_lines[stmt.targets[0].id] = stmt.lineno


def _collect_functions(index: "ProjectIndex", mod: ModuleInfo) -> None:
    def visit_def(node, cls, parent, prefix):
        qualname = f"{prefix}.{node.name}"
        fn = FunctionInfo(
            qualname=qualname, module=mod, node=node, cls=cls,
            parent=parent,
        )
        local = f"{cls}.{node.name}" if cls else node.name
        if parent is None:
            mod.functions[local] = fn
        else:
            parent.nested[node.name] = fn
        index.functions[qualname] = fn
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_def(child, None, fn, f"{qualname}.<locals>")
        return fn

    for stmt in mod.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit_def(stmt, None, None, mod.name)
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    visit_def(item, stmt.name, None,
                              f"{mod.name}.{stmt.name}")


class ProjectIndex:
    """Every parsed module of the project, with symbol resolution."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: modules that failed to parse: path -> (lineno, message)
        self.broken: dict[str, tuple[int, str]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build_from_sources(
        cls, named_sources: Sequence[tuple[str, str]]
    ) -> "ProjectIndex":
        """Index in-memory ``(path, source)`` pairs (tests seed synthetic
        multi-module projects this way); module dotted names derive from
        the paths."""
        index = cls()
        for path, source in named_sources:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as exc:
                index.broken[path] = (exc.lineno or 1, str(exc.msg))
                continue
            mod = ModuleInfo(
                name=module_name(path), path=path, tree=tree,
                source=source,
            )
            index.modules[mod.name] = mod
            _collect_imports(mod)
            _collect_constants(mod)
            _collect_functions(index, mod)
        return index

    # -- symbol resolution -------------------------------------------------

    def _function_in(self, module_name: str, symbol: str
                     ) -> FunctionInfo | None:
        mod = self.modules.get(module_name)
        return mod.functions.get(symbol) if mod else None

    def _resolve_dotted(self, dotted: str) -> FunctionInfo | None:
        """Resolve a fully dotted target (from an import binding) to a
        function: the longest prefix that names an indexed module, the
        remainder a ``func`` or ``Class.method`` within it."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module_name = ".".join(parts[:cut])
            if module_name in self.modules:
                symbol = ".".join(parts[cut:])
                return self._function_in(module_name, symbol)
        return None

    def resolve_call(
        self, fn: FunctionInfo | None, mod: ModuleInfo, call: ast.Call
    ) -> FunctionInfo | None:
        """The indexed function a call expression names, or ``None``
        (method calls on arbitrary objects are not type-inferred)."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            scope = fn
            while scope is not None:  # nested defs shadow outer names
                if name in scope.nested:
                    return scope.nested[name]
                scope = scope.parent
            if name in mod.functions:
                return mod.functions[name]
            target = mod.imports.get(name)
            if target:
                return self._resolve_dotted(target)
            return None
        if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name):
            base, attr = func.value.id, func.attr
            if base == "self" and fn is not None:
                scope = fn
                while scope is not None and scope.cls is None:
                    scope = scope.parent
                if scope is not None:
                    return mod.functions.get(f"{scope.cls}.{attr}")
            # locally defined class: Cls.method(...)
            hit = mod.functions.get(f"{base}.{attr}")
            if hit is not None:
                return hit
            target = mod.imports.get(base)
            if target:
                # imported module (module.func) or imported class
                # (Class.method) — _resolve_dotted handles both
                return self._resolve_dotted(f"{target}.{attr}")
        return None

    def resolve_int_constant(
        self, mod: ModuleInfo, expr: ast.AST
    ) -> tuple[str, int] | None:
        """Resolve an expression to a module-level integer constant,
        following imports: returns ``(identity, value)`` where identity
        is the defining ``module.NAME`` — two uses of one constant are
        the *same* tag, however many modules import it."""
        if isinstance(expr, ast.Name):
            if expr.id in mod.constants:
                return f"{mod.name}.{expr.id}", mod.constants[expr.id]
            target = mod.imports.get(expr.id)
            if target and "." in target:
                owner, name = target.rsplit(".", 1)
                owner_mod = self.modules.get(owner)
                if owner_mod and name in owner_mod.constants:
                    return (f"{owner_mod.name}.{name}",
                            owner_mod.constants[name])
        elif (isinstance(expr, ast.Attribute)
              and isinstance(expr.value, ast.Name)):
            target = mod.imports.get(expr.value.id)
            owner_mod = self.modules.get(target) if target else None
            if owner_mod and expr.attr in owner_mod.constants:
                return (f"{owner_mod.name}.{expr.attr}",
                        owner_mod.constants[expr.attr])
        return None


#: dispatcher names whose function-valued argument is an SPMD entry body
_SPMD_DISPATCHERS = frozenset({"run_spmd", "run_spmd_mp"})


class CallGraph:
    """Resolved call edges over a :class:`ProjectIndex`."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        #: caller qualname -> [(callee qualname, call lineno), ...]
        self.edges: dict[str, list[tuple[str, int]]] = {}
        #: caller qualname -> [(call expression, resolved callee), ...]
        self.call_sites: dict[str, list[tuple[ast.Call, FunctionInfo]]] = {}
        #: callee qualname -> set of caller qualnames
        self.callers: dict[str, set[str]] = {}
        #: functions passed by name into run_spmd-style dispatchers
        self.spmd_entries: set[str] = set()
        self._build()

    def _build(self) -> None:
        for fn in self.index.functions.values():
            edges: list[tuple[str, int]] = []
            sites = self.call_sites[fn.qualname] = []
            for stmt in fn.own_statements():
                for node in ast.walk(stmt):
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        continue
                    if not isinstance(node, ast.Call):
                        continue
                    callee = self.index.resolve_call(fn, fn.module, node)
                    if callee is not None:
                        edges.append((callee.qualname, node.lineno))
                        sites.append((node, callee))
                        self.callers.setdefault(
                            callee.qualname, set()
                        ).add(fn.qualname)
                    self._note_spmd_entry(fn, node)
            self.edges[fn.qualname] = edges

    def _note_spmd_entry(self, fn: FunctionInfo, call: ast.Call) -> None:
        name = None
        if isinstance(call.func, ast.Name):
            name = call.func.id
        elif isinstance(call.func, ast.Attribute):
            name = call.func.attr
        if name not in _SPMD_DISPATCHERS:
            return
        for arg in call.args:
            if isinstance(arg, ast.Name):
                body = self.index.resolve_call(
                    fn, fn.module,
                    ast.Call(func=arg, args=[], keywords=[]),
                )
                if body is not None:
                    self.spmd_entries.add(body.qualname)

    def reachable(self, roots: Sequence[str]) -> set[str]:
        """Transitive closure of resolved call edges from ``roots``."""
        seen: set[str] = set()
        work = list(roots)
        while work:
            fn = work.pop()
            if fn in seen:
                continue
            seen.add(fn)
            work.extend(c for c, _line in self.edges.get(fn, ()))
        return seen
