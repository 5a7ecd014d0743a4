"""Project-wide module index: every module parsed once.

The analyzer's checkers (:mod:`repro.analysis.filechecks`) read one
shared parse of the tree: :class:`ProjectIndex` holds every module under
``src/repro`` with its imports (absolute and relative, any nesting
depth) and module-level integer constants, and resolves a name or
attribute to the constant it denotes through those imports — the tag
resolution the duplicate-tag checker needs.

Everything is stdlib ``ast``; nothing imports the code under analysis.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

__all__ = [
    "ModuleInfo",
    "ProjectIndex",
    "dotted_name",
    "module_name",
    "read_tree",
]


def _default_root() -> Path:
    # .../src/repro/analysis/index.py -> .../src/repro
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
    #: local binding -> dotted target ("np" -> "numpy",
    #: "_TAG_SEQS" -> "repro.core.exchange._TAG_SEQS")
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level integer constants (simple ``NAME = <int>`` assigns)
    constants: dict[str, int] = field(default_factory=dict)
    #: constant name -> line of its defining assignment
    constant_lines: dict[str, int] = field(default_factory=dict)


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


class ProjectIndex:
    """Every parsed module of the project, with constant resolution."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build_from_sources(
        cls, named_sources: Sequence[tuple[str, str]]
    ) -> "ProjectIndex":
        """Index in-memory ``(path, source)`` pairs (tests seed synthetic
        multi-module projects this way); module dotted names derive from
        the paths.  A module that does not parse raises its
        :class:`SyntaxError`: no run of that tree gets past importing
        it either."""
        index = cls()
        for path, source in named_sources:
            mod = ModuleInfo(
                name=module_name(path), path=path,
                tree=ast.parse(source, filename=path),
                source=source,
            )
            index.modules[mod.name] = mod
            _collect_imports(mod)
            _collect_constants(mod)
        return index

    # -- constant resolution -----------------------------------------------

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
