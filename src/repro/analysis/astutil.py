"""Shared AST plumbing for the analysis rules.

Rules need three things the stdlib ``ast`` module doesn't provide directly:

* **parent links** — guard-domination checks (rule R3) walk *up* from an
  emission site, so :func:`attach_parents` threads a ``_repro_parent``
  attribute through the tree once per module;
* **import resolution** — determinism rules care about *what* is called
  (``random.randint`` through any alias or ``from``-import), so
  :class:`ImportMap` maps local names back to dotted origins and
  :func:`dotted_origin` resolves a call target to one;
* **a per-module bundle** — :class:`ModuleSource` carries the parsed tree,
  the raw source lines (for reports), and the import map.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

PARENT_ATTR = "_repro_parent"


def attach_parents(tree: ast.AST) -> None:
    """Set ``node._repro_parent`` on every node in ``tree``."""
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            setattr(child, PARENT_ATTR, parent)


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, PARENT_ATTR, None)


def ancestry(node: ast.AST) -> Iterator[Tuple[ast.AST, ast.AST]]:
    """Yield ``(child, parent)`` pairs walking from ``node`` to the root."""
    while True:
        parent = parent_of(node)
        if parent is None:
            return
        yield node, parent
        node = parent


class ImportMap:
    """Local name -> dotted origin, collected from a module's imports.

    ``import random as rnd`` maps ``rnd -> random``;
    ``from random import randint`` maps ``randint -> random.randint``;
    ``from datetime import datetime`` maps ``datetime -> datetime.datetime``.
    Relative imports (``from . import x``) resolve inside this package and
    are ignored — the determinism rules only care about stdlib origins.
    """

    def __init__(self) -> None:
        self._origins: Dict[str, str] = {}

    @classmethod
    def from_tree(cls, tree: ast.AST) -> "ImportMap":
        imports = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    origin = alias.name if alias.asname else local
                    imports._origins[local] = origin
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    imports._origins[local] = f"{node.module}.{alias.name}"
        return imports

    def origin(self, local_name: str) -> Optional[str]:
        return self._origins.get(local_name)


def dotted_origin(node: ast.AST, imports: ImportMap) -> Optional[str]:
    """Resolve an expression to the dotted path it names, if any.

    ``rnd.Random`` under ``import random as rnd`` resolves to
    ``random.Random``; expressions rooted in anything but an imported name
    (``self.rng.random``) resolve to ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = imports.origin(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


@dataclass
class ModuleSource:
    """One parsed module: display path, tree, source lines, import map."""

    path: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)
    imports: ImportMap = field(default_factory=ImportMap)

    @classmethod
    def parse(cls, source: str, path: str = "<string>") -> "ModuleSource":
        tree = ast.parse(source, filename=path)
        attach_parents(tree)
        return cls(
            path=path,
            tree=tree,
            lines=source.splitlines(),
            imports=ImportMap.from_tree(tree),
        )

    def line_text(self, lineno: int) -> str:
        """Stripped text of 1-based ``lineno`` (empty when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""
