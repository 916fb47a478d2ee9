"""Parsed-module index shared by every lint rule (one ``ast.parse`` per file).

The index is the reason ``repro lint`` stays O(repo): each source file is
read, tokenized (for suppression pragmas) and parsed exactly once, and the
rules consume read-only views — the import alias maps, the qualified-name
resolver and the repo-wide defined-attribute table that backs the
capability-hook rule.

Rows (CHANGES-style):
    parse_suppressions - ``# reprolint: disable=rule(reason)`` comment map
    ModuleIndex        - one file: AST + aliases + defined names + suppressions
    RepoIndex          - all modules + the repo-wide defined-attribute table
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Iterator

__all__ = [
    "ModuleIndex",
    "RepoIndex",
    "parse_suppressions",
]

_PRAGMA_RE = re.compile(r"#\s*reprolint:\s*disable=(?P<items>.+)$")


def _split_pragma_items(items: str) -> Iterator[str]:
    """Split ``rule-a(reason, with commas),rule-b`` on depth-0 commas."""
    depth, start = 0, 0
    for i, ch in enumerate(items):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch == "," and depth == 0:
            yield items[start:i]
            start = i + 1
    yield items[start:]


def parse_suppressions(source: str) -> dict[int, dict[str, str | None]]:
    """Per-line suppression pragmas: ``{line: {rule_id: reason | None}}``.

    An inline pragma applies to its own physical line; a pragma on a
    comment-only line applies to the immediately following line (handy for
    statements whose line is already long).  ``disable=all`` suppresses
    every rule.  A reason may follow the rule in parentheses and is kept
    for reporting: ``# reprolint: disable=hot-loop(scalar parity oracle)``.
    """
    out: dict[int, dict[str, str | None]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(tok.string)
        if match is None:
            continue
        rules: dict[str, str | None] = {}
        for item in _split_pragma_items(match.group("items")):
            item = item.strip()
            if not item:
                continue
            if "(" in item and item.endswith(")"):
                rule, _, reason = item.partition("(")
                rules[rule.strip()] = reason[:-1].strip() or None
            else:
                rules[item] = None
        if not rules:
            continue
        line = tok.start[0]
        standalone = tok.line[: tok.start[1]].strip() == ""
        target = line + 1 if standalone else line
        out.setdefault(target, {}).update(rules)
    return out


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ModuleIndex:
    """One parsed source file and everything the rules ask of it."""

    def __init__(self, path: Path, relpath: str, source: str, tree: ast.Module):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.tree = tree
        self.suppressions = parse_suppressions(source)
        #: ``import numpy as np``      -> {"np": "numpy"}
        self.import_aliases: dict[str, str] = {}
        #: ``from math import sqrt``   -> {"sqrt": "math.sqrt"}
        self.from_imports: dict[str, str] = {}
        #: attribute names this module defines somewhere (methods, class
        #: and ``self.x`` assignments, ``setattr(_, "x", _)``, __slots__)
        self.defined_attrs: dict[str, int] = {}
        #: every qualified name referenced anywhere (calls *and* bare
        #: references), e.g. {"numpy.hypot", "math.sqrt", ...}
        self.qualified_refs: set[str] = set()
        self._scan()

    @classmethod
    def from_file(cls, path: Path, relpath: str) -> "ModuleIndex | None":
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError):
            return None
        return cls(path, relpath, source, tree)

    # ------------------------------------------------------------------
    # qualified-name resolution
    # ------------------------------------------------------------------
    def qualified_name(self, node: ast.expr) -> str | None:
        """Resolve ``np.random.rand`` -> ``numpy.random.rand`` via imports.

        Returns ``None`` when the head name is not an import binding of
        this module (locals, attributes of locals, ...), so rules never
        mistake ``rng.random()`` for the ``random`` module.
        """
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.from_imports:
            base = self.from_imports[head]
        elif head in self.import_aliases:
            base = self.import_aliases[head]
        else:
            return None
        return f"{base}.{rest}" if rest else base

    # ------------------------------------------------------------------
    # single indexing pass
    # ------------------------------------------------------------------
    def _scan(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.import_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                module = ("." * node.level) + (node.module or "")
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.from_imports[alias.asname or alias.name] = (
                        f"{module}.{alias.name}" if module else alias.name
                    )
            elif isinstance(node, ast.ClassDef):
                self._scan_class(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        self.defined_attrs.setdefault(target.attr, target.lineno)
            elif isinstance(node, ast.Call):
                fn = node.func
                is_setattr = isinstance(fn, ast.Name) and fn.id == "setattr"
                is_dunder = isinstance(fn, ast.Attribute) and fn.attr == "__setattr__"
                if (is_setattr or is_dunder) and len(node.args) >= 2:
                    arg = node.args[1]
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        self.defined_attrs.setdefault(arg.value, node.lineno)
        # Referenced qualified names (separate pass: cheap, read-only).
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.Attribute, ast.Name)):
                qualified = self.qualified_name(node)
                if qualified is not None:
                    self.qualified_refs.add(qualified)

    def _scan_class(self, node: ast.ClassDef) -> None:
        methods: dict[str, int] = {}
        attrs: set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods[stmt.name] = stmt.lineno
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                attrs.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        attrs.add(target.id)
                        if target.id == "__slots__":
                            attrs.update(_slot_names(stmt.value))
        for name, lineno in methods.items():
            self.defined_attrs.setdefault(name, lineno)
        for name in attrs:
            self.defined_attrs.setdefault(name, node.lineno)


def _slot_names(node: ast.expr) -> set[str]:
    names: set[str] = set()
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                names.add(elt.value)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        names.add(node.value)
    return names


class RepoIndex:
    """Every indexed module plus the cross-module lookup tables."""

    def __init__(self, modules: list[ModuleIndex]):
        self.modules = modules
        self.defined_attrs: dict[str, tuple[str, int]] = {}
        for module in modules:
            for name, lineno in module.defined_attrs.items():
                self.defined_attrs.setdefault(name, (module.relpath, lineno))

    @classmethod
    def build(cls, root: Path, paths: tuple[str, ...]) -> "RepoIndex":
        modules: list[ModuleIndex] = []
        seen: set[Path] = set()
        for entry in paths:
            target = (root / entry).resolve()
            files = (
                sorted(target.rglob("*.py")) if target.is_dir()
                else [target] if target.suffix == ".py" and target.exists()
                else []
            )
            for path in files:
                if path in seen:
                    continue
                seen.add(path)
                try:
                    relpath = path.relative_to(root.resolve()).as_posix()
                except ValueError:
                    relpath = path.as_posix()
                module = ModuleIndex.from_file(path, relpath)
                if module is not None:
                    modules.append(module)
        return cls(modules)
