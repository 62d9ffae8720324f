"""Guard against dead public code: every public module-level function or
class in src/viewsel is either used somewhere in the package or exported
by viewsel/__init__.py."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "viewsel"


def unused_public_names(package: Path) -> list[str]:
    """`module.name` of each public module-level def or class that no code
    in the package refers to and the package does not export."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    exported = {alias.asname or alias.name
                for node in ast.walk(trees["__init__"])
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defs = [(module, node.name) for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]
    return [f"{module}.{name}" for module, name in defs
            if name not in used and name not in exported]


def test_every_public_name_is_used_or_exported():
    assert unused_public_names(PACKAGE) == []
