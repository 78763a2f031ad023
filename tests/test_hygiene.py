"""Source hygiene: every name a package module imports is read in it."""

import ast
from pathlib import Path

import cofusion

_PACKAGE = Path(cofusion.__file__).parent


def _unread_imports(path: Path) -> list[str]:
    """Names ``path`` imports and never reads, with their line numbers.

    Imports on lines marked ``noqa: F401`` are kept on purpose and skipped.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in read]


def test_every_imported_name_is_read():
    modules = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unread = [entry for path in modules for entry in _unread_imports(path)]
    assert unread == []
