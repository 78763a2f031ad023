"""Source hygiene: every name a package module imports is read in it, and
the runtime stays one process, numpy only."""

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


_JSON_CALLS = {"load", "loads", "dump", "dumps"}
_JSON_HELPERS = {("core.py", "json_text"), ("core.py", "read_json")}


def _json_calls(path: Path) -> set[tuple[str, str]]:
    """(module, enclosing function) of every call to json.load(s)/dump(s) in ``path``."""
    tree = ast.parse(path.read_text())
    # names bound by ``from json import ...`` are json calls too
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "json"
               for alias in node.names if alias.name in _JSON_CALLS}
    calls = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (isinstance(f, ast.Attribute) and f.attr in _JSON_CALLS
                        and isinstance(f.value, ast.Name) and f.value.id == "json") \
                        or (isinstance(f, ast.Name) and f.id in aliases):
                    calls.add((path.name, where))
            visit(child, where)

    visit(tree, "<module>")
    return calls


def test_json_is_read_and_written_only_through_core_helpers():
    calls = set().union(*(_json_calls(p) for p in _PACKAGE.glob("*.py")))
    assert calls == _JSON_HELPERS


_CONCURRENCY = {"concurrent", "multiprocessing", "threading"}


def test_no_module_starts_processes_or_threads():
    # the package runs in one process: batched numpy calls, no pools
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in _CONCURRENCY]
    assert found == []


def _unreached_private_code() -> list[str]:
    """Module-level ``_`` functions and classes of the package that no package
    module loads, and methods of ``_`` classes that no package module calls
    (or, for a property, reads)."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(_PACKAGE.glob("*.py"))}
    loaded, called = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id if isinstance(node, ast.Name) else node.attr)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    unreached = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")):
                continue
            if node.name not in loaded:
                unreached.append(f"{module}:{node.lineno} {node.name}")
            if isinstance(node, ast.ClassDef):
                unreached += [f"{module}:{m.lineno} {node.name}.{m.name}" for m in node.body
                              if isinstance(m, ast.FunctionDef)
                              and m.name not in (loaded if m.decorator_list else called)
                              and not (m.name.startswith("__") and m.name.endswith("__"))]
    return unreached


def test_private_code_is_reached_from_the_package():
    # private code that only tests reach belongs in the tests
    assert _unreached_private_code() == []
