"""Checks on the source text itself, which no linter runs over here."""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(REPO_ROOT / "src" / "paircompare").glob("*.py"),
                  *(REPO_ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; names in ``__all__`` count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from enum import Enum\nfrom math import pi as PI, tau\n"
              "__all__ = ['tau']\nprint(os.sep)\n")
    assert unused_imports(source) == ["line 2: json", "line 4: Enum", "line 5: PI"]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.relative_to(REPO_ROOT).as_posix(): unused_imports(path.read_text("utf-8"))
             for path in SOURCES}
    assert {path: names for path, names in found.items() if names} == {}
