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


def unread_top_level_names(sources: dict[str, str]) -> list[str]:
    """Top-level names of each module in ``sources`` (module name to source
    text) that no module reads: as a loaded name or attribute, or through a
    from-import.  Dunder names are left out."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            unread += [f"{module}.{name}" for name in names
                       if not (name.startswith("__") and name.endswith("__")) and name not in read]
    return unread


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from enum import Enum\nfrom math import pi as PI, tau\n"
              "__all__ = ['tau']\nprint(os.sep)\n")
    assert unused_imports(source) == ["line 2: json", "line 4: Enum", "line 5: PI"]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.relative_to(REPO_ROOT).as_posix(): unused_imports(path.read_text("utf-8"))
             for path in SOURCES}
    assert {path: names for path, names in found.items() if names} == {}


def test_unread_top_level_names_are_found():
    sources = {
        "a": ("import b\n__version__ = '1'\nLIMIT = 3\n_used: int = 1\n"
              "def f():\n    return _used + b.g()\nclass C:\n    pass\n"),
        "b": "from a import C\ndef g():\n    return 0\nx, y = 1, 2\nprint(y)\nC.x = 0\n",
    }
    assert unread_top_level_names(sources) == ["a.LIMIT", "a.f", "b.x"]


def test_every_top_level_name_in_src_is_read_in_src():
    sources = {path.stem: path.read_text("utf-8")
               for path in sorted((REPO_ROOT / "src" / "paircompare").glob("*.py"))}
    assert unread_top_level_names(sources) == []
