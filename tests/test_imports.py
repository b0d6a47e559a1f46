"""Every imported name in the package and its tests is read somewhere.

An import that nothing reads is left over from code that moved or went
away.  The scan parses each module, collects the names its import
statements bind (``__future__`` imports aside) and the names it reads, and
reports the difference.  A package ``__init__.py`` re-exports names through
``__all__``, so the names listed there count as read.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "treefock").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unread_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_the_scan_sees_an_unread_import():
    source = "import os\nimport sys\nfrom a import b as c, d\nprint(sys, d)\n"
    assert unread_imports(source) == [(1, "os"), (3, "c")]
    assert unread_imports("import os\n__all__ = ['os']\n") == []
