"""Every imported name in the package and its tests is read somewhere, and
every function and class of the package is read by the package or the
benchmarks.

An import that nothing reads is left over from code that moved or went
away.  The scan parses each module, collects the names its import
statements bind (``__future__`` imports aside) and the names it reads, and
reports the difference.  A package ``__init__.py`` re-exports names through
``__all__``, so the names listed there count as read.

A function or class that no code of the package or the benchmarks reads is
a dead helper, whatever the tests still call.  That scan is by name: a
definition counts as read when its name occurs anywhere in that code as a
name, an attribute, an imported name or a whole string constant (so
``getattr``, ``__all__`` and the benchmark tracer's targets count).
Dunder methods are called by the language and are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "treefock").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
LIBRARY_CODE = sorted([*PACKAGE, *(ROOT / "benchmarks").glob("*.py")])


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


def defined_names(source: str):
    """name -> line of each function and class the module defines, dunders
    aside."""
    return {node.name: node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def read_names(source: str):
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def unread_definitions(defining, reading):
    """(module, line, name) of the definitions in the ``defining`` sources,
    a dict of module name to source, whose names no ``reading`` source
    reads."""
    read = set().union(*map(read_names, reading))
    return sorted((module, line, name) for module, source in defining.items()
                  for name, line in defined_names(source).items() if name not in read)


def test_every_definition_is_read():
    defining = {path.name: path.read_text() for path in PACKAGE}
    reading = [path.read_text() for path in LIBRARY_CODE]
    assert unread_definitions(defining, reading) == []


def test_the_scan_sees_an_unread_definition():
    lib = ("class A:\n    def __eq__(self, o): return helper()\n"
           "    def spare(self): pass\n    def named(self): pass\n"
           "def helper(): pass\ndef dead(): pass\n")
    assert unread_definitions({"lib": lib}, [lib, "getattr(A(), 'named')\n"]) == [
        ("lib", 3, "spare"), ("lib", 6, "dead")]
    reader = "from lib import dead\nA().spare()\n__all__ = ['named']\n"
    assert unread_definitions({"lib": lib}, [lib, reader]) == []
