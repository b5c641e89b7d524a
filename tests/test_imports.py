"""Every name a module of ``rht`` imports is used in it or exported, and
every definition of ``rht`` has a caller that is not a test.

Read with ``ast`` from the source files, so nothing is imported: a name
bound by ``import`` or ``from ... import`` anywhere in a module must appear
as a name elsewhere in that module (an attribute chain counts through its
first name) or be listed in the module's ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rht"


def unused_imports(source):
    """The names imported by the module source that it neither uses nor
    lists in ``__all__``, in order of appearance."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used | exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = ("from os import path, sep\nimport json\n"
              "__all__ = ['sep']\nprint(path)\n")
    assert unused_imports(source) == ["json"]


ROOT = SRC.parent.parent


def referenced_names(tree, skip=None):
    """The names and attribute names the tree mentions, leaving out the
    subtree skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def definitions(tree):
    """(qualified name, name, node) of every top-level function and class
    and of every method of a top-level class whose name is not a dunder."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield "%s.%s" % (node.name, sub.name), sub.name, sub


def test_no_definition_is_test_only():
    """Every definition in src/rht is named by the library outside its own
    body, or by a demo or the benchmark: tests alone keep none alive.  The
    benchmark's tracer names its targets as strings, "Class.method", so a
    string equal to the qualified name counts there too."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    outside, strings = set(), set()
    for d in ("demos", "perfbench"):
        for p in sorted((ROOT / d).glob("*.py")):
            tree = ast.parse(p.read_text(encoding="utf-8"))
            outside |= referenced_names(tree)
            strings |= {node.value for node in ast.walk(tree)
                        if isinstance(node, ast.Constant)
                        and isinstance(node.value, str)}
    unused = []
    for path, tree in trees.items():
        for qualname, name, node in definitions(tree):
            if name in outside or qualname in strings or any(
                    name in referenced_names(t, node if t is tree else None)
                    for t in trees.values()):
                continue
            unused.append("%s.%s" % (path.stem, qualname))
    assert unused == []
