"""Every name a module of ``rht`` imports is used in it or exported.

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
