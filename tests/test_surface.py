"""The package's surface: nothing in src/conicfem that only tests reach."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "conicfem"


def _trees(*dirs):
    return {path: ast.parse(path.read_text(), filename=str(path))
            for d in dirs for path in sorted(d.glob("*.py"))}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    """(label, node) of every class and function at any depth, a method
    labelled Class.method; dunder methods are left out."""
    owners = {id(item): node.name for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node.name, node
        elif isinstance(node, FUNCTIONS):
            owner = owners.get(id(node))
            if owner is None:
                yield node.name, node
            elif not (node.name.startswith("__") and node.name.endswith("__")):
                yield f"{owner}.{node.name}", node


def _references(tree):
    """(name, node) of every name loaded, attribute read and name imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def test_every_definition_is_used_by_the_package_or_its_tools():
    # a function, class or method that only tests call is dead weight in
    # src/: each must be read by name outside its own definition, in the
    # package or in tools/
    trees = _trees(PACKAGE, ROOT / "tools")
    refs = {}
    for tree in trees.values():
        for name, node in _references(tree):
            refs.setdefault(name, []).append(node)
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for label, node in _definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if all(id(r) in inside for r in refs.get(node.name, ())):
                unused.append(f"{path.stem}.{label}")
    assert unused == []
