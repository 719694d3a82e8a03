"""The package's public surface is what the program runs.

Each module but the package root and the CLI lists its public names in
``__all__`` (the benchmark's tracer wraps the functions listed there), and
every listed name is used by some code in ``src/`` outside its own
definition: a name only tests call is not public API.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "volterra_ito"
TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
         for p in sorted(SRC.glob("*.py"))}


def _public(tree):
    """The names the module's ``__all__`` lists, or None without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def _definition(tree, name):
    """The module-level statement that binds ``name``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node
    raise AssertionError(f"{name} is listed in __all__ but not defined")


def _loads(node, skip):
    """Every name read in ``node``, leaving out the subtree ``skip``."""
    if node is skip:
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, skip)


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__", "cli"}))
def test_module_lists_its_public_names(module):
    assert _public(TREES[module]) is not None


def test_every_public_name_is_used_by_the_program():
    unused = []
    for module, tree in TREES.items():
        for name in _public(tree) or ():
            own = _definition(tree, name)
            if not any(name in set(_loads(t, own)) for t in TREES.values()):
                unused.append(f"{module}.{name}")
    assert unused == []


def test_package_root_holds_only_the_version():
    docstring, version = TREES["__init__"].body
    assert isinstance(docstring, ast.Expr)
    assert [t.id for t in version.targets] == ["__version__"]
