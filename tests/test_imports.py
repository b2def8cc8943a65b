"""Import hygiene of the package, checked from its syntax trees.

No linter ships with the test dependencies, so this keeps the two rules
that matter when code is deleted: a module other than ``__init__`` (which
re-exports) uses every name it imports, and every ``__all__`` entry exists.
"""

import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "enkf_lab"
TREES = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _all_entries(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("name", [m for m in TREES if m != "__init__"])
def test_module_uses_every_name_it_imports(name):
    tree = TREES[name]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_all_entries(tree))
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"enkf_lab.{name} imports names it never uses: {unused}"


@pytest.mark.parametrize("name", [m for m, tree in TREES.items() if _all_entries(tree)])
def test_every_all_entry_resolves(name):
    module = importlib.import_module("enkf_lab" if name == "__init__" else f"enkf_lab.{name}")
    missing = [entry for entry in _all_entries(TREES[name]) if not hasattr(module, entry)]
    assert not missing, f"enkf_lab.{name}.__all__ names what it lacks: {missing}"
