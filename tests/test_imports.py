"""Import hygiene of the package, checked from its syntax trees.

No linter ships with the test dependencies, so this keeps the rules that
matter when code is deleted: a module other than ``__init__`` (which
re-exports) uses every name it imports, every ``__all__`` entry exists, and
a function or lambda parameter that is never read is named with a leading
``_`` (``self`` and ``cls`` aside), and a private attribute ``x._name`` is
read only through ``self`` or ``cls``.
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


def _unread_parameters(tree):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
        }
        for a in params:
            if a.arg not in read and a.arg not in ("self", "cls") and not a.arg.startswith("_"):
                yield f"{node.lineno} {a.arg}"


@pytest.mark.parametrize("name", list(TREES))
def test_unread_parameters_start_with_underscore(name):
    unread = list(_unread_parameters(TREES[name]))
    assert not unread, f"enkf_lab.{name} has parameters it never reads (line, name): {unread}"


def _private_attribute_reads(tree):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.endswith("__"):
            continue  # a dunder such as type(x).__name__ is public
        if not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
            yield f"{node.lineno} {ast.unparse(node)}"


@pytest.mark.parametrize("name", list(TREES))
def test_private_attributes_are_read_only_through_self_or_cls(name):
    reads = list(_private_attribute_reads(TREES[name]))
    assert not reads, f"enkf_lab.{name} reads another object's private attribute (line, expression): {reads}"
