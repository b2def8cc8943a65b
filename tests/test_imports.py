"""Import hygiene of the package, checked from its syntax trees.

No linter ships with the test dependencies, so this keeps the rules that
matter when code is deleted: a module other than ``__init__`` (which
re-exports) uses every name it imports, every ``__all__`` entry exists, and
a function or lambda parameter that is never read is named with a leading
``_`` (``self`` and ``cls`` aside), and a private attribute ``x._name`` is
read only through ``self`` or ``cls``. The package's surface is the public
modules' ``__all__`` and nothing else: ``__init__`` star-imports them with
no hand-kept name list and reads no environment variable.
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


# the modules whose __all__ the package exports, in its order
PUBLIC = ("linalg", "models", "reference", "effective_dim", "enkf", "diagnostics")


def _module(name):
    return importlib.import_module("enkf_lab" if name == "__init__" else f"enkf_lab.{name}")


def _all_entries(name):
    """``__all__`` of module ``name``: the literal list in its source, or,
    when it is computed (as the package's is), the imported value."""
    for node in TREES[name].body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                return ast.literal_eval(node.value)
            except ValueError:
                return list(_module(name).__all__)
    return []


@pytest.mark.parametrize("name", [m for m in TREES if m != "__init__"])
def test_module_uses_every_name_it_imports(name):
    tree = TREES[name]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_all_entries(name))
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"enkf_lab.{name} imports names it never uses: {unused}"


@pytest.mark.parametrize("name", [m for m in TREES if _all_entries(m)])
def test_every_all_entry_resolves(name):
    module = _module(name)
    missing = [entry for entry in _all_entries(name) if not hasattr(module, entry)]
    assert not missing, f"enkf_lab.{name}.__all__ names what it lacks: {missing}"


def test_package_exports_exactly_the_public_modules_all():
    package = _module("__init__")
    expected = [entry for name in PUBLIC for entry in _module(name).__all__]
    assert package.__all__ == expected
    assert len(set(expected)) == len(expected), "two public modules export one name"
    for name in PUBLIC:
        module = _module(name)
        for entry in module.__all__:
            assert getattr(package, entry) is getattr(module, entry), f"enkf_lab.{entry}"
    # nothing public beyond that and the submodules (cli once imported)
    extra = {n for n in vars(package) if not n.startswith("_")} - set(expected) - set(TREES)
    assert not extra, f"enkf_lab exports names outside the modules' __all__: {sorted(extra)}"


def _init_faults(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield f"{node.lineno} import of {[a.name for a in node.names]}"
        elif isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            if node.level != 1:
                yield f"{node.lineno} import from outside the package: {node.module}"
            elif node.module is None and not set(names) <= set(TREES):
                yield f"{node.lineno} import of non-modules {sorted(set(names) - set(TREES))}"
            elif node.module is not None and names != ["*"]:
                yield f"{node.lineno} name list from .{node.module}: {names}"
        elif isinstance(node, (ast.Name, ast.Attribute)):
            if getattr(node, "id", getattr(node, "attr", None)) in ("environ", "getenv"):
                yield f"{node.lineno} reads the environment: {ast.unparse(node)}"


def test_init_star_imports_modules_and_reads_no_environment():
    faults = list(_init_faults(TREES["__init__"]))
    assert not faults, f"enkf_lab.__init__ keeps a second way in (line, fault): {faults}"


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
