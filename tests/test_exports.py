"""Every exported name is used by the engine or the CLI, not only by checks.

The check reads the package's source with `ast`: a name in a module's
`__all__` counts as used when some module of the package refers to it
(as a bare name bound by `from .module import name`, as `module.name`, or
inside its own module) from outside the name's own top-level def or class.
`selfcheck` holds the consistency suites, which re-check the engine like
the tests do, so a reference from it does not count.  The package's
`__init__` only re-exports, so it does not count either: its `__all__` is
exactly the engine modules' `__all__` lists, and the version is declared
once, in `__init__`.

No module of the package refers to another module's private (`_name`) names,
whether as `module._name` or through `from .module import _name`.
"""

import ast
import importlib
from pathlib import Path

import pytest

import bnkappa

PACKAGE = Path(bnkappa.__file__).parent
MODULES = ("errors", "exact_arith", "bn_core", "maximal_loci", "certificates", "selfcheck", "cli")

UNUSED_BY_DESIGN = {
    # The paper's sufficient criterion: the scans prune with kappa's own upper
    # bound, which is sharper, so the f-criterion stays as the paper states it
    # and the tests check it for soundness.
    ("maximal_loci", "f_criterion"),
    # kappa restricted to d <= g - 1: the benchmark's oracle workload is its
    # only caller, by name.  selftest checks kappa itself against kappa_brute.
    ("bn_core", "kappa_closed"),
}


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _references(module, tree):
    """(defining module, name) for each reference, with the top-level def it sits in."""
    names = {}  # local binding -> (module, name)
    modules = {}  # local binding -> module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield names.get(node.id, (module, node.id)), owner
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                yield (modules[node.value.id], node.attr), owner


def _trees():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")
    }


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_export_is_used_by_the_library():
    trees = _trees()
    del trees["__init__"]
    used = set()
    for module, tree in trees.items():
        if module == "selfcheck":
            continue
        for (source, name), owner in _references(module, tree):
            if not (source == module and owner == name):
                used.add((source, name))
    exported = {(m, name) for m in MODULES for name in _exports(trees[m])}
    assert exported - used == UNUSED_BY_DESIGN


def test_no_module_refers_to_another_modules_private_names():
    reaches = set()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                reaches.update(
                    (module, node.module, alias.name)
                    for alias in node.names
                    if _private(alias.name)
                )
        for (source, name), _ in _references(module, tree):
            if source != module and _private(name):
                reaches.add((module, source, name))
    assert reaches == set()


def test_the_package_exports_exactly_the_engine_modules_all():
    engine = ("errors", "exact_arith", "bn_core", "maximal_loci", "certificates")
    expected = {}
    for module in engine:
        mod = importlib.import_module(f"bnkappa.{module}")
        expected.update((name, getattr(mod, name)) for name in mod.__all__)
    assert len(bnkappa.__all__) == len(set(bnkappa.__all__)) == len(expected)
    assert {name: getattr(bnkappa, name) for name in bnkappa.__all__} == expected


def test_the_version_is_declared_once():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in config["project"] and "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "bnkappa.__version__"}
