"""The public surface: each library module's __all__ is the one list of its
public names, and the package republishes exactly their union."""

import ast
import importlib
import inspect
import pathlib

import pytest

import nufunc

MODULES = ("errors", "special", "quadrature", "nu", "coherent", "doot", "identities")


def _module(name):
    # The package's `nu` function shadows the `nufunc.nu` module attribute.
    return importlib.import_module(f"nufunc.{name}")


def test_package_all_is_the_sorted_union_of_the_module_lists():
    listed = [name for m in MODULES for name in _module(m).__all__]
    assert len(listed) == len(set(listed)), "a name is listed by two modules"
    assert nufunc.__all__ == sorted(listed)
    for m in MODULES:
        for name in _module(m).__all__:
            assert getattr(nufunc, name) is getattr(_module(m), name)


@pytest.mark.parametrize("name", MODULES)
def test_listed_functions_and_classes_belong_to_their_module(name):
    module = _module(name)
    for attr in module.__all__:
        obj = getattr(module, attr)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, attr


@pytest.mark.parametrize("name", MODULES)
def test_wildcard_import_binds_only_the_listed_names(name):
    namespace = {}
    exec(f"from nufunc.{name} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(_module(name).__all__)


# Views kept public for the benchmark's tracer and warm-up; the library itself
# calls the two detailed evaluators.
VIEWS = {"nu_positive_batch", "nu_alpha_positive_batch", "nu_complex_grid", "nu_on_circle"}


def test_no_library_module_calls_the_nu_views():
    package = pathlib.Path(nufunc.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "nu.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert not names & VIEWS, f"{path.name} names {sorted(names & VIEWS)}"
