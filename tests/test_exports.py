"""Every public name each module declares can be star-imported."""

import importlib

import pytest

MODULES = ("states", "elements", "littlegroup", "decoherence", "circuit", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_all(name):
    module = importlib.import_module(f"twobeam.{name}")
    namespace = {}
    exec(f"from twobeam.{name} import *", namespace)
    missing = [n for n in module.__all__ if n not in namespace]
    assert not missing, f"twobeam.{name}.__all__ names missing objects: {missing}"


def test_package_reexports_resolve():
    """Contract: the package re-exports each module's __all__, by attribute
    and by star import, and nothing private (twobeam._finite is absent)."""
    package = importlib.import_module("twobeam")
    namespace = {}
    exec("from twobeam import *", namespace)
    for name in MODULES[:-1]:
        module = importlib.import_module(f"twobeam.{name}")
        for public in module.__all__:
            assert getattr(package, public) is getattr(module, public), public
            assert namespace.get(public) is getattr(module, public), public
    with pytest.raises(AttributeError):
        package._finite
