"""Every name a package lists in ``__all__`` resolves on that package."""

import importlib
import pkgutil

import pytest

import repro


def _packages_with_all():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    modules = [importlib.import_module(name) for name in names]
    return [module for module in modules if hasattr(module, "__all__")]


PACKAGES = _packages_with_all()


def test_subpackages_are_covered():
    names = {package.__name__ for package in PACKAGES}
    assert {"repro", "repro.tensor", "repro.runtime"} <= names


@pytest.mark.parametrize(
    "package", PACKAGES, ids=[package.__name__ for package in PACKAGES]
)
def test_every_listed_name_resolves(package):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing, f"{package.__name__}.__all__ lists unbound {missing}"
