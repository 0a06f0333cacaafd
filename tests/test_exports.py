"""Every name a module exports through __all__ exists in it, and the
package metadata asks only for numpy at run time."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import holocurve

MODULES = ["holocurve"] + [
    f"holocurve.{m.name}" for m in pkgutil.iter_modules(holocurve.__path__)
    if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_scipy_is_a_test_dependency_only():
    # No run path imports scipy; the tests use it as a reference.
    tomllib = pytest.importorskip("tomllib")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(path.read_text())["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower()
                for r in requirements}

    assert names(project["dependencies"]) == {"numpy"}
    assert "scipy" in names(project["optional-dependencies"]["test"])
