"""Every name a module exports through __all__ exists in it, `import
holocurve` loads none of them until one is used, and the package metadata
asks only for numpy at run time."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
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


def test_import_loads_nothing_until_a_name_is_used():
    # A fresh interpreter: the package's names resolve on first access.
    code = ("import sys, holocurve\n"
            "early = {'numpy', 'holocurve.criterion'} & sys.modules.keys()\n"
            "missing = [n for n in holocurve.__all__\n"
            "           if getattr(holocurve, n, None) is None]\n"
            "loaded = 'holocurve.criterion' in sys.modules\n"
            "print(sorted(early), missing, loaded)\n")
    env = dict(os.environ)
    src = str(Path(holocurve.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[] [] True\n"
    assert "scan" in dir(holocurve) and len(holocurve.__all__) == 57


def test_the_cli_imports_without_the_lazy_hook():
    # The package's own imports bind each submodule before naming it, so
    # `from . import jets` never falls through to holocurve.__getattr__.
    code = ("import holocurve\n"
            "calls, hook = [], holocurve.__getattr__\n"
            "def spy(name):\n"
            "    calls.append(name)\n"
            "    return hook(name)\n"
            "holocurve.__getattr__ = spy\n"
            "import holocurve.cli\n"
            "print(calls)\n")
    env = dict(os.environ)
    src = str(Path(holocurve.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


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
