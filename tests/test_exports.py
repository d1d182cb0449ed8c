"""Every name a ``gwi`` module exports in ``__all__`` exists in it, and
importing the package keeps the heavy scipy subpackages unloaded."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gwi

_MODULES = [info.name for info in pkgutil.iter_modules(gwi.__path__)]


def test_every_module_is_listed():
    assert {"cli", "distributions", "estimator", "limitlaw", "process",
            "quadrature", "tailproc"} <= set(_MODULES)


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"gwi.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


# Loaded by scipy.stats; ``import gwi`` needs none of them.
_HEAVY_SCIPY = ("scipy.stats", "scipy.optimize", "scipy.ndimage",
                "scipy.spatial", "scipy.interpolate", "scipy.linalg")


def test_import_leaves_heavy_scipy_unloaded():
    # a fresh interpreter: other test modules import scipy.stats here
    code = ("import gwi, gwi.cli, sys; "
            f"print(*[m for m in {_HEAVY_SCIPY!r} if m in sys.modules])")
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.stdout.split() == []


def test_version_matches_pyproject():
    # every manifest records ``gwi.__version__`` as its build
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert gwi.__version__ == project["version"]
