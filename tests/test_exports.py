"""Every name a ``gwi`` module exports in ``__all__`` exists in it."""

import importlib
import pkgutil

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
