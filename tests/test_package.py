"""Package surface: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import confinedbose

MODULES = ["confinedbose"] + [
    f"confinedbose.{info.name}" for info in pkgutil.iter_modules(confinedbose.__path__)
    if info.name != "__main__"  # runs the CLI on import
]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
