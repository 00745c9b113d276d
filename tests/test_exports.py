import importlib
import pkgutil

import pytest

import manifold_match

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(manifold_match.__path__)
    if hasattr(importlib.import_module(f"manifold_match.{name}"), "__all__")
)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"manifold_match.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
