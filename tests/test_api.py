import importlib
import pkgutil

import pytest

import resonance_atlas

MODULES = [m.name for m in pkgutil.iter_modules(resonance_atlas.__path__)
           if hasattr(importlib.import_module(f"resonance_atlas.{m.name}"), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"resonance_atlas.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"resonance_atlas.{name}.__all__ lists missing {missing}"
