"""Every name a module exports is defined: a helper deleted from a module
but left in its ``__all__`` fails here rather than at a star import."""

import importlib
import pkgutil

import pytest

import noisediff

MODULES = sorted(info.name for info in pkgutil.iter_modules(noisediff.__path__, "noisediff."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
