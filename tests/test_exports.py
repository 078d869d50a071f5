"""Every name a tdsim module exports in ``__all__`` exists on it."""

import importlib

MODULES = ("tdsim", "tdsim.basis", "tdsim.dynamics", "tdsim.ensemble", "tdsim.kernels",
           "tdsim.observables", "tdsim.cli")


def test_every_exported_name_exists_once():
    for name in MODULES:
        module = importlib.import_module(name)
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"{name}.__all__ names missing attributes {missing}"
    package = importlib.import_module("tdsim")
    assert len(set(package.__all__)) == len(package.__all__)
