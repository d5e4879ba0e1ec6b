"""The package exports its public names, not its submodules."""
import importlib
import types

import linfty

SUBMODULES = (
    "action", "fileformat", "graded", "homotopy", "linalg", "multimap", "report", "tensor"
)


def test_package_all_lists_no_module_and_every_entry_resolves():
    assert linfty.__all__
    for name in linfty.__all__:
        assert not isinstance(getattr(linfty, name), types.ModuleType), name
    assert not set(SUBMODULES) & set(linfty.__all__)


def test_submodule_all_entries_resolve():
    for module in SUBMODULES:
        mod = importlib.import_module(f"linfty.{module}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (module, name)
