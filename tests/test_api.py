"""The package's public names are its modules' ``__all__``, declared once."""

import importlib

import pytest

import gstf

MODULES = ("catalog", "classify", "errors", "grids", "parse", "toeplitz",
           "transforms", "witnesses")


@pytest.mark.parametrize("name", MODULES)
def test_module_names_are_package_names(name):
    module = importlib.import_module(f"gstf.{name}")
    for attr in module.__all__:
        assert getattr(gstf, attr) is getattr(module, attr), attr


def test_package_all_lists_each_module_name_once():
    names = [attr for name in MODULES
             for attr in importlib.import_module(f"gstf.{name}").__all__]
    assert sorted(gstf.__all__) == sorted(names + ["__version__"])
    assert len(set(gstf.__all__)) == len(gstf.__all__)
