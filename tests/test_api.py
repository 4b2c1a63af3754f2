"""The package's public names are its modules' ``__all__``, declared once
and loaded on first use."""

import importlib
import inspect
import pkgutil
import subprocess
import sys
import typing

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


def _fresh(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True).stdout


CORE = ["gstf", "gstf.catalog", "gstf.cli", "gstf.errors", "gstf.grids",
        "gstf.parse", "gstf.transforms"]


def test_cli_import_loads_only_the_core():
    loaded = _fresh("import sys, gstf.cli\n"
                    "print(*sorted(m for m in sys.modules\n"
                    "              if m.split('.')[0] == 'gstf'))")
    assert loaded.split() == CORE


@pytest.mark.parametrize("argv, extra", [
    (["transform", "--expr", "gaussian(1)", "--points", "64"], []),
    (["stft", "--expr", "gaussian(1)", "--points", "64"], []),
    (["classify", "--expr", "gaussian(1)", "--points", "64", "--space", "S",
      "--s", "0.5"], ["gstf.classify"]),
    (["witness", "--s", "1", "--sigma", "1", "--type", "roumieu", "--points",
      "64"], ["gstf.classify", "gstf.witnesses"]),
    (["toeplitz", "--expr", "gaussian(1)", "--points", "64"],
     ["gstf.toeplitz"]),
    (["verify", "--suite", "nope"], []),  # the parser names the suites
])
def test_each_subcommand_loads_what_it_runs(argv, extra):
    loaded = _fresh("import contextlib, io, sys, gstf.cli\n"
                    "with contextlib.redirect_stdout(io.StringIO()), \\\n"
                    "        contextlib.redirect_stderr(io.StringIO()):\n"
                    f"    gstf.cli.run_command({argv!r})\n"
                    "print(*sorted(m for m in sys.modules\n"
                    "              if m.split('.')[0] == 'gstf'))")
    assert loaded.split() == sorted(CORE + extra)


PUBLIC = [attr for name in MODULES
          for attr in importlib.import_module(f"gstf.{name}").__all__]


@pytest.mark.parametrize("code", [
    "ns = {}\nexec('from gstf import *', ns)\n"
    "print(*(n for n in ns if n != '__builtins__'))",
    "import gstf\nprint(*dir(gstf))",
    "import gstf\nprint(*gstf.__all__)",
])
def test_first_lookup_gives_every_public_name(code):
    names = _fresh(code).split()
    assert set(PUBLIC + ["__version__"]) <= set(names)


def _defined_in(module) -> list:
    """The classes and functions defined in ``module``, and the functions
    of its classes: methods, properties' getters and cached properties."""
    found = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        found.append(obj)
        if isinstance(obj, type):
            found += [getattr(v, "__func__", getattr(v, "fget",
                                                     getattr(v, "func", v)))
                      for v in vars(obj).values()]
    return [obj for obj in found if isinstance(obj, type)
            or inspect.isfunction(inspect.unwrap(obj))]


def test_every_public_callable_has_resolvable_hints():
    # every function, method and class defined in a gstf module, private
    # ones too; gstf.toeplitz names the verdicts' records through the
    # package, which loads them on first use, so that gstf toeplitz need
    # not import them
    failed = []
    for info in pkgutil.iter_modules(gstf.__path__):
        for obj in _defined_in(importlib.import_module(f"gstf.{info.name}")):
            try:
                typing.get_type_hints(obj)
            except NameError as e:
                failed.append((obj.__qualname__, str(e)))
    assert not failed


def test_unknown_name_raises_attribute_error():
    out = _fresh("import gstf\n"
                 "try:\n"
                 "    gstf.nope\n"
                 "except AttributeError as e:\n"
                 "    print(e)\n"
                 "print(gstf.Grid1D.__module__)")
    assert out == "module 'gstf' has no attribute 'nope'\ngstf.grids\n"
    with pytest.raises(AttributeError, match="nope"):
        gstf.nope  # noqa: B018
