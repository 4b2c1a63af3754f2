"""Sampled-function harmonic analysis: continuum-normalized discrete
Fourier and short-time Fourier transforms, decay-class membership
verdicts for Gelfand-Shilov-type spaces, Gabor-multiplier (Toeplitz)
operators, and machine-checkable identity suites.

The public names are those of each module's ``__all__``, re-exported here
on first use, so that ``import gstf.cli`` loads only the modules it runs.
"""

__version__ = "0.1.0"

_MODULES = ("catalog", "classify", "errors", "grids", "parse", "toeplitz",
            "transforms", "witnesses")


def _load():
    """Bind the modules' public names, and ``__all__``, in the package."""
    from importlib import import_module
    names = ["__version__"]
    for module in (import_module(f"{__name__}.{m}") for m in _MODULES):
        names += module.__all__
        globals().update((n, getattr(module, n)) for n in module.__all__)
    globals()["__all__"] = names


def __getattr__(name):
    _load()
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__():
    _load()
    return sorted(globals())
