"""Sampled-function harmonic analysis: continuum-normalized discrete
Fourier and short-time Fourier transforms, decay-class membership
verdicts for Gelfand-Shilov-type spaces, Gabor-multiplier (Toeplitz)
operators, and machine-checkable identity suites.

The public names are those of each module's ``__all__``, re-exported here.
"""

from . import (catalog, classify, errors, grids, parse, toeplitz,
               transforms, witnesses)
from .catalog import *  # noqa: F403
from .classify import *  # noqa: F403
from .errors import *  # noqa: F403
from .grids import *  # noqa: F403
from .parse import *  # noqa: F403
from .toeplitz import *  # noqa: F403
from .transforms import *  # noqa: F403
from .witnesses import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *(name for module in (
    catalog, classify, errors, grids, parse, toeplitz, transforms,
    witnesses) for name in module.__all__)]
