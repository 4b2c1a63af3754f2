"""Uniform sampling lattices and sampled-function carriers.

All grids are arithmetic progressions symmetric about their center:
sample ``j`` sits at ``center + (j - (count-1)/2) * step``.  For even
``count`` the center itself is not a sample.

Coordinates and sample values are read-only, so work derived from them
is computed once per object and kept on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridError

__all__ = ["Grid1D", "TFGrid", "SampledFunction", "TFR", "build_grid"]


@dataclass(frozen=True)
class Grid1D:
    center: float
    step: float
    count: int

    def __post_init__(self):
        if not np.isfinite(self.center):
            raise GridError("grid center must be finite")
        if not (self.step > 0 and np.isfinite(self.step)):
            raise GridError("grid step must be positive and finite")
        if self.count < 2:
            raise GridError("grid needs at least two samples")

    @cached_property
    def coords(self) -> np.ndarray:
        j = np.arange(self.count)
        x = self.center + (j - (self.count - 1) / 2) * self.step
        x.flags.writeable = False
        return x

    def dual(self) -> "Grid1D":
        """Frequency grid matching an FFT of this grid: same count,
        step 2*pi/(count*step), centered at 0."""
        return Grid1D(0.0, 2.0 * np.pi / (self.count * self.step), self.count)

    def shift_index(self, x):
        """Integer k with x = k*step, an intp array for an array x;
        GridError if x is not a step multiple (to 1e-9, relative and
        absolute)."""
        pos = np.asarray(x, dtype=float) / self.step
        k = np.rint(pos)
        off = np.abs(pos - k) > 1e-9 * np.maximum(1.0, np.abs(pos)) + 1e-9
        if off.any():
            raise GridError(f"{np.ravel(x)[off.argmax()]} is not an integer "
                            f"multiple of step {self.step}")
        return k.astype(np.intp) if k.ndim else int(k)


@dataclass(frozen=True)
class TFGrid:
    xgrid: Grid1D
    xigrid: Grid1D


class _Memo:
    """Read-only ``values`` and a memo of work derived from them; the memo
    is not a dataclass field, so ==, repr and asdict ignore it."""

    def _seal(self, vals: np.ndarray):
        if not vals.flags.owndata:  # a view's base may be written through
            vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_memo", {})

    def _memoised(self, key, make):
        """make() on the first call with ``key``, the same object after."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]


@dataclass(frozen=True)
class SampledFunction(_Memo):
    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.count,):
            raise GridError(
                f"value count {vals.shape} does not match grid count {self.grid.count}"
            )
        if not np.all(np.isfinite(vals)):
            raise GridError("sampled values must be finite")
        self._seal(vals)

    @property
    def x(self) -> np.ndarray:
        return self.grid.coords

    def norm2(self) -> float:
        """Continuum L2 norm approximated by a Riemann sum."""
        return float(np.sqrt(self.grid.step * np.sum(np.abs(self.values) ** 2)))

    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        if other.grid != self.grid:
            raise GridError("cannot add functions on different grids")
        return SampledFunction(self.grid, self.values + other.values)

    def __mul__(self, c) -> "SampledFunction":
        return SampledFunction(self.grid, self.values * c)

    __rmul__ = __mul__


@dataclass(frozen=True)
class TFR(_Memo):
    tfgrid: TFGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        shape = (self.tfgrid.xgrid.count, self.tfgrid.xigrid.count)
        if vals.shape != shape:
            raise GridError(f"TFR shape {vals.shape} does not match grid {shape}")
        if not np.all(np.isfinite(vals)):
            raise GridError("TFR values must be finite")
        self._seal(vals)

    def max_profiles(self) -> tuple:
        """(max over xi of |V|, max over x of |V|) as functions of x and
        of xi, computed once per TFR."""
        def make():
            a = np.abs(self.values)
            return (SampledFunction(self.tfgrid.xgrid, a.max(axis=1)),
                    SampledFunction(self.tfgrid.xigrid, a.max(axis=0)))
        return self._memoised("max_profiles", make)

    def norm2(self) -> float:
        """2-D continuum L2 norm by a Riemann sum."""
        w = self.tfgrid.xgrid.step * self.tfgrid.xigrid.step
        return float(np.sqrt(w * np.sum(np.abs(self.values) ** 2)))


def build_grid(half_width: float, exponent: int) -> Grid1D:
    """Symmetric grid about 0 with 2**exponent samples on [-half_width, half_width]."""
    if not (half_width > 0 and np.isfinite(half_width)):
        raise GridError("half_width must be positive and finite")
    if not (1 <= exponent <= 24):
        raise GridError("exponent must be between 1 and 24")
    count = 2**exponent
    step = 2.0 * half_width / (count - 1)
    return Grid1D(0.0, step, count)
