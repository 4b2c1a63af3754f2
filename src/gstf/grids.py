"""Immutable records, uniform sampling lattices and sampled-function
carriers.

All grids are arithmetic progressions symmetric about their center:
sample ``j`` sits at ``center + (j - (count-1)/2) * step``.  For even
``count`` the center itself is not a sample.

Coordinates and sample values are read-only, so work derived from them
is computed once per object and kept on it.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import itemgetter

import numpy as np

from .errors import GridError

__all__ = ["Grid1D", "TFGrid", "SampledFunction", "TFR", "build_grid"]

# Largest row block that TFR.max_profiles and the STFT engine hold at a time
_BLOCK_BYTES = 1 << 20


class Record:
    """Base of the package's immutable records.

    A subclass's annotated class attributes are its fields, after those of
    the record it extends; a value assigned to one is its default.  Each
    class's constructor is made from its fields: they are its parameters,
    positional or by keyword, and after they are set ``__post_init__``
    runs.  No attribute can be assigned or deleted; == holds between
    records of one class with equal fields, and hash agrees with it.  The
    repr lists the fields except those a class names in ``_unshown``.
    ``_fields`` maps each field's name to its annotation, in order.
    """

    _fields = _defaults = {}
    _unshown = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__  # this class's own, not its bases'
        cls._fields = {**cls._fields, **own}
        cls._defaults = {**cls._defaults,
                         **{n: vars(cls)[n] for n in own if n in vars(cls)}}
        cls._shown = tuple(n for n in cls._fields if n not in cls._unshown)
        # the key of == and hash: the value of a single field, else a tuple
        cls._key = (itemgetter(*cls._fields) if cls._fields
                    else staticmethod(lambda d: ()))
        # the constructor, one assignment per field into the record's
        # __dict__: Python binds the arguments, fills in the defaults from
        # _defaults and raises every TypeError.  Its file name, which
        # profiles and tracebacks show, names the class
        params = "".join(f", {n}=_d[{n!r}]" if n in cls._defaults
                         else f", {n}" for n in cls._fields)
        sets = "".join(f"    d[{n!r}] = {n}\n" for n in cls._fields)
        src = (f"def __init__(self{params}):\n    d = self.__dict__\n{sets}"
               "    self.__post_init__()\n")
        ns = {"__name__": cls.__module__, "_d": cls._defaults}
        exec(compile(src, f"<{cls.__qualname__}.__init__>", "exec"), ns)
        ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = ns["__init__"]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self.__dict__) == key(other.__dict__)

    def __hash__(self):
        return hash(self._key(self.__dict__))

    def __repr__(self):
        d = self.__dict__
        shown = ", ".join(f"{n}={d[n]!r}" for n in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        d = self.__dict__
        return {n: d[n] for n in self._fields}


class Grid1D(Record):
    center: float
    step: float
    count: int

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise GridError("grid center must be finite")
        if not (self.step > 0 and math.isfinite(self.step)):
            raise GridError("grid step must be positive and finite")
        n = self.count
        if not (isinstance(n, (int, np.integer)) and n >= 2):
            raise GridError(f"grid count must be an integer >= 2, got {n!r}")

    @cached_property
    def coords(self) -> np.ndarray:
        j = np.arange(self.count)
        x = self.center + (j - (self.count - 1) / 2) * self.step
        x.flags.writeable = False
        return x

    @cached_property
    def _reach(self) -> tuple:  # (|x| / max |x|, max |x|): the weight base
        top = max(abs(self.coords[0]), abs(self.coords[-1]))  # V-shaped |x|
        w = np.abs(self.coords) / top
        w.flags.writeable = False
        return w, top

    @cached_property
    def _dual(self) -> "Grid1D":
        return Grid1D(0.0, 2.0 * np.pi / (self.count * self.step), self.count)

    def dual(self) -> "Grid1D":
        """Frequency grid matching an FFT of this grid: same count,
        step 2*pi/(count*step), centered at 0; one object per grid."""
        return self._dual

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


class TFGrid(Record):
    xgrid: Grid1D
    xigrid: Grid1D


# The kernels' one error state, a decorator of functions defined once (no
# with): IEEE limits stand, and _Memo._seal rejects what is not finite.
_QUIET = np.errstate(divide="ignore", over="ignore", invalid="ignore")


class _Memo:
    """Read-only ``values`` and a memo of work derived from them; the memo
    is not a record field, so ==, repr and _asdict ignore it.  == compares
    the values by np.array_equal and the other fields by ==; the class
    has no hash, as its values are an array."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        d, e = self.__dict__, other.__dict__
        return (all(d[n] == e[n] for n in self._fields if n != "values")
                and np.array_equal(self.values, other.values))

    def _seal(self, shape: tuple, what: str):
        """Keep ``values`` as a read-only complex array of ``shape``, with
        an empty memo; GridError for another shape, or for a value that is
        not finite (naming the values ``what``).  An owning complex array
        is kept, not copied, so the caller can no longer write to it."""
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != shape:
            raise GridError(f"values of shape {vals.shape} do not match "
                            f"the grid's {shape}")
        if not np.isfinite(vals).all():
            raise GridError(f"{what} values must be finite")
        if not vals.flags.owndata:  # a view's base may be written through
            vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_memo", {})

    def _memoised(self, key, make):
        """make() on the first call with ``key``, the same object after."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def _kept(self, name: str, operands: tuple, make=None):
        """The one value kept under ``name`` if made from ``operands`` (the
        same objects, or an equal TFGrid); else None without ``make``, or
        make()'s in place of the old value, which goes first.  The entry
        holds its operands but not self, which would make a cycle."""
        ops = tuple(None if o is self else o for o in operands)
        entry = self._memo.get(name)
        if entry and all(a is b or (type(a) is TFGrid and a == b)
                         for a, b in zip(entry[0], ops)):
            return entry[1]
        if make is not None:
            self._memo.pop(name, None)
            del entry  # the old value goes before make() runs
            self._memo[name] = ops, make()
            return self._memo[name][1]

    @_QUIET
    def norm2(self) -> float:
        """Continuum L2 norm, a Riemann sum over cells of measure _cell."""
        return float(np.sqrt(self._cell * np.sum(np.abs(self.values) ** 2)))


class SampledFunction(_Memo, Record):
    """Values on ``grid``: an owning complex array is frozen, not copied."""
    grid: Grid1D
    values: np.ndarray
    _unshown = ("values",)
    _cell = property(lambda f: f.grid.step)

    def __post_init__(self):
        self._seal((self.grid.count,), "sampled")

    @property
    def x(self) -> np.ndarray:
        return self.grid.coords

    def __mul__(self, c) -> "SampledFunction":
        return SampledFunction(self.grid, self.values * c)


class TFR(_Memo, Record):
    """Values on ``tfgrid``: an owning complex array is frozen, not copied."""
    tfgrid: TFGrid
    values: np.ndarray
    _unshown = ("values",)
    _cell = property(lambda a: a.tfgrid.xgrid.step * a.tfgrid.xigrid.step)

    def __post_init__(self):
        self._seal((self.tfgrid.xgrid.count, self.tfgrid.xigrid.count), "TFR")

    def max_profiles(self) -> tuple:
        """(max over xi of |V|, max over x of |V|) as functions of x and
        of xi, computed once per TFR by _max_profiles from row chunks of V
        whose |V| takes _BLOCK_BYTES."""
        vals = self.values
        rows = max(1, _BLOCK_BYTES // (8 * vals.shape[1]))
        return self._memoised("max_profiles", lambda: _max_profiles(
            ((slice(lo, lo + rows), vals[lo:lo + rows])
             for lo in range(0, len(vals), rows)), self.tfgrid))


def _max_profiles(rows, tfgrid: TFGrid) -> tuple:
    """The max-profiles of V on ``tfgrid`` from V's rows, given in row
    order as (sl, V[sl]) pairs: each pair's row maxima of |V| in place,
    and a running maximum of its column maxima.  A maximum is exact, so
    the profiles are those of the whole |V| bit for bit.  GridError for a
    V that TFR would reject as not finite."""
    x_prof = np.empty(tfgrid.xgrid.count)
    xi_prof = np.zeros(tfgrid.xigrid.count)  # |V| >= 0
    for sl, v in rows:
        mag = np.abs(v)
        x_prof[sl] = mag.max(axis=1)
        np.maximum(xi_prof, mag.max(axis=0), out=xi_prof)
    if not np.isfinite(x_prof).all():
        raise GridError("TFR values must be finite")
    return (SampledFunction(tfgrid.xgrid, x_prof),
            SampledFunction(tfgrid.xigrid, xi_prof))


def build_grid(half_width: float, exponent: int) -> Grid1D:
    """Symmetric grid about 0 with 2**exponent samples on [-half_width, half_width]."""
    if not (half_width > 0 and math.isfinite(half_width)):
        raise GridError("half_width must be positive and finite")
    if not (1 <= exponent <= 24):
        raise GridError("exponent must be between 1 and 24")
    count = 2**exponent
    step = 2.0 * half_width / (count - 1)
    return Grid1D(0.0, step, count)


def phase_space_grid(grid: Grid1D) -> TFGrid:
    """The 129^2 time-frequency grid of the identity and operator suites
    and of ``gstf stft`` and ``gstf toeplitz``."""
    return TFGrid(Grid1D(0.0, 8 * grid.step, 129), Grid1D(0.0, 0.25, 129))


def classify_tfgrid(grid: Grid1D) -> TFGrid:
    """The 513x1001 grid of STFT verdicts, in the classification suite and
    ``gstf classify --window``."""
    return TFGrid(Grid1D(0.0, 4 * grid.step, 513), Grid1D(0.0, 0.5, 1001))


def gaussian_symbol(tf: TFGrid) -> TFR:
    """The positive symbol exp(-(x^2 + xi^2)/2) on ``tf``."""
    x = tf.xgrid.coords[:, None]
    xi = tf.xigrid.coords[None, :]
    return TFR(tf, np.exp(-(x**2 + xi**2) / 2.0))
