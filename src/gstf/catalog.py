"""Analytic test-function catalog and its small AST.

A :class:`FunctionSpec` is a tree over the catalog primitives
(gaussian, hermite, bump, subexp, poly, translate, modulate, scale)
combined with +, - and *.  Evaluation is pointwise and deterministic:
equal specs on equal grids give bit-identical samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GstfError
from .grids import Grid1D, SampledFunction

__all__ = [
    "FunctionSpec", "Const", "Gaussian", "Hermite", "Bump", "SubExp", "Poly",
    "Translate", "Modulate", "Scale", "Sum", "Diff", "Product",
    "catalog_eval", "hermite_poly",
]


class FunctionSpec:
    """Base node.  Subclasses implement ``_eval`` and ``__str__``."""

    def _eval(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x):
        return self._eval(np.asarray(x, dtype=float))


def _check_finite(name, *params):
    for p in params:
        if not np.isfinite(p):
            raise GstfError(f"{name}: parameter {p!r} is not finite")


@dataclass(frozen=True)
class Const(FunctionSpec):
    value: float

    def __post_init__(self):
        _check_finite("const", self.value)

    def _eval(self, x):
        return np.full_like(x, self.value, dtype=complex)

    def __str__(self):
        return repr(float(self.value))


@dataclass(frozen=True)
class Gaussian(FunctionSpec):
    """exp(-a x^2 / 2); a = 1 is the fixed point of the unitary Fourier transform."""

    a: float

    def __post_init__(self):
        _check_finite("gaussian", self.a)
        if self.a <= 0:
            raise GstfError("gaussian: width parameter must be positive")

    def _eval(self, x):
        return np.exp(-0.5 * self.a * x * x).astype(complex)

    def __str__(self):
        return f"gaussian({float(self.a)!r})"


def hermite_poly(k: int, x: np.ndarray) -> np.ndarray:
    """Physicists' Hermite polynomial H_k by the three-term recurrence."""
    h_prev = np.ones_like(x)
    if k == 0:
        return h_prev
    h = 2.0 * x
    for m in range(1, k):
        h, h_prev = 2.0 * x * h - 2.0 * m * h_prev, h
    return h


@dataclass(frozen=True)
class Hermite(FunctionSpec):
    """H_k(x) exp(-x^2/2), physicists' normalization (no L2 rescale)."""

    k: int

    def __post_init__(self):
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 0):
            raise GstfError("hermite: order must be a non-negative integer")

    def _eval(self, x):
        return (hermite_poly(self.k, x) * np.exp(-0.5 * x * x)).astype(complex)

    def __str__(self):
        return f"hermite({int(self.k)})"


@dataclass(frozen=True)
class Bump(FunctionSpec):
    """exp(-1/(1-x^2)) on |x| < 1, exactly 0 elsewhere."""

    def _eval(self, x):
        out = np.zeros_like(x, dtype=complex)
        inside = np.abs(x) < 1.0
        xi = x[inside]
        out[inside] = np.exp(-1.0 / (1.0 - xi * xi))
        return out

    def __str__(self):
        return "bump()"


@dataclass(frozen=True)
class SubExp(FunctionSpec):
    """exp(-r |x|^(1/s))."""

    s: float
    r: float

    def __post_init__(self):
        _check_finite("subexp", self.s, self.r)
        if self.s <= 0:
            raise GstfError("subexp: decay index s must be positive")

    def _eval(self, x):
        return np.exp(-self.r * np.abs(x) ** (1.0 / self.s)).astype(complex)

    def __str__(self):
        return f"subexp({float(self.s)!r}, {float(self.r)!r})"


@dataclass(frozen=True)
class Poly(FunctionSpec):
    """x^k."""

    k: int

    def __post_init__(self):
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 0):
            raise GstfError("poly: degree must be a non-negative integer")

    def _eval(self, x):
        return (x ** self.k).astype(complex)

    def __str__(self):
        return f"poly({int(self.k)})"


@dataclass(frozen=True)
class Translate(FunctionSpec):
    inner: FunctionSpec
    x0: float

    def __post_init__(self):
        _check_finite("translate", self.x0)

    def _eval(self, x):
        return self.inner._eval(x - self.x0)

    def __str__(self):
        return f"translate({self.inner}, {float(self.x0)!r})"


@dataclass(frozen=True)
class Modulate(FunctionSpec):
    inner: FunctionSpec
    xi0: float

    def __post_init__(self):
        _check_finite("modulate", self.xi0)

    def _eval(self, x):
        return np.exp(1j * self.xi0 * x) * self.inner._eval(x)

    def __str__(self):
        return f"modulate({self.inner}, {float(self.xi0)!r})"


@dataclass(frozen=True)
class Scale(FunctionSpec):
    """Scalar multiple c * f."""

    inner: FunctionSpec
    c: float

    def __post_init__(self):
        _check_finite("scale", self.c)

    def _eval(self, x):
        return self.c * self.inner._eval(x)

    def __str__(self):
        return f"scale({self.inner}, {float(self.c)!r})"


@dataclass(frozen=True)
class Sum(FunctionSpec):
    left: FunctionSpec
    right: FunctionSpec

    def _eval(self, x):
        return self.left._eval(x) + self.right._eval(x)

    def __str__(self):
        right = str(self.right)
        if isinstance(self.right, (Sum, Diff)):
            right = f"({right})"
        return f"{self.left} + {right}"


@dataclass(frozen=True)
class Diff(FunctionSpec):
    left: FunctionSpec
    right: FunctionSpec

    def _eval(self, x):
        return self.left._eval(x) - self.right._eval(x)

    def __str__(self):
        right = str(self.right)
        if isinstance(self.right, (Sum, Diff)):
            right = f"({right})"
        return f"{self.left} - {right}"


@dataclass(frozen=True)
class Product(FunctionSpec):
    left: FunctionSpec
    right: FunctionSpec

    def _eval(self, x):
        return self.left._eval(x) * self.right._eval(x)

    def __str__(self):
        def wrap(node, nested_product):
            s = str(node)
            kinds = (Sum, Diff, Product) if nested_product else (Sum, Diff)
            return f"({s})" if isinstance(node, kinds) else s

        return f"{wrap(self.left, False)} * {wrap(self.right, True)}"


def catalog_eval(spec: FunctionSpec, grid: Grid1D) -> SampledFunction:
    """Evaluate a function spec pointwise on a grid."""
    if not isinstance(spec, FunctionSpec):
        raise GstfError(f"not a FunctionSpec: {spec!r}")
    with np.errstate(all="ignore"):  # SampledFunction rejects inf and nan
        return SampledFunction(grid, spec._eval(grid.coords))
