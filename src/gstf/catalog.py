"""Analytic test-function catalog and its small AST.

A :class:`FunctionSpec` is a tree over the catalog primitives
(gaussian, hermite, bump, subexp, poly, translate, modulate, scale)
combined with +, - and *.  Evaluation is pointwise and deterministic:
equal specs on equal grids give bit-identical samples.

Each node class declares its own syntax, which printing, the argument
checks and :mod:`gstf.parse` all read: a call node its ``call`` name and,
by its fields' types, one kind per argument (float, int or FunctionSpec);
an infix node its operator ``op``, its precedence ``prec`` and its ufunc.
"""

import numpy as np

from .errors import GstfError
from .grids import Grid1D, Record, SampledFunction

__all__ = [
    "FunctionSpec", "Const", "Gaussian", "Hermite", "Bump", "SubExp", "Poly",
    "Translate", "Modulate", "Scale", "Infix", "Sum", "Diff", "Product",
    "catalog_eval", "hermite_poly",
]


class _Positive(float):
    """A field kind: a float that must be positive, kept as a plain float."""

    def __new__(cls, v):
        return float(v)


class FunctionSpec(Record):
    """Base node.  Subclasses implement ``_eval``; a call node sets
    ``call``, its name in the expression language, and types each field
    float, _Positive, int or FunctionSpec, in argument order.  A float
    argument must be finite, a _Positive one finite and positive, and an
    int one a non-negative integer."""

    call = ""

    def _eval(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _args(self):
        d = self.__dict__
        return [(d[name], kind) for name, kind in self._fields.items()]

    def __post_init__(self):
        for name, (v, kind) in zip(self._fields, self._args()):
            if kind in (float, _Positive) and not np.isfinite(v):
                raise GstfError(f"{type(self).__name__.lower()}: "
                                f"parameter {v!r} is not finite")
            if kind is _Positive and not v > 0:
                raise GstfError(f"{self.call}: {name} must be positive")
            if kind is int and (isinstance(v, bool) or not (
                    isinstance(v, (int, np.integer)) and v >= 0)):
                raise GstfError(f"{self.call}: {name} must be a "
                                "non-negative integer")

    def __str__(self):
        args = (str(v) if kind is FunctionSpec else repr(kind(v))
                for v, kind in self._args())
        return f"{self.call}({', '.join(args)})"


class Const(FunctionSpec):
    value: float

    def _eval(self, x):
        return np.full_like(x, self.value, dtype=complex)

    def __str__(self):
        return repr(float(self.value))


class Gaussian(FunctionSpec):
    """exp(-a x^2 / 2); a = 1 is the fixed point of the unitary Fourier transform."""

    call = "gaussian"
    a: _Positive

    def _eval(self, x):
        return np.exp(-0.5 * self.a * x * x).astype(complex)


def hermite_poly(k: int, x: np.ndarray) -> np.ndarray:
    """Physicists' Hermite polynomial H_k by the three-term recurrence."""
    h_prev = np.ones_like(x)
    if k == 0:
        return h_prev
    h = 2.0 * x
    for m in range(1, k):
        h, h_prev = 2.0 * x * h - 2.0 * m * h_prev, h
        if not np.isfinite(h).any():  # no later order has a finite sample
            break
    return h


class Hermite(FunctionSpec):
    """H_k(x) exp(-x^2/2), physicists' normalization (no L2 rescale)."""

    call = "hermite"
    k: int

    def _eval(self, x):
        return (hermite_poly(self.k, x) * np.exp(-0.5 * x * x)).astype(complex)


def _gevrey_bump(x: np.ndarray, t: float = 2.0) -> np.ndarray:
    """exp(-(1-x^2)^(-1/(t-1))) on |x| < 1, exactly 0 elsewhere: a bump
    of Gevrey order t > 1 (Rodino, Linear Partial Differential Operators
    in Gevrey Spaces, 1993)."""
    out = np.zeros_like(x, dtype=complex)
    inside = np.abs(x) < 1.0
    with np.errstate(over="ignore"):  # exp(-inf) = 0 near the rim
        out[inside] = np.exp(-(1.0 - x[inside] ** 2) ** (-1.0 / (t - 1.0)))
    return out


class Bump(FunctionSpec):
    """exp(-1/(1-x^2)) on |x| < 1, exactly 0 elsewhere: the Gevrey bump
    of order 2."""

    call = "bump"

    def _eval(self, x):
        return _gevrey_bump(x)


class SubExp(FunctionSpec):
    """exp(-r |x|^(1/s))."""

    call = "subexp"
    s: _Positive
    r: float

    def _eval(self, x):
        return np.exp(-self.r * np.abs(x) ** (1.0 / self.s)).astype(complex)


class Poly(FunctionSpec):
    """x^k."""

    call = "poly"
    k: int

    def _eval(self, x):
        return (x ** self.k).astype(complex)


class Translate(FunctionSpec):
    call = "translate"
    inner: FunctionSpec
    x0: float

    def _eval(self, x):
        return self.inner._eval(x - self.x0)


class Modulate(FunctionSpec):
    call = "modulate"
    inner: FunctionSpec
    xi0: float

    def _eval(self, x):
        return np.exp(1j * self.xi0 * x) * self.inner._eval(x)


class Scale(FunctionSpec):
    """Scalar multiple c * f."""

    call = "scale"
    inner: FunctionSpec
    c: float

    def _eval(self, x):
        return self.c * self.inner._eval(x)


class Infix(FunctionSpec):
    """``left op right``, left-associative; a higher ``prec`` binds
    tighter.  Subclasses declare ``op``, ``prec`` and ``ufunc``."""

    left: FunctionSpec
    right: FunctionSpec

    def _eval(self, x):
        return self.ufunc(self.left._eval(x), self.right._eval(x))

    def __str__(self):
        # an operand binding looser is parenthesised, and so is a right
        # operand binding equally, since a chain groups to the left
        def wrap(node, prec):
            if isinstance(node, Infix) and node.prec <= prec:
                return f"({node})"
            return str(node)

        return (f"{wrap(self.left, self.prec - 1)} {self.op} "
                f"{wrap(self.right, self.prec)}")


class Sum(Infix):
    op, prec, ufunc = "+", 1, np.add


class Diff(Infix):
    op, prec, ufunc = "-", 1, np.subtract


class Product(Infix):
    op, prec, ufunc = "*", 2, np.multiply


def catalog_eval(spec: FunctionSpec, grid: Grid1D) -> SampledFunction:
    """Evaluate a function spec pointwise on a grid."""
    if not isinstance(spec, FunctionSpec):
        raise GstfError(f"not a FunctionSpec: {spec!r}")
    with np.errstate(all="ignore"):  # SampledFunction rejects inf and nan
        return SampledFunction(grid, spec._eval(grid.coords))
