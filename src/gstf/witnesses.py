"""Constructive membership witnesses and the triviality boundary.

Two-parameter classes with decay index s and Fourier index sigma are
nontrivial iff s + sigma > 1 (Beurling) resp. >= 1 (Roumieu).  Where an
elementary formula lands inside the class we return it sampled; at the
trivial boundary we demonstrate failure on a candidate family.
"""

from __future__ import annotations

import functools

from .catalog import Gaussian, Hermite, catalog_eval, _gevrey_bump
from .classify import ClassifyOptions, CriticalScale, GSIndex, _crit, _split
from .errors import TrivialSpace, UnsupportedRegion
from .grids import Grid1D, Record, SampledFunction, build_grid
from .transforms import dft

__all__ = [
    "default_witness_grid", "make_witness",
    "BoundaryCandidate", "BoundaryReport", "boundary_triviality_demo",
]


def default_witness_grid() -> Grid1D:
    return build_grid(12.0, 11)


def _gevrey_order(sigma: float, beurling: bool) -> float:
    """Gevrey order t of the bump witness whose transform must decay like
    exp(-r |xi|^(1/sigma)).  The transform of a compactly supported
    Gevrey-t function decays like exp(-c |xi|^(1/t)) for some c > 0, so
    one rate (Roumieu) needs t <= sigma and every rate (Beurling) needs
    t < sigma.  Callers pass sigma > 1: no compactly supported function
    has t = 1 (Paley-Wiener).  t stops at 2, the order of bump()."""
    return min((1.0 + sigma) / 2 if beurling else sigma, 2.0)


def make_witness(idx: GSIndex, grid: Grid1D | None = None) -> SampledFunction:
    """A sampled nontrivial member of the two-parameter class idx.

    Constructions: gaussian(1) when both indices clear 1/2; a Gevrey bump
    when the Fourier index exceeds 1 (any decay index); the transform of
    one in the mirrored case.  TrivialSpace in the trivial region;
    UnsupportedRegion where the class is nontrivial but no elementary
    formula is shipped, among them the Roumieu classes with one index 1
    and the other below 1/2.
    """
    if idx.one_parameter:
        raise UnsupportedRegion("witnesses are for two-parameter classes")
    grid = grid or default_witness_grid()
    s, sigma = idx.s, idx.sigma
    beurling = idx.regularity == "beurling"

    def clears(v, bound):
        return v > bound if beurling else v >= bound

    if not clears(s + sigma, 1.0):
        raise TrivialSpace(
            f"class with s={s}, sigma={sigma} ({idx.regularity}) "
            "contains only the zero function")
    if clears(min(s, sigma), 0.5):
        return catalog_eval(Gaussian(1.0), grid)
    if sigma > 1.0:
        return SampledFunction(grid, _gevrey_bump(
            grid.coords, _gevrey_order(sigma, beurling)))
    if s > 1.0:
        return dft(SampledFunction(grid, _gevrey_bump(
            grid.coords, _gevrey_order(s, beurling))))
    raise UnsupportedRegion(
        f"class s={s}, sigma={sigma} ({idx.regularity}) is nontrivial but "
        "no elementary witness formula is shipped for this region")


class BoundaryCandidate(Record):
    name: str
    failed: bool
    failing_side: str  # "function", "fourier", or "" if it passed
    r_star_x: CriticalScale
    r_star_xi: CriticalScale | None  # None when f fails on its own


class BoundaryReport(Record):
    s: float
    sigma: float
    candidates: tuple
    all_failed: bool


@functools.lru_cache(maxsize=1)
def _candidates() -> tuple:
    """The demo's (name, f), with f's dft and both unfloored tables kept."""
    grid = default_witness_grid()
    specs = [*map(Gaussian, (0.5, 1.0, 2.0)), *map(Hermite, range(4))]
    rows = tuple((str(spec), catalog_eval(spec, grid)) for spec in specs)
    for _, f in rows:
        for fn in (f, dft(f)):
            _split(fn, None)
    return rows


def boundary_triviality_demo(s: float) -> BoundaryReport:
    """Evidence for triviality on the Beurling boundary line s + sigma = 1.

    Runs the Beurling test with the default trial rates at (s, 1-s) over a
    candidate family of Gaussians and Hermite functions on the default
    witness grid: a side fails when its critical rate r* (r*_x of f, r*_xi
    of its transform, both on direct samples) is below the largest rate.
    The transform is read only when f passes.  all_failed = True is the
    expected outcome for every 0 < s < 1.  The candidates, transforms and
    tables (about 1.2 MB) are built once per process; no r* is kept.
    """
    if not (0.0 < s < 1.0):
        raise TrivialSpace("boundary demo needs 0 < s < 1")
    sigma = 1.0 - s
    rate = max(ClassifyOptions().trial_rs())

    rows = []
    for name, f in _candidates():  # _side's test, with no r* in a memo
        r_x, r_xi, side = _crit(f, s, None), None, "function"
        ok = rate <= r_x.value
        if ok:  # the transform is needed only when f passes
            r_xi = _crit(dft(f), sigma, None)
            ok = rate <= r_xi.value
            side = "" if ok else "fourier"
        rows.append(BoundaryCandidate(name, not ok, side, r_x, r_xi))
    rows = tuple(rows)
    return BoundaryReport(s=s, sigma=sigma, candidates=rows,
                          all_failed=all(c.failed for c in rows))
