"""Gabor-multiplier (Toeplitz) operators and the product-transform identity.

The operator is realized in factored form: analyze with window phi1,
multiply pointwise by a phase-space symbol, synthesize with window phi2.
The weak (inner-product) definition is recovered by the adjoint-symmetry
check in the tests.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

import gstf  # the hints' verdict records load through it on first use
from .errors import GridError
from .grids import Record, SampledFunction, TFGrid, TFR
from .transforms import (_rel_defect, _require_decayed, adjoint_stft, dft2,
                         stft)

__all__ = [
    "apply_toeplitz", "stft_product_transform_defect",
    "ContinuityEntry", "ContinuityReport", "continuity_probe",
]


def apply_toeplitz(a: TFR, phi1: SampledFunction, phi2: SampledFunction,
                   f: SampledFunction) -> SampledFunction:
    """adjoint_stft(a * stft(f, phi1), phi2) on the symbol's TFGrid, which
    f keeps for its last symbol and window objects, as it keeps V."""
    if phi1.grid != f.grid or phi2.grid != f.grid:
        raise GridError("apply_toeplitz: windows and f must share a grid")

    def make():
        v = stft(f, phi1, a.tfgrid)
        return adjoint_stft(TFR(a.tfgrid, a.values * v.values), phi2)

    return f._kept("toeplitz", (a, phi1, phi2), make)


def stft_product_transform_defect(f: SampledFunction, g: SampledFunction,
                                  phi1: SampledFunction, phi2: SampledFunction,
                                  tfgrid: TFGrid) -> dict:
    """Both phase signs of the product-transform factorization

    F_2[conj(V_phi1 f) * V_phi2 g](eta, y)
        =? exp(+-i y eta) * V_phi2 phi1(y, -eta) * V_f g(-y, eta),

    returned as {"defect_plus", "defect_minus"} max-norm relative
    defects (_rel_defect).  The grids must be arranged so the dual
    coordinates land on window-shift multiples (e.g. xi-step an integer
    divisor of the time Nyquist band); the transform side needs both
    counts to be powers of two.
    """
    v1 = stft(f, phi1, tfgrid)
    v2 = stft(g, phi2, tfgrid)
    product = TFR(tfgrid, np.conj(v1.values) * v2.values)
    _require_decayed(product, "STFT product")
    lhs = dft2(product)

    eta_grid = tfgrid.xgrid.dual()
    y_grid = tfgrid.xigrid.dual()
    rhs_grid = TFGrid(y_grid, eta_grid)
    # A[y_i, eta_k] = V_phi2 phi1(y_i, eta_k); needed at (y, -eta)
    A = stft(phi1, phi2, rhs_grid).values
    # B[y_i, eta_k] = V_f g(y_i, eta_k); needed at (-y, eta)
    B = stft(g, f, rhs_grid).values
    # transpose both to (eta, y) layout matching lhs; on a symmetric grid,
    # coordinate negation is index reversal
    a_part = np.flip(A, axis=1).T        # (eta, y): A(y, -eta)
    b_part = np.flip(B, axis=0).T        # (eta, y): B(-y, eta)
    phase = np.exp(1j * np.outer(eta_grid.coords, y_grid.coords))
    return {name: _rel_defect(ph * a_part * b_part, lhs.values)
            for name, ph in (("defect_plus", phase),
                             ("defect_minus", np.conj(phase)))}


class ContinuityEntry(Record):
    r_star_in: float
    r_star_out: float
    verdict_in: str
    verdict_out: str


class ContinuityReport(Record):
    entries: tuple
    all_member: bool


def continuity_probe(a: TFR, phi1: SampledFunction, phi2: SampledFunction,
                     testset: Iterable, idx: gstf.GSIndex,
                     opts: gstf.ClassifyOptions | None = None
                     ) -> ContinuityReport:
    """Desk-scale continuity evidence: apply the operator to each test
    function, taken once from ``testset`` in turn, and classify the output
    in the same class.  The probe only measures envelope-in /
    envelope-out behavior and does not judge the symbol itself."""
    from .classify import MEMBER, _admit_window, classify_function
    _admit_window(phi1, "phi1", idx, opts)
    if phi2 is not phi1:
        _admit_window(phi2, "phi2", idx, opts)
    entries = []
    for f in testset:
        rep_in = classify_function(f, idx, opts)
        out = apply_toeplitz(a, phi1, phi2, f)
        rep_out = classify_function(out, idx, opts)
        entries.append(ContinuityEntry(
            r_star_in=rep_in.r_star.value, r_star_out=rep_out.r_star.value,
            verdict_in=rep_in.verdict, verdict_out=rep_out.verdict))
    entries = tuple(entries)
    return ContinuityReport(
        entries=entries,
        all_member=all(e.verdict_out == MEMBER for e in entries))
