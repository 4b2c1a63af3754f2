"""Registry of named checks: the identity, classification and operator
suites that ``gstf verify`` and the acceptance tests run.  A check passes
when its value is at most its tolerance; 0/1 values against 0.5 encode
yes/no outcomes."""

from __future__ import annotations

import math

import numpy as np

from .catalog import (Bump, Gaussian, Hermite, Modulate, Poly, Product,
                      SubExp, Sum, Translate, catalog_eval)
from .classify import (ClassifyOptions, GSIndex, _side, classify_function,
                       classify_stft)
from .grids import (Grid1D, TFGrid, TFR, build_grid, classify_tfgrid,
                    gaussian_symbol, phase_space_grid)
from .toeplitz import (apply_toeplitz, continuity_probe,
                       stft_product_transform_defect)
from .transforms import (_rel_defect, adjoint_stft, stft,
                         twisted_convolution_defect)

__all__ = ["TOLERANCES", "SUITES", "CATALOG_SPECS", "CATALOG_SPACES",
           "run_suite"]

TOLERANCES = {
    "moyal_defect": 1e-6,
    "stft_inversion_defect": 1e-5,
    "twisted_convolution_defect": 1e-4,
    "product_transform_defect": 1e-4,
    "product_transform_sign_consistent": 0.5,
    "rate_recovery_gaussian": 1e-9,
    "rate_recovery_subexp": 1e-9,
    "catalog_agreement_mismatches": 0.5,
    "unit_symbol_reproduction": 1e-5,
    "adjoint_symmetry": 1e-6,
    "positivity_defect": 1e-10,
    "continuity_probe_nonmember_outputs": 0.5,
}

# The function catalog and the one-parameter classes on which the direct
# and the STFT verdicts must agree.
CATALOG_SPECS = (
    Gaussian(1.0), Gaussian(0.5), Hermite(1), Hermite(2), Hermite(3),
    Bump(), Translate(Gaussian(1.0), 1.5), Modulate(Gaussian(1.0), 3.0),
    Gaussian(0.001), Product(Poly(2), Gaussian(1.0)),
    Sum(Gaussian(1.0), Translate(Gaussian(1.0), 2.0)), SubExp(2.0, 1.0))
CATALOG_SPACES = (
    GSIndex(0.5, math.inf, "roumieu"), GSIndex(1.0, math.inf, "roumieu"),
    GSIndex(1.0, math.inf, "beurling"), GSIndex(math.inf, 0.5, "roumieu"))

_OPTS = ClassifyOptions(n_max=4, r_scale=0.5)  # the suites' verdict options


def _phase_space():
    """The 1024-point suites' grid, its phase_space_grid and gaussian(1)."""
    g = build_grid(12.0, 10)
    return g, phase_space_grid(g), catalog_eval(Gaussian(1.0), g)


def _identities():
    g, tf, gauss = _phase_space()
    herm = catalog_eval(Hermite(2), g)

    v = stft(herm, gauss, tf)
    yield "moyal_defect", _rel_defect(v.norm2() ** 2,
                                      (herm.norm2() * gauss.norm2()) ** 2)

    rec = adjoint_stft(v, gauss)
    yield "stft_inversion_defect", _rel_defect(
        rec.values / gauss.norm2() ** 2, herm.values)

    yield "twisted_convolution_defect", twisted_convolution_defect(
        herm, gauss, catalog_eval(Gaussian(2.0), g),
        catalog_eval(Gaussian(0.5), g), tf)

    xg = Grid1D(0.0, 8 * g.step, 128)
    xig = Grid1D(0.0, 2 * np.pi / (1024 * g.step), 128)
    tfp = TFGrid(xg, xig)
    pool = [Gaussian(1.0), Gaussian(2.0), Gaussian(0.5), Hermite(1),
            Hermite(2), Hermite(3), Translate(Gaussian(1.0), 1.0),
            Modulate(Gaussian(1.0), 1.0)]
    rng = np.random.default_rng(20240817)
    signs = set()
    worst = 0.0
    for _ in range(12):
        f4, g4, p1, p2 = (catalog_eval(pool[i], g)
                          for i in rng.integers(0, len(pool), 4))
        d = stft_product_transform_defect(f4, g4, p1, p2, tfp)
        win = "minus" if d["defect_minus"] <= d["defect_plus"] else "plus"
        signs.add(win)
        worst = max(worst, min(d["defect_minus"], d["defect_plus"]))
    yield "product_transform_defect", worst
    yield "product_transform_sign_consistent", 0.0 if len(signs) == 1 else 1.0


def _classification():
    godd = Grid1D(0.0, 24.0 / 1024, 1025)
    for name, spec, s, rate in (("gaussian", Gaussian(1.0), 0.5, 0.5),
                                ("subexp", SubExp(1.0, 2.0), 1.0, 2.0)):
        _, r_star = _side(catalog_eval(spec, godd), s, rate, False)
        yield f"rate_recovery_{name}", abs(r_star.value - rate)

    g = build_grid(12.0, 11)
    tf = classify_tfgrid(g)
    win = catalog_eval(Gaussian(1.0), g)

    def mismatches(spec):  # the classes share f's streamed STFT profiles
        f = catalog_eval(spec, g)
        return sum(classify_function(f, idx, _OPTS).verdict
                   != classify_stft(f, win, idx, tf, _OPTS,
                                    check_window=False).verdict
                   for idx in CATALOG_SPACES)
    yield "catalog_agreement_mismatches", float(sum(map(mismatches,
                                                        CATALOG_SPECS)))


def _toeplitz():
    g, tf, gauss = _phase_space()
    w = gauss * (1.0 / gauss.norm2())
    one = TFR(tf, np.ones((tf.xgrid.count, tf.xigrid.count)))
    worst = 0.0
    for spec in (Gaussian(1.0), Hermite(2)):
        f = catalog_eval(spec, g)
        worst = max(worst, _rel_defect(apply_toeplitz(one, w, w, f).values,
                                       f.values))
    yield "unit_symbol_reproduction", worst

    f = catalog_eval(Hermite(1), g)
    g2 = catalog_eval(Gaussian(2.0), g)
    rng = np.random.default_rng(7)
    sym = TFR(tf, rng.standard_normal((129, 129))
              + 1j * rng.standard_normal((129, 129)))
    lhs = g.step * np.sum(apply_toeplitz(sym, w, w, f).values
                          * np.conj(g2.values))
    v1 = stft(f, w, tf)
    v2 = stft(g2, w, tf)
    rhs = tf.xgrid.step * tf.xigrid.step * np.sum(
        sym.values * np.conj(np.conj(v1.values) * v2.values))
    yield "adjoint_symmetry", _rel_defect(rhs, lhs)

    pos_sym = gaussian_symbol(tf)
    qmin = 0.0
    for spec in (Gaussian(1.0), Hermite(1), Hermite(3),
                 Modulate(Gaussian(0.5), 2.0)):
        ff = catalog_eval(spec, g)
        q = g.step * np.sum(apply_toeplitz(pos_sym, w, w, ff).values
                            * np.conj(ff.values))
        qmin = min(qmin, float(q.real))
    yield "positivity_defect", max(0.0, -qmin)  # never -0

    idx = GSIndex(1.0, math.inf, "beurling")
    # sampled as the probe takes them, so that each function and the STFT
    # it keeps go before the next is made
    testset = (catalog_eval(s, g) for s in
               (Gaussian(1.0), Gaussian(0.5), Hermite(1), Hermite(2),
                Hermite(3)))
    rep = continuity_probe(pos_sym, w, w, testset, idx, _OPTS)
    yield "continuity_probe_nonmember_outputs", 0.0 if rep.all_member else 1.0


SUITES = {"identities": _identities, "classification": _classification,
          "toeplitz": _toeplitz}


def run_suite(name: str) -> list:
    """[(check name, value, tolerance)] for one suite, in suite order."""
    return [(check, value, TOLERANCES[check])
            for check, value in SUITES[name]()]
