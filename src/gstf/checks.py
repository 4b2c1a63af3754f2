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

# The product-transform check's twelve (f, g, phi1, phi2) picks from its
# pool of eight functions: the draws of numpy's
# default_rng(20240817).integers(0, 8, 4), written out so that the suite
# neither imports numpy.random nor depends on its Generator stream.
_PRODUCT_QUADRUPLES = (
    (5, 4, 3, 2), (5, 2, 1, 2), (6, 6, 1, 6), (4, 7, 0, 6), (1, 0, 1, 1),
    (1, 6, 1, 4), (6, 4, 5, 0), (5, 2, 5, 5), (2, 0, 5, 4), (4, 4, 2, 0),
    (3, 0, 5, 3), (5, 4, 0, 6))


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
    signs = set()
    worst = 0.0
    for picks in _PRODUCT_QUADRUPLES:
        f4, g4, p1, p2 = (catalog_eval(pool[i], g) for i in picks)
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


def _hash_symbol(tf: TFGrid) -> TFR:
    """A full-band complex symbol on ``tf`` with no symmetry in x or xi:
    the SplitMix64 stream seeded at 0, each output's top 53 bits mapped to
    [-1, 1), real and imaginary parts interleaved.  Exact integer
    arithmetic, so its bits depend on no libm and no SIMD path."""
    n = 2 * tf.xgrid.count * tf.xigrid.count
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    u = (z ^ (z >> np.uint64(31))) >> np.uint64(11)
    r = u * 2.0**-52 - 1.0
    return TFR(tf, (r[0::2] + 1j * r[1::2]).reshape(tf.xgrid.count, -1))


def _toeplitz():
    g, tf, gauss = _phase_space()
    w = gauss * (1.0 / gauss.norm2())
    # The functions that several checks apply an operator to, each sampled
    # once, so that the checks share the V and T f that each keeps, and let
    # go after its last check: without the dels below, the suite's
    # tracemalloc peak rose from 4.9 to 5.8 MB; with the probe's test set
    # also taken at once, to 6.1 MB, and the ru_maxrss of `gstf verify
    # --suite toeplitz` by 1.2 MB.
    shared = {s: catalog_eval(s, g) for s in (Hermite(1), Hermite(2),
                                                Hermite(3))}
    shared[Gaussian(1.0)] = gauss
    del gauss
    one = TFR(tf, np.ones((tf.xgrid.count, tf.xigrid.count)))
    worst = 0.0
    for spec in (Gaussian(1.0), Hermite(2)):
        f = shared[spec]
        worst = max(worst, _rel_defect(apply_toeplitz(one, w, w, f).values,
                                       f.values))
    yield "unit_symbol_reproduction", worst

    f = shared[Hermite(1)]
    g2 = catalog_eval(Gaussian(2.0), g)
    sym = _hash_symbol(tf)
    lhs = g.step * np.sum(apply_toeplitz(sym, w, w, f).values
                          * np.conj(g2.values))
    v1 = stft(f, w, tf)
    v2 = stft(g2, w, tf)
    rhs = sym._cell * np.sum(
        sym.values * np.conj(np.conj(v1.values) * v2.values))
    yield "adjoint_symmetry", _rel_defect(rhs, lhs)
    del g2, v1, v2

    pos_sym = gaussian_symbol(tf)
    qmin = 0.0
    for spec in (Gaussian(1.0), Hermite(1), Hermite(3),
                 Modulate(Gaussian(0.5), 2.0)):
        f = shared.get(spec) or catalog_eval(spec, g)
        q = g.step * np.sum(apply_toeplitz(pos_sym, w, w, f).values
                            * np.conj(f.values))
        qmin = min(qmin, float(q.real))
    yield "positivity_defect", max(0.0, -qmin)  # never -0
    del f

    idx = GSIndex(1.0, math.inf, "beurling")
    # taken as the probe reaches them, each let go before the next
    testset = (shared.pop(s, None) or catalog_eval(s, g) for s in
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
