import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from gstf import (INCONCLUSIVE, MEMBER, NOT_MEMBER, Bump, ClassifyOptions,
                  CriticalScale, GSIndex, Gaussian, Grid1D,
                  GstfError, Hermite, Modulate, Poly, Product,
                  SampledFunction, SubExp, Sum, TFGrid, TFR, Translate,
                  boundary_triviality_demo, build_grid, catalog_eval,
                  classify_function, classify_stft, dft, dual_growth_report,
                  stft, transforms)
from gstf.classify import FLOOR, GUARD, _critical, _side
from gstf.checks import CATALOG_SPACES, CATALOG_SPECS
from gstf.grids import classify_tfgrid, phase_space_grid

from conftest import beurling, roumieu

ODD_GRID = Grid1D(0.0, 24.0 / 1024, 1025)

M, N = MEMBER, NOT_MEMBER
# Direct verdicts on the catalog pairs of the classification suite, one
# column per class in CATALOG_SPACES.  The suite checks only that the
# direct and the STFT verdicts agree, so a change to the shared verdict
# code could flip both unnoticed; this table catches that.  The rows are
# the closed-form truth: Gaussian-Hermite functions lie in every class;
# bump()'s transform decays only like exp(-c|xi|^(1/2)), so it misses
# S^1/2; exp(-|x|^(1/2)) decays too slowly for S_1 and has a kink at the
# origin.  One row is the truncated grid's answer instead:
# gaussian(0.001) is a member of every class, but its samples are still
# 0.93 of the peak at |x| = 12, so no grid of that half-width can see it
# decay.
CATALOG_DIRECT_VERDICTS = {
    "gaussian(1.0)": [M, M, M, M],
    "gaussian(0.5)": [M, M, M, M],
    "hermite(1)": [M, M, M, M],
    "hermite(2)": [M, M, M, M],
    "hermite(3)": [M, M, M, M],
    "bump()": [M, M, M, N],
    "translate(gaussian(1.0), 1.5)": [M, M, M, M],
    "modulate(gaussian(1.0), 3.0)": [M, M, M, M],
    "gaussian(0.001)": [N, N, N, N],
    "poly(2) * gaussian(1.0)": [M, M, M, M],
    "gaussian(1.0) + translate(gaussian(1.0), 2.0)": [M, M, M, M],
    "subexp(2.0, 1.0)": [N, N, N, N],
}

class TestGSIndex:
    def test_rejects_unknown_regularity(self):
        with pytest.raises(GstfError):
            GSIndex(1.0, math.inf, "gevrey")

    def test_rejects_doubly_infinite(self):
        with pytest.raises(GstfError):
            GSIndex(math.inf, math.inf, "roumieu")

    def test_rejects_nonpositive_index(self):
        with pytest.raises(GstfError):
            GSIndex(0.0, math.inf, "roumieu")
        with pytest.raises(GstfError):
            GSIndex(-1.0, math.inf, "beurling")

    @pytest.mark.parametrize("s, sigma", [(-math.inf, 0.5), (0.5, -math.inf)])
    def test_rejects_negative_infinite_index(self, s, sigma):
        # only +inf marks the unconstrained side
        with pytest.raises(GstfError, match="-inf"):
            GSIndex(s, sigma, "roumieu")

    def test_one_parameter_flag(self):
        assert roumieu(s=1.0).one_parameter
        assert not GSIndex(1.0, 1.0, "roumieu").one_parameter


class TestClassifyOptions:
    @pytest.mark.parametrize("kw", [
        {"n_max": -1}, {"n_max": 2.5}, {"r_scale": -0.5}, {"r_scale": math.inf},
        {"r_scale": -math.inf}, {"r_scale": -0.0},
        {"r_scale": math.nan}, {"r_scale": 0.0}, {"n_max": 4.0},
        {"n_max": 17},  # the polynomial weights' bound
        {"n_max": True},  # a bool is no polynomial order
    ])
    def test_rejects_values_that_make_a_side_vacuous(self, kw):
        with pytest.raises(GstfError):
            ClassifyOptions(**kw)

    def test_accepts_range_endpoints(self):
        opts = ClassifyOptions(n_max=0, r_scale=4e-300)
        assert min(opts.trial_rs()) == 1e-300
        assert ClassifyOptions(n_max=16).n_max == 16


def _r_star(f, s, masked=False):
    """The decay side's critical rate r* at index s."""
    return _side(f, s, 0.0, masked)[1]


def _rate(opts, beurling):
    """The trial rate a decay side needs: Beurling the largest, Roumieu
    the smallest."""
    return (max if beurling else min)(opts.trial_rs())


def _sup_reference(fn, base, scales, mask=None):
    """{k: (interior, masked_edge)} for the sup of |fn| exp(k * base), one
    argmax per scale (the first of equal maxima) as the trial-rate and
    C_N tables found it; k = 0 is the weight 1 exactly."""
    n = fn.grid.count
    with np.errstate(divide="ignore"):
        loga = np.log(np.abs(fn.values))
    if mask is not None:
        loga = np.where(mask, loga, -np.inf)
    out = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for k in scales:
            logv = loga + (k * base if k else 0.0)
            logv[np.isnan(logv)] = -np.inf
            i = int(np.argmax(logv))
            if logv[i] == -np.inf:  # no admissible nonzero sample
                out[k] = (True, False)
                continue
            interior = GUARD <= i <= n - 1 - GUARD
            edge = mask is not None and interior and (
                (i > 0 and not mask[i - 1]) or (i < n - 1 and not mask[i + 1]))
            out[k] = (interior, bool(edge))
    return out


def _flags_reference(fn, base, scales, mask, every):
    """(ok, inconclusive) of one side from its reference table: ``every``
    scale good (Beurling, polynomial) or one (Roumieu)."""
    table = _sup_reference(fn, base, scales, mask)
    good = [inside and not edge for inside, edge in table.values()]
    ok = all(good) if every else any(good)
    return ok, not ok and any(edge for _, edge in table.values())


def _floor(fn):
    a = np.abs(fn.values)
    return a >= FLOOR * a.max()


class TestSupEnvelopeConstant:
    """The sup of one rate's envelope |f| exp(r |x|^(1/s)) is attained in
    the interior exactly for the rates up to the critical rate r*."""

    def test_matches_brute_force(self):
        # Independent oracle: the argmax of the weighted samples, just
        # below and just above r*
        f = catalog_eval(Gaussian(1.0), ODD_GRID)
        for s in (0.5, 1.0, 2.0):
            r = _r_star(f, s).value
            w = np.abs(f.x) ** (1.0 / s)
            table = _sup_reference(f, w, (r * (1 - 1e-6), r * (1 + 1e-6)))
            assert list(table.values()) == [(True, False), (False, False)]

    def test_interior_attainment_flag(self):
        f = catalog_eval(Gaussian(1.0), ODD_GRID)
        # Weight weaker than the decay: sup sits at the origin, interior.
        assert 0.1 <= _r_star(f, 1.0).value
        # Weight overwhelming the decay: exp(x^2) beats exp(-x^2/2), the
        # sup climbs to the truncation rim.
        crit = _r_star(f, 0.5)
        assert crit.value < 1.0
        assert abs(crit.bound_at) >= abs(ODD_GRID.coords[GUARD - 1])
        assert not crit.masked_edge

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_weight_gives_zero_rate(self):
        # |x|^(1/s) = 12^4000 overflows: every positive rate lets the rim
        # win, and r* is the limit 0
        f = catalog_eval(Gaussian(1.0), ODD_GRID)
        assert _r_star(f, 0.00025).value == 0.0

    def test_floor_masks_noise_tail(self):
        # A synthetic noise floor under an unbounded weight would fake a
        # boundary sup; masking it keeps the argmax where the signal is.
        vals = np.exp(-0.5 * ODD_GRID.coords**2) + 1e-16
        f = SampledFunction(ODD_GRID, vals)
        unmasked = _r_star(f, 0.5)
        masked = _r_star(f, 0.5, masked=True)
        assert unmasked.value < 0.5 and not unmasked.masked_edge
        assert masked.value == pytest.approx(0.5, abs=1e-4)
        assert masked.masked_edge  # still rising when the data runs out
        assert abs(masked.bound_at) < abs(ODD_GRID.coords[GUARD])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_sample_under_infinite_weight_is_not_the_sup(self):
        # x^2 overflows at the rim, where 0 * exp(inf) is 0, not nan: the
        # guard sample next to it bounds r*, at the limit 0
        f = SampledFunction(Grid1D(0.0, 1e154, 5), [0.0, 1.0, 1.0, 1.0, 0.0])
        crit = _r_star(f, 0.5)
        assert (crit.value, crit.attained_at, crit.bound_at) == (
            0.0, 0.0, -1e154)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFitDecayRate:
    """The decay rate read off the samples is the critical rate r*: on an
    even grid, where no sample sits at the origin, it is still the closed
    form.  The limit cases raise no numpy warning."""

    def test_gaussian_oracle(self):
        # exp(-a x^2/2) = exp(-(a/2) |x|^(1/s)) at s = 1/2
        for a, exponent in itertools.product((0.5, 1.0, 2.4), (10, 11)):
            f = catalog_eval(Gaussian(a), build_grid(12.0, exponent))
            assert _r_star(f, 0.5).value == pytest.approx(a / 2, abs=1e-9)

    def test_subexp_oracle(self):
        for c, exponent in itertools.product((0.5, 2.0), (10, 11)):
            f = catalog_eval(SubExp(1.0, c), build_grid(12.0, exponent))
            assert _r_star(f, 1.0).value == pytest.approx(c, abs=1e-9)

    @pytest.mark.parametrize("spec", [Hermite(2), Translate(Gaussian(1.0), 2.0)])
    def test_rate_rises_to_one_half_with_the_half_width(self, spec):
        # the polynomial factor and the shift cost rate at the rim only
        # (at half-width 48 the tail underflows to 0 and r* is inf)
        rates = [_r_star(catalog_eval(spec, build_grid(x, 11)), 0.5).value
                 for x in (12.0, 16.0, 24.0)]
        assert 0.4 < rates[0] < rates[1] < rates[2] < 0.5

    def test_wrong_exponent_underestimates(self):
        # exp(-2|x|) read at s = 1/2 against the rim X: r* = 2/(X + h/2)
        g = build_grid(12.0, 11)
        f = catalog_eval(SubExp(1.0, 2.0), g)
        assert _r_star(f, 0.5).value == pytest.approx(
            2.0 / (12.0 + g.step / 2), rel=1e-9)

    def test_no_qualifying_sample_gives_inf(self):
        # All mass at one interior sample: no rate moves the sup.
        vals = np.zeros(ODD_GRID.count)
        vals[512] = 1.0
        crit = _r_star(SampledFunction(ODD_GRID, vals), 1.0)
        assert crit == CriticalScale(math.inf)

    def test_zero_function_gives_inf(self):
        f = SampledFunction(ODD_GRID, np.zeros(ODD_GRID.count))
        assert _r_star(f, 1.0) == CriticalScale(math.inf)
        assert classify_function(f, roumieu(s=1.0)).r_star.value == math.inf

    def test_peak_with_underflowing_weight_bounds_rate_by_zero(self):
        # (|x|/4)^1000 underflows to 0 at the peak x = 1, and 4^1000
        # overflows: every positive rate lets the rim win, so r* = 0
        g = Grid1D(0.0, 1.0, 9)
        f = SampledFunction(g, np.exp(-0.5 * (g.coords - 1.0) ** 2))
        crit = _r_star(f, 1e-3)
        assert (crit.value, crit.attained_at, crit.bound_at) == (0.0, 1.0, 4.0)

    def test_peak_in_the_guard_band_gives_no_rate(self):
        # the largest sample lies within GUARD samples of the edge, and a
        # weight underflowing at the centre does not hide it
        f = SampledFunction(Grid1D(0.0, 1e-78, 5), [0.5, 1.0, 0.9, 0.5, 0.25])
        crit = _r_star(f, 1e-2)
        assert (crit.value, crit.bound_at) == (-math.inf, -1e-78)

    def test_subnormal_weight_gives_inf_rate(self):
        # a compact bump whose masked edges weigh 0.25^520, subnormal: the
        # crossing log 2 / 0.25^520 overflows to inf, its limit
        vals = np.zeros(9)
        vals[3:6] = [0.5, 1.0, 0.5]
        f = SampledFunction(Grid1D(0.0, 1e-3, 9), vals)
        assert _r_star(f, 1.0 / 520, masked=True).value == math.inf

    def test_monotone_nondecreasing_in_s_on_outer_samples(self):
        # For |x| >= 1 the weight |x|^(1/s) shrinks as s grows, so the
        # critical rate of exp(-|x|^(1/2)) cannot drop up to s = 2.
        f = catalog_eval(SubExp(2.0, 1.0), ODD_GRID)
        rates = [_r_star(f, s).value for s in (0.5, 1.0, 1.5, 2.0)]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
        assert rates[-1] == pytest.approx(1.0, abs=1e-9)


class TestFitPolyTable:
    """The critical power N* of the polynomial side."""

    def test_matches_brute_force(self):
        f = dft(catalog_eval(Gaussian(1.0), build_grid(12.0, 10)))
        _, crit = _side(f, None, 3, True)
        n = math.floor(crit.value)
        table = _sup_reference(f, np.log1p(f.x**2), (n, n + 1), _floor(f))
        assert table == {n: (True, False), n + 1: (True, True)}
        assert crit.masked_edge

    def test_slow_decay_fails_interior_attainment(self):
        # 1/(1+x^2) loses to (1+x^2)^2: the product grows to the rim.
        vals = 1.0 / (1.0 + ODD_GRID.coords**2)
        side, crit = _side(SampledFunction(ODD_GRID, vals), None, 2, True)
        assert crit.value == pytest.approx(1.0, abs=1e-9)
        assert side == (False, False)

    def test_rejects_large_n_max(self):
        # the polynomial side reads up to N = 16; 17 is refused
        f = catalog_eval(Gaussian(1.0), ODD_GRID)
        side, crit = _side(f, None, ClassifyOptions(n_max=16).n_max, True)
        assert side == (True, False) and crit.value > 16
        with pytest.raises(GstfError):
            _side(f, None, ClassifyOptions(n_max=17).n_max, True)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_limits_where_x_squared_overflows(self):
        # log(1+x^2) is 2 log|x| once x^2 overflows: halving per doubling
        # of |x| is N* = 1/2; a grid with no interior has no N at all
        side, crit = _side(
            SampledFunction(Grid1D(0.0, 1e300, 7),
                            [0.125, 0.25, 0.5, 1.0, 0.5, 0.25, 0.125]),
            None, 0, True)
        assert crit.value == pytest.approx(0.5, rel=1e-9) and side[0]
        _, crit = _side(
            SampledFunction(Grid1D(0.0, 1e300, 4), [0.25, 1.0, 0.5, 0.125]),
            None, 0, True)
        assert crit.value == -math.inf


class TestDecaySide:
    # exp(-x^2/2) over a 1e-16 noise floor at s = 1/2: the rate 1/4 sup is
    # interior; the rate 1 sup climbs until the samples turn to noise,
    # where a transform's floor leaves it open (masked edge) and direct
    # samples carry it to the rim.
    # r_list = (the rate Roumieu needs, the rate Beurling needs)
    @pytest.mark.parametrize("r_list, masked, roumieu_side, beurling_side", [
        ((0.25, 1.0), True, (True, False), (False, True)),
        ((0.25, 1.0), False, (True, False), (False, False)),
        ((1.0, 1.0), True, (False, True), (False, True)),
        ((1.0, 1.0), False, (False, False), (False, False)),
    ])
    def test_one_rate_table_decides_both_regularities(
            self, r_list, masked, roumieu_side, beurling_side):
        # one critical rate, whatever the regularity or the rate it needs
        fn = SampledFunction(ODD_GRID, np.exp(-0.5 * ODD_GRID.coords**2)
                             + 1e-16)
        for rate, want in zip(r_list, (roumieu_side, beurling_side)):
            side, crit = _side(fn, 0.5, rate, masked)
            assert side == want
            assert crit is _r_star(fn, 0.5, masked)


class TestReferenceTables:
    """The critical scales give the (ok, inconclusive) flags of one argmax
    per trial rate and per N, direct and through the STFT."""

    @pytest.mark.parametrize("through_stft", [False, True])
    def test_flags_match_the_per_scale_argmax(self, grid11, tf_classify,
                                              gauss_window, through_stft):
        for spec in CATALOG_SPECS:
            f = catalog_eval(spec, grid11)
            if through_stft:
                px, pxi = stft(f, gauss_window, tf_classify).max_profiles()
            for idx in CATALOG_SPACES:
                on_x = math.isinf(idx.sigma)
                s = idx.s if on_x else idx.sigma
                if through_stft:
                    decay, poly = (px, pxi) if on_x else (pxi, px)
                    masked = True
                else:
                    decay, poly = (f, dft(f)) if on_x else (dft(f), f)
                    masked = not on_x
                r = _r_star(decay, s, masked).value
                # Roumieu reads r/2 at r_scale = 2r, Beurling 2r at r/2
                straddle = (2 * r, r / 2) if 0 < r < math.inf else (1.0,)
                for opts in (ClassifyOptions(),
                             ClassifyOptions(n_max=4, r_scale=0.5),
                             *(ClassifyOptions(n_max=4, r_scale=k)
                               for k in straddle)):
                    beurling = idx.regularity == "beurling"
                    mask = _floor(decay) if masked else None
                    with np.errstate(over="ignore"):
                        w = np.abs(decay.x) ** (1.0 / s)
                    want = _flags_reference(decay, w, opts.trial_rs(), mask,
                                            beurling)
                    got, _ = _side(decay, s, _rate(opts, beurling), masked)
                    assert got == want, (spec, idx, opts)
                    want = _flags_reference(poly, np.log1p(poly.x**2),
                                            range(opts.n_max + 1),
                                            _floor(poly), True)
                    got, _ = _side(poly, None, opts.n_max, True)
                    assert got == want, (spec, idx, opts)


def _leads(fn, w, floor, k):
    """(a good sample attains the max of log|fn| + k w, the first bad
    argmax, whether it is a masked edge), by brute force."""
    a = np.abs(fn.values)
    n = a.size
    ok = a > 0
    edge = np.zeros(n, dtype=bool)
    if floor is not None:
        mask = a >= floor * a.max()
        ok &= mask
        edge[1:] |= ~mask[:-1]
        edge[:-1] |= ~mask[1:]
        edge[:GUARD] = edge[n - GUARD:] = False
    bad = np.zeros(n, dtype=bool)
    bad[:GUARD] = bad[n - GUARD:] = True
    bad = (bad | edge) & ok
    with np.errstate(divide="ignore"):
        v = np.log(a) + k * w
    top_good = v[ok & ~bad].max(initial=-np.inf)
    if not bad.any():
        return True, None, False
    i = np.flatnonzero(bad)[np.argmax(v[bad])]
    return top_good >= v[i], i, bool(edge[i])


class TestCriticalScale:
    def test_first_scale_where_a_bad_sample_leads(self):
        # Independent oracle on random samples, zeros, ties, off-centre
        # grids, masks and both weights: a good sample leads at every
        # scale up to k* (from 0 under a floor, from -inf without one),
        # and the bound sample just above it
        rng = np.random.default_rng(20261018)
        for _ in range(600):
            n = int(rng.integers(3, 30))
            g = Grid1D(float(rng.choice([0.0, rng.normal()])),
                       float(rng.uniform(0.1, 2.0)), n)
            vals = np.exp(rng.normal(0.0, 3.0, n)) * (rng.random(n) > 0.15)
            if rng.random() < 0.3:
                vals = np.round(vals, 1)  # equal samples
            fn = SampledFunction(g, vals)
            w = (np.abs(g.coords) ** rng.choice([0.5, 1.0, 2.0, 3.0])
                 if rng.random() < 0.7 else np.log1p(g.coords**2))
            floor = (None if rng.random() < 0.4
                     else float(rng.choice([0.0, 1e-3, 0.1, 0.5])))
            crit = _critical(fn, w, floor)
            k = crit.value
            if k == math.inf:
                assert all(_leads(fn, w, floor, t)[0]
                           for t in (-1e4, -50.0, -3.0, -0.5, 0.0, 0.5, 3.0,
                                     50.0, 1e4) if floor is None or t >= 0)
            elif k < 0 and floor is not None:
                assert not _leads(fn, w, floor, 0.0)[0], crit
            elif k == -math.inf:
                assert not _leads(fn, w, floor, -1e9)[0], crit
            else:
                d = 1e-7 * max(1.0, abs(k))
                lo = 0.0 if floor is not None else k - 1e3 * max(1.0, -k)
                assert all(_leads(fn, w, floor, t)[0]
                           for t in np.linspace(lo, max(k - d, lo), 40))
                good, i, edge = _leads(fn, w, floor, k + d)
                assert not good, crit
                assert (crit.bound_at, crit.masked_edge) == (g.coords[i],
                                                             edge), crit

    def test_a_tie_goes_to_the_interior(self):
        # |f| = 1 everywhere: the N = 0 sup is attained inside as well as
        # at the rim, so N* = 0 and n_max = 0 passes, n_max = 1 does not
        f = SampledFunction(Grid1D(0.0, 1.0, 9), np.ones(9))
        side, crit = _side(f, None, 0, True)
        assert (side, crit.value) == ((True, False), 0.0)
        assert _side(f, None, 1, True)[0] == (False, False)
        # a rate equal to r* passes too
        g = catalog_eval(Gaussian(1.0), ODD_GRID)
        assert _side(g, 0.5, _r_star(g, 0.5).value, False)[0] == (True, False)


@pytest.fixture(scope="module")
def grid():
    return build_grid(12.0, 11)


@pytest.fixture(scope="module")
def opts():
    return ClassifyOptions(n_max=4, r_scale=0.5)


class TestClassifyFunction:

    def test_gaussian_in_gaussian_classes(self, grid, opts):
        f = catalog_eval(Gaussian(1.0), grid)
        for idx in (roumieu(s=0.5), roumieu(s=1.0), beurling(s=1.0),
                    roumieu(sigma=0.5)):
            assert classify_function(f, idx, opts).verdict == MEMBER

    def test_gaussian_fails_smaller_beurling_class(self, grid, opts):
        # exp(-x^2/2) has exactly rate 1/2 at s = 1/2; the Beurling class
        # there demands every rate, including ones it cannot meet.
        f = catalog_eval(Gaussian(1.0), grid)
        assert classify_function(f, beurling(s=0.5), opts).verdict == NOT_MEMBER

    def test_wide_gaussian_rejected_everywhere(self, grid, opts):
        f = catalog_eval(Gaussian(0.001), grid)
        for idx in (roumieu(s=0.5), roumieu(s=1.0), beurling(s=1.0),
                    roumieu(sigma=0.5)):
            assert classify_function(f, idx, opts).verdict == NOT_MEMBER

    def test_bump_is_member_below_fourier_line(self, grid, opts):
        # Compact support: any decay index; transform decays like a
        # sub-exponential of index 1 but no faster.
        f = catalog_eval(Bump(), grid)
        assert classify_function(f, roumieu(s=0.5), opts).verdict == MEMBER
        assert classify_function(f, beurling(s=1.0), opts).verdict == MEMBER
        assert classify_function(f, roumieu(sigma=0.5), opts).verdict == NOT_MEMBER

    def test_modulation_preserves_decay_side(self, grid, opts):
        f = catalog_eval(Modulate(Gaussian(1.0), 3.0), grid)
        assert classify_function(f, roumieu(s=0.5), opts).verdict == MEMBER
        assert classify_function(f, beurling(s=1.0), opts).verdict == MEMBER

    def test_zero_function_is_member(self, grid, opts):
        f = SampledFunction(grid, np.zeros(grid.count))
        rep = classify_function(f, roumieu(s=0.5), opts)
        assert (rep.verdict, rep.C_peak) == (MEMBER, 0.0)
        assert rep.r_star.value == rep.N_star.value == math.inf
        # The zero function is answered before the index is checked.
        two = classify_function(f, GSIndex(0.5, 0.5, "roumieu"), opts)
        assert two.verdict == MEMBER

    def test_rejects_two_parameter_index(self, grid, opts):
        f = catalog_eval(Gaussian(1.0), grid)
        with pytest.raises(GstfError):
            classify_function(f, GSIndex(1.0, 1.0, "roumieu"), opts)

    def test_scaling_invariance(self, grid, opts):
        # Membership is scale-free: c*f classifies like f.
        base = catalog_eval(Gaussian(1.0), grid)
        for c in (1e-6, 1.0, 1e6):
            rep = classify_function(base * c, roumieu(s=0.5), opts)
            assert rep.verdict == MEMBER

    def test_smaller_class_embeds_in_larger(self, grid, opts):
        # Any member at (roumieu, s=1/2) is a member at (beurling, s=1).
        for spec in (Gaussian(1.0), Gaussian(0.5), Bump(),
                     Modulate(Gaussian(1.0), 3.0)):
            f = catalog_eval(spec, grid)
            if classify_function(f, roumieu(s=0.5), opts).verdict == MEMBER:
                assert classify_function(f, beurling(s=1.0),
                                         opts).verdict == MEMBER

    def test_catalog_verdict_snapshot(self, grid, opts):
        got = {str(spec): [classify_function(catalog_eval(spec, grid), idx,
                                             opts).verdict
                           for idx in CATALOG_SPACES]
               for spec in CATALOG_SPECS}
        assert got == CATALOG_DIRECT_VERDICTS

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2, the aliased kink: the FFT of the kink dips near "
        "Nyquist, so every C_N peaks clear of the guard band"))
    def test_kink_is_outside_s1(self, grid10):
        # exp(-|x|) has the transform 2/(1+xi^2): times (1+xi^2)^N it is
        # unbounded for every N >= 2
        f = catalog_eval(SubExp(1.0, 1.0), grid10)
        assert classify_function(f, roumieu(s=1.0)).verdict == NOT_MEMBER

    def test_report_carries_critical_scales(self, grid, opts):
        f = catalog_eval(Gaussian(1.0), grid)
        rep = classify_function(f, beurling(s=1.0), opts)
        # exp(-x^2/2) against exp(r|x|) holds to about the rim's |x|
        assert rep.r_star.value > 11.0
        assert abs(rep.r_star.bound_at) >= abs(grid.coords[GUARD - 1])
        # its transform, polynomially, until the samples reach the floor
        assert rep.N_star.value > opts.n_max and rep.N_star.masked_edge
        assert rep.C_peak == pytest.approx(1.0, abs=1e-4)

class TestClassifyStft:
    def test_agrees_with_direct_on_core_functions(self, grid11, tf_classify,
                                                  classify_opts, gauss_window):
        v_cache = {}
        for spec in (Gaussian(1.0), Gaussian(0.001), Bump(), Hermite(2)):
            f = catalog_eval(spec, grid11)
            v = stft(f, gauss_window, tf_classify)
            for idx in (roumieu(s=0.5), beurling(s=1.0), roumieu(sigma=0.5)):
                direct = classify_function(f, idx, classify_opts).verdict
                via_stft = classify_stft(f, gauss_window, idx, tf_classify,
                                         classify_opts, check_window=False,
                                         precomputed=v).verdict
                assert direct == via_stft, (spec, idx)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2, the rate floor: |V|'s x-profile decays at rate "
        "1/6, below the smallest default trial rate 1/4"))
    def test_narrow_gaussian_is_member_through_the_stft(
            self, grid11, tf_classify, gauss_window):
        # exp(-x^2/4) lies in S_1/2, and its direct verdict says so
        f = catalog_eval(Gaussian(0.5), grid11)
        rep = classify_stft(f, gauss_window, roumieu(s=0.5), tf_classify)
        assert rep.verdict == MEMBER

    def test_rejects_window_outside_class(self, grid11, tf_classify,
                                          classify_opts):
        f = catalog_eval(Gaussian(1.0), grid11)
        w = catalog_eval(Gaussian(0.001), grid11)  # too wide for the class
        for report in (classify_stft, dual_growth_report):
            with pytest.raises(GstfError) as err:
                report(f, w, roumieu(s=0.5), tf_classify, classify_opts)
            assert str(err.value) == (
                "the window is NotMember for the requested class; "
                "pick a window inside the class")

    def test_rejects_zero_window(self, grid11, tf_classify):
        # V of a zero window vanishes, and its zero profiles would pass
        # every side: x^3 is not in S_1/2
        f = catalog_eval(Poly(3), grid11)
        zero = SampledFunction(grid11, np.zeros(grid11.count))
        v = stft(f, zero, tf_classify)
        for report in (classify_stft, dual_growth_report):
            for kw in ({}, {"check_window": False},
                       {"check_window": False, "precomputed": v}):
                with pytest.raises(GstfError) as err:
                    report(f, zero, roumieu(s=0.5), tf_classify, **kw)
                assert str(err.value) == "the window is zero on the grid"

    def test_window_choice_does_not_change_verdicts(self):
        # Verdicts are a property of f, not of the analyzing window, except
        # for oscillating f in transform-decay classes where the marginal
        # profile peak can migrate with the window width.
        grid = build_grid(12.0, 12)
        tf = TFGrid(Grid1D(0.0, 8 * grid.step, 513), Grid1D(0.0, 0.5, 1001))
        opts = ClassifyOptions(n_max=4, r_scale=0.5)
        w1 = catalog_eval(Gaussian(1.0), grid)
        w2 = catalog_eval(Gaussian(2.0), grid)
        for spec in (Gaussian(1.0), Gaussian(0.5), Bump(),
                     Translate(Gaussian(1.0), 1.5),
                     Modulate(Gaussian(1.0), 3.0), SubExp(2.0, 1.0)):
            f = catalog_eval(spec, grid)
            v1 = stft(f, w1, tf)
            v2 = stft(f, w2, tf)
            for idx in (roumieu(s=0.5), roumieu(s=1.0), beurling(s=1.0),
                        roumieu(sigma=0.5)):
                a = classify_stft(f, w1, idx, tf, opts, check_window=False,
                                  precomputed=v1).verdict
                b = classify_stft(f, w2, idx, tf, opts, check_window=False,
                                  precomputed=v2).verdict
                assert a == b, (spec, idx)

    @pytest.mark.parametrize("report", [classify_stft, dual_growth_report])
    def test_zero_function_is_member(self, grid10, tf_small, report):
        # |V| = 0: no sample ever takes a sup, on either side
        f = SampledFunction(grid10, np.zeros(grid10.count))
        w = catalog_eval(Gaussian(1.0), grid10)
        for idx in (roumieu(s=0.5), beurling(sigma=1.0)):
            rep = report(f, w, idx, tf_small)
            assert (rep.verdict, rep.C_peak) == (MEMBER, 0.0)
            assert rep.r_star.value == rep.N_star.value == math.inf

    @pytest.mark.parametrize("report, verdict", [
        (classify_stft, NOT_MEMBER), (dual_growth_report, MEMBER)],
        ids=["classify_stft", "dual_growth_report"])
    def test_precomputed_is_not_read(self, grid11, gauss_window, report,
                                     verdict):
        # The verdict reads f's own V only: x^2 is not in S_1, whatever
        # transform comes with it, another function's or one on another
        # tfgrid
        tf = classify_tfgrid(grid11)
        args = (gauss_window, roumieu(s=1.0), tf)
        want = report(catalog_eval(Poly(2), grid11), *args)
        assert want.verdict == verdict
        f = catalog_eval(Poly(2), grid11)
        for v in (stft(catalog_eval(Gaussian(1.0), grid11), gauss_window, tf),
                  stft(f, gauss_window, phase_space_grid(grid11))):
            assert repr(report(f, *args, precomputed=v)) == repr(want)


    @pytest.mark.parametrize("report", [classify_stft, dual_growth_report])
    def test_rejects_two_parameter_index_unchecked_window(self, grid10,
                                                          report):
        # S_0.3^0.3 is {0}: a verdict read off one side would answer
        # another question, with or without the window check
        f = catalog_eval(Gaussian(1.0), grid10)
        tf = classify_tfgrid(grid10)
        for v in (None, stft(f, f, tf)):
            with pytest.raises(GstfError, match="one-parameter spaces"):
                report(f, f, GSIndex(0.3, 0.3, "roumieu"), tf,
                       check_window=False, precomputed=v)


class TestSharedWork:
    """Every class asked of one function reads the transform, magnitudes
    and tables computed once on it; the reports must not show it."""

    @pytest.mark.parametrize("exponent", [10, 11])
    @pytest.mark.parametrize("through_stft", [False, True])
    def test_reports_equal_those_of_fresh_copies(self, exponent,
                                                 through_stft):
        g = build_grid(12.0, exponent)
        tf = classify_tfgrid(g)
        win = catalog_eval(Gaussian(1.0), g)

        def report(f, v, idx):
            if through_stft:
                return classify_stft(f, win, idx, tf, check_window=False,
                                     precomputed=v)
            return classify_function(f, idx)

        for spec in CATALOG_SPECS:
            f = catalog_eval(spec, g)
            v = stft(f, win, tf) if through_stft else None
            fresh = [report(catalog_eval(spec, g),
                            None if v is None else TFR(tf, v.values.copy()),
                            idx)
                     for idx in CATALOG_SPACES]
            for order in (1, -1):
                # one sampled function (and one STFT) for all four classes
                f1 = catalog_eval(spec, g)
                v1 = None if v is None else TFR(tf, v.values.copy())
                shared = {idx: report(f1, v1, idx)
                          for idx in CATALOG_SPACES[::order]}
                assert [shared[idx] for idx in CATALOG_SPACES] == fresh, (
                    spec, order)

    def test_four_classes_run_one_fft(self, grid10, monkeypatch):
        calls = []
        fft = transforms._phase_fft
        monkeypatch.setattr(transforms, "_phase_fft",
                            lambda *a: calls.append(a[-1]) or fft(*a))
        f = catalog_eval(Hermite(2), grid10)
        for idx in CATALOG_SPACES:
            classify_function(f, idx)
        assert calls == ["dft"]
        assert dft(f) is dft(f)

    def test_reports_share_only_frozen_records(self, grid10):
        f = catalog_eval(Gaussian(1.0), grid10)
        first = classify_function(f, roumieu(s=1.0))
        second = classify_function(f, beurling(s=1.0))
        assert (first.r_star, first.N_star) == (second.r_star, second.N_star)
        with pytest.raises(AttributeError):
            first.r_star.value = 0.0
        with pytest.raises(AttributeError):
            first.verdict = NOT_MEMBER
        assert [type(getattr(first, name)) for name in first._fields] == [
            float, CriticalScale, CriticalScale, str]


class TestErrorStateScope:
    """The verdict kernel silences numpy's floating-point errors in a scope
    of its own, entered and left on every call: a verdict leaves the
    caller's error state as it found it, also when it raises."""

    @staticmethod
    def _calls(grid):
        win = catalog_eval(Gaussian(1.0), grid)

        def fresh():  # a new carrier, so no memo skips the kernel
            return catalog_eval(Sum(Hermite(2), Bump()), grid)

        def two_parameter():
            with pytest.raises(GstfError):
                classify_function(fresh(), GSIndex(0.5, 0.5, "roumieu"))

        def inside_the_kernel():
            with pytest.raises(AttributeError):
                _critical(None, np.abs(grid.coords), FLOOR)

        return {
            "classify_function": lambda: classify_function(
                fresh(), roumieu(s=0.5)),
            "classify_stft": lambda: classify_stft(
                fresh(), win, roumieu(s=0.5), classify_tfgrid(grid)),
            "boundary_triviality_demo": lambda: boundary_triviality_demo(0.4),
            "two_parameter": two_parameter,
            "inside_the_kernel": inside_the_kernel,
        }

    @pytest.mark.parametrize("call", ["classify_function", "classify_stft",
                                      "boundary_triviality_demo",
                                      "two_parameter", "inside_the_kernel"])
    @pytest.mark.parametrize("state", [None, "raise"])
    def test_a_verdict_leaves_the_error_state_unchanged(self, grid, call,
                                                        state):
        # the default state, and one that raises on every error but the
        # underflows the transforms make
        with np.errstate(**({} if state is None else
                            dict(divide=state, over=state, invalid=state))):
            before = np.geterr()
            self._calls(grid)[call]()
            assert np.geterr() == before


class TestStreamedVerdicts:
    """Without ``precomputed``, classify_stft and dual_growth_report reduce
    the max-profiles from the STFT engine's row blocks, and keep them in
    f's memo per window object and tfgrid: neither V nor |V| is held."""

    @pytest.mark.parametrize("spec", CATALOG_SPECS, ids=repr)
    def test_reports_equal_those_of_a_precomputed_stft(
            self, grid11, tf_classify, classify_opts, gauss_window, spec):
        whole = catalog_eval(spec, grid11)
        v = stft(whole, gauss_window, tf_classify)
        streamed = catalog_eval(spec, grid11)
        for report in (classify_stft, dual_growth_report):
            for idx in CATALOG_SPACES:
                args = (gauss_window, idx, tf_classify, classify_opts)
                assert (report(streamed, *args, check_window=False)
                        == report(whole, *args, check_window=False,
                                  precomputed=v)), (report.__name__, idx)

    def test_one_engine_pass_per_window_object(self, grid11, tf_classify,
                                               gauss_window, monkeypatch):
        windows, real = [], transforms._stft_blocks
        monkeypatch.setattr(transforms, "_stft_blocks",
                            lambda *a: windows.append(a[1]) or real(*a))
        f = catalog_eval(Hermite(2), grid11)
        for idx in CATALOG_SPACES:
            classify_stft(f, gauss_window, idx, tf_classify)
            dual_growth_report(f, gauss_window, idx, tf_classify)
        assert len(windows) == 1 and windows[0] is gauss_window
        twin = SampledFunction(grid11, gauss_window.values)
        for idx in CATALOG_SPACES:
            classify_stft(f, twin, idx, tf_classify)
        assert len(windows) == 2 and windows[1] is twin

    def test_kept_stft_makes_no_second_pass(self, grid11, tf_classify,
                                            gauss_window, monkeypatch):
        # the verdicts read the max-profiles of the V that stft kept in f's
        # memo, the same bits as a fresh carrier's streamed profiles
        passes, real = [], transforms._stft_blocks
        monkeypatch.setattr(transforms, "_stft_blocks",
                            lambda *a: passes.append(a) or real(*a))
        f = catalog_eval(Hermite(2), grid11)
        stft(f, gauss_window, tf_classify)
        reports = [report(f, gauss_window, idx, tf_classify)
                   for report in (classify_stft, dual_growth_report)
                   for idx in CATALOG_SPACES]
        assert len(passes) == 1
        fresh = catalog_eval(Hermite(2), grid11)
        assert repr(reports) == repr([
            report(fresh, gauss_window, idx, tf_classify)
            for report in (classify_stft, dual_growth_report)
            for idx in CATALOG_SPACES])
        assert len(passes) == 2
        # the benchmark's call shape: stft, then each verdict passed its V
        f = catalog_eval(Hermite(2), grid11)
        v = stft(f, gauss_window, tf_classify)
        assert repr([report(f, gauss_window, idx, tf_classify,
                            check_window=False, precomputed=v)
                     for report in (classify_stft, dual_growth_report)
                     for idx in CATALOG_SPACES]) == repr(reports)
        assert len(passes) == 3

    @staticmethod
    def traced_peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_streamed_verdict_holds_neither_v_nor_its_magnitude(
            self, grid11, tf_classify, gauss_window, monkeypatch):
        # The engine's block buffers share a fixed budget and the profiles
        # are reduced in one scratch of a few rows, at any CPU count.
        idx = roumieu(s=0.5)
        v_bytes = 16 * tf_classify.xgrid.count * tf_classify.xigrid.count
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
            classify_stft(catalog_eval(Hermite(1), grid11), gauss_window,
                          idx, tf_classify)  # the plan and the pool are made
            f = catalog_eval(Hermite(2), grid11)
            peak = self.traced_peak(
                lambda: classify_stft(f, gauss_window, idx, tf_classify))
            assert peak < v_bytes / 2, cpus

    def test_tfr_max_profiles_does_not_hold_the_magnitude(
            self, grid11, tf_classify, gauss_window):
        f = catalog_eval(Hermite(2), grid11)
        v = stft(f, gauss_window, tf_classify)
        abs_bytes = 8 * v.values.size
        assert self.traced_peak(v.max_profiles) < abs_bytes


def _dual_growth_reference(v, idx, opts):
    """The verdict of dual_growth_report on a precomputed STFT as it was
    written before it read the max-profiles: one full logv array and
    argmax per (r, N0), and N0 <= n_max found where that argmax lies off
    the guard band."""
    a = np.abs(v.values)
    tfgrid = v.tfgrid
    with np.errstate(over="ignore"):
        if math.isinf(idx.sigma):
            decay_x = np.abs(tfgrid.xgrid.coords)[:, None] ** (1.0 / idx.s)
            logpoly = np.log1p(tfgrid.xigrid.coords**2)[None, :]
        else:
            decay_x = np.abs(tfgrid.xigrid.coords)[None, :] ** (1.0 / idx.sigma)
            logpoly = np.log1p(tfgrid.xgrid.coords**2)[:, None]
    interior = np.zeros(a.shape, dtype=bool)
    interior[GUARD:a.shape[0] - GUARD, GUARD:a.shape[1] - GUARD] = True
    flat_interior = interior.ravel()
    with np.errstate(divide="ignore"):
        loga = np.log(a)
    found = []
    for r in opts.trial_rs():
        ok = False
        for n0 in range(opts.n_max + 1):
            with np.errstate(over="ignore"):
                logv = loga - n0 * logpoly - r * decay_x
            if not np.any(np.isfinite(logv)) or flat_interior[np.argmax(logv)]:
                ok = True
                break
        found.append(ok)
    member = all(found) if idx.regularity == "roumieu" else any(found)
    return MEMBER if member else NOT_MEMBER


# Catalog functions and growing ones: exp(3|x|), exp(x^2) and x^4.
DUAL_FUNCTIONS = (Gaussian(1.0), Hermite(3), Product(Poly(2), Gaussian(1.0)),
                  Translate(Gaussian(1.0), 1.5), Modulate(Gaussian(1.0), 3.0),
                  Bump(), SubExp(2.0, 1.0), Poly(2), SubExp(1.0, -3.0),
                  SubExp(0.5, -1.0), Poly(4))
DUAL_INDICES = tuple(
    idx for v in (0.5, 1.0, 2.0) for idx in
    (roumieu(s=v), beurling(s=v), roumieu(sigma=v), beurling(sigma=v))) + (
    roumieu(s=1e-300), beurling(sigma=1e-300))
# (Roumieu options, Beurling options): the last pair reads the rates 0.01
# = 0.25 * 0.04 and 100 = 4 * 25.
DUAL_OPTIONS = ((ClassifyOptions(),) * 2, (ClassifyOptions(n_max=0),) * 2,
                (ClassifyOptions(n_max=12, r_scale=0.04),
                 ClassifyOptions(n_max=12, r_scale=25.0)))


class TestDualGrowth:
    @pytest.mark.parametrize("points, xs, xsteps, xis, xistep", [
        (2048, 513, 4, 1001, 0.5),
        (1024, 129, 8, 129, 0.25),
        (1024, 128, 8, 128, None),  # the product-transform grid
    ])
    def test_verdicts_match_reference(self, points, xs, xsteps, xis,
                                      xistep):
        grid = build_grid(12.0, points.bit_length() - 1)
        xistep = xistep or 2 * np.pi / (points * grid.step)
        tf = TFGrid(Grid1D(0.0, xsteps * grid.step, xs),
                    Grid1D(0.0, xistep, xis))
        fns = [catalog_eval(spec, grid) for spec in DUAL_FUNCTIONS]
        fns.append(SampledFunction(grid, np.zeros(grid.count)))
        windows = [catalog_eval(Gaussian(a), grid) for a in (1.0, 2.0)]
        cases = list(itertools.product(range(2), range(len(fns)),
                                       DUAL_INDICES, DUAL_OPTIONS))
        if xs * xis > 100000:
            # The reference makes full passes over the 513 x 1001 array.
            # A stride coprime to 3 options x 14 indices still meets every
            # (index, options) pair.
            cases = cases[::11]
        stfts = {}
        for wi, k, idx, pair in cases:
            opts = pair[idx.regularity == "beurling"]
            f, w = fns[k], windows[wi]
            if (wi, k) not in stfts:
                stfts[wi, k] = stft(f, w, tf)
            v = stfts[wi, k]
            got = dual_growth_report(f, w, idx, tf, opts, check_window=False,
                                     precomputed=v)
            assert got.verdict == _dual_growth_reference(v, idx, opts), (
                k, wi, idx, opts)

    def test_no_finite_weighted_value_is_trivially_bounded(self, tf_small):
        # |V| vanishes for |x| <= 1 and the weight is infinite beyond, so
        # no weighted value is finite.  Every bound holds trivially: |V|
        # vanishes on the guard band too, so no sample there ever takes
        # the sup (r* = inf), and N0 = 0 suffices (N* >= 0).
        grid = build_grid(12.0, 10)
        f = catalog_eval(Translate(Bump(), 5.0), grid)
        w = catalog_eval(Bump(), grid)
        v = stft(f, w, tf_small)
        rep = dual_growth_report(f, w, roumieu(s=1e-300), tf_small,
                                 ClassifyOptions(), check_window=False,
                                 precomputed=v)
        assert rep.verdict == MEMBER
        assert rep.r_star.value == math.inf
        assert rep.N_star.value >= 0

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: the x-profile of |V| of the truncated exp(x^2) "
        "peaks at x = -11.91, just inside the guard band, so its critical "
        "scales lie just below 0 (r* = -0.0012 at s = 1/2, N* = -0.17) "
        "and pass every dual's mirrored threshold"))
    def test_gaussian_growth_is_outside_every_dual(
            self, grid11, tf_classify, classify_opts, gauss_window):
        # exp(x^2) outgrows exp(r|x|^(1/s)) at s = 1/2 for r < 1, at s = 1
        # for every r, and every polynomial at sigma = 1/2
        f = catalog_eval(SubExp(0.5, -1.0), grid11)
        verdicts = [dual_growth_report(f, gauss_window, idx, tf_classify,
                                       classify_opts).verdict
                    for idx in CATALOG_SPACES]
        assert verdicts == [NOT_MEMBER] * len(CATALOG_SPACES)

    def test_class_member_is_also_dual_element(self, grid11, tf_classify,
                                               classify_opts, gauss_window):
        f = catalog_eval(Gaussian(1.0), grid11)
        for idx in (roumieu(s=0.5), beurling(s=1.0)):
            rep = dual_growth_report(f, gauss_window, idx, tf_classify,
                                     classify_opts)
            assert rep.verdict == MEMBER
            assert rep.N_star.value >= 0  # N0 = 0 suffices

    def test_polynomial_times_gaussian_is_dual_element(self, grid11,
                                                       tf_classify,
                                                       classify_opts,
                                                       gauss_window):
        # x^2 exp(-x^2/2) sits in the dual: polynomial growth is allowed.
        f = catalog_eval(Product(Poly(2), Gaussian(1.0)), grid11)
        rep = dual_growth_report(f, gauss_window, roumieu(s=0.5), tf_classify,
                                 classify_opts)
        assert rep.verdict == MEMBER


class TestWeightBase:
    """Every verdict on a grid reads the one weight base the grid keeps, so
    that none may write to it."""

    SPECS = (Gaussian(1.0), Hermite(2), Translate(Bump(), 1.3),
             SubExp(1.0, 1.0))
    CLASSES = (roumieu(s=0.5), roumieu(s=1.0), beurling(s=1.0),
               roumieu(sigma=0.5), roumieu(s=0.7))

    def _reports(self, specs, shared):
        grid = build_grid(12.0, 9)
        out = {}
        for spec in specs:
            f = catalog_eval(spec, grid if shared else build_grid(12.0, 9))
            for idx in self.CLASSES:
                out[str(spec), idx] = repr(classify_function(f, idx))
        return out

    def test_verdicts_on_one_grid_agree_in_either_order(self):
        want = self._reports(self.SPECS, shared=False)
        assert self._reports(self.SPECS, shared=True) == want
        assert self._reports(self.SPECS[::-1], shared=True) == want

    def test_base_is_unchanged_by_the_verdicts(self):
        grid = build_grid(12.0, 9)
        base = grid._reach[0].copy()
        for spec in self.SPECS:
            f = catalog_eval(spec, grid)
            for idx in self.CLASSES:
                classify_function(f, idx)
        assert np.array_equal(grid._reach[0], base)
        assert np.array_equal(grid.dual()._reach[0],
                              np.abs(grid.dual().coords)
                              / np.abs(grid.dual().coords).max())
