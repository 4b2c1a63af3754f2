import itertools
import math

import numpy as np
import pytest

from gstf import (INCONCLUSIVE, MEMBER, NOT_MEMBER, Bump, ClassifyOptions,
                  GSIndex, Gaussian, Grid1D, GstfError, Hermite, Modulate,
                  Poly, Product, SampledFunction, SubExp, Sum, TFGrid, TFR,
                  Translate, build_grid, catalog_eval, classify_function,
                  classify_stft, dft, dual_growth_report, fit_decay_rate,
                  stft, transforms)
from gstf.classify import (GUARD, EnvelopeFit, EnvelopeReport, _decay_side,
                           _poly_side)
from gstf.checks import CATALOG_SPACES, CATALOG_SPECS, classify_tfgrid

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

    def test_one_parameter_flag(self):
        assert roumieu(s=1.0).one_parameter
        assert not GSIndex(1.0, 1.0, "roumieu").one_parameter


class TestClassifyOptions:
    @pytest.mark.parametrize("kw", [
        {"n_max": -1}, {"n_max": 2.5}, {"r_scale": -0.5}, {"r_scale": math.inf},
        {"r_list": (1.0, math.nan)}, {"r_list": (0.0,)},
        {"floor_rel": math.nan}, {"floor_rel": -1e-13}, {"floor_rel": 1.0},
        {"n_max": 17},  # the polynomial weights' bound
    ])
    def test_rejects_values_that_make_a_side_vacuous(self, kw):
        with pytest.raises(GstfError):
            ClassifyOptions(**kw)

    def test_accepts_range_endpoints(self):
        opts = ClassifyOptions(n_max=0, floor_rel=0.0, r_list=(1e-300,))
        assert opts.trial_rs() == (1e-300,)
        assert ClassifyOptions(n_max=16).n_max == 16


def _rate_fit(f, r, s, masked=False):
    """The one-rate table of the decay side: the envelope sup of
    |f(x)| exp(r |x|^(1/s))."""
    _, _, table = _decay_side(f, s, ClassifyOptions(r_list=(r,)),
                              beurling=True, masked=masked)
    return table[r]


class TestSupEnvelopeConstant:
    """The sup C of one rate's envelope, read from the decay side."""

    def test_matches_brute_force(self):
        # Independent oracle: direct max over weighted samples.
        f = catalog_eval(Gaussian(1.0), ODD_GRID)
        for r, s in [(0.1, 0.5), (0.25, 1.0), (0.5, 2.0)]:
            fit = _rate_fit(f, r, s)
            brute = np.max(np.abs(f.values)
                           * np.exp(r * np.abs(f.x) ** (1.0 / s)))
            assert fit.C == pytest.approx(brute, rel=1e-12)

    def test_interior_attainment_flag(self):
        f = catalog_eval(Gaussian(1.0), ODD_GRID)
        # Weight weaker than the decay: sup sits at the origin, interior.
        assert _rate_fit(f, 0.1, 1.0).interior_attained
        # Weight overwhelming the decay: exp(x^2) beats exp(-x^2/2), the
        # sup climbs to the truncation rim.
        fit = _rate_fit(f, 1.0, 0.5)
        assert not fit.interior_attained
        assert fit.attained_at in (0, ODD_GRID.count - 1)

    def test_overflow_reports_inf_constant(self):
        f = catalog_eval(Gaussian(1.0), ODD_GRID)
        fit = _rate_fit(f, 200.0, 0.25)
        assert math.isinf(fit.C)

    def test_floor_masks_noise_tail(self):
        # A synthetic noise floor under an unbounded weight would fake a
        # boundary sup; masking it keeps the argmax where the signal is.
        vals = np.exp(-0.5 * ODD_GRID.coords**2) + 1e-16
        f = SampledFunction(ODD_GRID, vals)
        unmasked = _rate_fit(f, 1.0, 0.5)
        masked = _rate_fit(f, 1.0, 0.5, masked=True)
        assert not unmasked.interior_attained
        assert masked.interior_attained
        assert masked.masked_edge  # still rising when the data runs out

    def test_rejects_bad_s(self):
        f = catalog_eval(Gaussian(1.0), ODD_GRID)
        with pytest.raises(GstfError):
            _rate_fit(f, 1.0, 0.0)

    def test_zero_sample_under_infinite_weight_is_not_the_sup(self):
        # x^2 overflows at the rim, where 0 * exp(inf) is 0, not nan
        f = SampledFunction(Grid1D(0.0, 1e154, 5), [0.0, 1.0, 1.0, 1.0, 0.0])
        fit = _rate_fit(f, 1e-306, 0.5)
        assert fit.attained_at == 1
        assert fit.C == pytest.approx(math.exp(100.0), rel=1e-12)


class TestFitDecayRate:
    def test_gaussian_oracle(self):
        # exp(-x^2/2) = exp(-0.5 |x|^(1/s)) at s = 1/2, so r = 0.5 exactly.
        f = catalog_eval(Gaussian(1.0), ODD_GRID)
        assert fit_decay_rate(f, 0.5) == pytest.approx(0.5, abs=1e-9)

    def test_subexp_oracle(self):
        f = catalog_eval(SubExp(1.0, 2.0), ODD_GRID)
        assert fit_decay_rate(f, 1.0) == pytest.approx(2.0, abs=1e-9)

    def test_wrong_exponent_underestimates(self):
        # Reading a gaussian at s = 1 fits the envelope at the grid edge.
        f = catalog_eval(Gaussian(1.0), ODD_GRID)
        r = fit_decay_rate(f, 1.0)
        assert 0.0 < r < 0.5

    def test_no_qualifying_sample_gives_inf(self):
        # All mass within one step of the origin: nothing to fit against.
        vals = np.zeros(ODD_GRID.count)
        vals[512] = 1.0
        r = fit_decay_rate(SampledFunction(ODD_GRID, vals), 1.0)
        assert math.isinf(r)

    def test_noise_floor_is_1e_13_of_the_peak(self):
        # 9e-14 at |x| = 2 lies under the floor and would bound r by
        # -log(9e-14)/2; 2e-13 at |x| = 1 lies over it and decides
        f = SampledFunction(Grid1D(0.0, 1.0, 5), [0.0, 2e-13, 1.0, 0.0, 9e-14])
        assert fit_decay_rate(f, 1.0) == pytest.approx(-math.log(2e-13),
                                                       rel=1e-12)

    def test_zero_function_gives_inf(self):
        f = SampledFunction(ODD_GRID, np.zeros(ODD_GRID.count))
        assert math.isinf(fit_decay_rate(f, 1.0))

    def test_peak_with_underflowing_weight_bounds_rate_by_zero(self):
        # |x|^(1/s) underflows to 0 at the peak, one step from the origin:
        # its true weight is positive, so the ratio 0/0 has the limit 0
        f = SampledFunction(Grid1D(0.0, 1e-78, 5), [0.5, 1.0, 0.9, 0.5, 0.25])
        assert fit_decay_rate(f, 1e-2) == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_weight_gives_inf_rate(self):
        # |x|^(1/s) = 1e-3^104 is subnormal: log 2 over it overflows to
        # inf, the limit of the ratio, without a numpy warning
        f = SampledFunction(Grid1D(0.0, 1e-3, 3), [0.5, 1.0, 0.5])
        assert math.isinf(fit_decay_rate(f, 1.0 / 104))

    def test_monotone_nondecreasing_in_s_on_outer_samples(self):
        # For samples with |x| >= 1 the weight |x|^(1/s) shrinks as s grows,
        # so the fitted rate cannot drop when its argmin stays outside |x| < 1.
        # Restricted to s <= 2 so the argmin of |x|^(1/2 - 1/s) stays at
        # the far end of the grid rather than migrating inside |x| < 1.
        f = catalog_eval(SubExp(2.0, 1.0), ODD_GRID)
        rates = [fit_decay_rate(f, s) for s in (0.5, 1.0, 1.5, 2.0)]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


class TestFitPolyTable:
    """The C_N table of the polynomial side."""

    def test_matches_brute_force(self):
        f = dft(catalog_eval(Gaussian(1.0), build_grid(12.0, 10)))
        _, table = _poly_side(f, ClassifyOptions(n_max=3, floor_rel=1e-13))
        a = np.abs(f.values)
        mask = a >= 1e-13 * a.max()
        for n in range(4):
            brute = np.max(a[mask] * (1.0 + f.x[mask] ** 2) ** n)
            assert table[n].C == pytest.approx(brute, rel=1e-12)

    def test_slow_decay_fails_interior_attainment(self):
        # 1/(1+x^2) loses to (1+x^2)^2: the product grows to the rim.
        vals = 1.0 / (1.0 + ODD_GRID.coords**2)
        side, table = _poly_side(SampledFunction(ODD_GRID, vals),
                                 ClassifyOptions(n_max=2))
        assert table[0].interior_attained
        assert not table[2].interior_attained
        assert side == (False, False)

    def test_rejects_large_n_max(self):
        # the table stops at N = 16: 16 builds 17 finite rows, 17 is refused
        f = catalog_eval(Gaussian(1.0), ODD_GRID)
        _, table = _poly_side(f, ClassifyOptions(n_max=16))
        assert list(table) == list(range(17))
        assert all(math.isfinite(fit.C) for fit in table.values())
        with pytest.raises(GstfError):
            _poly_side(f, ClassifyOptions(n_max=17))

    def test_limits_where_x_squared_overflows(self):
        # the N = 0 weight stays 1, so C_0 is the sample maximum; N >= 1
        # weights are infinite at every sample, so C_N is too
        f = SampledFunction(Grid1D(0.0, 1e300, 4), [0.25, 1.0, 0.5, 0.125])
        _, table = _poly_side(f, ClassifyOptions(n_max=1))
        assert (table[0].C, table[0].attained_at) == (1.0, 1)
        assert math.isinf(table[1].C)


class TestDecaySide:
    # exp(-x^2/2) over a 1e-16 noise floor at s = 1/2: the rate 1/4 sup is
    # interior; the rate 1 sup climbs until the samples turn to noise,
    # where a transform's floor leaves it open (masked edge) and direct
    # samples carry it to the rim.
    @pytest.mark.parametrize("r_list, masked, roumieu_side, beurling_side", [
        ((0.25, 1.0), True, (True, False), (False, True)),
        ((0.25, 1.0), False, (True, False), (False, False)),
        ((1.0,), True, (False, True), (False, True)),
        ((1.0,), False, (False, False), (False, False)),
    ])
    def test_one_rate_table_decides_both_regularities(
            self, r_list, masked, roumieu_side, beurling_side):
        fn = SampledFunction(ODD_GRID, np.exp(-0.5 * ODD_GRID.coords**2)
                             + 1e-16)
        opts = ClassifyOptions(r_list=r_list)
        for beurling, want in ((False, roumieu_side), (True, beurling_side)):
            side, r_fit, table = _decay_side(fn, 0.5, opts, beurling, masked)
            assert side == want
            assert list(table) == list(r_list)
            assert r_fit == fit_decay_rate(fn, 0.5)


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
        assert rep.verdict == MEMBER
        assert rep.diagnostics.get("zero_function")
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

    def test_report_carries_tables(self, grid, opts):
        f = catalog_eval(Gaussian(1.0), grid)
        rep = classify_function(f, beurling(s=1.0), opts)
        assert set(rep.N_table) == set(range(5))
        assert len(rep.rate_table) == len(opts.trial_rs())
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
        with pytest.raises(GstfError):
            classify_stft(f, w, roumieu(s=0.5), tf_classify, classify_opts)

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

    def test_report_tables_are_independent(self, grid10):
        f = catalog_eval(Gaussian(1.0), grid10)
        first = classify_function(f, roumieu(s=1.0))
        second = classify_function(f, beurling(s=1.0))
        want = (dict(second.rate_table), dict(second.N_table))
        first.rate_table.clear()
        first.N_table[0] = None
        assert (second.rate_table, second.N_table) == want
        again = classify_function(f, roumieu(s=1.0))
        assert (again.rate_table, again.N_table) == want


def _dual_growth_reference(v, idx, opts):
    """dual_growth_report on a precomputed STFT as it was written before
    the per-N0 reduction: one full logv array and argmax per (r, N0)."""
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
    n0_by_r, table = {}, {}
    for r in opts.trial_rs():
        found = None
        for n0 in range(opts.n_max + 1):
            with np.errstate(over="ignore"):
                logv = loga - n0 * logpoly - r * decay_x
            if not np.any(np.isfinite(logv)):
                found = n0
                break
            i = int(np.argmax(logv))
            if flat_interior[i]:
                found = n0
                break
        n0_by_r[r] = found
        ii = i if np.any(np.isfinite(loga)) else a.size // 2
        top = logv.ravel()[ii]
        table[r] = EnvelopeFit(
            C=math.inf if top > math.log(np.finfo(float).max)
            else float(math.exp(top)),
            attained_at=ii, interior_attained=found is not None)
    if idx.regularity == "roumieu":
        member = all(n0 is not None for n0 in n0_by_r.values())
    else:
        member = any(n0 is not None for n0 in n0_by_r.values())
    return EnvelopeReport(C_peak=float(a.max()), r_fit=math.nan,
                          rate_table=table,
                          verdict=MEMBER if member else NOT_MEMBER,
                          diagnostics={"N0_by_r": n0_by_r})


DUAL_FUNCTIONS = (Gaussian(1.0), Hermite(3), Product(Poly(2), Gaussian(1.0)),
                  Translate(Gaussian(1.0), 1.5), Modulate(Gaussian(1.0), 3.0),
                  Bump(), SubExp(2.0, 1.0), Poly(2))
DUAL_INDICES = tuple(
    idx for v in (0.5, 1.0, 2.0) for idx in
    (roumieu(s=v), beurling(s=v), roumieu(sigma=v), beurling(sigma=v))) + (
    roumieu(s=1e-300), beurling(sigma=1e-300))
DUAL_OPTIONS = (ClassifyOptions(), ClassifyOptions(n_max=0),
                ClassifyOptions(n_max=12, r_list=(0.01, 100.0)))


class TestDualGrowth:
    @pytest.mark.parametrize("points, xs, xsteps, xis, xistep", [
        (2048, 513, 4, 1001, 0.5),
        (1024, 129, 8, 129, 0.25),
        (1024, 128, 8, 128, None),  # the product-transform grid
    ])
    def test_matches_reference_bit_for_bit(self, points, xs, xsteps, xis,
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
        for wi, k, idx, opts in cases:
            f, w = fns[k], windows[wi]
            if (wi, k) not in stfts:
                stfts[wi, k] = stft(f, w, tf)
            v = stfts[wi, k]
            got = dual_growth_report(f, w, idx, tf, opts, check_window=False,
                                     precomputed=v)
            want = _dual_growth_reference(v, idx, opts)
            assert repr(got) == repr(want), (k, wi, idx, opts)

    def test_no_finite_weighted_value_is_trivially_bounded(self, tf_small):
        # |V| vanishes for |x| <= 1 and the weight is infinite beyond, so
        # no weighted value is finite.  Every bound holds trivially.
        grid = build_grid(12.0, 10)
        f = catalog_eval(Translate(Bump(), 5.0), grid)
        w = catalog_eval(Bump(), grid)
        v = stft(f, w, tf_small)
        rep = dual_growth_report(f, w, roumieu(s=1e-300), tf_small,
                                 ClassifyOptions(), check_window=False,
                                 precomputed=v)
        assert rep.verdict == MEMBER
        assert all(n0 == 0 for n0 in rep.diagnostics["N0_by_r"].values())
        assert all(fit.C == 0.0 and fit.attained_at == v.values.size // 2
                   for fit in rep.rate_table.values())

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: |V| of the truncated exp(x^2) peaks just inside "
        "the sample grid's edge, which passes the interior-attainment test"))
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
            assert all(n0 == 0 for n0 in rep.diagnostics["N0_by_r"].values())

    def test_polynomial_times_gaussian_is_dual_element(self, grid11,
                                                       tf_classify,
                                                       classify_opts,
                                                       gauss_window):
        # x^2 exp(-x^2/2) sits in the dual: polynomial growth is allowed.
        f = catalog_eval(Product(Poly(2), Gaussian(1.0)), grid11)
        rep = dual_growth_report(f, gauss_window, roumieu(s=0.5), tf_classify,
                                 classify_opts)
        assert rep.verdict == MEMBER

