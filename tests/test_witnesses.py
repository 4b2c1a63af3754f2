import math
import tracemalloc

import numpy as np
import pytest

from gstf import (MEMBER, Bump, Gaussian, GSIndex, Hermite, SampledFunction,
                  TrivialSpace, UnsupportedRegion, boundary_triviality_demo,
                  catalog_eval, classify_function, default_witness_grid, dft,
                  make_witness, parse_function_expr)
from gstf.classify import ClassifyOptions, _side
from gstf.witnesses import (BoundaryCandidate, BoundaryReport, _candidates,
                            _gevrey_order)


def two_param(s, sigma, regularity):
    return GSIndex(s, sigma, regularity)


def witness_check_options(regularity: str) -> ClassifyOptions:
    """Trial rates small enough that the envelope/function crossover of
    every shipped witness stays inside the default grid: Roumieu reads
    0.0625 = 0.25 * 0.25, Beurling 0.5 = 4 * 0.125."""
    return ClassifyOptions(n_max=4,
                           r_scale=0.25 if regularity == "roumieu" else 0.125)


class TestTrivialRegion:
    @pytest.mark.parametrize("s,sigma", [(0.25, 0.25), (0.5, 0.5),
                                         (0.3, 0.69), (0.1, 0.9)])
    def test_beurling_boundary_and_below_is_trivial(self, s, sigma):
        with pytest.raises(TrivialSpace):
            make_witness(two_param(s, sigma, "beurling"))

    @pytest.mark.parametrize("s,sigma", [(0.25, 0.25), (0.4, 0.55)])
    def test_roumieu_below_line_is_trivial(self, s, sigma):
        with pytest.raises(TrivialSpace):
            make_witness(two_param(s, sigma, "roumieu"))

    def test_roumieu_on_line_is_nontrivial(self):
        # s + sigma = 1 with equality: the Roumieu class contains Gaussians.
        w = make_witness(two_param(0.5, 0.5, "roumieu"))
        assert np.max(np.abs(w.values)) > 0

    def test_one_parameter_index_unsupported(self):
        with pytest.raises(UnsupportedRegion):
            make_witness(GSIndex(1.0, math.inf, "roumieu"))

    def test_nontrivial_but_unreachable_region(self):
        # 0.5 + 0.6 > 1 is nontrivial, but s sits exactly on the Gaussian
        # threshold (strict for Beurling) and neither index clears 1: no
        # elementary formula is shipped for this sliver.
        with pytest.raises(UnsupportedRegion):
            make_witness(two_param(0.5, 0.6, "beurling"))

    @pytest.mark.parametrize("s,sigma", [(0.3, 1.0), (1.0, 0.3)])
    def test_roumieu_index_one_has_no_bump_witness(self, s, sigma):
        # A compactly supported function whose transform decays like
        # exp(-r|xi|) would be entire (Paley-Wiener), and the other index
        # is below the Gaussian's 1/2.
        with pytest.raises(UnsupportedRegion):
            make_witness(two_param(s, sigma, "roumieu"))


class TestGevreyBump:
    @pytest.mark.parametrize("regularity", ["roumieu", "beurling"])
    @pytest.mark.parametrize("sigma", [1.01, 1.25, 1.5, 2.0, 2.5, 3.0, 8.0])
    def test_order_puts_the_transform_in_the_class(self, sigma, regularity):
        # The transform of a Gevrey-t bump decays like exp(-c|xi|^(1/t))
        # for one c > 0: inside the Roumieu class of index sigma iff
        # t <= sigma, inside the Beurling class iff t < sigma.  t > 1
        # keeps the bump compactly supported.
        t = _gevrey_order(sigma, regularity == "beurling")
        assert 1.0 < t <= 2.0
        assert t < sigma if regularity == "beurling" else t <= sigma

    @pytest.mark.parametrize("sigma,regularity,t", [
        (1.5, "roumieu", 1.5), (1.5, "beurling", 1.25),
        (3.0, "beurling", 2.0), (2.5, "roumieu", 2.0)])
    def test_witness_is_the_closed_form_bump(self, sigma, regularity, t):
        grid = default_witness_grid()
        x = grid.coords
        inside = np.abs(x) < 1.0
        ref = np.zeros(grid.count)
        ref[inside] = np.exp(-(1.0 - x[inside] ** 2) ** (-1.0 / (t - 1.0)))
        w = make_witness(two_param(0.2, sigma, regularity), grid)
        assert np.max(np.abs(w.values - ref)) < 1e-15
        mirrored = make_witness(two_param(sigma, 0.2, regularity), grid)
        assert np.array_equal(mirrored.values, dft(w).values)
        if t == 2.0:  # bump() itself, bit for bit
            assert np.array_equal(w.values, catalog_eval(Bump(), grid).values)


# Each row: an index whose witness must verify on both sides.
WITNESS_CASES = [
    two_param(0.75, 0.75, "beurling"),
    two_param(0.5, 0.5, "roumieu"),
    two_param(1.0, 1.0, "roumieu"),
    two_param(2.0, 1.5, "beurling"),
    two_param(0.2, 1.5, "beurling"),   # Gevrey bump region
    two_param(0.3, 1.25, "roumieu"),
    two_param(1.5, 0.2, "beurling"),   # mirrored Gevrey bump region
    two_param(1.25, 0.3, "roumieu"),
    two_param(1.5, 0.6, "roumieu"),
    two_param(0.6, 1.5, "roumieu"),
    # A Roumieu side needs one trial rate with an interior sup: at s = 3
    # the Gaussian beats exp(r |x|^(1/3)) inside the grid for every rate.
    two_param(3.0, 0.75, "roumieu"),
]


class TestWitnessesVerify:
    @pytest.mark.parametrize("idx", WITNESS_CASES,
                             ids=lambda i: f"{i.regularity}-{i.s}-{i.sigma}")
    def test_witness_passes_both_sides(self, idx):
        grid = default_witness_grid()
        opts = witness_check_options(idx.regularity)
        w = make_witness(idx, grid)
        fn_side = GSIndex(idx.s, math.inf, idx.regularity)
        ft_side = GSIndex(math.inf, idx.sigma, idx.regularity)
        assert classify_function(w, fn_side, opts).verdict == MEMBER
        assert classify_function(w, ft_side, opts).verdict == MEMBER


RATES = (0.25, 0.5, 1.0, 2.0, 4.0)  # the default trial rates


class TestBoundaryDemo:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.99])
    def test_every_candidate_fails_on_the_line(self, s):
        rep = boundary_triviality_demo(s)
        assert rep.sigma == pytest.approx(1.0 - s)
        assert rep.all_failed
        assert len(rep.candidates) == 7
        for cand in rep.candidates:
            assert cand.failed
            assert cand.failing_side in ("function", "fourier")
            crit = (cand.r_star_x if cand.failing_side == "function"
                    else cand.r_star_xi)
            assert crit.value < max(RATES)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.75])
    def test_first_failure_matches_brute_force(self, s):
        # Independent oracle: per candidate and side, the smallest default
        # rate whose weighted log-samples peak within 2 samples of the rim.
        # It is the smallest default rate above r* on the failing side.
        grid = default_witness_grid()
        rep = boundary_triviality_demo(s)
        for cand in rep.candidates:
            f = catalog_eval(parse_function_expr(cand.name), grid)
            want = None
            for side, fn, t in (("function", f, s),
                                ("fourier", dft(f), 1 - s)):
                with np.errstate(divide="ignore", over="ignore"):
                    loga = np.log(np.abs(fn.values))
                    xw = np.abs(fn.x) ** (1.0 / t)
                for r in RATES:
                    i = int(np.argmax(loga + r * xw))
                    if not 2 <= i <= grid.count - 3:
                        want = (side, r)
                        break
                if want:
                    break
            crit = (cand.r_star_x if cand.failing_side == "function"
                    else cand.r_star_xi)
            first = min(r for r in RATES if r > crit.value)
            assert want == (cand.failing_side, first), cand.name
            if cand.failing_side == "function":
                assert cand.r_star_xi is None  # f failed on its own

    def test_gaussian_rates_at_one_half(self):
        # exp(-a x^2/2) has r*_x = a/2 at s = 1/2, below the largest rate
        rep = boundary_triviality_demo(0.5)
        for cand, a in zip(rep.candidates, (0.5, 1.0, 2.0)):
            assert cand.name == str(Gaussian(a))
            assert cand.r_star_x.value == pytest.approx(a / 2, abs=1e-9)
            assert cand.failing_side == "function"

    def test_rejects_s_outside_open_interval(self):
        with pytest.raises(TrivialSpace):
            boundary_triviality_demo(0.0)
        with pytest.raises(TrivialSpace):
            boundary_triviality_demo(1.0)


def _demo_reference(s):
    """boundary_triviality_demo as it was before its candidates were
    kept: fresh carriers on each call, each side read through _side."""
    sigma = 1.0 - s
    grid = default_witness_grid()
    candidates = [Gaussian(a) for a in (0.5, 1.0, 2.0)]
    candidates += [Hermite(k) for k in range(4)]
    rate = max(ClassifyOptions().trial_rs())
    rows = []
    for spec in candidates:
        f = catalog_eval(spec, grid)
        (ok, _), r_x = _side(f, s, rate, False)
        r_xi, side = None, "function"
        if ok:
            (ok, _), r_xi = _side(dft(f), sigma, rate, False)
            side = "" if ok else "fourier"
        rows.append(BoundaryCandidate(str(spec), not ok, side, r_x, r_xi))
    rows = tuple(rows)
    return BoundaryReport(s=s, sigma=sigma, candidates=rows,
                          all_failed=all(c.failed for c in rows))


def _memo_keys():
    """The memo keys of each kept candidate and of its transform."""
    return [(set(f._memo), set(dft(f)._memo)) for _, f in _candidates()]


def _frozen(value) -> bool:
    """Whether a memo value is read-only all the way down."""
    if isinstance(value, np.ndarray):
        return not value.flags.writeable
    if isinstance(value, SampledFunction):
        return _frozen(value.values) and _frozen(tuple(value._memo.values()))
    if isinstance(value, tuple):
        return all(_frozen(v) for v in value)
    return isinstance(value, (bool, int, float, str))


class TestKeptCandidates:
    """The demo's candidates, their transforms and their tables are built
    once per process; its rates are computed on every call and kept
    nowhere, so the kept carriers do not grow with s."""

    @pytest.mark.parametrize("reference_first", [False, True])
    @pytest.mark.parametrize("s", [0.1, 0.24, 0.25, 0.456, 0.5, 0.741, 0.99])
    def test_reports_keep_their_bits(self, s, reference_first):
        _candidates.cache_clear()
        if reference_first:
            want = repr(_demo_reference(s))
        cold = repr(boundary_triviality_demo(s))
        warm = repr(boundary_triviality_demo(s))
        if not reference_first:
            want = repr(_demo_reference(s))
        assert cold == want and warm == want

    def test_no_entry_per_s(self):
        _candidates.cache_clear()
        boundary_triviality_demo(0.5)
        keys = _memo_keys()
        assert all(len(k) == 3 and len(kt) == 2 for k, kt in keys)
        for s in np.linspace(0.005, 0.995, 100):
            boundary_triviality_demo(float(s))
        assert _memo_keys() == keys
        assert _candidates.cache_info().currsize == 1

    def test_kept_values_are_read_only(self):
        for _, f in _candidates():
            for fn in (f, dft(f)):
                assert _frozen(fn), str(fn._memo.keys())

    def test_cache_stays_small(self):
        _candidates()  # imports and the transform's phases
        _candidates.cache_clear()
        tracemalloc.start()
        try:
            _candidates()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20
