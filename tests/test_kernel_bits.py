"""The verdict kernel and the phase-corrected FFT keep their bits.

Each test compares the library against a reference: a copy of the code it
replaced, kept here as it was, run on the same inputs.  The critical scales
are compared by repr, which shows every digit, the sign of a zero and the
coordinates; the transforms by the bit patterns of their values."""

import math
import tracemalloc

import numpy as np
import pytest

from gstf import (Gaussian, Grid1D, Hermite, SampledFunction, SubExp, TFGrid,
                  build_grid, catalog_eval, dft, dft2, idft, transforms)
from gstf.checks import CATALOG_SPECS
from gstf.classify import FLOOR, GUARD, CriticalScale, _critical, _side
from gstf.grids import TFR

INF = math.inf


def _critical_reference(fn, w, floor, unit=1.0):
    """_critical as it was, with one vectorised pass over the samples."""
    a = np.abs(fn.values)
    with np.errstate(divide="ignore"):
        loga = np.log(a)
    peak = float(a.max())
    n = loga.size
    lg = loga.copy()
    b = np.concatenate((np.arange(min(GUARD, n)),
                        np.arange(max(n - GUARD, GUARD), n)))
    edge = np.zeros(n, dtype=bool)
    if floor is not None:
        mask = a >= floor * peak
        lg[~mask] = -INF
        edge[1:] = ~mask[:-1]
        edge[:-1] |= ~mask[1:]
        edge[b] = False
        b = np.concatenate((b, np.flatnonzero(edge)))
    b = b[lg[b] > -INF]
    lg[b] = -INF
    b = b[np.lexsort((-loga[b], -w[b]))]
    x, w_good = fn.x, w[lg > -INF].max(initial=-INF)
    lb, wb = loga[b], w[b]
    if floor is None:
        b = b[wb < np.concatenate(([INF], wb[:-1]))]
    else:
        b = b[lb > np.maximum.accumulate(np.concatenate(([-INF], lb[:-1])))]
    if floor is not None and (w[b] <= w_good).any():
        lo = np.searchsorted(x, -np.abs(x[b]), "right")
        hi = np.searchsorted(x, np.abs(x[b]))
        left = np.maximum.accumulate(lg)[lo - 1]
        right = np.maximum.accumulate(lg[::-1])[n - 1 - np.minimum(hi, n - 1)]
        b = b[(np.where(lo > 0, left, -INF) < loga[b])
              & (np.where(hi < n, right, -INF) < loga[b])]
    best = INF, None, None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in b:
            d = w[j] - w
            if w[j] > w_good:
                c, u = (lg - loga[j]) / np.maximum(d, 0.0), INF
            else:
                u = np.min((lg - loga[j]) / np.copysign(d, -1.0),
                           where=d <= 0, initial=INF)
                c = np.where(d > 0, (lg - loga[j]) / d, -INF)
            i = int(c.argmax())
            if c[i] < min(u, best[0]):
                best = c[i], i if c[i] > -INF else None, j
    k, i, j = float(best[0]), best[1], best[2]
    if k == -INF and j is not None and unit == INF:
        near = np.flatnonzero((lg > -INF) & (w == w[j])
                              & (np.abs(x) < abs(x[j])))
        if near.size:
            k, i = -0.0, int(near[lg[near].argmax()])
    if k and math.isfinite(k):
        with np.errstate(over="ignore", divide="ignore"):
            k = float(np.float64(k) / unit)
    return CriticalScale(k, None if i is None else float(x[i]),
                         None if j is None else float(x[j]),
                         j is not None and bool(edge[j]))


def _side_reference(fn, s, floored):
    """_side's critical scale as it was, weights made out of place."""
    floor = FLOOR if floored else None
    ax = np.abs(fn.x)
    with np.errstate(over="ignore", divide="ignore"):
        if s is None:
            w, unit = np.log1p(ax ** 2), 1.0
            if np.isinf(w).any():
                w = np.where(np.isinf(w), 2.0 * np.log(ax), w)
        else:
            top = max(ax[0], ax[-1])
            w, unit = (ax / top) ** (1.0 / s), top ** (1.0 / s)
    return _critical_reference(fn, w, floor, unit)


SCALES = (1e-300, 0.3, 0.5, 1.0, 2.0, None)  # None: the critical power N*


def _carriers():
    """(name, samples): catalog specs and exp(x^2) on grids of 4 to 2^13
    points and an odd count, with their transforms; Gaussians whose tails
    underflow to 0 at half-width 40; the few-point overflow, underflow and
    zero cases of the classifier's tests."""
    specs = CATALOG_SPECS + (SubExp(0.5, -1.0),)
    grids = [build_grid(12.0, e) for e in (2, 3, 5, 9, 13)]
    grids.append(Grid1D(0.0, 24.0 / 1024, 1025))
    for g in grids:
        for spec in specs:
            f = catalog_eval(spec, g)
            yield f"{spec!r} on {g.count}", f
            if g.count & (g.count - 1) == 0:
                yield f"dft {spec!r} on {g.count}", dft(f)
    for a in (0.5, 1.0, 2.0):
        f = catalog_eval(Gaussian(a), build_grid(40.0, 11))
        yield f"gaussian({a}) at half-width 40", f
        yield f"dft gaussian({a}) at half-width 40", dft(f)
    compact = np.zeros(9)
    compact[3:6] = [0.5, 1.0, 0.5]
    for g, vals in (
            (Grid1D(0.0, 1e154, 5), [0.0, 1.0, 1.0, 1.0, 0.0]),
            (Grid1D(0.0, 1e300, 7), [0.125, 0.25, 0.5, 1.0, 0.5, 0.25, 0.125]),
            (Grid1D(0.0, 1e300, 4), [0.25, 1.0, 0.5, 0.125]),
            (Grid1D(0.0, 1.0, 9), np.exp(-0.5 * (np.arange(9) - 5.0) ** 2)),
            (Grid1D(0.0, 1e-78, 5), [0.5, 1.0, 0.9, 0.5, 0.25]),
            (Grid1D(0.0, 1e-3, 9), compact),
            (Grid1D(0.0, 1.0, 9), np.ones(9))):
        yield f"{g.count} points, step {g.step}", SampledFunction(g, vals)


def test_side_keeps_its_bits():
    # every scale is asked of one carrier, as the verdicts ask them, so
    # what the carrier keeps between them is tested too
    for name, fn in _carriers():
        for s in SCALES + (1e-3, 1e-2, 1.0 / 520):
            for floored in (False, True):
                got = _side(fn, s, 0.0, floored)[1]
                want = _side_reference(fn, s, floored)
                assert repr(got) == repr(want), (name, s, floored)


def test_critical_keeps_its_bits_on_random_samples():
    # zeros, equal samples, equal weights, off-centre grids, any floor
    rng = np.random.default_rng(20261020)
    for _ in range(400):
        n = int(rng.integers(3, 30))
        g = Grid1D(float(rng.choice([0.0, rng.normal()])),
                   float(rng.uniform(0.1, 2.0)), n)
        vals = np.exp(rng.normal(0.0, 3.0, n)) * (rng.random(n) > 0.15)
        if rng.random() < 0.5:
            vals = np.round(vals, 1)
        fn = SampledFunction(g, vals)
        for _ in range(3):
            w = (np.abs(g.coords) ** rng.choice([0.5, 1.0, 2.0])
                 if rng.random() < 0.7 else np.log1p(g.coords ** 2))
            if rng.random() < 0.3:
                w = np.round(w, 0)
            floor = (None if rng.random() < 0.4
                     else float(rng.choice([0.0, 1e-3, 0.1, 0.5])))
            unit = float(rng.choice([1.0, 3.0, INF]))
            assert repr(_critical(fn, w, floor, unit)) == repr(
                _critical_reference(fn, w, floor, unit)), (vals, w, floor)


# -- the phase-corrected FFT ------------------------------------------------

_TWO_PI = 8 * np.arctan(np.longdouble(1))


def _unit(phase):
    return np.exp(1j * np.mod(phase, _TWO_PI).astype(float))


def _phase_fft_reference(vals, grid, sign, axis):
    """_phase_fft as it was: the post-phases made per call, and every step
    out of place."""
    n = grid.count
    j = np.arange(n, dtype=np.int64)
    pre = _unit(_TWO_PI * ((n - 1) * j % (2 * n)) / (2 * n))
    factor = complex(_unit(-_TWO_PI * ((n - 1) ** 2 % (4 * n)) / (4 * n)))
    if sign > 0:
        pre, factor = pre.conj(), factor.conjugate()
    shape = [1] * vals.ndim
    shape[axis] = n
    pre = pre.reshape(shape)
    post = pre * factor
    sqrt_2pi = np.sqrt(2.0 * np.pi)
    with np.errstate(over="ignore", invalid="ignore"):
        if sign < 0:
            return grid.step / sqrt_2pi * post * np.fft.fft(vals * pre,
                                                            axis=axis)
        return n * grid.step / sqrt_2pi * post * np.fft.ifft(vals * pre,
                                                              axis=axis)


def _bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("exponent", range(1, 15))
def test_dft_and_idft_keep_their_bits(exponent):
    rng = np.random.default_rng(exponent)
    g = build_grid(12.0, exponent)
    for vals in (catalog_eval(Hermite(3), g).values,
                 rng.normal(size=g.count) + 1j * rng.normal(size=g.count)):
        f = SampledFunction(g, vals)
        F = dft(f)
        assert np.array_equal(_bits(F.values),
                              _bits(_phase_fft_reference(f.values, g, -1, 0)))
        assert np.array_equal(
            _bits(idft(F).values),
            _bits(_phase_fft_reference(F.values, F.grid, 1, 0)))


def test_dft2_keeps_its_bits_on_the_product_transform_grid():
    h = build_grid(12.0, 10).step
    tf = TFGrid(Grid1D(0.0, 8 * h, 128),
                Grid1D(0.0, 2 * np.pi / (1024 * h), 128))
    rng = np.random.default_rng(128)
    a = TFR(tf, rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128)))
    want = _phase_fft_reference(
        _phase_fft_reference(a.values, tf.xgrid, -1, 0), tf.xigrid, -1, 1)
    assert np.array_equal(_bits(dft2(a).values), _bits(want))


def test_cached_phases_are_read_only():
    for sign in (-1, 1):
        for phases in transforms._fft_phases(64, sign):
            assert not phases.flags.writeable
            with pytest.raises(ValueError):
                phases[0] = 0.0


def test_every_classify_sweep_size_stays_cached():
    # the benchmark's round cycles through 2^9 to 2^13 points, forward
    # and inverse: after one pass none of those phases is made again
    transforms._fft_phases.cache_clear()
    for _ in range(2):
        for e in range(9, 14):
            idft(dft(SampledFunction(build_grid(12.0, e), np.ones(2 ** e))))
    info = transforms._fft_phases.cache_info()
    assert (info.misses, info.hits) == (10, 10)


def test_one_transform_holds_two_arrays_at_most():
    # one working buffer and the scaled post-phases: 2 x 128 KiB at 2^13
    # points, plus under 2 KiB of array headers and records (the phases
    # made per call took 515 KiB forward and 642 KiB inverse)
    g = build_grid(12.0, 13)
    f = catalog_eval(Gaussian(1.0), g)
    idft(dft(SampledFunction(g, f.values)))  # the phases are cached
    bound = 2 * g.count * 16 + 2048
    for transform in (dft, idft):
        fresh = SampledFunction(g, f.values)
        tracemalloc.start()
        try:
            transform(fresh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (transform.__name__, peak)
