"""Membership verdicts for sub-exponential decay classes, from one
critical scale per side.

A one-parameter class is named by a :class:`GSIndex` with exactly one
finite entry: a finite ``s`` constrains the function side with envelopes
C * exp(-r |x|^(1/s)); a finite ``sigma`` constrains the Fourier side the
same way.  The other side is polynomial: C_N (1+|.|^2)^(-N), N <= n_max.

Finiteness of a sup on an unbounded domain is proxied by interior
attainment on the truncated grid: the sup of |f| exp(k w) must not sit
within GUARD samples of the grid edge, nor, for transform-computed
samples, next to one below FLOOR times the peak (a masked edge).
With w = |x|^(1/s) the passing scales k run up to a critical rate r*, a
discrete Legendre transform of log|f| (Komatsu's associated function);
with w = log(1+x^2) up to a critical power N*.  Each is computed once per
function and kept in its memo.  Roumieu classes need the smallest trial
rate at most r*, Beurling classes the largest, and the polynomial side
n_max <= N*.  A side that fails at a masked edge leaves the verdict
Inconclusive.  The dual of a class is tested on the same critical scales,
unfloored, with the scales it needs negated."""

from __future__ import annotations

import math

import numpy as np

from .errors import GstfError
from .grids import _QUIET, Grid1D, Record, SampledFunction, TFGrid, TFR
from .transforms import _stft_profiles, dft

__all__ = [
    "INF", "GSIndex", "ClassifyOptions", "CriticalScale",
    "EnvelopeReport", "MEMBER", "NOT_MEMBER", "INCONCLUSIVE",
    "classify_function", "classify_stft", "dual_growth_report",
]

INF = math.inf

MEMBER = "Member"
NOT_MEMBER = "NotMember"
INCONCLUSIVE = "Inconclusive"

# A sup attained within GUARD samples of the grid edge counts as
# boundary-attained; a transform-computed sample below FLOOR times the
# peak is noise.  Each kernel call runs in _QUIET: log 0, 0/0 and an
# overflow take their IEEE limits.
GUARD = 2
FLOOR = 1e-13


class GSIndex(Record):
    """(s, sigma, regularity) naming a decay class; INF (+inf, never
    -inf) marks the unconstrained side of a one-parameter space."""

    s: float
    sigma: float
    regularity: str  # "roumieu" or "beurling"

    def __post_init__(self):
        if self.regularity not in ("roumieu", "beurling"):
            raise GstfError(f"unknown regularity {self.regularity!r}")
        if math.isinf(self.s) and math.isinf(self.sigma):
            raise GstfError("at least one of s, sigma must be finite")
        for v in (self.s, self.sigma):
            if v == -INF:  # only +inf marks the unconstrained side
                raise GstfError("-inf is not a class index")
            if not v > 0:  # nan too
                raise GstfError("finite class indices must be strictly positive")

    @property
    def one_parameter(self) -> bool:
        return math.isinf(self.s) or math.isinf(self.sigma)


class ClassifyOptions(Record):
    r_scale: float = 1.0  # the trial rates are (1/4, 1/2, 1, 2, 4) times it
    n_max: int = 8

    def __post_init__(self):
        # Out-of-range values would make a side of the test vacuous: a
        # negative n_max passes below any N* >= 0, a nan rate fails every
        # comparison with r*.
        n = self.n_max
        if isinstance(n, bool) or not (isinstance(n, (int, np.integer))
                                       and 0 <= n <= 16):
            raise GstfError(f"n_max must be an integer in [0, 16], got {n!r}")
        if not 0 < self.r_scale < INF:
            raise GstfError(f"r_scale must be finite and > 0, "
                            f"got {self.r_scale!r}")

    def trial_rs(self) -> tuple:
        return tuple(r * self.r_scale for r in (0.25, 0.5, 1.0, 2.0, 4.0))


_DEFAULT_OPTIONS = ClassifyOptions()


class CriticalScale(Record):
    """The critical scale of one side: the largest k whose sup of
    |f| exp(k w) is attained at a trusted interior sample.  Above it the
    sample at coordinate ``bound_at`` takes the sup over from the one at
    ``attained_at``; ``masked_edge`` says that sample borders the noise
    floor rather than lying in the guard band.  ``value`` is inf when no
    such sample ever takes over (the coordinates are then None), and below
    0 when one holds the sup already at k = 0."""

    value: float
    attained_at: float | None = None
    bound_at: float | None = None
    masked_edge: bool = False


class EnvelopeReport(Record):
    C_peak: float
    r_star: CriticalScale  # decay side
    N_star: CriticalScale  # polynomial side
    verdict: str


def _magnitudes(f: SampledFunction) -> tuple:
    """(|f|, log|f|, max |f|), computed once per function."""
    return f._memoised("magnitudes", lambda: _log_magnitudes(f.values))


@_QUIET
def _log_magnitudes(values: np.ndarray) -> tuple:
    a = np.abs(values)
    loga = np.log(a)  # log 0 = -inf
    a.flags.writeable = loga.flags.writeable = False
    return a, loga, float(a.max())


def _split(fn: SampledFunction, floor: float | None) -> tuple:
    """fn's samples split once per floor for every weight: lg = log|fn| on
    the good samples (all in lg[g0:g1]), -inf elsewhere; ``good`` where it
    is finite; ``bad`` the admissible bad ones, guard band first, lb theirs."""
    def make():
        a, loga, peak = _magnitudes(fn)
        n = loga.size
        lg = loga.copy()
        b = np.array([*range(min(GUARD, n)), *range(max(n - GUARD, GUARD), n)])
        if floor is not None:  # past the guard band, not low but next to one
            low = a < floor * peak
            lg[low] = -INF
            edge = low[GUARD - 1:n - GUARD - 1] | low[GUARD + 1:n - GUARD + 1]
            edge = (edge > low[GUARD:n - GUARD]).nonzero()[0] + GUARD
            b = np.concatenate((b, edge))
        b = b[lg[b] > -INF]
        lg[b] = -INF
        good = lg > -INF
        for v in (lg, good, b):
            v.setflags(write=False)
        bits = good.tobytes()  # one byte per sample: the first and last good
        g0, g1 = max(bits.find(1), 0), bits.rfind(1) + 1 or n
        return lg, good, b, tuple(loga[b].tolist()), g0, g1
    return fn._memoised(("split", floor), make)


@_QUIET
def _critical(fn: SampledFunction, w: np.ndarray, floor: float | None,
              unit: float = 1.0) -> CriticalScale:
    """The critical scale of log|fn| + k w, for a finite weight w >= 0
    that grows with |x|, as k / ``unit`` (an overflow or underflow is the
    limit).  Samples below ``floor`` times the peak are inadmissible, and
    so are zeros.  An admissible sample is bad within GUARD samples of
    the edge or next to an inadmissible one (a masked edge), else good.
    A bad sample b beats every good one on the scales (t_b, u_b): t_b is
    its last crossing with a lighter good sample, u_b its first with a
    heavier one, and an equal-weight good one at least as high shuts it
    out.  The critical scale is the least t_b below u_b, a tie going to
    the good sample, exact at every scale.  A bad sample that another bad
    one of equal weight is as high as is dropped before any pass.  Under
    a floor, so is one that another bad one outweighs in both log|f| and
    w, or that a good one as far out is as high as: it never leads at a
    scale >= 0 (u_b <= 0), so a scale below 0 is then only an upper
    bound.  When the unit overflows, a bad sample whose weight
    underflowed to that of good samples nearer 0 outweighs them beyond
    float range, and crosses them at -0."""
    lg, good, bad, lb, g0, g1 = _split(fn, floor)
    x, wb = fn.x, w[bad].tolist()
    order = sorted(range(len(wb)),  # heaviest, then highest, ties in order
                   key=list(zip(wb, lb)).__getitem__, reverse=True)
    b = order[:1]  # only an equal weight as high shuts b out at every k;
    for m in order[1:]:  # under a floor, nor one a heavier one is as high as
        if (wb[m] != wb[b[-1]]) if floor is None else (lb[m] > lb[b[-1]]):
            b.append(m)
    # the passes read only the span of the good samples: off it c is -inf
    ws, ls = w[g0:g1], lg[g0:g1]
    w_good = ws.max(where=good[g0:g1], initial=-INF) if b else -INF
    if floor is not None and any(wb[m] <= w_good for m in b):
        def outer():  # per bad sample, the max of lg as far out (|x| at
            # least its |x|): one prefix and one suffix maximum, exact
            h = np.concatenate(([-INF], ls, [-INF]))
            pre, suf = np.maximum.accumulate(h), np.maximum.accumulate(h[::-1])
            r, xs = np.abs(x[bad]), x[g0:g1]  # xs[:a] <= -r, xs[z:] >= r
            a, z = xs.searchsorted(-r, "right"), xs.searchsorted(r)
            return tuple(np.maximum(pre[a], suf[xs.size - z]).tolist())
        far = fn._memoised(("far", floor), outer)
        b = [m for m in b if lb[m] > far[m]]  # nor a good one as far out
    best = INF, None, None
    # d = wb - w and the crossings c, -inf off the good samples; a crossing
    # that overflows, or falls on equal weights (u = -inf, or nan for a
    # tie), is at its limit
    d, c = (np.empty_like(ws), np.empty_like(ws)) if b else (None, None)
    for m in b:
        np.subtract(wb[m], ws, out=d)
        np.subtract(ls, lb[m], out=c)
        if wb[m] > w_good:  # every good sample is lighter
            c, u = np.divide(c, np.maximum(d, 0.0, out=d), out=c), INF
        else:  # divide by d where d > 0, by -|d| where d <= 0
            np.copysign(d, -1.0, out=d, where=(le := d <= 0.0))
            c /= d
            u = c.min(where=le, initial=INF)
            c[le] = -INF
        i = int(c.argmax())
        if c[i] < min(u, best[0]):
            best = c[i], g0 + i if c[i] > -INF else None, bad[m]
    k, i, j = float(best[0]), best[1], best[2]
    if k == -INF and j is not None and unit == INF:
        near = np.flatnonzero(good & (w == w[j]) & (np.abs(x) < abs(x[j])))
        if near.size:
            k, i = -0.0, int(near[lg[near].argmax()])
    if k and math.isfinite(k):  # the unit may overflow or underflow
        k = float(np.float64(k) / unit)
    return CriticalScale(k, None if i is None else float(x[i]),
                         None if j is None else float(x[j]),
                         j is not None and bool(GUARD <= j < x.size - GUARD))


@_QUIET
def _weight(grid: Grid1D, s: float | None) -> tuple:
    """(w, unit): log(1+x^2) and 1 for s = None, else |x|^(1/s) in units
    of its maximum, from the grid's kept base; w may be that base."""
    if s is None:  # log(1+x^2) = 2 log|x| where x^2 overflows
        w = np.log1p(np.square(grid.coords))
        if max(w[0], w[-1]) == INF:  # |x| falls then rises along the grid
            w = np.where(np.isinf(w), 2.0 * np.log(np.abs(grid.coords)), w)
        return w, 1.0
    base, top = grid._reach  # the maximum of |x|^(1/s) may overflow
    p = 1.0 / s
    return base if p == 1.0 else base ** p, top ** p


def _side(fn: SampledFunction, s: float | None, need: float,
          floored: bool) -> tuple:
    """((ok, inconclusive), crit) for one side of fn, crit its critical
    scale under _weight(s), kept in fn's memo: it passes when the scale it
    needs is at most crit, and fails open at a masked edge.  ``floored``
    masks samples below FLOOR times the peak, where transform-computed
    samples are noise and polynomial weights amplify the rim's round-off."""
    floor = FLOOR if floored else None
    def make():
        w, unit = _weight(fn.grid, s)
        return _critical(fn, w, floor, unit)
    crit = fn._memoised((s, floor), make)
    ok = need <= crit.value
    return (ok, not ok and crit.masked_edge), crit


def _aggregate(*sides) -> str:
    """Verdict from (ok, inconclusive) pairs: hard failure beats
    everything; otherwise an at-the-noise-edge fit leaves it open."""
    if all(ok for ok, _ in sides):
        return MEMBER
    if any(not ok and not inc for ok, inc in sides):
        return NOT_MEMBER
    return INCONCLUSIVE


def _verdict(idx: GSIndex, opts: ClassifyOptions | None, samples,
             direct: bool = False, dual: bool = False) -> EnvelopeReport:
    """One decay side against one polynomial side, from the samples over x
    and over xi that ``samples()`` makes: the test shared by the direct
    and the STFT characterisation of a one-parameter class and, unfloored
    with the scales negated, by that of its dual.  Any other class is
    refused before the samples are made.  A finite s puts the decay side
    on x, a finite sigma on xi.  Roumieu needs the smallest trial rate at
    most r*, Beurling the largest.  Only ``direct`` samples over x are
    trusted all the way down, so a boundary-attained sup there is
    conclusive; transform-computed ones are floored."""
    if not idx.one_parameter:
        raise GstfError("membership verdicts handle one-parameter spaces; "
                        "classify each side separately")
    opts = opts or _DEFAULT_OPTIONS
    x_fn, xi_fn = samples()
    on_x = math.isinf(idx.sigma)
    decay_fn, poly_fn = (x_fn, xi_fn) if on_x else (xi_fn, x_fn)
    rate = (max if idx.regularity == "beurling" else min)(opts.trial_rs())
    sign = -1 if dual else 1
    decay, r_star = _side(decay_fn, idx.s if on_x else idx.sigma,
                          sign * rate, not (dual or (direct and on_x)))
    poly, n_star = _side(poly_fn, None, sign * opts.n_max, not dual)
    return EnvelopeReport(_magnitudes(x_fn)[2], r_star, n_star,
                          _aggregate(decay, poly))


def classify_function(f: SampledFunction, idx: GSIndex,
                      opts: ClassifyOptions | None = None) -> EnvelopeReport:
    """Membership verdict for f against a one-parameter class; 0 lies in
    every class."""
    if _magnitudes(f)[2] == 0.0:
        return EnvelopeReport(0.0, CriticalScale(INF), CriticalScale(INF),
                              MEMBER)
    return _verdict(idx, opts, lambda: (f, dft(f)), direct=True)


def _admit_window(w: SampledFunction, name: str, idx: GSIndex | None,
                  opts: ClassifyOptions | None):
    """Refuse a window ``name`` that is zero on the grid, whose zero V
    passes every side, and, given ``idx``, one outside that class, tested
    on a fresh carrier of w's read-only samples whose memo goes with it."""
    if not w.values.any():
        raise GstfError(f"{name} is zero on the grid")
    if idx is not None:
        verdict = classify_function(SampledFunction(w.grid, w.values), idx,
                                    opts).verdict
        if verdict != MEMBER:
            raise GstfError(f"{name} is {verdict} for the requested class; "
                            "pick a window inside the class")


def classify_stft(f: SampledFunction, window: SampledFunction, idx: GSIndex,
                  tfgrid: TFGrid, opts: ClassifyOptions | None = None,
                  check_window: bool = True,
                  precomputed: TFR | None = None) -> EnvelopeReport:
    """Membership verdict from the decay signature of V_window f.

    The two-variable envelope C_N (1+|freq var|^2)^(-N) exp(-r |decay
    var|^(1/s)) is checked through its marginals: the max-profile along
    each axis is fed to the same fitters as classify_function.  The
    profiles are those of a V that f keeps, or else streamed from the
    engine; f keeps them and their critical scales for its last window
    object and tfgrid, so the classes asked of one f and window share one
    pass.  ``precomputed`` is accepted and not read: call stft first to
    reuse its V."""
    _admit_window(window, "the window", idx if check_window else None, opts)
    # C_peak is the max of |V|, on either profile
    return _verdict(idx, opts, lambda: _stft_profiles(f, window, tfgrid))


def dual_growth_report(f: SampledFunction, window: SampledFunction,
                       idx: GSIndex, tfgrid: TFGrid,
                       opts: ClassifyOptions | None = None,
                       check_window: bool = True,
                       precomputed: TFR | None = None) -> EnvelopeReport:
    """Dual-space probe: |V| must stay under (1+|freq var|^2)^N0 *
    exp(r |decay var|^(1/s)) for some N0 <= n_max.

    The test of classify_stft on the same profiles, unfloored, with the
    scales negated: Roumieu duals need every trial r, -min(rates) <= r*;
    Beurling duals one, -max(rates) <= r*; and -n_max <= N*.
    ``precomputed`` is accepted and not read, as in classify_stft."""
    _admit_window(window, "the window", idx if check_window else None, opts)
    return _verdict(idx, opts, lambda: _stft_profiles(f, window, tfgrid),
                    dual=True)
