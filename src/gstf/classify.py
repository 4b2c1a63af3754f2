"""Membership verdicts for sub-exponential decay classes, from one
critical scale per side.

A one-parameter class is named by a :class:`GSIndex` with exactly one
finite entry: a finite ``s`` constrains the function side with envelopes
C * exp(-r |x|^(1/s)); a finite ``sigma`` constrains the Fourier side the
same way.  The other side is polynomial: C_N (1+|.|^2)^(-N), N <= n_max.

Finiteness of a sup on an unbounded domain is proxied by interior
attainment on the truncated grid: the sup of |f| exp(k w) must not sit
within GUARD samples of the grid edge, nor, for transform-computed
samples, next to one below the relative noise floor (a masked edge).
With w = |x|^(1/s) the passing scales k run up to a critical rate r*, a
discrete Legendre transform of log|f| (Komatsu's associated function);
with w = log(1+x^2) up to a critical power N*.  Each is computed once per
function, in one pass, and kept in its memo.  Roumieu classes need the
smallest trial rate at most r*, Beurling classes the largest, and the
polynomial side n_max <= N*.  A side that fails at a masked edge leaves
the verdict Inconclusive."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GstfError
from .grids import SampledFunction, TFGrid, TFR
from .transforms import dft, stft

__all__ = [
    "INF", "GSIndex", "ClassifyOptions", "EnvelopeFit", "CriticalScale",
    "EnvelopeReport", "MEMBER", "NOT_MEMBER", "INCONCLUSIVE",
    "classify_function", "classify_stft", "dual_growth_report",
]

INF = math.inf

MEMBER = "Member"
NOT_MEMBER = "NotMember"
INCONCLUSIVE = "Inconclusive"

_LOG_MAX = math.log(np.finfo(float).max)

# A sup attained within GUARD samples of the grid edge counts as
# boundary-attained.
GUARD = 2


@dataclass(frozen=True)
class GSIndex:
    """(s, sigma, regularity) naming a decay class; INF marks the
    unconstrained side of a one-parameter space."""

    s: float
    sigma: float
    regularity: str  # "roumieu" or "beurling"

    def __post_init__(self):
        if self.regularity not in ("roumieu", "beurling"):
            raise GstfError(f"unknown regularity {self.regularity!r}")
        if math.isinf(self.s) and math.isinf(self.sigma):
            raise GstfError("at least one of s, sigma must be finite")
        for v in (self.s, self.sigma):
            if not math.isinf(v) and not (v > 0 and math.isfinite(v)):
                raise GstfError("finite class indices must be strictly positive")

    @property
    def one_parameter(self) -> bool:
        return math.isinf(self.s) or math.isinf(self.sigma)


@dataclass(frozen=True)
class ClassifyOptions:
    r_scale: float = 1.0
    r_list: tuple = ()  # empty = default geometric list times r_scale
    n_max: int = 8
    floor_rel: float = 1e-13

    def __post_init__(self):
        # Out-of-range values would make a side of the test vacuous: a
        # negative n_max passes below any N* >= 0, a nan rate fails every
        # comparison with r*.
        n = self.n_max
        if not (isinstance(n, (int, np.integer)) and 0 <= n <= 16):
            raise GstfError(f"n_max must be an integer in [0, 16], got {n!r}")
        for name, r in (("r_scale", self.r_scale),
                        *(("r_list entry", r) for r in self.r_list)):
            if not 0 < r < INF:
                raise GstfError(f"{name} must be finite and > 0, got {r!r}")
        if not 0 <= self.floor_rel < 1:
            raise GstfError(
                f"floor_rel must be in [0, 1), got {self.floor_rel!r}")

    def trial_rs(self) -> tuple:
        base = self.r_list if self.r_list else (0.25, 0.5, 1.0, 2.0, 4.0)
        return tuple(r * self.r_scale for r in base)


@dataclass(frozen=True)
class EnvelopeFit:  # one envelope sup of the dual-space probe
    C: float  # may be +inf when the weighted product overflows
    attained_at: int
    interior_attained: bool


@dataclass(frozen=True)
class CriticalScale:
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


@dataclass(frozen=True)
class EnvelopeReport:
    C_peak: float
    r_star: CriticalScale | None = None  # decay side; None for a dual probe
    N_star: CriticalScale | None = None  # polynomial side
    verdict: str = INCONCLUSIVE
    diagnostics: dict = field(default_factory=dict)


def _magnitudes(f: SampledFunction) -> tuple:
    """(|f|, log|f|, max |f|), computed once per function."""
    def make():
        a = np.abs(f.values)
        with np.errstate(divide="ignore"):  # log 0 = -inf
            loga = np.log(a)
        a.flags.writeable = loga.flags.writeable = False
        return a, loga, float(a.max())
    return f._memoised("magnitudes", make)


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
    the good sample.  A bad sample that another bad one outweighs in both
    log|f| and w, or that a good one as far out is as high as, never leads
    at a scale >= 0 (u_b <= 0): it is dropped before any pass."""
    a, loga, peak = _magnitudes(fn)
    n = loga.size
    lg = loga.copy()  # log|f| on the good samples, -inf elsewhere
    b = np.concatenate((np.arange(min(GUARD, n)),  # the guard band
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
    b = b[np.lexsort((-loga[b], -w[b]))]  # heaviest first, then highest
    lb = loga[b]
    b = b[lb > np.maximum.accumulate(np.concatenate(([-INF], lb[:-1])))]
    x, w_good = fn.x, w[lg > -INF].max(initial=-INF)
    if (w[b] <= w_good).any():
        lo = np.searchsorted(x, -np.abs(x[b]), "right")  # x <= -|x_b| below
        hi = np.searchsorted(x, np.abs(x[b]))  # x >= |x_b| from here
        left = np.maximum.accumulate(lg)[lo - 1]
        right = np.maximum.accumulate(lg[::-1])[n - 1 - np.minimum(hi, n - 1)]
        b = b[(np.where(lo > 0, left, -INF) < loga[b])
              & (np.where(hi < n, right, -INF) < loga[b])]
    best = INF, None, None
    # -inf off the good samples; a crossing that overflows, or falls on
    # equal weights (u = -inf, or nan for a tie), is at its limit
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in b:
            d = w[j] - w
            if w[j] > w_good:  # every good sample is lighter
                c, u = (lg - loga[j]) / np.maximum(d, 0.0), INF
            else:
                u = np.min((lg - loga[j]) / np.copysign(d, -1.0),
                           where=d <= 0, initial=INF)
                c = np.where(d > 0, (lg - loga[j]) / d, -INF)
            i = int(c.argmax())
            if c[i] < min(u, best[0]):
                best = c[i], i if c[i] > -INF else None, j
    k, i, j = float(best[0]), best[1], best[2]
    if k and math.isfinite(k):  # the unit may overflow or underflow
        with np.errstate(over="ignore", divide="ignore"):
            k = float(np.float64(k) / unit)
    return CriticalScale(k, None if i is None else float(x[i]),
                         None if j is None else float(x[j]),
                         j is not None and bool(edge[j]))


def _poly_side(fn: SampledFunction, opts: ClassifyOptions):
    """((ok, inconclusive), N*): each C_N = sup |f| (1+x^2)^N, N <= n_max,
    must be interior-attained.  N* is computed once per function and floor
    (below it polynomial weights amplify round-off garbage at the rim)."""
    def make():
        with np.errstate(over="ignore", divide="ignore"):
            w = np.log1p(fn.x ** 2)
            if np.isinf(w).any():  # x^2 overflows: log(1+x^2) = 2 log|x|
                w = np.where(np.isinf(w), 2.0 * np.log(np.abs(fn.x)), w)
        return _critical(fn, w, opts.floor_rel)

    crit = fn._memoised(("N*", opts.floor_rel), make)
    ok = opts.n_max <= crit.value
    return (ok, not ok and crit.masked_edge), crit


def _decay_side(fn: SampledFunction, s: float, opts: ClassifyOptions,
                beurling: bool, masked: bool):
    """((ok, inconclusive), r*) for the decay side: Roumieu needs the
    smallest trial rate at most r*, Beurling the largest.  ``masked``
    marks transform-computed samples, whose sub-floor values are noise;
    direct samples are trusted all the way down, so a boundary-attained
    sup is conclusive.  r* is computed once per function, s and floor."""
    if s <= 0:
        raise GstfError("s must be positive")
    floor = opts.floor_rel if masked else None

    def make():  # |x|^(1/s) in units of its maximum, which may overflow
        ax = np.abs(fn.x)
        top = max(ax[0], ax[-1])  # |x| falls then rises along the grid
        with np.errstate(over="ignore"):
            w, unit = (ax / top) ** (1.0 / s), top ** (1.0 / s)
        return _critical(fn, w, floor, unit)

    crit = fn._memoised(("r*", s, floor), make)
    rs = opts.trial_rs()
    ok = (max(rs) if beurling else min(rs)) <= crit.value
    return (ok, not ok and crit.masked_edge), crit


def _aggregate(*sides) -> str:
    """Verdict from (ok, inconclusive) pairs: hard failure beats
    everything; otherwise an at-the-noise-edge fit leaves it open."""
    if all(ok for ok, _ in sides):
        return MEMBER
    if any(not ok and not inc for ok, inc in sides):
        return NOT_MEMBER
    return INCONCLUSIVE


def _zero_report() -> EnvelopeReport:
    return EnvelopeReport(C_peak=0.0, r_star=CriticalScale(INF),
                          N_star=CriticalScale(INF), verdict=MEMBER,
                          diagnostics={"zero_function": True})


def _verdict(decay_fn: SampledFunction, s: float, poly_fn: SampledFunction,
             idx: GSIndex, opts: ClassifyOptions, c_peak: float,
             masked: bool) -> EnvelopeReport:
    """One decay side against one polynomial side: the test shared by the
    direct and the STFT characterisation of a one-parameter class."""
    decay, r_star = _decay_side(decay_fn, s, opts,
                                idx.regularity == "beurling", masked)
    poly, n_star = _poly_side(poly_fn, opts)
    return EnvelopeReport(C_peak=c_peak, r_star=r_star, N_star=n_star,
                          verdict=_aggregate(decay, poly))


def classify_function(f: SampledFunction, idx: GSIndex,
                      opts: ClassifyOptions | None = None) -> EnvelopeReport:
    """Membership verdict for f against a one-parameter class."""
    opts = opts or ClassifyOptions()
    c_peak = _magnitudes(f)[2]
    if c_peak == 0.0:
        return _zero_report()
    if not idx.one_parameter:
        raise GstfError("classify_function handles one-parameter spaces; "
                        "classify each side separately")
    if math.isinf(idx.sigma):  # S_s / Sigma_s: decay on f, poly table on f^
        return _verdict(f, idx.s, dft(f), idx, opts, c_peak, masked=False)
    # S^sigma / Sigma^sigma: mirrored, the decay samples come out of the FFT
    return _verdict(dft(f), idx.sigma, f, idx, opts, c_peak, masked=True)


def _window_stft(f: SampledFunction, window: SampledFunction, idx: GSIndex,
                 tfgrid: TFGrid, opts: ClassifyOptions, check_window: bool,
                 precomputed: TFR | None) -> TFR:
    if check_window:
        # a fresh carrier of the same read-only samples: its memo goes
        # before the STFT runs
        wr = classify_function(SampledFunction(window.grid, window.values),
                               idx, opts)
        if wr.verdict != MEMBER:
            raise GstfError(
                f"window is {wr.verdict} for the requested class; "
                "pick a window inside the class")
    return precomputed if precomputed is not None else stft(f, window, tfgrid)


def classify_stft(f: SampledFunction, window: SampledFunction, idx: GSIndex,
                  tfgrid: TFGrid, opts: ClassifyOptions | None = None,
                  check_window: bool = True,
                  precomputed: TFR | None = None) -> EnvelopeReport:
    """Membership verdict from the decay signature of V_window f.

    The two-variable envelope C_N (1+|freq var|^2)^(-N) exp(-r |decay
    var|^(1/s)) is checked through its marginals: the max-profile along
    each axis is fed to the same fitters as classify_function.  Pass
    ``precomputed = stft(f, window, tfgrid)`` to reuse one transform, its
    profiles and their tables across several classes."""
    opts = opts or ClassifyOptions()
    v = _window_stft(f, window, idx, tfgrid, opts, check_window, precomputed)
    # For a finite s the decay variable is position, for a finite sigma
    # frequency.  STFT samples are quadrature outputs: sub-floor values
    # are noise.
    decay_on_x = math.isinf(idx.sigma)
    x_profile, xi_profile = v.max_profiles()
    decay_fn, poly_fn = ((x_profile, xi_profile) if decay_on_x
                         else (xi_profile, x_profile))
    c_peak = _magnitudes(decay_fn)[2]  # the max of |V|
    if c_peak == 0.0:
        return _zero_report()
    return _verdict(decay_fn, idx.s if decay_on_x else idx.sigma, poly_fn,
                    idx, opts, c_peak, masked=True)


def dual_growth_report(f: SampledFunction, window: SampledFunction,
                       idx: GSIndex, tfgrid: TFGrid,
                       opts: ClassifyOptions | None = None,
                       check_window: bool = True,
                       precomputed: TFR | None = None) -> EnvelopeReport:
    """Dual-space probe: |V| must stay under (1+|freq var|^2)^N0 *
    exp(r |decay var|^(1/s)) for some N0 <= n_max.

    Roumieu duals need an N0 for every trial r; Beurling duals need a
    single working r0."""
    opts = opts or ClassifyOptions()
    v = _window_stft(f, window, idx, tfgrid, opts, check_window, precomputed)
    a = np.abs(v.values)
    c_peak = float(a.max())
    if math.isinf(idx.sigma):  # d: the axis of the decay variable
        d, decay_x = 0, np.abs(tfgrid.xgrid.coords)[:, None]
        logpoly = np.log1p(tfgrid.xigrid.coords**2)[None, :]
    else:
        d, decay_x = 1, np.abs(tfgrid.xigrid.coords)[None, :]
        logpoly = np.log1p(tfgrid.xgrid.coords**2)[:, None]
    # an overflow to inf is the weight's limit; log 0 = -inf
    with np.errstate(over="ignore", divide="ignore"):
        decay_x = decay_x ** (1.0 / (idx.s if d == 0 else idx.sigma))
        rd_list = [(r, r * decay_x) for r in opts.trial_rs()]
        loga = np.log(a)

    # logv = loga - n0*logpoly - r*decay_x.  Subtracting the per-line
    # constant r*decay_x is monotone in floating point, so the line maxima
    # of logv are those of loga - n0*logpoly, reduced once per n0, minus it.
    line_max, n0_by_r, table = {}, {}, {}
    i = a.size // 2  # reported until some logv is finite
    for r, rd in rd_list:
        found = None
        for n0 in range(opts.n_max + 1):
            if n0 not in line_max:
                line_max[n0] = (loga - n0 * logpoly).max(1 - d, keepdims=True)
            lines = line_max[n0] - rd
            top = lines.max()
            if top == -INF:  # no finite logv (|V| is finite)
                found = n0  # zero TFR: trivially bounded
                break
            # the first argmax of logv in C order lies on a line at the top
            hit = np.flatnonzero(lines == top)
            logv = np.take(loga, hit, d) - n0 * logpoly - np.take(rd, hit, d)
            pos = list(np.unravel_index(np.argmax(logv), logv.shape))
            pos[d] = hit[pos[d]]
            i = int(np.ravel_multi_index(pos, a.shape))
            if all(GUARD <= p < n - GUARD for p, n in zip(pos, a.shape)):
                found = n0
                break
        n0_by_r[r] = found
        table[r] = EnvelopeFit(
            C=math.inf if top > _LOG_MAX else float(math.exp(top)),
            attained_at=i, interior_attained=found is not None)
    if idx.regularity == "roumieu":
        member = all(n0 is not None for n0 in n0_by_r.values())
    else:
        member = any(n0 is not None for n0 in n0_by_r.values())
    return EnvelopeReport(C_peak=c_peak,
                          verdict=MEMBER if member else NOT_MEMBER,
                          diagnostics={"N0_by_r": n0_by_r,
                                       "fit_by_r": table})

