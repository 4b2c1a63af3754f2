"""Envelope fitting and membership verdicts for sub-exponential decay classes.

A one-parameter class is named by a :class:`GSIndex` with exactly one
finite entry: a finite ``s`` constrains the function side with envelopes
C * exp(-r |x|^(1/s)); a finite ``sigma`` constrains the Fourier side the
same way.  The unconstrained side is always a polynomial-envelope table
(1+|.|^2)^(-N), N = 0..n_max.

One table of envelope sups over a trial list of rates decides both
regularities: Roumieu classes need one working rate, Beurling classes
need every rate in the list.  The fitted rate r_fit is reported beside
the verdict and does not decide it.

Quantifiers over all r > 0 / all N are finitized to configurable trial
lists; finiteness of a sup on an unbounded domain is proxied by interior
attainment on the truncated grid (argmax not within GUARD samples of the
truncation boundary).  Samples below a relative noise floor are excluded
from the polynomial tables, and from the rate tables when a transform
computed them; a sup still rising where the samples reach that floor
yields the honest third verdict, Inconclusive.

The magnitudes and tables that several classes of one function share are
computed once, in the function's memo; each report gets its own copies."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GstfError
from .grids import SampledFunction, TFGrid, TFR
from .transforms import dft, stft

__all__ = [
    "INF", "GSIndex", "ClassifyOptions", "EnvelopeFit", "EnvelopeReport",
    "MEMBER", "NOT_MEMBER", "INCONCLUSIVE",
    "fit_decay_rate",
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
        # negative n_max empties the polynomial table, a nan rate zeroes
        # its sup in the rate table.
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
class EnvelopeFit:
    C: float  # may be +inf when the weighted product overflows
    attained_at: int
    interior_attained: bool
    # Sup attained at the edge of the trustworthy (above-floor) samples
    # while still rising: the data cannot settle the bound either way.
    masked_edge: bool = False


@dataclass(frozen=True)
class EnvelopeReport:
    C_peak: float
    r_fit: float
    N_table: dict = field(default_factory=dict)
    rate_table: dict = field(default_factory=dict)
    verdict: str = INCONCLUSIVE
    diagnostics: dict = field(default_factory=dict)


def _sup_table(logabs: np.ndarray, base: np.ndarray, scales,
               mask: np.ndarray | None = None) -> dict:
    """{k: fit} of the sup of |f| * exp(k * base) for each k in ``scales``,
    in the log domain, with attainment diagnostics.  ``logabs`` is log|f|;
    k = 0 is the weight 1 exactly, also where ``base`` is infinite.
    ``mask`` selects the admissible samples; an argmax whose neighbor is
    inadmissible is flagged masked_edge (the sup may continue growing
    where the samples are round-off garbage)."""
    n = logabs.shape[0]
    if mask is not None:
        logabs = np.where(mask, logabs, -np.inf)
    table = {}
    # k * base may overflow to inf, its limit; -inf + inf is a zero or
    # excluded sample under an infinite weight
    with np.errstate(over="ignore", invalid="ignore"):
        for k in scales:
            logv = logabs + (k * base if k else 0.0)
            i = int(np.argmax(logv))
            if math.isnan(logv[i]):  # such a sample stays at -inf
                logv[np.isnan(logv)] = -np.inf
                i = int(np.argmax(logv))
            top = logv[i]
            if top == -np.inf:  # no admissible nonzero sample
                table[k] = EnvelopeFit(C=0.0, attained_at=n // 2,
                                       interior_attained=True)
                continue
            interior = GUARD <= i <= n - 1 - GUARD
            edge = mask is not None and interior and (
                (i > 0 and not mask[i - 1]) or (i < n - 1 and not mask[i + 1]))
            table[k] = EnvelopeFit(
                C=math.inf if top > _LOG_MAX else float(math.exp(top)),
                attained_at=i, interior_attained=interior,
                masked_edge=bool(edge))
    return table


def _magnitudes(f: SampledFunction) -> tuple:
    """(|f|, log|f|, max |f|), computed once per function."""
    def make():
        a = np.abs(f.values)
        with np.errstate(divide="ignore"):  # log 0 = -inf
            loga = np.log(a)
        a.flags.writeable = loga.flags.writeable = False
        return a, loga, float(a.max())
    return f._memoised("magnitudes", make)


def _decay_weight(f: SampledFunction, s: float) -> np.ndarray:
    """|x|^(1/s) on f's grid: the base weight of every decay envelope."""
    if s <= 0:
        raise GstfError("s must be positive")
    with np.errstate(over="ignore"):  # an overflow to inf is the limit
        return np.abs(f.x) ** (1.0 / s)


def _fit_rate(f: SampledFunction, xw: np.ndarray) -> float:
    """fit_decay_rate with the weight ``xw = _decay_weight(f, s)``."""
    a, loga, c_peak = _magnitudes(f)
    if c_peak == 0.0:
        return math.inf
    sel = (a > 1e-13 * c_peak) & (np.abs(f.x) >= f.grid.step)
    if not np.any(sel):
        return math.inf
    # a weight that overflowed to inf or underflowed to 0 is at its limit,
    # and so is a ratio that overflows over a subnormal weight
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = (math.log(c_peak) - loga[sel]) / xw[sel]
    r = float(ratios.min())
    # 0/0 is a sample at the peak whose positive weight underflowed: it
    # bounds r by 0
    return 0.0 if math.isnan(r) else r


def fit_decay_rate(f: SampledFunction, s: float) -> float:
    """Largest rate r with |f(x)| <= sup|f| * exp(-r |x|^(1/s)) on the grid.

    Samples below 1e-13 of the peak or inside one step of the origin are
    excluded; +inf when no sample qualifies (e.g. compact support)."""
    return _fit_rate(f, _decay_weight(f, s))


def _poly_side(fn: SampledFunction, opts: ClassifyOptions):
    """((ok, inconclusive), N_table): C_N = sup |f(x)| (1+x^2)^N for
    N = 0..n_max, below-floor samples excluded (polynomial weights amplify
    round-off garbage at the rim).  The table is computed once per
    function, n_max and floor."""
    def make():
        a, loga, peak = _magnitudes(fn)
        mask = a >= opts.floor_rel * peak if peak > 0 else None
        with np.errstate(over="ignore"):  # x^2 = inf is its limit
            logw1 = np.log1p(fn.x**2)
        return _sup_table(loga, logw1, range(opts.n_max + 1), mask)

    table = fn._memoised(("N", opts.n_max, opts.floor_rel), make)
    ok = all(f.interior_attained and not f.masked_edge for f in table.values())
    inconclusive = any(f.masked_edge for f in table.values())
    return (ok, inconclusive), table


def _decay_side(fn: SampledFunction, s: float, opts: ClassifyOptions,
                beurling: bool, masked: bool):
    """((ok, inconclusive), r_fit, rate_table) for the decay side.

    One table of envelope sups over the trial rates decides both
    regularities.  A rate is good when its sup is interior-attained and
    not at a masked edge; Beurling needs every rate good, Roumieu one.
    ``masked`` marks transform-computed samples, whose sub-floor values
    are noise and get excluded; direct samples are trusted all the way
    down, so a boundary-attained sup is conclusive.  r_fit is reported,
    not judged.  r_fit and the table are computed once per function, s,
    trial list, floor and masking."""
    rs = opts.trial_rs()

    def make():
        a, loga, peak = _magnitudes(fn)
        xw = _decay_weight(fn, s)
        mask = a >= opts.floor_rel * peak if masked else None
        return _fit_rate(fn, xw), _sup_table(loga, xw, rs, mask)

    r_fit, table = fn._memoised(("rates", s, rs, opts.floor_rel, masked), make)
    good = [f.interior_attained and not f.masked_edge for f in table.values()]
    ok = all(good) if beurling else any(good)
    # A masked edge is still rising where the samples turn to noise.
    inconclusive = not ok and any(f.masked_edge for f in table.values())
    return (ok, inconclusive), r_fit, table


def _aggregate(*sides) -> str:
    """Verdict from (ok, inconclusive) pairs: hard failure beats
    everything; otherwise an at-the-noise-edge fit leaves it open."""
    if all(ok for ok, _ in sides):
        return MEMBER
    if any(not ok and not inc for ok, inc in sides):
        return NOT_MEMBER
    return INCONCLUSIVE


def _zero_report() -> EnvelopeReport:
    return EnvelopeReport(C_peak=0.0, r_fit=math.inf, verdict=MEMBER,
                          diagnostics={"zero_function": True})


def _verdict(decay_fn: SampledFunction, s: float, poly_fn: SampledFunction,
             idx: GSIndex, opts: ClassifyOptions, c_peak: float,
             masked: bool) -> EnvelopeReport:
    """One decay side against one polynomial side: the test shared by the
    direct and the STFT characterisation of a one-parameter class."""
    decay, r_fit, rate_table = _decay_side(
        decay_fn, s, opts, idx.regularity == "beurling", masked)
    poly, n_table = _poly_side(poly_fn, opts)
    # the tables are the memo's: each report gets its own dicts
    return EnvelopeReport(
        C_peak=c_peak, r_fit=r_fit, N_table=dict(n_table),
        rate_table=dict(rate_table), verdict=_aggregate(decay, poly))


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
        wr = classify_function(window, idx, opts)
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
    return EnvelopeReport(C_peak=c_peak, r_fit=math.nan, rate_table=table,
                          verdict=MEMBER if member else NOT_MEMBER,
                          diagnostics={"N0_by_r": n0_by_r})

