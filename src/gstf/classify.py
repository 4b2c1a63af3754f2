"""Envelope fitting and membership verdicts for sub-exponential decay classes.

A one-parameter class is named by a :class:`GSIndex` with exactly one
finite entry: a finite ``s`` constrains the function side with envelopes
C * exp(-r |x|^(1/s)); a finite ``sigma`` constrains the Fourier side the
same way.  The unconstrained side is always a polynomial-envelope table
(1+|.|^2)^(-N), N = 0..n_max.  Roumieu classes need one working rate,
Beurling classes need every rate in a trial list.

Quantifiers over all r > 0 / all N are finitized to configurable trial
lists; finiteness of a sup on an unbounded domain is proxied by interior
attainment on the truncated grid (argmax not within a guard band of the
truncation boundary).  Samples below a relative noise floor are excluded
from rate fits and polynomial tables; a sup attained at the boundary with
a below-floor raw value yields the honest third verdict, Inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GstfError
from .grids import SampledFunction, TFGrid, TFR
from .transforms import dft, dft2, stft

__all__ = [
    "INF", "GSIndex", "ClassifyOptions", "EnvelopeFit", "EnvelopeReport",
    "MEMBER", "NOT_MEMBER", "INCONCLUSIVE",
    "sup_envelope_constant", "fit_decay_rate", "fit_poly_table",
    "classify_function", "classify_stft", "dual_growth_report",
    "classify_symbol",
]

INF = math.inf

MEMBER = "Member"
NOT_MEMBER = "NotMember"
INCONCLUSIVE = "Inconclusive"

_LOG_MAX = math.log(np.finfo(float).max)


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
    r_min: float = 1e-3
    r_scale: float = 1.0
    r_list: tuple = ()  # empty = default geometric list times r_scale
    n_max: int = 8
    floor_rel: float = 1e-13
    guard: int = 2

    def __post_init__(self):
        # Out-of-range values would make a side of the test vacuous: a
        # negative n_max empties the polynomial table, a negative guard
        # counts the grid edge as interior, a nan rate zeroes every
        # Beurling sup.
        for name, n in (("n_max", self.n_max), ("guard", self.guard)):
            if not (isinstance(n, (int, np.integer)) and n >= 0):
                raise GstfError(f"{name} must be an integer >= 0, got {n!r}")
        for name, r in (("r_min", self.r_min), ("r_scale", self.r_scale),
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
    raw_abs: float  # |f| at the argmax, for floor diagnostics
    # Sup attained at the edge of the trustworthy (above-floor) samples
    # while still rising: the data cannot settle the bound either way.
    masked_edge: bool = False


@dataclass(frozen=True)
class EnvelopeReport:
    C_peak: float
    r_fit: float
    N_table: dict = field(default_factory=dict)
    beurling_table: dict = field(default_factory=dict)
    verdict: str = INCONCLUSIVE
    diagnostics: dict = field(default_factory=dict)


def _weighted_sup(absvals: np.ndarray, logweight: np.ndarray, guard: int,
                  mask: np.ndarray | None = None) -> EnvelopeFit:
    """Sup of |f| * exp(logweight) in the log domain, with attainment
    diagnostics.  ``mask`` selects the admissible samples; an argmax whose
    neighbor is inadmissible is flagged masked_edge (the sup may continue
    growing where the samples are round-off garbage)."""
    n = absvals.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0, -inf + inf
        logv = np.log(absvals) + logweight
    if mask is not None:
        logv = np.where(mask, logv, -np.inf)
    i = int(np.argmax(logv))
    if np.isnan(logv[i]):  # log 0 + inf: a zero sample stays at -inf
        logv[np.isnan(logv)] = -np.inf
        i = int(np.argmax(logv))
    top = logv[i]
    if top == -np.inf:  # no admissible nonzero sample
        return EnvelopeFit(C=0.0, attained_at=n // 2, interior_attained=True,
                           raw_abs=0.0)
    c = math.inf if top > _LOG_MAX else float(math.exp(top))
    interior = guard <= i <= n - 1 - guard
    edge = False
    if mask is not None and interior:
        edge = (i > 0 and not mask[i - 1]) or (i < n - 1 and not mask[i + 1])
    return EnvelopeFit(C=c, attained_at=i, interior_attained=interior,
                       raw_abs=float(absvals[i]), masked_edge=bool(edge))


def sup_envelope_constant(f: SampledFunction, r: float, s: float,
                          guard: int = 2,
                          floor: float | None = None) -> EnvelopeFit:
    """Sup over the grid of |f(x)| exp(r |x|^(1/s)).

    Pass an absolute ``floor`` when the samples came out of a transform
    (FFT, STFT): below it they are round-off noise, and the unbounded
    weight would amplify that noise into a fake boundary sup."""
    if s <= 0:
        raise GstfError("s must be positive")
    a = np.abs(f.values)
    with np.errstate(over="ignore"):  # an overflow to inf is the limit
        w = r * np.abs(f.x) ** (1.0 / s)
    mask = a >= floor if floor is not None else None
    return _weighted_sup(a, w, guard, mask)


def fit_decay_rate(f: SampledFunction, s: float, floor: float | None = None) -> float:
    """Largest rate r with |f(x)| <= sup|f| * exp(-r |x|^(1/s)) on the grid.

    Samples below the noise floor or inside one step of the origin are
    excluded; +inf when no sample qualifies (e.g. compact support)."""
    if s <= 0:
        raise GstfError("s must be positive")
    a = np.abs(f.values)
    c_peak = float(a.max())
    if c_peak == 0.0:
        return math.inf
    if floor is None:
        floor = 1e-13 * c_peak
    x = np.abs(f.x)
    sel = (a > floor) & (x >= f.grid.step)
    if not np.any(sel):
        return math.inf
    # |x|^(1/s) may overflow to inf or underflow to 0, its limits
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratios = (math.log(c_peak) - np.log(a[sel])) / x[sel] ** (1.0 / s)
    r = float(ratios.min())
    # 0/0 is a sample at the peak whose positive weight underflowed: it
    # bounds r by 0
    return 0.0 if math.isnan(r) else r


def fit_poly_table(f: SampledFunction, n_max: int, floor_rel: float = 1e-13,
                   guard: int = 2) -> dict:
    """C_N = sup |f(x)| (1+x^2)^N for N = 0..n_max, below-floor samples
    excluded (polynomial weights amplify round-off garbage at the rim)."""
    if n_max > 16:
        raise GstfError("n_max must be at most 16")
    a = np.abs(f.values)
    peak = a.max()
    mask = a >= floor_rel * peak if peak > 0 else None
    with np.errstate(over="ignore"):  # x^2 = inf, its limit
        logw1 = np.log1p(f.x**2)
    # the N = 0 weight is exactly 1, also where x^2 overflows
    return {n: _weighted_sup(a, n * logw1 if n else 0.0, guard, mask)
            for n in range(n_max + 1)}


def _poly_side(fn: SampledFunction, opts: ClassifyOptions):
    table = fit_poly_table(fn, opts.n_max, opts.floor_rel, opts.guard)
    ok = all(f.interior_attained and not f.masked_edge for f in table.values())
    inconclusive = any(f.masked_edge for f in table.values())
    return (ok, inconclusive), table


def _decay_side(fn: SampledFunction, s: float, opts: ClassifyOptions,
                beurling: bool, masked: bool):
    """((ok, inconclusive), r_fit, beurling_table) for the decay side.

    Roumieu needs the fitted rate to reach r_min; Beurling needs every
    trial-list sup interior-attained.  ``masked`` marks transform-computed
    samples, whose sub-floor values are noise and get excluded; direct
    samples are trusted all the way down, so a boundary-attained sup is
    conclusive."""
    r_fit = fit_decay_rate(fn, s)
    if not beurling:
        return (r_fit >= opts.r_min, False), r_fit, {}
    floor = opts.floor_rel * float(np.abs(fn.values).max()) if masked else None
    table = {r: sup_envelope_constant(fn, r, s, opts.guard, floor)
             for r in opts.trial_rs()}
    # A masked edge is still rising where the samples turn to noise.
    inconclusive = any(f.masked_edge for f in table.values())
    ok = not inconclusive and all(f.interior_attained for f in table.values())
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
    decay, r_fit, beurling_table = _decay_side(
        decay_fn, s, opts, idx.regularity == "beurling", masked)
    poly, n_table = _poly_side(poly_fn, opts)
    return EnvelopeReport(
        C_peak=c_peak, r_fit=r_fit, N_table=n_table,
        beurling_table=beurling_table, verdict=_aggregate(decay, poly),
        diagnostics={"floor_rel": opts.floor_rel, "guard": opts.guard})


def classify_function(f: SampledFunction, idx: GSIndex,
                      opts: ClassifyOptions | None = None) -> EnvelopeReport:
    """Membership verdict for f against a one-parameter class."""
    opts = opts or ClassifyOptions()
    c_peak = float(np.abs(f.values).max())
    if c_peak == 0.0:
        return _zero_report()
    if not idx.one_parameter:
        raise GstfError("classify_function handles one-parameter spaces; "
                        "classify each side separately")
    if math.isinf(idx.sigma):  # S_s / Sigma_s: decay on f, poly table on f^
        return _verdict(f, idx.s, dft(f), idx, opts, c_peak, masked=False)
    # S^sigma / Sigma^sigma: mirrored, the decay samples come out of the FFT
    return _verdict(dft(f), idx.sigma, f, idx, opts, c_peak, masked=True)


def _profiles(v: TFR, decay_on_x: bool):
    """(decay, polynomial) max-magnitude profiles of a TFR.  The decay
    variable is position when ``decay_on_x``, frequency otherwise."""
    a = np.abs(v.values)
    x_profile = SampledFunction(v.tfgrid.xgrid, a.max(axis=1))
    xi_profile = SampledFunction(v.tfgrid.xigrid, a.max(axis=0))
    return (x_profile, xi_profile) if decay_on_x else (xi_profile, x_profile)


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
    ``precomputed = stft(f, window, tfgrid)`` to reuse one transform
    across several classes."""
    opts = opts or ClassifyOptions()
    v = _window_stft(f, window, idx, tfgrid, opts, check_window, precomputed)
    # For a finite s the decay variable is position, for a finite sigma
    # frequency.  STFT samples are quadrature outputs: sub-floor values
    # are noise.
    decay_on_x = math.isinf(idx.sigma)
    decay_fn, poly_fn = _profiles(v, decay_on_x)
    c_peak = float(np.abs(decay_fn.values).max())  # the max of |V|
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
            if all(opts.guard <= p < n - opts.guard
                   for p, n in zip(pos, a.shape)):
                found = n0
                break
        n0_by_r[r] = found
        table[r] = EnvelopeFit(
            C=math.inf if top > _LOG_MAX else float(math.exp(top)),
            attained_at=i,
            interior_attained=found is not None,
            raw_abs=float(a.ravel()[i]),
        )
    if idx.regularity == "roumieu":
        member = all(n0 is not None for n0 in n0_by_r.values())
    else:
        member = any(n0 is not None for n0 in n0_by_r.values())
    return EnvelopeReport(C_peak=c_peak, r_fit=math.nan, beurling_table=table,
                          verdict=MEMBER if member else NOT_MEMBER,
                          diagnostics={"N0_by_r": n0_by_r})


def classify_symbol(a: TFR, s_or_sigma: float, side: str,
                    opts: ClassifyOptions | None = None) -> EnvelopeReport:
    """Mixed-envelope verdict for a phase-space symbol a(x, xi).

    side="position-decay": sub-exponential decay in x and a polynomial
    table in xi for a itself; polynomial in eta and sub-exponential in y
    for its 2-D transform a^(eta, y).  side="frequency-decay" mirrors the
    roles.  The single index is used on both sub-exponential axes, which
    is the symbol hypothesis the Toeplitz continuity probes need."""
    opts = opts or ClassifyOptions()
    if side not in ("position-decay", "frequency-decay"):
        raise GstfError(f"unknown side {side!r}")
    c_peak = float(np.abs(a.values).max())
    if c_peak == 0.0:
        return _zero_report()
    decay_on_x = side == "position-decay"
    decay_fn, poly_fn = _profiles(a, decay_on_x)
    hat_decay, hat_poly = _profiles(dft2(a), not decay_on_x)

    decay, r_fit, _ = _decay_side(decay_fn, s_or_sigma, opts,
                                  beurling=False, masked=False)
    poly, n_table = _poly_side(poly_fn, opts)
    hat_side, r_fit_hat, _ = _decay_side(hat_decay, s_or_sigma, opts,
                                         beurling=False, masked=False)
    hat_poly_side, hat_table = _poly_side(hat_poly, opts)
    return EnvelopeReport(
        C_peak=c_peak, r_fit=r_fit, N_table=n_table,
        verdict=_aggregate(decay, poly, hat_side, hat_poly_side),
        diagnostics={"r_fit_transform": r_fit_hat,
                     "transform_N_table": hat_table,
                     "side": side})
