"""Pulse-sequence execution and parameter fitting.

Runs erase/pump/dark/probe sequences against the diffusion solver,
produces decay series of the dot-average polarization, and provides the
fits used against measured data: exponential rise and decay times, and
the diffusion coefficient. Every fit runs one search over the log10 of
its nonlinear parameter, tau or D: a coarse scan (``_scan``) refined by
Brent's method between the neighbors of the best candidate
(``_refine``), with the linear parameters solved by least squares at
each point (``_lsq``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (DecaySeries, DotGeometry, PulseSequence, SegmentKind,
                     YKind)
from .errors import InvariantViolation, NotIdentifiable
from .solver import (DarkSampler, Grid, SolverConfig, _clamped, _dot,
                     dark_sample_times, simulate_pump)
from .units import diffusion_cm2s_to_nm2s

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LOG_D_TOL = 1e-3  # resolves D to ~0.2%, far inside fit tolerances
_SCAN_PER_DECADE = 2  # candidates per decade of the D bounds
# the tau the samples resolve: from a tenth of the finest sample spacing
# to 100 times the span; a fitted tau outside that is not identified
_TAU_MIN_PER_SPACING = 0.1
_TAU_MAX_PER_SPAN = 100.0
_TAU_SCAN_PER_DECADE = 4  # candidates per decade of the tau scan
_LOG_TAU_TOL = 1e-9  # resolves tau to ~2e-9, far inside any noise


@dataclass(frozen=True)
class RiseFit:
    """Least-squares parameters of y = offset + amplitude*(1 - exp(-t/tau)).

    ``model`` is the fitted curve at the series' times, from the model
    function the fit minimized.
    """

    amplitude: float
    tau: float
    offset: float
    residual_rms: float
    model: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.tau > 0:
            raise InvariantViolation("NonPositiveTau", f"tau = {self.tau}")


@dataclass(frozen=True)
class DecayFit:
    """Least-squares parameters of y = amplitude * exp(-t/tau)."""

    amplitude: float
    tau: float
    residual_rms: float

    def __post_init__(self):
        if not self.tau > 0:
            raise InvariantViolation("NonPositiveTau", f"tau = {self.tau}")


@dataclass(frozen=True)
class DiffusionFit:
    """Best diffusion coefficient (cm^2/s) with the affine nuisance pair
    y ~ offset + scale * P(t; D) and the candidate grid examined.

    ``sse`` and ``sse_grid`` (one value per ``d_grid`` candidate) are
    sums of squared residuals, each residual divided by its sigma when
    the data carry one. ``forward_solves`` counts the forward-model
    solves the fit ran: the scan and the refinement.
    ``model`` is offset + scale * P(t; d_qd) at the measured times, from
    the curve the fit solved at d_qd.
    """

    d_qd: float
    scale: float
    offset: float
    sse: float
    d_grid: tuple[float, ...]
    warnings: tuple[str, ...] = ()
    sse_grid: tuple[float, ...] = ()
    forward_solves: int = 0
    model: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.d_qd > 0:
            raise InvariantViolation("NonPositiveDiffusion",
                                     f"d_qd = {self.d_qd}")


def run_sequence(seq: PulseSequence, cfg: SolverConfig,
                 geometry: DotGeometry, grid: Grid,
                 dark_sample_every: float | None = None) -> DecaySeries:
    """Execute a pulse sequence from an unpolarized start.

    The state is the ``DarkSampler`` of the last pump plus the dark time
    elapsed since that pump; no field is held. Erase returns to the
    unpolarized state, whose dot average is exactly 0. A pump from the
    unpolarized state is ``simulate_pump``, the forward model's pump; a
    pump from a polarized state hands the sampler and the elapsed time to
    the clamped routine (``solver._clamped``), which sets the dot to 1 at
    once and consumes the sampler. Dark and probe segments only add to the
    elapsed time: a dark segment is read at ``dark_sample_times`` when
    ``dark_sample_every`` is given, and a probe records (time, dot
    average) at its start without perturbing the state. Times are the
    cumulative sequence clock. Coincident duplicate samples (a probe at a
    dark sampling instant) are dropped.
    """
    pumped: DarkSampler | None = None  # None: unpolarized
    clock = elapsed = 0.0
    ts: list[float] = []
    ys: list[float] = []

    for seg in seq.segments:
        times = None
        if seg.kind is SegmentKind.ERASE:
            pumped = None
        elif seg.kind is SegmentKind.PUMP:
            pumped = (simulate_pump(geometry, cfg, seg.duration, grid)
                      if pumped is None else
                      _clamped(pumped, elapsed, geometry, seg.duration))
            elapsed = 0.0
        elif seg.kind is SegmentKind.PROBE:
            times = np.zeros(1)
        elif dark_sample_every is not None:
            times = dark_sample_times(seg.duration, dark_sample_every)
        if times is not None:
            if pumped is None:
                _dot(grid, geometry)  # read from nothing, yet checked
                y = np.zeros(times.size)
            else:
                y = pumped.dot_averages(elapsed + times, geometry)
            for t, v in zip((clock + times).tolist(), y.tolist()):
                if not ts or t != ts[-1]:
                    ts.append(t)
                    ys.append(v)
        if seg.kind is not SegmentKind.PUMP:
            elapsed += seg.duration
        clock += seg.duration
    if not ts:
        raise InvariantViolation(
            "NoSamples", "sequence has no probe and no sampled dark segment")
    return DecaySeries(t=np.array(ts), y=np.array(ys),
                       y_kind=YKind.DOT_AVERAGE,
                       metadata={"n_segments": len(seq.segments)})


def simulate_decay_curve(d_cm2s: float, t_pump: float, t_max: float,
                         sample_every: float, geometry: DotGeometry,
                         grid: Grid, *, dt: float | None = None,
                         t1_uniform: float | None = None) -> DecaySeries:
    """The dot average of ``pumped_sampler`` at
    ``dark_sample_times(t_max, sample_every)`` since the end of the pump.
    The pump leaves the dot at S = 1, so the series starts at exactly 1."""
    t = dark_sample_times(t_max, sample_every)
    y = pumped_sampler(d_cm2s, t_pump, geometry, grid, dt,
                       t1_uniform).dot_averages(t, geometry)
    return DecaySeries(t=t, y=y, y_kind=YKind.DOT_AVERAGE,
                       metadata={"d_cm2s": d_cm2s, "t_pump_s": t_pump})


def time_to_level(series: DecaySeries, level: float) -> float:
    """First time the series crosses down to ``level``, by linear
    interpolation between samples."""
    t, y = series.t, series.y
    if y[0] <= level:
        return float(t[0])
    below = np.nonzero(y <= level)[0]
    if below.size == 0:
        raise InvariantViolation(
            "LevelNotReached",
            f"series stays above {level} (min {y.min():.4g})")
    k = int(below[0])
    frac = (y[k - 1] - level) / (y[k - 1] - y[k])
    return float(t[k - 1] + frac * (t[k] - t[k - 1]))


def _fit_tau(series: DecaySeries, model, linear: int, what: str
             ) -> tuple[tuple[float, ...], np.ndarray, float]:
    """Least-squares fit of ``model(t, *params, tau)``, linear in its
    ``linear`` leading ``params``, to ``series``, which needs one point
    more than the model has parameters: the fitted parameters (tau last),
    the fitted curve at the series' times and the residual RMS.

    The samples resolve a tau from ``_TAU_MIN_PER_SPACING`` times the
    finest sample spacing to ``_TAU_MAX_PER_SPAN`` times the span. The
    search scans log10 tau from a decade below that range to a decade
    above it (``_TAU_SCAN_PER_DECADE`` candidates per decade) and refines
    to ``_LOG_TAU_TOL``. At each tau the linear parameters are solved by
    least squares on the model's columns, the model at each unit vector
    of them. A candidate whose columns or parameters overflow scores
    +inf: at a short tau, a time before 0 overflows the columns, and
    times all far after 0 overflow the amplitude. A fitted tau outside
    the resolved range raises NotIdentifiable: a straight line, for one,
    fits as a tau far beyond its span."""
    t, y = series.t, series.y
    if len(t) < linear + 2:
        raise InvariantViolation("TooFewPoints",
                                 f"need >= {linear + 2} points, got {len(t)}")
    if np.ptp(y) == 0:
        raise NotIdentifiable(f"constant series has no {what} time")

    def columns(tau: float) -> np.ndarray:
        return np.column_stack([model(t, *u, tau) for u in np.eye(linear)])

    def sse(log_tau: float) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            a = columns(10.0 ** log_tau)
            value = _lsq(a, y)[1] if np.isfinite(a).all() else math.inf
        return value if math.isfinite(value) else math.inf

    lo = _TAU_MIN_PER_SPACING * float(np.diff(t).min())
    hi = _TAU_MAX_PER_SPAN * float(t[-1] - t[0])
    log_tau, _ = _refine(sse, *_scan(sse, lo / 10.0, hi * 10.0,
                                     _TAU_SCAN_PER_DECADE), _LOG_TAU_TOL)
    tau = 10.0 ** log_tau
    if not lo <= tau <= hi:
        raise NotIdentifiable(
            f"{what} time tau = {tau:.6g} s lies outside [{lo:.6g}, "
            f"{hi:.6g}] s, the range the samples resolve")
    params = (*_lsq(columns(tau), y)[0].tolist(), tau)
    fitted = model(t, *params)
    return params, fitted, float(np.sqrt(np.mean((y - fitted) ** 2)))


def fit_exponential_rise(series: DecaySeries) -> RiseFit:
    """Fit y = offset + amplitude*(1 - exp(-t/tau)) by least squares."""
    def model(t, offset, amplitude, tau):
        return offset + amplitude * (1.0 - np.exp(-t / tau))

    (offset, amplitude, tau), fitted, rms = _fit_tau(series, model, 2, "rise")
    return RiseFit(amplitude=amplitude, tau=tau, offset=offset,
                   residual_rms=rms, model=tuple(fitted.tolist()))


def fit_exponential_decay(series: DecaySeries) -> DecayFit:
    """Fit y = amplitude * exp(-t/tau) (no offset) by least squares."""
    def model(t, amplitude, tau):
        return amplitude * np.exp(-t / tau)

    (amplitude, tau), _, rms = _fit_tau(series, model, 1, "decay")
    return DecayFit(amplitude=amplitude, tau=tau, residual_rms=rms)


def pumped_sampler(d_cm2s: float, t_pump: float, geometry: DotGeometry,
                   grid: Grid, dt: float | None = None,
                   t1_uniform: float | None = None) -> DarkSampler:
    """The pump->dark forward model at D = ``d_cm2s`` (cm^2/s): pump an
    unpolarized medium for ``t_pump``, exactly in time, with uniform
    relaxation ``t1_uniform``, and return the free evolution from the end
    of the pump. ``dt`` is kept in ``SolverConfig`` for ``step()`` and
    does not change the pump. The pump leaves the dot
    at exactly S = 1, so the dot average at dark time 0 is exactly 1."""
    cfg = SolverConfig(d_qd=diffusion_cm2s_to_nm2s(d_cm2s),
                       t1_uniform=t1_uniform, dt=dt)
    return simulate_pump(geometry, cfg, t_pump, grid)


def _lsq(a: np.ndarray, y: np.ndarray, weight: np.ndarray | None = None
         ) -> tuple[np.ndarray, float]:
    """Best coefficients for y ~ a @ coef, plus the SSE; with ``weight``,
    each residual is multiplied by its weight (1/sigma)."""
    if weight is not None:
        a, y = a * weight[:, None], y * weight
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    res = y - a @ coef
    return coef, float(res @ res)


def _scan(f, lo: float, hi: float, per_decade: int
          ) -> tuple[np.ndarray, np.ndarray]:
    """The candidates of a log10 grid from ``lo`` to ``hi``, both
    included, at ``per_decade`` per decade, and ``f`` at each."""
    logs = np.linspace(math.log10(lo), math.log10(hi),
                       int(np.ceil(per_decade * math.log10(hi / lo))) + 1)
    return logs, np.array([f(l) for l in logs])


def _refine(f, logs: np.ndarray, values: np.ndarray, tol: float
            ) -> tuple[float, float]:
    """Brent's method (``_brent``) to ``tol`` between the neighbors of
    the least of the scanned ``values``, from that candidate, or from the
    golden point when it is an end of the scan."""
    best = int(np.argmin(values))
    a = float(logs[max(best - 1, 0)])
    b = float(logs[min(best + 1, len(logs) - 1)])
    x, fx = float(logs[best]), float(values[best])
    if not a < x < b:
        x = a + (1.0 - _GOLDEN) * (b - a)
        fx = f(x)
    return _brent(f, a, b, x, fx, tol / 2)


def _brent(f, a: float, b: float, x: float, fx: float, tol: float
           ) -> tuple[float, float]:
    """Minimize ``f`` on [a, b] by Brent's method (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 5), from the interior
    point ``x`` where f is ``fx``: the least point so far and the two
    before it define a parabola, whose vertex is the next point when it
    lies inside the bracket and moves less than half the step before the
    last; otherwise a golden-section step goes into the larger part of
    the bracket. No new point is closer than ``tol`` to the least one.
    Stops when the least point is within 2 tol of both ends of the
    bracket and returns it with its value."""
    v, fv, w, fw = x, fx, x, fx
    step = prev = 0.0  # the last step and the one before it
    while max(x - a, b - x) > 2.0 * tol:
        mid = 0.5 * (a + b)
        golden = True
        if abs(prev) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0 else p), abs(q)
            if abs(p) < abs(0.5 * q * prev) and q * (a - x) < p < q * (b - x):
                golden, prev, step = False, step, p / q
                if min(x + step - a, b - x - step) < 2.0 * tol:
                    step = tol if x < mid else -tol
        if golden:
            prev = (a if x >= mid else b) - x
            step = (1.0 - _GOLDEN) * prev
        u = x + (step if abs(step) >= tol else math.copysign(tol, step))
        fu = f(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def fit_diffusion_coefficient(measured: DecaySeries, t_pump: float,
                              geometry: DotGeometry, grid: Grid,
                              d_bounds: tuple[float, float], *,
                              dt: float | None = None,
                              t1_uniform: float | None = None
                              ) -> DiffusionFit:
    """Fit the diffusion coefficient to a measured decay series.

    Scans log10 D on a coarse grid (``_scan``, ``_SCAN_PER_DECADE``
    candidates per decade, both bounds included), solving scale and
    offset by linear least squares (``_lsq``) at each candidate, then
    refines between the neighbors of the best candidate by Brent's
    method (``_refine``) to ``_LOG_D_TOL`` in log10 D. The model is the
    dot average of ``pumped_sampler`` at the measured times, with
    uniform relaxation ``t1_uniform`` (``dt`` is accepted and plays no
    part: the pump is exact in time); the fit keeps each curve it
    solves. When the series carries a ``sigma``, each residual is
    divided by its sigma. A flat objective across the scan raises
    NotIdentifiable; a minimum pinned at a search bound is reported via
    the ``BoundaryMinimum`` warning.
    """
    t, y = measured.t, measured.y
    if len(t) < 5:
        raise InvariantViolation("TooFewPoints",
                                 f"need >= 5 points, got {len(t)}")
    weight = None if measured.sigma is None else 1.0 / measured.sigma
    d_lo, d_hi = d_bounds
    # 0 < d_lo < d_hi makes the ratio at least 1 + 2**-52: decades > 0
    if not (0 < d_lo < d_hi and d_hi / d_lo < math.inf):
        raise InvariantViolation("BadBounds", f"d_bounds = {d_bounds}, need "
                                 "0 < low < high with a finite high / low")
    # log10 D -> the columns [forward model, 1] at t of each solved D
    columns: dict[float, np.ndarray] = {}

    def objective(log_d: float) -> float:
        p = pumped_sampler(10.0 ** log_d, t_pump, geometry, grid, dt,
                           t1_uniform).dot_averages(t, geometry)
        a = columns[log_d] = np.column_stack([p, np.ones_like(p)])
        return _lsq(a, y, weight)[1]

    logs, sses = _scan(objective, d_lo, d_hi, _SCAN_PER_DECADE)
    # flat objective: no candidate is meaningfully better, either in
    # relative terms or because every candidate fits to round-off
    y_w = y if weight is None else y * weight
    perfect = (1e-10 * max(float(np.abs(y_w).max()), 1.0)) ** 2 * y.size
    if (sses.max() <= perfect
            or sses.max() - sses.min() < 1e-3 * max(sses.max(), 1e-300)):
        raise NotIdentifiable(
            "objective is flat across the candidate grid; the data do not "
            "constrain the diffusion coefficient")
    log_best, _ = _refine(objective, logs, sses, _LOG_D_TOL)
    coef, sse = _lsq(columns[log_best], y, weight)
    (scale, offset), p = coef.tolist(), columns[log_best][:, 0]

    warnings: tuple[str, ...] = ()
    edge = _LOG_D_TOL * 2
    if (log_best - math.log10(d_lo) < edge
            or math.log10(d_hi) - log_best < edge):
        warnings = ("BoundaryMinimum",)
    return DiffusionFit(d_qd=10.0 ** log_best, scale=scale, offset=offset,
                        sse=sse, d_grid=tuple(10.0 ** logs),
                        warnings=warnings,
                        sse_grid=tuple(float(x) for x in sses),
                        forward_solves=len(columns),
                        model=tuple((offset + scale * p).tolist()))
