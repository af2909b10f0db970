"""Pulse-sequence kinetics and fitting.

Heavy forward runs use a deliberately coarse grid (dr = 1 nm,
dz = 0.625 nm, extent factor 5-6) so the suite stays fast; the physics
anchors at full resolution live in the acceptance tests.
"""
import warnings

import numpy as np
import pytest
from scipy.optimize import curve_fit

from spindiff import (BoundaryMode, DarkSampler, DecayFit, DecaySeries,
                      DiffusionFit, DotGeometry, GeometryMismatch, Grid,
                      InvariantViolation, NotIdentifiable, PolarizationField,
                      PulseSegment, PulseSequence, RiseFit, SegmentKind,
                      SolverConfig, YKind,
                      build_grid, dark_sample_times, dot_average, evolve,
                      fit_diffusion_coefficient, fit_exponential_decay,
                      fit_exponential_rise, paper_decay_sequence,
                      run_sequence, simulate_decay_curve, time_to_level)
from spindiff import kinetics, solver
from spindiff.kinetics import _brent, _lsq, pumped_sampler

GEO = DotGeometry()


@pytest.fixture(scope="module")
def coarse_grid():
    return build_grid(GEO, 1.0, 0.625, extent_factor=6.0)


class TestRunSequence:
    def test_clamped_dot_with_zero_diffusion_reads_one(self, coarse_grid):
        seq = PulseSequence((PulseSegment(SegmentKind.ERASE, 10.0),
                             PulseSegment(SegmentKind.PUMP, 10.0),
                             PulseSegment(SegmentKind.PROBE, 0.1)))
        out = run_sequence(seq, SolverConfig(d_qd=0.0, dt=0.1), GEO,
                           coarse_grid)
        assert out.y.tolist() == [1.0]
        assert out.t.tolist() == [20.0]

    def test_erased_dot_reads_zero(self, coarse_grid):
        seq = PulseSequence((PulseSegment(SegmentKind.ERASE, 10.0),
                             PulseSegment(SegmentKind.PROBE, 0.1)))
        out = run_sequence(seq, SolverConfig(d_qd=10.0, dt=0.1), GEO,
                           coarse_grid)
        assert out.y.tolist() == [0.0]

    def test_erase_destroys_pumped_polarization(self, coarse_grid):
        seq = PulseSequence((PulseSegment(SegmentKind.PUMP, 2.0),
                             PulseSegment(SegmentKind.ERASE, 10.0),
                             PulseSegment(SegmentKind.PROBE, 0.1)))
        out = run_sequence(seq, SolverConfig(d_qd=10.0, dt=0.05), GEO,
                           coarse_grid)
        assert out.y.tolist() == [0.0]

    def test_paper_preset_five_second_level(self, coarse_grid):
        # the mid-D anchor survives even on the coarse grid
        seq = paper_decay_sequence(t_dark=5.0)
        out = run_sequence(seq, SolverConfig(d_qd=10.0, dt=0.02), GEO,
                           coarse_grid)
        assert len(out) == 1
        assert 0.25 <= out.y[0] <= 0.40

    def test_dense_dark_sampling_monotone_times(self, coarse_grid):
        seq = paper_decay_sequence(t_dark=2.0)
        out = run_sequence(seq, SolverConfig(d_qd=10.0, dt=0.05), GEO,
                           coarse_grid, dark_sample_every=0.5)
        assert np.all(np.diff(out.t) > 0)
        # dark start, 4 dark samples, probe shares the last dark instant
        assert len(out) == 5
        assert np.all(np.diff(out.y[:5]) < 0)

    def test_dot_beyond_grid_rejected(self, coarse_grid):
        # erase, pump, probe: the pump's clamp and the probe check the dot
        seq = PulseSequence((PulseSegment(SegmentKind.ERASE, 1.0),
                             PulseSegment(SegmentKind.PUMP, 1.0),
                             PulseSegment(SegmentKind.PROBE, 0.1)))
        far = DotGeometry(radius=10.0, height=5.0, z_center=1000.0)
        with pytest.raises(GeometryMismatch):
            run_sequence(seq, SolverConfig(d_qd=10.0, dt=0.1), far,
                         coarse_grid)

    def test_overflowing_counts_rejected(self, coarse_grid):
        # a dark segment whose sample count is not finite
        dark = (PulseSegment(SegmentKind.PUMP, 1.0),
                PulseSegment(SegmentKind.DARK, 1e300))
        for d in (10.0, 0.0):
            cfg = SolverConfig(d_qd=d, dt=0.1)
            with pytest.raises(InvariantViolation, match="TooManySamples"):
                run_sequence(PulseSequence(dark), cfg, GEO, coarse_grid,
                             dark_sample_every=1.0)

    @pytest.mark.parametrize("d", [10.0, 0.0])
    def test_endless_repump_finishes(self, coarse_grid, d):
        # a re-pump of any finite length ends at the steady state: the
        # decay read 3 s after it is the same after 1e200 s and 1e300 s
        cfg = SolverConfig(d_qd=d, dt=1e-300)
        y = []
        for t_pump in (1e200, 1e300):
            seq = PulseSequence((PulseSegment(SegmentKind.PUMP, 0.0),
                                 PulseSegment(SegmentKind.PUMP, t_pump),
                                 PulseSegment(SegmentKind.DARK, 3.0),
                                 PulseSegment(SegmentKind.PROBE, 0.1)))
            out = run_sequence(seq, cfg, GEO, coarse_grid)
            assert out.t.tolist() == [t_pump]  # 3 s is below its ulp
            y.append(out.y[0])
        assert np.isfinite(y[0]) and (y[0] < 1.0) == (d > 0)
        assert y[1] == pytest.approx(y[0], rel=0, abs=1e-13)

    def test_sequence_without_readout_rejected(self, coarse_grid):
        seq = PulseSequence((PulseSegment(SegmentKind.DARK, 1.0),))
        with pytest.raises(InvariantViolation):
            run_sequence(seq, SolverConfig(d_qd=10.0, dt=0.1), GEO,
                         coarse_grid)


def field_route_sequence(seq, cfg, geometry, grid, dark_sample_every=None,
                         pump=None):
    """Reference run_sequence: the field is held between segments, each
    pump resets the dot cells and runs the clamped ``evolve`` (or
    ``pump(values, duration)``, when given), each dark segment starts a
    ``DarkSampler`` of the field, and a probe reads the field's dot
    average before an unclamped ``evolve``."""
    field = PolarizationField(grid, np.zeros((grid.nr, grid.nz)), 0.0)
    ts, ys = [], []

    def record(t, y):
        if not ts or t != ts[-1]:
            ts.append(t)
            ys.append(y)

    for s in seq.segments:
        if s.kind is SegmentKind.ERASE:
            field = PolarizationField(grid, np.zeros((grid.nr, grid.nz)),
                                      field.time + s.duration)
        elif s.kind is SegmentKind.PUMP:
            v = field.values.copy()
            v[grid.dot_mask(geometry)] = 1.0
            if pump is None:
                field = evolve(PolarizationField(grid, v, field.time), cfg,
                               s.duration, clamp=geometry)
            else:
                field = PolarizationField(grid, pump(v, s.duration),
                                          field.time + s.duration)
        elif s.kind is SegmentKind.DARK:
            dark = DarkSampler(field, cfg)
            if dark_sample_every is None:
                field = dark.field_at(s.duration)
            else:
                times = dark_sample_times(s.duration, dark_sample_every)
                for t, y in zip(times, dark.dot_averages(times, geometry)):
                    record(field.time + t, y)
                field = dark.field_at(times[-1])
        else:
            record(field.time, dot_average(field, geometry))
            field = evolve(field, cfg, s.duration)
    return np.array(ts), np.array(ys)


ERASE, PUMP = SegmentKind.ERASE, SegmentKind.PUMP
DARK, PROBE = SegmentKind.DARK, SegmentKind.PROBE


def sequence(*segments):
    return PulseSequence(tuple(PulseSegment(kind, duration)
                               for kind, duration in segments))


class TestRunSequenceMatchesFieldRoute:
    """``run_sequence`` keeps the pumped sampler instead of a field; it
    must agree with the field route it replaces."""

    GRID = build_grid(GEO, 1.0, 0.625, extent_factor=5.0)
    SEQUENCES = {
        "paper": sequence((ERASE, 1.0), (PUMP, 2.0), (DARK, 3.0),
                          (PROBE, 0.1)),
        # the second pump starts from a polarized, partly decayed state
        "repump": sequence((PUMP, 1.0), (DARK, 1.3), (PUMP, 0.5),
                           (PROBE, 0.1)),
        # the second pump starts from the first one's sampler at elapsed 0
        "pump_pump": sequence((PUMP, 1.0), (PUMP, 0.5), (DARK, 0.8),
                              (PROBE, 0.1)),
        "repump_dark": sequence((PUMP, 1.0), (PROBE, 0.2), (DARK, 0.7),
                                (PUMP, 0.5), (DARK, 1.1), (PROBE, 0.1)),
        "erase_mid": sequence((PUMP, 1.0), (DARK, 0.5), (ERASE, 0.5),
                              (DARK, 0.3), (PROBE, 0.1), (PUMP, 0.4),
                              (PROBE, 0.1)),
        "zero_durations": sequence((ERASE, 0.0), (PUMP, 0.0), (PROBE, 0.0),
                                   (DARK, 0.0), (PUMP, 1.0), (PUMP, 0.0),
                                   (DARK, 0.0), (PROBE, 0.0), (DARK, 0.9),
                                   (ERASE, 0.0), (PROBE, 0.0), (PUMP, 0.5),
                                   (PROBE, 0.1)),
    }

    @pytest.mark.parametrize("every", [None, 0.5, 0.4])  # 0.4: off cadence
    @pytest.mark.parametrize("name", list(SEQUENCES))
    @pytest.mark.parametrize("d, t1, boundary", [
        (10.0, None, BoundaryMode.DIRICHLET_ZERO),
        (10.0, 4.0, BoundaryMode.DIRICHLET_ZERO),
        (10.0, None, BoundaryMode.REFLECTIVE),
        (10.0, 4.0, BoundaryMode.REFLECTIVE),
        (0.0, None, BoundaryMode.DIRICHLET_ZERO),
        (0.0, 4.0, BoundaryMode.DIRICHLET_ZERO),
    ])
    def test_matches_field_route(self, d, t1, boundary, name, every):
        cfg = SolverConfig(d_qd=d, t1_uniform=t1, dt=0.05, boundary=boundary)
        seq = self.SEQUENCES[name]
        got = run_sequence(seq, cfg, GEO, self.GRID, dark_sample_every=every)
        t, y = field_route_sequence(seq, cfg, GEO, self.GRID, every)
        np.testing.assert_array_equal(got.t, t)
        np.testing.assert_allclose(got.y, y, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("every", [None, 0.4])
    @pytest.mark.parametrize("name", ["repump", "pump_pump", "repump_dark"])
    @pytest.mark.parametrize("t1", [None, 4.0])
    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    def test_even_mode_repumps_match_field_route(self, boundary, t1, name,
                                                 every):
        # the dot is mirror-symmetric on the grid, so every pump runs in
        # the even axial modes; the field route runs in all of them
        cfg = SolverConfig(d_qd=10.0, t1_uniform=t1, dt=0.05,
                           boundary=boundary)
        seq = self.SEQUENCES[name]
        got = run_sequence(seq, cfg, GEO, self.GRID, dark_sample_every=every)
        t, y = field_route_sequence(seq, cfg, GEO, self.GRID, every)
        np.testing.assert_array_equal(got.t, t)
        np.testing.assert_allclose(got.y, y, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("name", ["repump", "pump_pump", "repump_dark"])
    @pytest.mark.parametrize("t1", [None, 0.7])
    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    def test_repumps_match_expm_oracle(self, expm_clamped, boundary, t1,
                                       name):
        # pumps from polarized starts, in the even axial modes, against
        # the exact clamped system on a grid small enough for a dense one
        grid = Grid(nr=16, nz=20, dr=0.5, dz=0.5, z_min=-5.0)
        dot = DotGeometry(radius=3.0, height=2.0)
        cfg = SolverConfig(d_qd=10.0, t1_uniform=t1, boundary=boundary)
        mask = grid.dot_mask(dot)
        seq = self.SEQUENCES[name]
        got = run_sequence(seq, cfg, dot, grid, dark_sample_every=0.4)
        t, y = field_route_sequence(
            seq, cfg, dot, grid, 0.4,
            lambda v, duration: expm_clamped(v, grid, cfg, duration, mask))
        np.testing.assert_array_equal(got.t, t)
        np.testing.assert_allclose(got.y, y, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [10.0, 0.0])
    def test_probe_after_pump_reads_one(self, d):
        cfg = SolverConfig(d_qd=d, t1_uniform=4.0, dt=0.05)
        seq = self.SEQUENCES["repump"]
        out = run_sequence(seq, cfg, GEO, self.GRID)
        assert out.y.tolist() == [1.0]
        out = run_sequence(self.SEQUENCES["zero_durations"], cfg, GEO,
                           self.GRID)
        # instant pump, pump, erase, pump: the probe after each pump reads
        # exactly 1, the one after the erase exactly 0
        assert out.t.tolist() == [0.0, 1.0, 1.9, 2.4]
        assert out.y.tolist() == [1.0, 1.0, 0.0, 1.0]

    def test_erase_mid_sequence_reads_zero(self):
        cfg = SolverConfig(d_qd=10.0, dt=0.05)
        out = run_sequence(self.SEQUENCES["erase_mid"], cfg, GEO, self.GRID,
                           dark_sample_every=0.1)
        # pump, 6 dark samples, erase, 4 dark samples, probe, pump, probe
        after_erase = (out.t >= 2.0) & (out.t < 2.4)
        assert after_erase.sum() == 4
        assert out.y[after_erase].tolist() == [0.0] * 4
        assert out.y[-1] == 1.0


class TestNoTransforms:
    """A pulse sequence, a decay curve and a fit at D > 0 carry modal
    coefficients from the pump to the readout: no field is built or
    transformed."""

    @pytest.fixture(autouse=True)
    def no_transforms(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("grid <-> mode transform")

        monkeypatch.setattr(solver, "_to_modes", forbidden)
        monkeypatch.setattr(solver, "_from_modes", forbidden)
        monkeypatch.setattr(solver.DarkSampler, "field_at", forbidden)

    def test_run_sequence(self, coarse_grid):
        cfg = SolverConfig(d_qd=10.0, t1_uniform=30.0, dt=0.05)
        seq = paper_decay_sequence(t_dark=2.0, t_pump=2.0, t_erase=1.0)
        out = run_sequence(seq, cfg, GEO, coarse_grid, dark_sample_every=0.5)
        assert out.y[0] == 1.0 and len(out) == 5
        seq = sequence((PUMP, 1.0), (DARK, 0.7), (PUMP, 0.5), (PROBE, 0.1))
        assert run_sequence(seq, cfg, GEO, coarse_grid).y.tolist() == [1.0]

    def test_simulate_decay_curve(self, coarse_grid):
        s = simulate_decay_curve(1e-13, 2.0, 3.0, 1.0, GEO, coarse_grid,
                                 dt=0.05, t1_uniform=30.0)
        assert s.y[0] == 1.0 and np.all(np.diff(s.y) < 0)

    def test_instant_pump(self, coarse_grid):
        # the instant pump's coefficients are the dot readout vectors'
        # outer product, not a transform of the indicator
        cfg = SolverConfig(d_qd=10.0, t1_uniform=30.0, dt=0.05)
        seq = sequence((ERASE, 1.0), (PUMP, 0.0), (DARK, 0.5), (PROBE, 0.1))
        out = run_sequence(seq, cfg, GEO, coarse_grid)
        assert len(out) == 1 and 0.0 < out.y[0] < 1.0
        y = solver.simulate_pump(GEO, cfg, 0.0, coarse_grid).dot_averages(
            [0.0, 0.5], GEO)
        assert y[0] == 1.0 and y[1] == out.y[0]

    def test_fit_diffusion_coefficient(self, coarse_grid):
        s = simulate_decay_curve(2e-15, 10.0, 120.0, 10.0, GEO, coarse_grid,
                                 dt=0.2)
        measured = DecaySeries(t=s.t, y=60.0 + 38.0 * s.y,
                               y_kind=YKind.ZEEMAN_SPLITTING_UEV)
        fit = fit_diffusion_coefficient(measured, 10.0, GEO, coarse_grid,
                                        (1e-16, 1e-13), dt=0.2)
        assert fit.d_qd == pytest.approx(2e-15, rel=0.05, abs=0)


class TestSimulateDecayCurve:
    def test_normalized_start(self, coarse_grid):
        s = simulate_decay_curve(1e-13, 2.0, 3.0, 1.0, GEO, coarse_grid,
                                 dt=0.05)
        assert abs(s.y[0] - 1.0) <= 1e-9

    def test_zero_diffusion_constant_curve(self, coarse_grid):
        s = simulate_decay_curve(0.0, 1.0, 3.0, 1.0, GEO, coarse_grid,
                                 dt=0.1)
        np.testing.assert_array_equal(s.y, 1.0)

    def test_monotone_in_d(self, coarse_grid):
        p5 = []
        for d in (1e-15, 1e-14, 1e-13, 1e-12):
            s = simulate_decay_curve(d, 10.0, 5.0, 5.0, GEO, coarse_grid,
                                     dt=0.05)
            p5.append(s.y[-1])
        assert all(b < a for a, b in zip(p5, p5[1:]))

    def test_metadata_records_inputs(self, coarse_grid):
        s = simulate_decay_curve(1e-13, 2.0, 2.0, 1.0, GEO, coarse_grid,
                                 dt=0.1)
        assert s.metadata["d_cm2s"] == 1e-13
        assert s.metadata["t_pump_s"] == 2.0
        assert s.y_kind is YKind.DOT_AVERAGE


class TestTimeToLevel:
    def test_linear_interpolation(self):
        s = DecaySeries(t=np.array([0.0, 1.0, 2.0]),
                        y=np.array([1.0, 0.5, 0.25]))
        assert time_to_level(s, 0.375) == pytest.approx(1.5)

    def test_level_above_start_returns_first_time(self):
        s = DecaySeries(t=np.array([3.0, 4.0]), y=np.array([0.2, 0.1]))
        assert time_to_level(s, 0.5) == 3.0

    def test_never_reached_raises(self):
        s = DecaySeries(t=np.array([0.0, 1.0]), y=np.array([1.0, 0.9]))
        with pytest.raises(InvariantViolation):
            time_to_level(s, 0.5)


class TestRiseFit:
    def make_series(self, tau, noise=0.0, seed=None):
        t = np.arange(0.0, 6.01, 0.2)
        y = 38.0 * (1.0 - np.exp(-t / tau))
        if noise:
            rng = np.random.default_rng(seed)
            y = y * (1.0 + noise * rng.standard_normal(y.size))
        return DecaySeries(t=t, y=y, y_kind=YKind.ZEEMAN_SPLITTING_UEV)

    def test_noiseless_recovery_within_a_tenth_percent(self):
        fit = fit_exponential_rise(self.make_series(1.3))
        assert fit.tau == pytest.approx(1.3, rel=1e-3)
        assert fit.amplitude == pytest.approx(38.0, rel=1e-3)
        assert abs(fit.offset) < 0.05
        assert fit.residual_rms < 1e-9

    def test_noisy_recovery_within_ten_percent(self):
        fit = fit_exponential_rise(self.make_series(1.3, noise=0.05,
                                                    seed=1234))
        assert fit.tau == pytest.approx(1.3, rel=0.10)

    def test_constant_series_not_identifiable(self):
        s = DecaySeries(t=np.arange(5.0), y=np.full(5, 7.0))
        with pytest.raises(NotIdentifiable):
            fit_exponential_rise(s)

    def test_too_few_points(self):
        s = DecaySeries(t=np.array([0.0, 1.0, 2.0]),
                        y=np.array([0.0, 1.0, 1.5]))
        with pytest.raises(InvariantViolation):
            fit_exponential_rise(s)

    def test_deterministic(self):
        s = self.make_series(0.4, noise=0.05, seed=9)
        assert fit_exponential_rise(s) == fit_exponential_rise(s)

    def test_model_is_the_fitted_curve(self):
        s = self.make_series(1.3, noise=0.05, seed=7)
        fit = fit_exponential_rise(s)
        expected = fit.offset + fit.amplitude * (1.0 - np.exp(-s.t / fit.tau))
        np.testing.assert_array_equal(fit.model, expected)
        assert fit.residual_rms == pytest.approx(
            np.sqrt(np.mean((s.y - expected) ** 2)), rel=1e-12)


# every 0.2 s over 6 s: the samples resolve a tau in [0.02, 600] s
T_RESOLVED = np.arange(0.0, 6.01, 0.2)


@pytest.mark.parametrize("fit, y", [
    # a straight line: the least squares run to the scan's end, 6000 s
    (fit_exponential_rise, 2.0 + 3.0 * T_RESOLVED),
    # the same line as a decay: 6000 s too
    (fit_exponential_decay, 2.0 + 3.0 * T_RESOLVED),
    # a rise over before the second sample: 0.0035 s
    (fit_exponential_rise, 38.0 * (1.0 - np.exp(-T_RESOLVED / 0.006))),
], ids=["rise-line", "decay-line", "rise-too-fast"])
def test_unresolved_tau_not_identifiable(fit, y):
    with pytest.raises(NotIdentifiable,
                       match=r"tau = \S+ s lies outside \[0\.02, 600\] s"):
        fit(DecaySeries(t=T_RESOLVED, y=y))


@pytest.mark.parametrize("make, name", [
    (lambda: RiseFit(amplitude=1.0, tau=0.0, offset=0.0, residual_rms=0.0),
     "NonPositiveTau"),
    (lambda: DecayFit(amplitude=1.0, tau=-1.0, residual_rms=0.0),
     "NonPositiveTau"),
    (lambda: DiffusionFit(d_qd=0.0, scale=1.0, offset=0.0, sse=0.0,
                          d_grid=()), "NonPositiveDiffusion"),
])
def test_fit_records_reject_non_positive_values(make, name):
    with pytest.raises(InvariantViolation, match=name):
        make()


def rise(t, offset, amplitude, tau):
    return offset + amplitude * (1.0 - np.exp(-t / tau))


def decay(t, amplitude, tau):
    return amplitude * np.exp(-t / tau)


def random_series(seed):
    """A seeded rise (even seed) or decay (odd seed): 5 to 79 samples,
    at regular or irregular times over 1 to 316 s, a tau from 0.003 to
    10 times the span, an amplitude of 0.1 to 100 of either sign, and
    noise of 0 (one series in five) to 10% of the amplitude."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 80))
    span = 10.0 ** rng.uniform(0.0, 2.5)
    t = (np.linspace(0.0, span, n) if rng.random() < 0.5
         else np.unique(rng.uniform(0.0, span, n)))
    tau = span * 10.0 ** rng.uniform(-2.5, 1.0)
    amplitude = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 2.0)
    y = (rise(t, 20.0 * rng.standard_normal(), amplitude, tau)
         if seed % 2 == 0 else decay(t, amplitude, tau))
    noise = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 0.1)
    return DecaySeries(
        t=t, y=y + noise * abs(amplitude) * rng.standard_normal(t.size))


# every 1/6 s over 10 s: the samples resolve a tau in [0.0167, 1000] s
T_FAST = np.linspace(0.0, 10.0, 61)


class TestTauSearch:
    """The tau fits' scan in log10 tau, refined by Brent's method."""

    @pytest.mark.parametrize("fit, y, tau", [
        (fit_exponential_decay, decay(T_FAST, 30.0, 0.03), 0.03),
        *((fit_exponential_rise, rise(T_FAST, 2.0, 30.0, tau), tau)
          for tau in (0.02, 0.03, 0.05)),
    ], ids=["decay-0.03", "rise-0.02", "rise-0.03", "rise-0.05"])
    def test_fast_tau_near_the_resolved_limit(self, fit, y, tau):
        # the SSE is flat to round-off below about 0.005 s, where the
        # curve is over by the second sample: a descent can stall there
        assert fit(DecaySeries(t=T_FAST, y=y)).tau == pytest.approx(
            tau, rel=1e-6)

    def test_irregular_rise_found_past_a_flat_stretch(self):
        # 73 irregular samples over 102 s: the SSE is flat to round-off
        # below about 0.03 s, where only t = 0 sees the rise; a descent
        # from a third of the span stalled there at 0.030 s, inside the
        # resolved range
        rng = np.random.default_rng(1)
        t = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 102.0, 72))])
        y = rise(t, -19.08, 0.22, 1.23) + 0.0022 * rng.standard_normal(73)
        fit = fit_exponential_rise(DecaySeries(t=t, y=y))
        assert fit.tau == pytest.approx(1.23, rel=0.02)
        assert fit.residual_rms < 0.0025  # the noise is 0.0022

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fit, model, params", [
        (fit_exponential_rise, rise, (2.0, 30.0)),
        (fit_exponential_decay, decay, (30.0,)),
    ], ids=["rise", "decay"])
    def test_times_before_zero(self, fit, model, params):
        # the short candidates overflow at t < 0 and score +inf
        t = np.linspace(-2.0, 6.0, 30)
        got = fit(DecaySeries(t=t, y=model(t, *params, 1.5)))
        assert got.tau == pytest.approx(1.5, rel=1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", [349, 485])
    def test_overflowing_amplitude_scores_inf(self, seed):
        # decays whose first sample lies after 0 (0.13 s, 0.31 s): at the
        # shortest candidates exp(-t/tau) is subnormal and the amplitude
        # overflows; scored as NaN, such a candidate won the scan
        fit = fit_exponential_decay(random_series(seed))
        assert np.isfinite([fit.amplitude, fit.residual_rms]).all()

    def test_residual_never_above_curve_fit(self, monkeypatch):
        # curve_fit from the start and bounds the tau fits once used (the
        # linear parameters from the ends of the series, tau from a third
        # of the span, at least 1e-12) against the search's least point,
        # whether or not the fit then refuses it. The search stops within
        # 1e-9 of log10 tau, which moves the curve by some 1e-9 of its
        # range. It does not look beyond a decade past the resolved
        # range: there a series whose least point lies outside is
        # refused by both.
        least = []

        def spy(*args):
            least.append(refine(*args))
            return least[-1]
        refine = kinetics._refine
        monkeypatch.setattr(kinetics, "_refine", spy)
        compared = 0
        for seed in range(200):
            s = random_series(seed)
            t, y = s.t, s.y
            fit, model, guess = ((fit_exponential_rise, rise,
                                  (y[0], y[-1] - y[0])) if seed % 2 == 0
                                 else (fit_exponential_decay, decay, (y[0],)))
            least.clear()
            try:
                fit(s)
                refused = False
            except NotIdentifiable:
                refused = True
            if not least:  # a constant series: refused before a search
                continue
            search_rms = np.sqrt(least[-1][1] / t.size)
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                try:
                    p0 = (*guess, max((t[-1] - t[0]) / 3.0, 1e-6))
                    popt, _ = curve_fit(
                        model, t, y, p0=p0, maxfev=20000,
                        bounds=([-np.inf] * len(guess) + [1e-12], np.inf))
                except RuntimeError:
                    continue
            lo = 0.01 * np.diff(t).min()
            hi = 1000.0 * (t[-1] - t[0])
            if refused and not lo <= popt[-1] <= hi:
                continue
            compared += 1
            rms = np.sqrt(np.mean((y - model(t, *popt)) ** 2))
            assert search_rms <= rms + 1e-8 * np.ptp(y), seed
        assert compared >= 180


class TestDecayFit:
    def test_round_trip(self):
        t = np.arange(0.0, 10.0, 0.5)
        s = DecaySeries(t=t, y=3.0 * np.exp(-t / 2.2))
        fit = fit_exponential_decay(s)
        assert fit.tau == pytest.approx(2.2, rel=1e-6)
        assert fit.amplitude == pytest.approx(3.0, rel=1e-6)

    def test_constant_not_identifiable(self):
        s = DecaySeries(t=np.arange(5.0), y=np.ones(5))
        with pytest.raises(NotIdentifiable, match="no decay time"):
            fit_exponential_decay(s)

    def test_three_points_suffice(self):
        t = np.array([0.0, 1.0, 2.0])
        s = DecaySeries(t=t, y=3.0 * np.exp(-t / 2.2))
        assert fit_exponential_decay(s).tau == pytest.approx(2.2, rel=1e-6)
        with pytest.raises(InvariantViolation,
                           match="need >= 3 points, got 2"):
            fit_exponential_decay(DecaySeries(t=t[:2], y=s.y[:2]))


class TestDiffusionFit:
    def synthetic(self, coarse_grid, d=2e-15, scale=38.0, offset=60.0,
                  noise=0.0, seed=None):
        s = simulate_decay_curve(d, 10.0, 120.0, 10.0, GEO, coarse_grid,
                                 dt=0.2)
        y = offset + scale * s.y
        if noise:
            rng = np.random.default_rng(seed)
            y = y + noise * rng.standard_normal(y.size)
        return DecaySeries(t=s.t, y=y, y_kind=YKind.ZEEMAN_SPLITTING_UEV)

    def test_noiseless_round_trip(self, coarse_grid):
        measured = self.synthetic(coarse_grid)
        fit = fit_diffusion_coefficient(measured, 10.0, GEO, coarse_grid,
                                        (1e-16, 1e-13), dt=0.2)
        assert fit.d_qd == pytest.approx(2e-15, rel=0.05, abs=0)
        assert fit.scale == pytest.approx(38.0, rel=0.01)
        assert fit.offset == pytest.approx(60.0, rel=0.01)
        assert not fit.warnings
        assert len(fit.d_grid) == 2 * 3 + 1  # 2 per decade, both bounds

    def test_deterministic_refit(self, coarse_grid):
        measured = self.synthetic(coarse_grid)
        a = fit_diffusion_coefficient(measured, 10.0, GEO, coarse_grid,
                                      (1e-16, 1e-13), dt=0.2)
        b = fit_diffusion_coefficient(measured, 10.0, GEO, coarse_grid,
                                      (1e-16, 1e-13), dt=0.2)
        assert a.d_qd == b.d_qd and a.sse == b.sse
        assert a.model == b.model and a.sse_grid == b.sse_grid

    def test_constant_series_not_identifiable(self, coarse_grid):
        t = np.arange(0.0, 50.0, 10.0)
        measured = DecaySeries(t=t, y=np.full(t.size, 60.0))
        with pytest.raises(NotIdentifiable):
            fit_diffusion_coefficient(measured, 10.0, GEO, coarse_grid,
                                      (1e-15, 10 ** -14.5), dt=0.2)

    def test_boundary_minimum_flagged(self, coarse_grid):
        # data generated well above the search window pin the fit at the
        # upper bound
        measured = self.synthetic(coarse_grid, d=1e-13)
        fit = fit_diffusion_coefficient(measured, 10.0, GEO, coarse_grid,
                                        (1e-16, 1e-15), dt=0.2)
        assert "BoundaryMinimum" in fit.warnings

    @pytest.mark.parametrize("bounds", [
        (1e-13, 1e-16),  # reversed
        (1e-300, 1e10),  # the ratio overflows to inf
        (1e-16, float("inf")),
    ])
    def test_bad_bounds_rejected(self, coarse_grid, bounds):
        s = DecaySeries(t=np.arange(5.0), y=np.array([5.0, 4.0, 3.0, 2.0,
                                                      1.0]))
        with pytest.raises(InvariantViolation, match="BadBounds"):
            fit_diffusion_coefficient(s, 10.0, GEO, coarse_grid, bounds)

    def test_too_few_points(self, coarse_grid):
        s = DecaySeries(t=np.arange(4.0), y=np.array([4.0, 3.0, 2.0, 1.0]))
        with pytest.raises(InvariantViolation):
            fit_diffusion_coefficient(s, 10.0, GEO, coarse_grid,
                                      (1e-16, 1e-13))

    @pytest.mark.parametrize("t1", [None, 30.0])
    def test_forward_model_starts_at_one_exactly(self, coarse_grid, t1):
        for d in (1e-15, 1e-13):
            p = pumped_sampler(d, 10.0, GEO, coarse_grid, 0.2,
                               t1).dot_averages((0.0, 5.0, 20.0), GEO)
            assert p[0] == 1.0
            assert np.all(np.diff(p) < 0)

    def test_forward_model_rejects_negative_times(self, coarse_grid):
        with pytest.raises(InvariantViolation, match="NegativeDuration"):
            pumped_sampler(1e-14, 10.0, GEO, coarse_grid,
                           0.2).dot_averages((0.0, -5.0), GEO)

    def test_sse_grid_and_forward_solves(self, coarse_grid, monkeypatch):
        calls = []
        model = kinetics.pumped_sampler

        def counted(*args):
            calls.append(args[0])
            return model(*args)

        measured = self.synthetic(coarse_grid)
        monkeypatch.setattr(kinetics, "pumped_sampler", counted)
        fit = fit_diffusion_coefficient(measured, 10.0, GEO, coarse_grid,
                                        (1e-16, 1e-13), dt=0.2)
        assert len(fit.sse_grid) == len(fit.d_grid) == 7
        # the best candidate is one of the two around D_true, half a
        # decade apart
        best = fit.d_grid[int(np.argmin(fit.sse_grid))]
        assert abs(np.log10(best / 2e-15)) < 0.5
        # Brent takes no more steps than golden-section search on the
        # bracket of two scan steps, and solves no D twice
        width, golden = 2 * 0.5, 0
        while width > kinetics._LOG_D_TOL:
            width *= kinetics._GOLDEN
            golden += 1
        assert fit.forward_solves == len(calls) == len(set(calls))
        assert 7 < fit.forward_solves <= 7 + golden
        assert fit.d_qd in calls

    @pytest.mark.parametrize("d_true, bounds", [
        (1.1e-15, (1e-15, 1e-13)),  # 0.04 decades above the lower bound
        (9e-14, (1e-16, 1e-13)),  # 0.05 decades below the upper bound
    ])
    def test_minimum_near_a_bound(self, coarse_grid, d_true, bounds):
        fit = fit_diffusion_coefficient(self.synthetic(coarse_grid, d=d_true),
                                        10.0, GEO, coarse_grid, bounds)
        assert fit.d_qd == pytest.approx(d_true, rel=0.01, abs=0)
        assert not fit.warnings

    def test_heavy_noise_finds_the_dense_scan_minimum(self, coarse_grid):
        # the coarse scan must not miss the minimum of a noisy objective:
        # Brent's answer is at least as good as a scan of 40 per decade
        measured = self.synthetic(coarse_grid, noise=3.0, seed=11)
        fit = fit_diffusion_coefficient(measured, 10.0, GEO, coarse_grid,
                                        (1e-16, 1e-13))
        dense = np.linspace(-16.0, -13.0, 121)
        sse = [_lsq(np.column_stack([p, np.ones_like(p)]), measured.y)[1]
               for p in (pumped_sampler(10.0 ** l, 10.0, GEO, coarse_grid)
                         .dot_averages(measured.t, GEO) for l in dense)]
        assert fit.sse <= min(sse) * (1.0 + 1e-9)
        assert abs(np.log10(fit.d_qd) - dense[int(np.argmin(sse))]) < 0.025

    def sigma_series(self, measured, sigma):
        return DecaySeries(t=measured.t, y=measured.y, y_kind=measured.y_kind,
                           sigma=sigma)

    def test_uniform_sigma_changes_nothing_but_the_sse_scale(self,
                                                            coarse_grid):
        measured = self.synthetic(coarse_grid, noise=0.3, seed=5)
        plain = fit_diffusion_coefficient(measured, 10.0, GEO, coarse_grid,
                                          (1e-16, 1e-13), dt=0.2)
        weighted = fit_diffusion_coefficient(
            self.sigma_series(measured, [0.25] * len(measured)), 10.0, GEO,
            coarse_grid, (1e-16, 1e-13), dt=0.2)
        assert weighted.d_qd == pytest.approx(plain.d_qd, rel=1e-9, abs=0)
        assert weighted.scale == pytest.approx(plain.scale, rel=1e-9)
        assert weighted.sse == pytest.approx(16.0 * plain.sse, rel=1e-9)

    def test_outliers_with_large_sigma_do_not_pull_d(self, coarse_grid):
        measured = self.synthetic(coarse_grid)
        y = measured.y.copy()
        y[[3, 6, 9]] += (8.0, -6.0, 7.0)
        sigma = np.full(y.size, 0.1)
        sigma[[3, 6, 9]] = 100.0
        spoiled = DecaySeries(t=measured.t, y=y, y_kind=measured.y_kind)
        plain = fit_diffusion_coefficient(spoiled, 10.0, GEO, coarse_grid,
                                          (1e-16, 1e-13), dt=0.2)
        weighted = fit_diffusion_coefficient(
            self.sigma_series(spoiled, sigma), 10.0, GEO, coarse_grid,
            (1e-16, 1e-13), dt=0.2)
        assert abs(plain.d_qd / 2e-15 - 1.0) > 0.2
        assert weighted.d_qd == pytest.approx(2e-15, rel=0.02, abs=0)

    @pytest.mark.parametrize("sigma", [[1.0] * 5, [1.0] * 12 + [0.0],
                                       [1.0] * 12 + [float("inf")]])
    def test_bad_sigma_rejected(self, coarse_grid, sigma):
        measured = self.synthetic(coarse_grid)
        with pytest.raises(InvariantViolation, match="BadSigma"):
            fit_diffusion_coefficient(self.sigma_series(measured, sigma),
                                      10.0, GEO, coarse_grid,
                                      (1e-16, 1e-13), dt=0.2)

    def test_affine_separability_exact(self, coarse_grid):
        t = np.arange(0.0, 40.0, 5.0)
        p = pumped_sampler(5e-15, 10.0, GEO, coarse_grid,
                           0.2).dot_averages(t, GEO)
        (scale, offset), sse = _lsq(np.column_stack([p, np.ones_like(p)]),
                                    60.0 + 38.0 * p)
        assert scale == pytest.approx(38.0, rel=1e-10)
        assert offset == pytest.approx(60.0, rel=1e-10)
        assert sse < 1e-18


class TestBrent:
    """``_brent`` on functions whose minimum is known."""

    @staticmethod
    def counted(f):
        calls = []

        def g(x):
            calls.append(x)
            return f(x)
        return g, calls

    def test_parabola_in_few_steps(self):
        f, calls = self.counted(lambda x: (x - 0.3) ** 2 + 1.0)
        x, fx = _brent(f, -1.0, 1.0, 0.0, f(0.0), 1e-4)
        assert abs(x - 0.3) <= 2e-4 and fx == f(x)
        assert len(calls) <= 8

    def test_kink_by_golden_steps(self):
        # no parabola fits |x - c|: the golden fallback still converges
        f, calls = self.counted(lambda x: abs(x - 0.37))
        x, _ = _brent(f, -1.0, 1.0, 0.0, f(0.0), 1e-4)
        assert abs(x - 0.37) <= 2e-4
        assert len(calls) <= 40

    @pytest.mark.parametrize("slope", [1.0, -1.0])
    def test_minimum_at_an_end(self, slope):
        x, _ = _brent(lambda x: slope * x, 0.0, 1.0, 0.5, slope * 0.5, 1e-4)
        assert min(x, 1.0 - x) <= 2e-4
        assert (x < 0.5) == (slope > 0)
