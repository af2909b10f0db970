"""Acceptance gate: one test per contracted behavior of the toolkit.

Every anchor decay curve runs at production resolution (dr = dz = 0.5 nm,
radial extent 20x the dot radius, exact in time); expensive shared
curves are computed once per session and reused across checks.

Two checks are known to fail on the implemented model and are kept red on
purpose rather than weakened:

* criterion 06e (resolution halving): halving (dr, dz) moves the 5 s
  anchor level by 0.733 percentage points (0.34503 -> 0.35236), above
  the 0.5 pp bound. The pump is exact in time (its dt plays no part), so
  all of it is spatial: the staircase placement of the clamp interface,
  an O(dr) error inherent to the clamped-pump scheme.
* criterion 08 (quasi-1D insensitivity): polarizing a 50 nm ring around
  the dot changes the slow decay curve by roughly a factor of 2 at late
  times, far beyond the 10% bound, because at D = 2e-15 cm2/s stored ring
  polarization flows back into the dot on the 100 s scale.
"""
import time
from functools import lru_cache

import numpy as np
import pytest

from spindiff import (BoundaryMode, DecaySeries, DotGeometry, Grid,
                      Helicity, MaterialParams, PolarizationField,
                      SolverConfig, YKind, build_grid,
                      diffusion_cm2s_to_nm2s, dot_average, evolve,
                      exciton_zeeman_splitting, fit_diffusion_coefficient,
                      fit_exponential_decay, fit_exponential_rise,
                      MU_B_UEV_PER_T, ohs_max, overhauser_state,
                      polarization_degree, read_fit_report, read_table,
                      simulate_dark, simulate_decay_curve, simulate_pump,
                      step, time_to_level, total_spin, write_table)
from spindiff.cli import main

GEO = DotGeometry()                  # 20 nm diameter x 5 nm height disk
GRID = build_grid(GEO, 0.5, 0.5)     # production resolution, extent 20x
T_PUMP = 10.0

_timings: dict[str, float] = {}


@lru_cache(maxsize=None)
def mid_curve() -> DecaySeries:
    t0 = time.perf_counter()
    s = simulate_decay_curve(1e-13, T_PUMP, 10.0, 0.25, GEO, GRID)
    _timings["mid"] = time.perf_counter() - t0
    return s


@lru_cache(maxsize=None)
def high_curve() -> DecaySeries:
    return simulate_decay_curve(1e-12, T_PUMP, 5.0, 0.25, GEO, GRID)


@lru_cache(maxsize=None)
def low_curve() -> DecaySeries:
    return simulate_decay_curve(2e-15, T_PUMP, 120.0, 1.0, GEO, GRID)


def value_at(series: DecaySeries, t: float) -> float:
    idx = np.nonzero(np.isclose(series.t, t, rtol=0.0, atol=1e-9))[0]
    assert idx.size == 1, f"no sample at t = {t}"
    return float(series.y[idx[0]])


def test_criterion_01_mid_d_level_at_5s_and_runtime():
    p5 = value_at(mid_curve(), 5.0)
    assert 0.25 <= p5 <= 0.35, f"p(5 s) = {p5:.5f} at D = 1e-13 cm2/s"
    assert _timings["mid"] < 60.0, f"took {_timings['mid']:.1f} s"


def test_criterion_02_high_d_one_second_decay_below_mid_curve():
    s = high_curve()
    t_e = time_to_level(s, float(np.exp(-1.0)))
    assert 0.7 <= t_e <= 1.3, f"1/e time = {t_e:.3f} s at D = 1e-12 cm2/s"
    mid = mid_curve()
    n = len(s.t)
    np.testing.assert_array_equal(mid.t[:n], s.t)
    assert np.all(s.y[1:] < mid.y[1:n]), "1e-12 curve not strictly below"


def test_criterion_03_low_d_single_exponential_tau_near_one_minute():
    fit = fit_exponential_decay(low_curve())
    assert 40.0 <= fit.tau <= 90.0, \
        f"tau = {fit.tau:.1f} s at D = 2e-15 cm2/s"


def test_criterion_04_mid_d_about_twelve_times_faster_than_low_d():
    t_mid = time_to_level(mid_curve(), 0.30)
    t_low = time_to_level(low_curve(), 0.30)
    ratio = t_low / t_mid
    assert 6.0 <= ratio <= 18.0, \
        f"time-to-30% ratio = {ratio:.2f} ({t_low:.1f} s / {t_mid:.2f} s)"


def test_criterion_05_observable_anchors_exact_arithmetic():
    m = MaterialParams()
    assert ohs_max(m) == 132.0
    assert 0.287 <= polarization_degree(38.0, m) <= 0.289
    mg = MaterialParams(g_e_abs=0.54, g_h_abs=1.4)
    state = overhauser_state(polarization_degree(38.0, mg), mg)
    up = exciton_zeeman_splitting(mg, state.b_n, Helicity.SIGMA_PLUS)
    dn = exciton_zeeman_splitting(mg, state.b_n, Helicity.SIGMA_MINUS)
    expected = 2.0 * mg.g_e_abs * MU_B_UEV_PER_T * state.b_n
    assert up - dn == pytest.approx(expected, rel=1e-12)


def gaussian_field(grid: Grid, sigma: float) -> np.ndarray:
    r = grid.r_centers[:, None]
    z = grid.z_centers[None, :]
    return np.exp(-(r ** 2 + z ** 2) / (2.0 * sigma ** 2))


def test_criterion_06a_gaussian_heat_kernel_l2_below_1pct():
    grid = Grid(nr=100, nz=200, dr=0.5, dz=0.5, z_min=-50.0)
    sigma0, d, t = 5.0, 10.0, 1.0
    field = PolarizationField(grid, gaussian_field(grid, sigma0))
    out = evolve(field, SolverConfig(d_qd=d, dt=0.01), t)
    sigma_t = np.sqrt(sigma0 ** 2 + 2.0 * d * t)
    exact = (sigma0 ** 2 / sigma_t ** 2) ** 1.5 * gaussian_field(grid,
                                                                 sigma_t)
    l2 = np.linalg.norm(out.values - exact) / np.linalg.norm(exact)
    assert l2 < 0.01, f"L2 error {l2:.4f}"


def slab_average_series(t, height, box, d, n_terms=2000):
    a = (box - height) / 2.0
    b = (box + height) / 2.0
    n = np.arange(1, n_terms + 1)
    k = n * np.pi / box
    coef = 2.0 * box / (n * np.pi) ** 2 / height \
        * (np.sin(k * b) - np.sin(k * a)) ** 2
    return height / box + np.sum(coef * np.exp(-d * k ** 2 * t))


def test_criterion_06b_slab_limit_below_1pct():
    box = 20.0
    grid = Grid(nr=8, nz=200, dr=25.0, dz=0.1, z_min=-box / 2)
    wide = DotGeometry(radius=grid.r_max, height=5.0)
    cfg = SolverConfig(d_qd=10.0, dt=0.005,
                       boundary=BoundaryMode.REFLECTIVE)
    field = simulate_pump(wide, cfg, 0.0, grid).field
    got, want = [], []
    t_prev = 0.0
    for t in (0.05, 0.2, 0.5, 1.0):
        field = evolve(field, cfg, t - t_prev)
        t_prev = t
        got.append(dot_average(field, wide))
        want.append(slab_average_series(t, wide.height, box, cfg.d_qd))
    got, want = np.array(got), np.array(want)
    l2 = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert l2 < 0.01, f"relative L2 error {l2:.4f}"


def test_criterion_06c_reflective_conservation_1e6_over_1000_steps():
    grid = Grid(nr=40, nz=40, dr=1.0, dz=1.0, z_min=-20.0)
    rng = np.random.default_rng(42)
    field = PolarizationField(grid, rng.random((40, 40)))
    cfg = SolverConfig(d_qd=5.0, dt=0.05, boundary=BoundaryMode.REFLECTIVE)
    before = total_spin(field)
    for _ in range(1000):
        field = step(field, cfg)
    drift = abs(total_spin(field) - before) / before
    assert drift < 1e-6, f"relative drift {drift:.2e}"


def test_criterion_06d_maximum_principle_across_run_set():
    for series in (mid_curve(), high_curve(), low_curve()):
        assert series.y.min() >= -1e-12
        assert series.y.max() <= 1.0 + 1e-12
    # field-level check on the stiffest anchor case
    cfg = SolverConfig(d_qd=diffusion_cm2s_to_nm2s(1e-12))
    field = simulate_pump(GEO, cfg, 2.0, GRID).field
    for _ in range(20):
        field = evolve(field, cfg, 0.05)
        assert field.values.min() >= -1e-12
        assert field.values.max() <= 1.0 + 1e-12


def test_criterion_06e_halving_resolution_moves_5s_level_below_half_point():
    p5 = value_at(mid_curve(), 5.0)
    fine = build_grid(GEO, 0.25, 0.25)
    s = simulate_decay_curve(1e-13, T_PUMP, 5.0, 5.0, GEO, fine, dt=0.005)
    p5_fine = value_at(s, 5.0)
    assert abs(p5_fine - p5) < 0.005, (
        f"5 s level moved by {abs(p5_fine - p5):.5f} under halving "
        f"({p5:.5f} -> {p5_fine:.5f})")


COARSE_GRID = build_grid(GEO, 1.0, 0.625, extent_factor=5.0)


def synthetic_zeeman(d_cm2s: float, rng=None) -> DecaySeries:
    s = simulate_decay_curve(d_cm2s, T_PUMP, 60.0, 5.0, GEO, COARSE_GRID,
                             dt=0.2)
    y = 60.0 + 38.0 * s.y
    if rng is not None:
        y = y + rng.normal(0.0, 1.0, y.size)
    return DecaySeries(t=s.t, y=y, y_kind=YKind.ZEEMAN_SPLITTING_UEV)


def test_criterion_07a_fit_d_within_5pct_noiseless_25pct_noisy():
    d_true = 4e-15
    fit = fit_diffusion_coefficient(synthetic_zeeman(d_true), T_PUMP, GEO,
                                    COARSE_GRID, (1e-15, 1e-14), dt=0.2)
    assert fit.d_qd == pytest.approx(d_true, rel=0.05, abs=0)
    noisy = synthetic_zeeman(d_true, rng=np.random.default_rng(20260814))
    fit_n = fit_diffusion_coefficient(noisy, T_PUMP, GEO, COARSE_GRID,
                                      (1e-15, 1e-14), dt=0.2)
    assert fit_n.d_qd == pytest.approx(d_true, rel=0.25, abs=0)


def test_criterion_07b_fit_rise_within_01pct_noiseless_10pct_noisy():
    t = np.arange(0.0, 12.0 + 1e-9, 0.05)
    rng = np.random.default_rng(20260814)
    for tau in (0.4, 1.3, 3.4):
        y = 38.0 * (1.0 - np.exp(-t / tau))
        clean = DecaySeries(t=t, y=y, y_kind=YKind.ZEEMAN_SPLITTING_UEV)
        assert fit_exponential_rise(clean).tau == pytest.approx(tau,
                                                                rel=1e-3)
        noisy = DecaySeries(t=t, y=y + rng.normal(0.0, 0.05 * 38.0, t.size),
                            y_kind=YKind.ZEEMAN_SPLITTING_UEV)
        assert fit_exponential_rise(noisy).tau == pytest.approx(tau,
                                                                rel=0.10)


def test_criterion_08_decay_insensitive_to_polarized_surroundings():
    ring = DotGeometry(radius=50.0, height=5.0)
    cfg = SolverConfig(d_qd=diffusion_cm2s_to_nm2s(2e-15))
    dot_only = simulate_dark(simulate_pump(GEO, cfg, 0.0, GRID).field, cfg,
                             120.0, 2.0, GEO)
    seeded = simulate_dark(simulate_pump(ring, cfg, 0.0, GRID).field, cfg,
                           120.0, 2.0, GEO)
    rel = np.abs(seeded.y - dot_only.y) / dot_only.y
    assert float(rel.max()) < 0.10, (
        f"max relative change {rel.max():.3f} "
        f"at t = {dot_only.t[rel.argmax()]:.0f} s")


CLI_SIM_CONFIG = """\
[solver]
d_cm2s = 2e-15
dr_nm = 1.0
dz_nm = 0.625
dt_s = 0.1
extent_factor = 10

[geometry]
radius_nm = 10
height_nm = 5

[protocol]
t_dark_s = 120

[output]
sample_every_s = 2.0
"""

CLI_FIT_CONFIG = """\
[solver]
d_bounds_cm2s = 1e-15, 1e-14
dr_nm = 1.0
dz_nm = 0.625
dt_s = 0.2
extent_factor = 5

[geometry]
radius_nm = 10
height_nm = 5

[protocol]
t_pump_s = 10
"""


def assert_round_trips(path, tmp_path):
    cols, meta = read_table(path)
    copy = tmp_path / ("rt_" + path.name)
    write_table(copy, cols, meta)
    cols2, meta2 = read_table(copy)
    assert meta2 == meta
    for key in cols:
        np.testing.assert_array_equal(cols2[key], cols[key])


def test_criterion_09_cli_contract_and_csv_round_trips(tmp_path, capsys):
    from spindiff import write_measured_csv

    # simulate: slow-diffusion preset run whose tau lands near one minute
    sim_cfg = tmp_path / "sim.ini"
    sim_cfg.write_text(CLI_SIM_CONFIG, encoding="utf-8")
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", str(sim_cfg), "--out",
                 str(sim_out), "--quiet"]) == 0
    cols, _ = read_table(sim_out / "decay.csv")
    tau = fit_exponential_decay(
        DecaySeries(t=cols["t_s"], y=cols["dot_average"])).tau
    assert 40.0 <= tau <= 90.0, f"CLI decay tau = {tau:.1f} s"
    assert_round_trips(sim_out / "decay.csv", tmp_path)

    bad_cfg = tmp_path / "bad.ini"
    bad_cfg.write_text("[geometry]\nradius_nm = 10\n", encoding="utf-8")
    assert main(["simulate", "--config", str(bad_cfg), "--quiet"]) == 2

    # sweep: three-coefficient family, pointwise ordered by D
    sweep_cfg = tmp_path / "sweep.ini"
    sweep_cfg.write_text(CLI_SIM_CONFIG.replace(
        "d_cm2s = 2e-15", "d_list_cm2s = 2e-15, 1e-13, 1e-12").replace(
        "dt_s = 0.1\n", "").replace("t_dark_s = 120", "t_dark_s = 4"),
        encoding="utf-8")
    sweep_out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(sweep_cfg), "--out",
                 str(sweep_out), "--quiet"]) == 0
    sw, _ = read_table(sweep_out / "sweep.csv")
    t = sw["t_s"][sw["d_cm2s"] == 2e-15]
    for lo, hi in ((2e-15, 1e-13), (1e-13, 1e-12)):
        y_lo = sw["p"][sw["d_cm2s"] == lo]
        y_hi = sw["p"][sw["d_cm2s"] == hi]
        assert np.all(y_hi[t > 0] < y_lo[t > 0])
    assert_round_trips(sweep_out / "sweep.csv", tmp_path)
    empty_cfg = tmp_path / "empty.ini"
    empty_cfg.write_text(CLI_SIM_CONFIG.replace(
        "d_cm2s = 2e-15", "d_list_cm2s ="), encoding="utf-8")
    assert main(["sweep", "--config", str(empty_cfg), "--quiet"]) == 2

    # fit-d: round trip a forward-model CSV, then the failure exits
    fit_cfg = tmp_path / "fit.ini"
    fit_cfg.write_text(CLI_FIT_CONFIG, encoding="utf-8")
    measured = tmp_path / "measured.csv"
    write_measured_csv(measured, synthetic_zeeman(4e-15))
    fit_out = tmp_path / "fit"
    assert main(["fit-d", str(measured), "--config", str(fit_cfg),
                 "--out", str(fit_out)]) == 0
    stdout = capsys.readouterr().out
    assert "d_qd_cm2s = " in stdout
    report = read_fit_report(fit_out / "fit.json")
    assert report["d_qd_cm2s"] == pytest.approx(4e-15, rel=0.05, abs=0)
    assert_round_trips(fit_out / "fit_overlay.csv", tmp_path)

    const = tmp_path / "const.csv"
    write_measured_csv(const, DecaySeries(
        t=np.arange(0.0, 60.0, 10.0), y=np.full(6, 60.0),
        y_kind=YKind.ZEEMAN_SPLITTING_UEV))
    assert main(["fit-d", str(const), "--config", str(fit_cfg), "--quiet",
                 "--out", str(tmp_path)]) == 4
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("# y_kind=zeeman_splitting_uev\ndelay_s,value\n"
                        "0,98\n20,80\n10,90\n30,75\n40,70\n",
                        encoding="utf-8")
    assert main(["fit-d", str(shuffled), "--config", str(fit_cfg),
                 "--quiet", "--out", str(tmp_path)]) == 2

    # fit-rise: synthetic rise recovered, short file rejected
    t_rise = np.arange(0.0, 6.0 + 1e-9, 0.2)
    rise = tmp_path / "rise.csv"
    write_measured_csv(rise, DecaySeries(
        t=t_rise, y=38.0 * (1.0 - np.exp(-t_rise / 0.4)),
        y_kind=YKind.ZEEMAN_SPLITTING_UEV))
    assert main(["fit-rise", str(rise), "--out", str(tmp_path)]) == 0
    assert "tau_s = 0.4" in capsys.readouterr().out
    assert_round_trips(tmp_path / "rise_overlay.csv", tmp_path)
    short = tmp_path / "short.csv"
    write_measured_csv(short, DecaySeries(
        t=t_rise[:3], y=np.array([0.0, 1.0, 2.0]),
        y_kind=YKind.ZEEMAN_SPLITTING_UEV))
    assert main(["fit-rise", str(short), "--quiet", "--out",
                 str(tmp_path)]) == 2

    # convert: quoted anchor values and the out-of-range rejection
    assert main(["convert", "38"]) == 0
    printed = float(capsys.readouterr().out.split("=")[1])
    assert printed == pytest.approx(38.0 / 132.0, rel=1e-6)
    assert main(["convert", "132"]) == 0
    assert float(capsys.readouterr().out.split("=")[1]) == 1.0
    assert main(["convert", "200"]) == 2
