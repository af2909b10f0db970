"""Command-line interface.

Subcommands: simulate | sweep | fit-d | fit-rise | convert. Each takes
only the flags it reads: simulate, sweep and fit-d take --config PATH,
--out DIR and --quiet; fit-rise takes --out DIR and --quiet; convert
takes --config PATH.

Exit codes: 0 success, 2 input/config error, 3 numerical failure,
4 non-identifiable fit.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import RunConfig, load_config
from .dataio import (read_measured_csv, write_fit_report, write_snapshots,
                     write_table)
from .domain import MaterialParams
from .errors import ConfigError, SpinDiffError
from .kinetics import (fit_diffusion_coefficient, fit_exponential_rise,
                       pumped_sampler, simulate_decay_curve)
from .observables import (degree_from_field, exciton_zeeman_splitting,
                          overhauser_field, overhauser_state,
                          polarization_degree)
from .solver import Grid, build_grid, dark_sample_times


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _require_config(args) -> RunConfig:
    """The run configuration of a command that solves on the dot's grid,
    so needs ``[geometry]``."""
    if not args.config:
        raise ConfigError("this command requires --config PATH")
    rc = load_config(args.config)
    _require(rc.geometry, "geometry", "radius_nm")
    return rc


def _out_dir(args, rc: RunConfig | None) -> str:
    out = args.out or (rc.out_dir if rc is not None else ".")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: "
                          f"{exc}") from exc
    return out


def _grid_for(rc: RunConfig) -> Grid:
    return build_grid(rc.geometry, rc.dr_nm, rc.dz_nm, rc.extent_factor)


def _require(rc_value, section: str, key: str):
    if rc_value is None:
        raise ConfigError(f"missing required key '{key}' in [{section}]")
    return rc_value


def cmd_simulate(args) -> int:
    """Run the pump-then-dark model at a single D; write decay.csv and
    field_snapshots.csv. The pump leaves the dot at S = 1, so the
    ``dot_average`` column starts at exactly 1."""
    rc = _require_config(args)
    d_cm2s = _require(rc.d_cm2s, "solver", "d_cm2s")
    t_dark = _require(rc.t_dark_s, "protocol", "t_dark_s")
    if any(t > t_dark for t in rc.snapshot_times_s):
        raise ConfigError("[output] snapshot_times_s: entries must be "
                          f"<= t_dark_s = {t_dark!r}")
    ts = dark_sample_times(t_dark, rc.sample_every_s)
    have_g = (rc.material.g_e_abs is not None
              and rc.material.g_h_abs is not None)

    def zeeman(p: float) -> float:
        return exciton_zeeman_splitting(
            rc.material, overhauser_field(p, rc.material), rc.pump_helicity)

    if have_g:
        # the column's first entry, the pumped dot's 1: a g_e_abs of 0
        # exits 2 here, before the solve and the output directory
        zeeman(1.0)
    out = _out_dir(args, rc)
    grid = _grid_for(rc)
    dark = pumped_sampler(d_cm2s, rc.t_pump_s, rc.geometry, grid, rc.dt_s,
                          rc.t1_s)
    p = dark.dot_averages(ts, rc.geometry)

    columns: dict[str, np.ndarray] = {"t_s": ts, "dot_average": p}
    if have_g:
        columns["zeeman_uev"] = np.array([zeeman(pi) for pi in p])
    meta = {"d_cm2s": repr(d_cm2s),
            "t_pump_s": repr(rc.t_pump_s), "t_dark_s": repr(t_dark),
            "helicity": rc.pump_helicity.value}
    decay_path = os.path.join(out, "decay.csv")
    write_table(decay_path, columns, meta)
    snap_path = os.path.join(out, "field_snapshots.csv")
    snap_t = np.sort(rc.snapshot_times_s)

    def fields():
        # sorted, a repeated time follows its first: build each time once
        for i, t in enumerate(snap_t):
            if i == 0 or t != snap_t[i - 1]:
                values = dark.field_at(t).values
            yield values

    write_snapshots(snap_path, snap_t, grid.r_centers, grid.z_centers,
                    fields(), {"d_cm2s": repr(d_cm2s)})
    _say(args, f"wrote {decay_path}")
    _say(args, f"wrote {snap_path}")
    return 0


def cmd_sweep(args) -> int:
    """Run the pump-then-dark model for each D in the list; write
    sweep.csv in long format (d_cm2s, t_s, p)."""
    rc = _require_config(args)
    if rc.d_list_cm2s is not None:
        d_values = rc.d_list_cm2s
    elif rc.d_cm2s is not None:
        d_values = (rc.d_cm2s,)
    else:
        raise ConfigError("missing required key 'd_list_cm2s' in [solver]")
    t_dark = _require(rc.t_dark_s, "protocol", "t_dark_s")
    out = _out_dir(args, rc)
    grid = _grid_for(rc)
    cols: dict[str, list[float]] = {"d_cm2s": [], "t_s": [], "p": []}
    for d in d_values:
        series = simulate_decay_curve(d, rc.t_pump_s, t_dark,
                                      rc.sample_every_s, rc.geometry, grid,
                                      dt=rc.dt_s, t1_uniform=rc.t1_s)
        cols["d_cm2s"].extend([d] * len(series))
        cols["t_s"].extend(series.t)
        cols["p"].extend(series.y)
    path = os.path.join(out, "sweep.csv")
    write_table(path, cols, {"t_pump_s": repr(rc.t_pump_s)})
    _say(args, f"wrote {path}")
    return 0


def cmd_fit_d(args) -> int:
    """Fit the diffusion coefficient to a measured CSV; write fit.json
    and fit_overlay.csv, print the fitted D."""
    rc = _require_config(args)
    measured = read_measured_csv(args.measured)
    out = _out_dir(args, rc)
    grid = _grid_for(rc)
    fit = fit_diffusion_coefficient(measured, rc.t_pump_s, rc.geometry, grid,
                                    rc.d_bounds_cm2s, dt=rc.dt_s,
                                    t1_uniform=rc.t1_s)
    report_path = os.path.join(out, "fit.json")
    write_fit_report(report_path, fit)
    overlay_path = os.path.join(out, "fit_overlay.csv")
    write_table(overlay_path, {"t_s": measured.t, "measured": measured.y,
                               "model": fit.model},
                {"d_qd_cm2s": repr(fit.d_qd)})
    print(f"d_qd_cm2s = {fit.d_qd:.6g}")
    for warning in fit.warnings:
        _say(args, f"warning: {warning}")
    _say(args, f"wrote {report_path}")
    _say(args, f"wrote {overlay_path}")
    return 0


def cmd_fit_rise(args) -> int:
    """Fit offset + amplitude*(1 - exp(-t/tau)) to a measured CSV."""
    measured = read_measured_csv(args.measured)
    fit = fit_exponential_rise(measured)
    out = _out_dir(args, None)
    overlay_path = os.path.join(out, "rise_overlay.csv")
    write_table(overlay_path, {"t_s": measured.t, "measured": measured.y,
                               "model": fit.model}, {"tau_s": repr(fit.tau)})
    print(f"amplitude = {fit.amplitude:.6g}")
    print(f"tau_s = {fit.tau:.6g}")
    print(f"offset = {fit.offset:.6g}")
    print(f"residual_rms = {fit.residual_rms:.6g}")
    _say(args, f"wrote {overlay_path}")
    return 0


# --kind -> the observables function that turns the value into a
# polarization degree, and the name of the line that would print the value
_KINDS = {"ohs_uev": (polarization_degree, "ohs_uev"),
          "degree": (lambda p, m: p, "polarization_degree"),
          "field_t": (degree_from_field, "overhauser_field_t")}


def cmd_convert(args) -> int:
    """Convert between OHS (µeV), polarization degree, and Overhauser
    field (T): print every quantity but the input one. The field is
    printed when [material] sets g_e_abs."""
    material = (load_config(args.config).material if args.config
                else MaterialParams())
    to_degree, given = _KINDS[args.kind]
    state = overhauser_state(to_degree(args.value, material), material)
    for name, value in (("polarization_degree", state.polarization_degree),
                        ("ohs_uev", state.ohs_energy),
                        ("overhauser_field_t", state.b_n)):
        if name != given and value is not None:
            print(f"{name} = {value:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="PATH",
                        help="run configuration file")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", metavar="DIR",
                        help="output directory (overrides [output] dir)")
    output.add_argument("--quiet", action="store_true",
                        help="suppress informational output")

    parser = argparse.ArgumentParser(
        prog="spindiff",
        description="Nuclear-spin diffusion out of an optically pumped "
                    "quantum dot: simulation and fitting tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[config, output],
                       help="run the pump-then-dark model at a single D")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[config, output],
                       help="run the pump-then-dark model for a list of D "
                            "values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit-d", parents=[config, output],
                       help="fit the diffusion coefficient to measured data")
    p.add_argument("measured", metavar="CSV", help="measured decay data")
    p.set_defaults(func=cmd_fit_d)

    p = sub.add_parser("fit-rise", parents=[output],
                       help="fit an exponential rise to measured data")
    p.add_argument("measured", metavar="CSV", help="measured rise data")
    p.set_defaults(func=cmd_fit_rise)

    p = sub.add_parser("convert", parents=[config],
                       help="convert between OHS, polarization degree, "
                            "and Overhauser field")
    p.add_argument("value", type=float, help="input value")
    p.add_argument("--kind", choices=["ohs_uev", "degree", "field_t"],
                   default="ohs_uev",
                   help="what the input value is (default: ohs_uev)")
    p.set_defaults(func=cmd_convert)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpinDiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
