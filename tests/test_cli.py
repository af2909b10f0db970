"""Command-line interface: exit codes, emitted files, round trips.

Commands run in-process through spindiff.cli.main, except the three
tests that start ``python`` in a new process (``run_python``). This is
the one home of the CLI's checks; CI's console step only installs the
script and runs it. Solver-backed commands use a coarse, small-extent
grid to stay fast.
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from spindiff import _lapack
from spindiff import (DarkSampler, DecaySeries, DotGeometry, YKind,
                      build_grid, read_fit_report, read_table,
                      write_measured_csv, write_table)
from spindiff.cli import main
from spindiff.kinetics import pumped_sampler

FAST_SOLVER = """\
[solver]
d_cm2s = 1e-13
dr_nm = 1.0
dz_nm = 0.625
dt_s = 0.05
extent_factor = 6

[geometry]
radius_nm = 10
height_nm = 5

[protocol]
t_dark_s = 4

[output]
sample_every_s = 1.0
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


MEASURED_ROWS = "0,98\n10,90\n20,85\n30,80\n40,75\n"


@pytest.mark.parametrize("old, new, field", [
    ("dt_s = 0.05", "dt_s = nan", "dt_s"),
    ("dr_nm = 1.0", "dr_nm = nan", "dr_nm"),
    ("extent_factor = 6", "extent_factor = nan", "extent_factor"),
    ("sample_every_s = 1.0", "sample_every_s = nan", "sample_every_s"),
    ("d_cm2s = 1e-13", "d_cm2s = nan", "d_cm2s"),
    ("t_dark_s = 4", "t_dark_s = inf", "t_dark_s"),
    ("40,75", "inf,75", "delay_s"),
    ("20,85", "20,nan", "value"),
    ("0,98", "-1,98", "delay_s"),
])
def test_non_finite_input_exits_2_naming_field(tmp_path, capsys, old, new,
                                               field):
    # config cases edit the config, measured-data cases the CSV rows
    cfg = write_config(tmp_path, FAST_SOLVER.replace(old, new))
    measured = tmp_path / "measured.csv"
    measured.write_text("# y_kind=zeeman_splitting_uev\ndelay_s,value\n"
                        + MEASURED_ROWS.replace(old, new), encoding="utf-8")
    command = (["fit-d", str(measured)] if old in MEASURED_ROWS
               else ["simulate"])
    assert main(command + ["--config", cfg, "--out", str(tmp_path / "out"),
                           "--quiet"]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("t1_s = 1", "t1_s = 0", "[solver] t1_s: must be > 0"),
    ("dt_s = 0.05", "dt_s = -1", "[solver] dt_s: must be > 0"),
    ("extent_factor = 6", "extent_factor = 4", "[solver] extent_factor: "
                                                "must be >= 5"),
])
def test_out_of_range_solver_key_exits_2_naming_key(tmp_path, capsys, old,
                                                    new, message):
    text = FAST_SOLVER.replace("[solver]\n", "[solver]\nt1_s = 1\n")
    cfg = write_config(tmp_path, text.replace(old, new))
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "out"), "--quiet"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep", "convert"])
def test_config_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys,
                                                   command):
    path = tmp_path / "bad.ini"
    path.write_bytes(FAST_SOLVER.replace("radius_nm = 10",
                                         "radius_nm = 1\xff").encode("latin-1"))
    argv = [command] + (["66"] if command == "convert" else
                        ["--out", str(tmp_path / "out")])
    assert main(argv + ["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad.ini" in err and "0xff" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "fit-d"])
@pytest.mark.parametrize("geometry, key", [
    ("", "radius_nm"),
    ("[geometry]\n", "radius_nm"),
    ("[geometry]\nheight_nm = 5\n", "radius_nm"),
    ("[geometry]\nradius_nm = 10\n", "height_nm"),
])
def test_solving_command_needs_geometry(tmp_path, capsys, command, geometry,
                                        key):
    text = FAST_SOLVER.replace("[geometry]\nradius_nm = 10\nheight_nm = 5\n",
                               geometry)
    cfg = write_config(tmp_path, text)
    measured = tmp_path / "measured.csv"
    measured.write_text("delay_s,value\n" + MEASURED_ROWS, encoding="utf-8")
    argv = [command] + ([str(measured)] if command == "fit-d" else [])
    out = tmp_path / "out"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    assert (f"missing required key '{key}' in [geometry]"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["fit-rise", "rise.csv", "--config", "run.ini"],  # reads no config
    ["convert", "66", "--out", "out"],  # writes no file
    ["convert", "66", "--quiet"],  # prints only results
])
def test_flag_a_command_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[2]}" in capsys.readouterr().err


# the file each command writes first
OUTPUT_FILE = {"simulate": "decay.csv", "sweep": "sweep.csv",
               "fit-d": "fit.json", "fit-rise": "rise_overlay.csv"}


@pytest.mark.parametrize("command, via, blocked", [
    (command, via, blocked) for command in OUTPUT_FILE
    for via in ("--out", "[output] dir") for blocked in ("dir", "file")
    if (command, via) != ("fit-rise", "[output] dir")])  # reads no config
def test_unwritable_output_exits_2_naming_it(tmp_path, capsys, command, via,
                                             blocked):
    # blocked "dir": the output directory is a regular file; "file": a
    # directory stands where the first output file goes
    out = tmp_path / "out"
    if blocked == "dir":
        out.write_text("", encoding="utf-8")
        named = out
    else:
        named = out / OUTPUT_FILE[command]
        named.mkdir(parents=True)
    text = FAST_SOLVER + (f"dir = {out}\n" if via == "[output] dir" else "")
    if command == "fit-d":
        text = text.replace("d_cm2s = 1e-13", "d_bounds_cm2s = 1e-15, 1e-14")
    measured = tmp_path / "measured.csv"
    measured.write_text("# y_kind=zeeman_splitting_uev\ndelay_s,value\n"
                        + MEASURED_ROWS, encoding="utf-8")
    argv = [command]
    if command in ("fit-d", "fit-rise"):
        argv.append(str(measured))
    if command != "fit-rise":
        argv += ["--config", write_config(tmp_path, text)]
    if via == "--out":
        argv += ["--out", str(out)]
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert str(named) in err
    assert "cannot" in err


G_E_CONFIG = "[material]\ng_e_abs = 0.5\n"
# (argv after "convert", with the g_e_abs config?) -> (exit code, stdout)
CONVERT_TABLE = [
    (["38"], False, 0, "polarization_degree = 0.287879\n"),
    (["132"], False, 0, "polarization_degree = 1\n"),
    (["-66"], False, 0, "polarization_degree = -0.5\n"),
    (["0"], False, 0, "polarization_degree = 0\n"),
    (["200"], False, 2, ""),
    (["0.5", "--kind", "degree"], False, 0, "ohs_uev = 66\n"),
    (["-1", "--kind", "degree"], False, 0, "ohs_uev = -132\n"),
    (["1.5", "--kind", "degree"], False, 2, ""),
    (["38"], True, 0,
     "polarization_degree = 0.287879\noverhauser_field_t = 1.31298\n"),
    (["132"], True, 0,
     "polarization_degree = 1\noverhauser_field_t = 4.56086\n"),
    (["-66"], True, 0,
     "polarization_degree = -0.5\noverhauser_field_t = -2.28043\n"),
    (["0"], True, 0, "polarization_degree = 0\noverhauser_field_t = 0\n"),
    (["200"], True, 2, ""),
    (["0.5", "--kind", "degree"], True, 0,
     "ohs_uev = 66\noverhauser_field_t = 2.28043\n"),
    (["-1", "--kind", "degree"], True, 0,
     "ohs_uev = -132\noverhauser_field_t = -4.56086\n"),
    (["1.5", "--kind", "degree"], True, 2, ""),
    (["1.0", "--kind", "field_t"], True, 0,
     "polarization_degree = 0.219257\nohs_uev = 28.9419\n"),
    (["3.0", "--kind", "field_t"], True, 0,
     "polarization_degree = 0.65777\nohs_uev = 86.8257\n"),
    (["5.0", "--kind", "field_t"], True, 2, ""),
    (["1.0", "--kind", "field_t"], False, 2, ""),
]


class TestConvert:
    @pytest.mark.parametrize("argv, with_g, code, stdout", CONVERT_TABLE)
    def test_pinned_output(self, tmp_path, capsys, argv, with_g, code,
                           stdout):
        config = (["--config", write_config(tmp_path, G_E_CONFIG)]
                  if with_g else [])
        assert main(["convert", *argv, *config]) == code
        assert capsys.readouterr().out == stdout

    @pytest.mark.parametrize("kind", ["ohs_uev", "degree", "field_t"])
    def test_nan_exits_2_printing_nothing(self, tmp_path, capsys, kind):
        cfg = write_config(tmp_path, G_E_CONFIG)
        assert main(["convert", "nan", "--kind", kind, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nan" in captured.err

    def test_ohs_to_degree(self, capsys):
        assert main(["convert", "38"]) == 0
        out = capsys.readouterr().out
        assert "polarization_degree = 0.287879" in out

    def test_full_shift_is_unity(self, capsys):
        assert main(["convert", "132"]) == 0
        assert "polarization_degree = 1" in capsys.readouterr().out

    def test_unphysical_shift_exits_2(self, capsys):
        assert main(["convert", "200"]) == 2
        assert "error" in capsys.readouterr().err

    def test_degree_to_ohs(self, capsys):
        assert main(["convert", "0.5", "--kind", "degree"]) == 0
        assert "ohs_uev = 66" in capsys.readouterr().out

    def test_degree_above_one_exits_2(self, capsys):
        assert main(["convert", "1.5", "--kind", "degree"]) == 2
        assert "outside [-1, 1]" in capsys.readouterr().err

    def test_degree_with_g_factor(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[material]\ng_e_abs = 0.5\n")
        assert main(["convert", "0.5", "--kind", "degree",
                     "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "ohs_uev = 66" in out
        assert "overhauser_field_t = " in out

    def test_field_beyond_full_polarization_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[material]\ng_e_abs = 1.0\n")
        assert main(["convert", "3.0", "--kind", "field_t",
                     "--config", cfg]) == 2
        assert "exceeds the fully polarized value" in capsys.readouterr().err

    def test_field_requires_g_factor(self, capsys):
        assert main(["convert", "1.0", "--kind", "field_t"]) == 2

    def test_field_with_g_factor(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[material]\ng_e_abs = 1.0\n"
                                     "[geometry]\nradius_nm = 10\n"
                                     "height_nm = 5\n")
        assert main(["convert", "1.0", "--kind", "field_t",
                     "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "ohs_uev = 57.8838" in out

    def test_field_with_zero_g_factor_exits_2(self, tmp_path, capsys):
        # the same g_e_abs > 0 rule as --kind ohs_uev and degree
        cfg = write_config(tmp_path, "[material]\ng_e_abs = 0\n")
        for kind in ("field_t", "ohs_uev"):
            assert main(["convert", "2", "--kind", kind,
                         "--config", cfg]) == 2
            captured = capsys.readouterr()
            assert "g_e_abs > 0" in captured.err
            assert "ohs_uev = " not in captured.out

    def test_material_only_config(self, tmp_path, capsys):
        # convert reads only [material]; the config needs no [geometry]
        cfg = write_config(tmp_path, "[material]\ng_e_abs = 0.5\n")
        assert main(["convert", "66", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "polarization_degree = 0.5" in out
        assert "overhauser_field_t = " in out


class TestSimulate:
    def test_writes_decay_and_snapshots(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_SOLVER
                           + "snapshot_times_s = 0, 4\n")
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        cols, meta = read_table(tmp_path / "out" / "decay.csv")
        assert list(cols) == ["t_s", "dot_average"]
        assert cols["dot_average"][0] == 1.0
        assert np.all(np.diff(cols["dot_average"]) < 0)
        snaps, _ = read_table(tmp_path / "out" / "field_snapshots.csv")
        assert set(np.unique(snaps["t_s"])) == {0.0, 4.0}

    def test_overflowing_diffusion_coefficient_exits_2(self, tmp_path,
                                                       capsys):
        # finite in cm^2/s, so the schema takes it, but inf in nm^2/s
        for dt in ("dt_s = 0.05", ""):
            cfg = write_config(tmp_path, FAST_SOLVER.replace(
                "d_cm2s = 1e-13", "d_cm2s = 1e300").replace("dt_s = 0.05", dt))
            assert main(["simulate", "--config", cfg, "--out",
                         str(tmp_path / "out"), "--quiet"]) == 2
            assert "diffusion coefficient" in capsys.readouterr().err

    def test_overflowing_count_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_SOLVER.replace(
            "t_dark_s = 4", "t_dark_s = 1e300"))
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "out"), "--quiet"]) == 2
        assert ("TooManySamples: t_dark = 1e+300 at sample_every = 1.0"
                in capsys.readouterr().err)
        # the sample count is checked before the output directory is made
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("d, t_pump", [
        ("1e-13", "1e300"), ("0", "1e300"), ("1e-13", "0"),
    ], ids=["1e-13", "0", "zero-pump"])
    def test_endless_pump_simulates(self, tmp_path, d, t_pump):
        # no step count to overflow: a 1e300 s pump, even at a 1e-300 s
        # step, is the steady state; a 0 s pump runs none and sets the
        # dot to 1; either way the dot starts at exactly 1
        cfg = write_config(tmp_path, FAST_SOLVER.replace(
            "d_cm2s = 1e-13", f"d_cm2s = {d}").replace(
            "dt_s = 0.05", "dt_s = 1e-300").replace(
            "[protocol]\n", f"[protocol]\nt_pump_s = {t_pump}\n"))
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "out"), "--quiet"]) == 0
        cols, _ = read_table(tmp_path / "out" / "decay.csv")
        assert cols["dot_average"][0] == 1.0
        assert np.all(np.isfinite(cols["dot_average"]))
        assert np.all(np.diff(cols["dot_average"]) <= 0.0)

    def test_slow_halo_writes_no_negative_cell(self, tmp_path):
        # at 2e-15 most of the halo is round-off around 0; a cell within
        # its own rounding bound of 0 is written as exactly 0, not -0
        cfg = write_config(tmp_path, FAST_SOLVER.replace(
            "d_cm2s = 1e-13", "d_cm2s = 2e-15") + "snapshot_times_s = 4, 0\n")
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "out"), "--quiet"]) == 0
        cols, _ = read_table(tmp_path / "out" / "decay.csv")
        assert cols["dot_average"][0] == 1.0
        text = (tmp_path / "out" / "field_snapshots.csv").read_text(
            encoding="utf-8")
        rows = [line for line in text.splitlines()
                if not line.startswith("#")][1:]
        grid = build_grid(DotGeometry(radius=10.0, height=5.0), 1.0, 0.625,
                          6.0)
        assert len(rows) == 2 * grid.nr * grid.nz
        assert not [row for row in rows if row.split(",")[3].startswith("-")]

    def test_singular_capacitance_exits_3(self, tmp_path, capsys,
                                          monkeypatch):
        # LAPACK's info > 0, a zero pivot: numpy raises LinAlgError
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        cfg = write_config(tmp_path, FAST_SOLVER)
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "out"), "--quiet"]) == 3
        assert ("singular capacitance system at node"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("old, new, count", [
        ("radius_nm = 10", "radius_nm = 1e300", "6e+300"),
        ("dr_nm = 1.0", "dr_nm = 1e-300", "6e+301"),
    ])
    def test_grid_too_large_exits_2(self, tmp_path, capsys, old, new, count):
        cfg = write_config(tmp_path, FAST_SOLVER.replace(old, new))
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "GridTooLarge" in err and count in err

    def test_snapshot_between_samples_at_requested_time(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVER
                           + "snapshot_times_s = 2.5\n")
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "out"), "--quiet"]) == 0
        snaps, _ = read_table(tmp_path / "out" / "field_snapshots.csv")
        assert set(np.unique(snaps["t_s"])) == {2.5}
        geo = DotGeometry(radius=10.0, height=5.0)
        grid = build_grid(geo, 1.0, 0.625, 6.0)
        want = pumped_sampler(1e-13, 10.0, geo, grid, 0.05, None)
        np.testing.assert_array_equal(
            snaps["s"], want.field_at(2.5).values.ravel())

    def test_snapshot_bytes_sorted_r_major(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVER
                           + "snapshot_times_s = 4, 0, 2.5, 4\n")
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "out"), "--quiet"]) == 0
        geo = DotGeometry(radius=10.0, height=5.0)
        grid = build_grid(geo, 1.0, 0.625, 6.0)
        dark = pumped_sampler(1e-13, 10.0, geo, grid, 0.05, None)
        snap_t = np.sort([4.0, 0.0, 2.5, 4.0])
        n_cells = grid.nr * grid.nz
        write_table(tmp_path / "ref.csv", {
            "t_s": np.repeat(snap_t, n_cells),
            "r_nm": np.tile(np.repeat(grid.r_centers, grid.nz), snap_t.size),
            "z_nm": np.tile(grid.z_centers, grid.nr * snap_t.size),
            "s": np.array([dark.field_at(t).values for t in snap_t]).ravel(),
        }, {"d_cm2s": "1e-13"})
        assert ((tmp_path / "out" / "field_snapshots.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    def test_repeated_snapshot_time_built_once(self, tmp_path, monkeypatch):
        built = []
        field_at = DarkSampler.field_at

        def counting(self, t):
            built.append(t)
            return field_at(self, t)

        monkeypatch.setattr(DarkSampler, "field_at", counting)
        cfg = write_config(tmp_path, FAST_SOLVER
                           + "snapshot_times_s = 4, 0, 2.5, 4\n")
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "out"), "--quiet"]) == 0
        assert built == [0.0, 2.5, 4.0]
        snaps, _ = read_table(tmp_path / "out" / "field_snapshots.csv")
        block = snaps["s"].size // 4
        np.testing.assert_array_equal(snaps["s"][2 * block:3 * block],
                                      snaps["s"][3 * block:])

    def test_negative_snapshot_time_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_SOLVER
                           + "snapshot_times_s = -4, 2\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "snapshot_times_s" in capsys.readouterr().err
        assert not out.exists()

    def test_snapshot_time_beyond_dark_phase_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_SOLVER
                           + "snapshot_times_s = 0, 400\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "snapshot_times_s" in err and "t_dark_s" in err
        assert not out.exists()

    def test_zeeman_column_with_g_factors(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVER
                           + "\n[material]\ng_e_abs = 0.54\ng_h_abs = 1.4\n")
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out,
                     "--quiet"]) == 0
        cols, _ = read_table(tmp_path / "out" / "decay.csv")
        assert "zeeman_uev" in cols

    def test_zero_g_e_exits_2_before_solving(self, tmp_path, capsys,
                                             monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("solved before checking g_e_abs")

        monkeypatch.setattr("spindiff.cli.pumped_sampler", forbidden)
        cfg = write_config(tmp_path, FAST_SOLVER
                           + "\n[material]\ng_e_abs = 0\ng_h_abs = 1.4\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "g_e_abs > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_d_constant_column(self, tmp_path):
        cfg = write_config(tmp_path,
                           FAST_SOLVER.replace("d_cm2s = 1e-13",
                                               "d_cm2s = 0"))
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out,
                     "--quiet"]) == 0
        cols, _ = read_table(tmp_path / "out" / "decay.csv")
        np.testing.assert_array_equal(cols["dot_average"], 1.0)

    def test_missing_geometry_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[geometry]\nradius_nm = 10\n"
                                     "[solver]\nd_cm2s = 1e-13\n"
                                     "[protocol]\nt_dark_s = 1\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert "height_nm" in capsys.readouterr().err

    def test_missing_d_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[geometry]\nradius_nm = 10\n"
                                     "height_nm = 5\n"
                                     "[protocol]\nt_dark_s = 1\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert "d_cm2s" in capsys.readouterr().err

    def test_config_required(self, capsys):
        assert main(["simulate"]) == 2

    def test_decay_csv_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVER)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out,
                     "--quiet"]) == 0
        first, meta = read_table(tmp_path / "out" / "decay.csv")
        copy = tmp_path / "copy.csv"
        write_table(copy, first, meta)
        second, meta2 = read_table(copy)
        assert meta2 == meta
        for k in first:
            np.testing.assert_array_equal(second[k], first[k])


class TestSweep:
    def test_family_ordered_by_d(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVER.replace(
            "d_cm2s = 1e-13", "d_list_cm2s = 2e-15, 1e-13, 1e-12"))
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out, "--quiet"]) == 0
        cols, _ = read_table(tmp_path / "out" / "sweep.csv")
        assert list(cols) == ["d_cm2s", "t_s", "p"]
        curves = {d: cols["p"][cols["d_cm2s"] == d]
                  for d in (2e-15, 1e-13, 1e-12)}
        t = cols["t_s"][cols["d_cm2s"] == 2e-15]
        for lo_d, hi_d in ((2e-15, 1e-13), (1e-13, 1e-12)):
            assert np.all(curves[hi_d][t > 0] < curves[lo_d][t > 0])

    def test_single_d_matches_simulate(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVER)
        sim_out = str(tmp_path / "sim")
        sweep_out = str(tmp_path / "sweep")
        assert main(["simulate", "--config", cfg, "--out", sim_out,
                     "--quiet"]) == 0
        assert main(["sweep", "--config", cfg, "--out", sweep_out,
                     "--quiet"]) == 0
        decay, _ = read_table(tmp_path / "sim" / "decay.csv")
        sweep, _ = read_table(tmp_path / "sweep" / "sweep.csv")
        np.testing.assert_array_equal(sweep["p"], decay["dot_average"])
        np.testing.assert_array_equal(sweep["t_s"], decay["t_s"])

    def test_empty_d_list_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVER.replace(
            "d_cm2s = 1e-13", "d_list_cm2s ="))
        assert main(["sweep", "--config", cfg, "--quiet"]) == 2

    def test_no_d_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_SOLVER.replace(
            "d_cm2s = 1e-13\n", ""))
        assert main(["sweep", "--config", cfg, "--quiet"]) == 2
        assert "d_list_cm2s" in capsys.readouterr().err


class TestFitRise:
    def rise_csv(self, tmp_path, tau=0.4, rows=None):
        t = np.arange(0.0, 6.01, 0.2) if rows is None else np.arange(rows,
                                                                     dtype=float)
        y = 38.0 * (1.0 - np.exp(-t / tau))
        path = tmp_path / "rise.csv"
        write_measured_csv(path, DecaySeries(
            t=t, y=y, y_kind=YKind.ZEEMAN_SPLITTING_UEV))
        return str(path)

    def test_recovers_tau(self, tmp_path, capsys):
        path = self.rise_csv(tmp_path, tau=3.4)
        assert main(["fit-rise", path, "--out", str(tmp_path),
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "tau_s = 3.4" in out
        overlay, _ = read_table(tmp_path / "rise_overlay.csv")
        assert list(overlay) == ["t_s", "measured", "model"]

    def test_three_rows_exit_2(self, tmp_path):
        path = self.rise_csv(tmp_path, rows=3)
        assert main(["fit-rise", path, "--quiet", "--out",
                     str(tmp_path)]) == 2

    def test_constant_csv_exits_4(self, tmp_path):
        path = tmp_path / "const.csv"
        write_measured_csv(path, DecaySeries(
            t=np.arange(6.0), y=np.full(6, 5.0),
            y_kind=YKind.ZEEMAN_SPLITTING_UEV))
        assert main(["fit-rise", str(path), "--quiet", "--out",
                     str(tmp_path)]) == 4

    def test_repeated_y_kind_exits_2_naming_file_and_key(self, tmp_path,
                                                         capsys):
        # read with the last y_kind, this was a Zeeman series and fitted
        path = tmp_path / "kinds.csv"
        path.write_text("# y_kind=dot_average\n# y_kind=zeeman_splitting_uev"
                        "\ndelay_s,value\n0,60\n1,80\n2,90\n3,95\n"
                        "4,97\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["fit-rise", str(path), "--quiet", "--out",
                     str(out)]) == 2
        err = capsys.readouterr().err
        assert "kinds.csv:2: metadata repeats key 'y_kind'" in err
        assert not (out / "rise_overlay.csv").exists()

    def test_repeated_column_exits_2_naming_file(self, tmp_path, capsys):
        path = tmp_path / "twice.csv"
        path.write_text("# y_kind=zeeman_splitting_uev\ndelay_s,value,value\n"
                        "0,98,1\n10,90,2\n20,85,3\n30,80,4\n40,75,5\n",
                        encoding="utf-8")
        out = tmp_path / "out"
        assert main(["fit-rise", str(path), "--quiet", "--out",
                     str(out)]) == 2
        assert "twice.csv" in capsys.readouterr().err
        assert not out.exists()

    def test_straight_line_exits_4(self, tmp_path, capsys):
        # a rise that never bends: the least squares put tau past 100
        # times the 6 s span
        t = np.arange(0.0, 6.01, 0.2)
        path = tmp_path / "line.csv"
        write_measured_csv(path, DecaySeries(
            t=t, y=2.0 + 3.0 * t, y_kind=YKind.ZEEMAN_SPLITTING_UEV))
        out = tmp_path / "out"
        assert main(["fit-rise", str(path), "--quiet", "--out",
                     str(out)]) == 4
        assert "lies outside [0.02, 600] s" in capsys.readouterr().err
        assert not out.exists()


class TestFitD:
    FIT_CONFIG = """\
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

    def synthetic_csv(self, tmp_path):
        from spindiff import DotGeometry, build_grid, simulate_decay_curve
        grid = build_grid(DotGeometry(), 1.0, 0.625, extent_factor=5.0)
        s = simulate_decay_curve(4e-15, 10.0, 60.0, 10.0, DotGeometry(),
                                 grid, dt=0.2)
        path = tmp_path / "measured.csv"
        write_measured_csv(path, DecaySeries(
            t=s.t, y=60.0 + 38.0 * s.y, y_kind=YKind.ZEEMAN_SPLITTING_UEV))
        return str(path)

    def test_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.FIT_CONFIG)
        out = str(tmp_path / "out")
        assert main(["fit-d", self.synthetic_csv(tmp_path), "--config", cfg,
                     "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "d_qd_cm2s = " in stdout
        report = read_fit_report(tmp_path / "out" / "fit.json")
        assert report["d_qd_cm2s"] == pytest.approx(4e-15, rel=0.05, abs=0)
        assert report["scale_uev"] == pytest.approx(38.0, rel=0.02)
        assert report["offset_uev"] == pytest.approx(60.0, rel=0.02)
        assert report["warnings"] == []
        assert len(report["sse_grid"]) == len(report["d_grid_cm2s"]) == 3
        assert report["forward_solves"] > len(report["sse_grid"])
        overlay, _ = read_table(tmp_path / "out" / "fit_overlay.csv")
        assert list(overlay) == ["t_s", "measured", "model"]
        rms = np.sqrt(np.mean((overlay["measured"] - overlay["model"]) ** 2))
        assert rms < 0.1

    def test_overlay_is_the_fits_model(self, tmp_path):
        from spindiff import (DotGeometry, build_grid,
                              fit_diffusion_coefficient, pumped_sampler,
                              read_measured_csv)
        path = self.synthetic_csv(tmp_path)
        geo = DotGeometry()
        grid = build_grid(geo, 1.0, 0.625, extent_factor=5.0)
        measured = read_measured_csv(path)
        fit = fit_diffusion_coefficient(measured, 10.0, geo, grid,
                                        (1e-15, 1e-14), dt=0.2)
        p = pumped_sampler(fit.d_qd, 10.0, geo, grid,
                           0.2).dot_averages(measured.t, geo)
        assert fit.model == tuple((fit.offset + fit.scale * p).tolist())
        cfg = write_config(tmp_path, self.FIT_CONFIG)
        out = str(tmp_path / "out")
        assert main(["fit-d", path, "--config", cfg, "--out", out,
                     "--quiet"]) == 0
        overlay, _ = read_table(tmp_path / "out" / "fit_overlay.csv")
        assert tuple(overlay["model"].tolist()) == fit.model

    def test_fit_honours_t1(self, tmp_path):
        from spindiff import DotGeometry, build_grid, simulate_decay_curve
        grid = build_grid(DotGeometry(), 1.0, 0.625, extent_factor=5.0)
        s = simulate_decay_curve(4e-15, 10.0, 60.0, 5.0, DotGeometry(), grid,
                                 dt=0.2, t1_uniform=60.0)
        path = tmp_path / "measured.csv"
        write_measured_csv(path, DecaySeries(
            t=s.t, y=60.0 + 38.0 * s.y, y_kind=YKind.ZEEMAN_SPLITTING_UEV))
        cfg = write_config(tmp_path, self.FIT_CONFIG.replace(
            "dt_s = 0.2", "dt_s = 0.2\nt1_s = 60"))
        out = str(tmp_path / "out")
        assert main(["fit-d", str(path), "--config", cfg, "--out", out,
                     "--quiet"]) == 0
        report = read_fit_report(tmp_path / "out" / "fit.json")
        # abs=0: approx's default absolute slack of 1e-12 exceeds any D here
        assert report["d_qd_cm2s"] == pytest.approx(4e-15, rel=0.05, abs=0)

    def test_sigma_column_weights_residuals(self, tmp_path):
        from spindiff import DotGeometry, build_grid, simulate_decay_curve
        grid = build_grid(DotGeometry(), 1.0, 0.625, extent_factor=5.0)
        s = simulate_decay_curve(4e-15, 10.0, 60.0, 5.0, DotGeometry(), grid,
                                 dt=0.2)
        y = 60.0 + 38.0 * s.y
        y[[2, 5]] += (6.0, -5.0)
        sigma = np.where(np.isin(np.arange(y.size), [2, 5]), 100.0, 0.1)
        cfg = write_config(tmp_path, self.FIT_CONFIG)
        fitted = []
        for name, sig in (("plain.csv", None), ("sigma.csv", sigma)):
            path = tmp_path / name
            write_measured_csv(path, DecaySeries(
                t=s.t, y=y, y_kind=YKind.ZEEMAN_SPLITTING_UEV, sigma=sig))
            out = str(tmp_path / name[:-4])
            assert main(["fit-d", str(path), "--config", cfg, "--out", out,
                         "--quiet"]) == 0
            fitted.append(read_fit_report(os.path.join(out, "fit.json"))
                          ["d_qd_cm2s"])
        assert abs(fitted[0] / 4e-15 - 1.0) > 0.1
        assert fitted[1] == pytest.approx(4e-15, rel=0.02, abs=0)

    def test_boundary_minimum_warning_printed(self, tmp_path, capsys):
        # data generated at 4e-15 pin a search below it at the upper bound
        cfg = write_config(tmp_path, self.FIT_CONFIG.replace(
            "d_bounds_cm2s = 1e-15, 1e-14", "d_bounds_cm2s = 1e-16, 1e-15"))
        assert main(["fit-d", self.synthetic_csv(tmp_path), "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        assert "warning: BoundaryMinimum" in capsys.readouterr().out

    def test_bounds_ratio_overflow_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.FIT_CONFIG.replace(
            "d_bounds_cm2s = 1e-15, 1e-14", "d_bounds_cm2s = 1e-300, 1e10"))
        assert main(["fit-d", self.synthetic_csv(tmp_path), "--config", cfg,
                     "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "BadBounds" in capsys.readouterr().err

    def test_constant_csv_exits_4(self, tmp_path):
        cfg = write_config(tmp_path, self.FIT_CONFIG)
        path = tmp_path / "const.csv"
        write_measured_csv(path, DecaySeries(
            t=np.arange(0.0, 60.0, 10.0), y=np.full(6, 60.0),
            y_kind=YKind.ZEEMAN_SPLITTING_UEV))
        assert main(["fit-d", str(path), "--config", cfg, "--quiet",
                     "--out", str(tmp_path)]) == 4

    def test_non_monotonic_csv_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, self.FIT_CONFIG)
        path = tmp_path / "bad.csv"
        path.write_text("# y_kind=zeeman_splitting_uev\ndelay_s,value\n"
                        "0,98\n20,80\n10,90\n30,75\n40,70\n",
                        encoding="utf-8")
        assert main(["fit-d", str(path), "--config", cfg, "--quiet",
                     "--out", str(tmp_path)]) == 2

    def test_zero_sigma_exits_2_naming_file_and_entry(self, tmp_path,
                                                      capsys):
        cfg = write_config(tmp_path, self.FIT_CONFIG)
        path = tmp_path / "zero_sigma.csv"
        path.write_text("# y_kind=zeeman_splitting_uev\n"
                        "delay_s,value,sigma\n0,98,1\n10,90,1\n20,85,0\n"
                        "30,80,1\n40,75,1\n", encoding="utf-8")
        assert main(["fit-d", str(path), "--config", cfg, "--quiet",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "zero_sigma.csv" in err
        assert "sigma[2] = 0" in err


def run_python(*args):
    """``python *args`` in a new process that imports spindiff from src."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize takes about a third of a second to import, and no
    # fit uses it: every fit runs the package's own search
    out = run_python("-c", "import sys, spindiff.cli; "
                           "print('scipy.optimize' in sys.modules)")
    assert out.returncode == 0
    assert out.stdout.strip() == "False"


COLD_IMPORT = """\
import json, os, sys
import numpy


def threads():
    # Linux lists each thread of the process here
    task = "/proc/self/task"
    return len(os.listdir(task)) if os.path.isdir(task) else None


def scipy_modules():
    return [m for m in sys.modules if m.partition(".")[0] == "scipy"]


pool = threads()
from spindiff.cli import main
loaded, after_import = scipy_modules(), threads()
status = main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2],
               "--quiet"])
after_simulate = threads()
rise = main(["fit-rise", sys.argv[3], "--out", sys.argv[2], "--quiet"])
# the production grid's pump: 100 unknowns per capacitance system
from spindiff import (DotGeometry, SolverConfig, _lapack, build_grid,
                      simulate_pump)
simulate_pump(DotGeometry(), SolverConfig(d_qd=10.0), 1.0,
              build_grid(DotGeometry(), 0.5, 0.5))
print(json.dumps({"pool": pool, "after_import": after_import,
                  "after_simulate": after_simulate,
                  "after_production_pump": threads(), "status": status,
                  "blas_threads":
                      _lapack._lib.scipy_openblas_get_num_threads64_(),
                  "rise": rise,
                  "scipy": loaded + scipy_modules()}))
"""


@pytest.mark.skipif(_lapack.LIBRARY is None,
                    reason="numpy vendors no OpenBLAS to bind: the solver "
                           "runs on scipy")
def test_cold_import_loads_no_scipy_and_retires_blas_pool(tmp_path):
    # the solver binds the OpenBLAS numpy loaded, pins it to one thread
    # and retires its idle worker pool on import; a simulate and a
    # production pump run on the calling thread alone, the pin holds after
    # them, and neither they nor a rise fit load scipy
    cfg = write_config(tmp_path, FAST_SOLVER)
    rise = tmp_path / "rise.csv"
    t = np.arange(0.0, 6.01, 0.2)
    write_measured_csv(rise, DecaySeries(
        t=t, y=38.0 * (1.0 - np.exp(-t / 1.3)),
        y_kind=YKind.ZEEMAN_SPLITTING_UEV))
    out = run_python("-c", COLD_IMPORT, cfg, str(tmp_path / "out"),
                     str(rise))
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.splitlines()[-1])  # after fit-rise's lines
    assert got["status"] == got["rise"] == 0
    assert got["scipy"] == []
    assert got["blas_threads"] == 1
    if got["pool"] is not None:
        assert (got["after_import"] == got["after_simulate"]
                == got["after_production_pump"] == 1), got


def test_module_run_exits_with_mains_status():
    # python -m spindiff.cli, as the installed script does, hands main's
    # return value to the process
    bad = run_python("-m", "spindiff.cli", "convert", "nan")
    assert bad.returncode == 2
    assert bad.stdout == ""
    good = run_python("-m", "spindiff.cli", "convert", "66")
    assert good.returncode == 0
    assert good.stdout == "polarization_degree = 0.5\n"
