"""Strict config-file parsing."""
import pytest

from spindiff import (ConfigError, DotGeometry, Helicity, MaterialParams,
                      RunConfig, load_config)

FULL = """\
[material]
a_ga_uev = 42
a_as_uev = 46
i_ga = 1.5
i_as = 1.5
g_e_abs = 0.54
g_h_abs = 1.4
b_ext_t = 2

[geometry]
radius_nm = 10
height_nm = 5
z_center_nm = 0

[solver]
d_cm2s = 2e-15
t1_s = 1000
dr_nm = 0.5
dz_nm = 0.5
dt_s = 0.01
extent_factor = 20

[protocol]
t_dark_s = 120
t_pump_s = 10
pump_helicity = sigma-

[output]
dir = results
sample_every_s = 1.0
snapshot_times_s = 0, 60, 120
"""


GEO = "[geometry]\nradius_nm = 10\nheight_nm = 5\n"


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadConfig:
    def test_full_config(self, tmp_path):
        rc = load_config(write(tmp_path, FULL))
        assert rc.material.g_e_abs == 0.54
        assert rc.geometry.radius == 10.0
        assert rc.d_cm2s == 2e-15
        assert rc.t1_s == 1000.0
        assert rc.dt_s == 0.01
        assert rc.t_dark_s == 120.0
        assert rc.pump_helicity is Helicity.SIGMA_MINUS
        assert rc.out_dir == "results"
        assert rc.snapshot_times_s == (0.0, 60.0, 120.0)

    def test_minimal_config_defaults(self, tmp_path):
        rc = load_config(write(tmp_path,
                               "[geometry]\nradius_nm = 8\nheight_nm = 4\n"))
        assert rc.material.a_ga == 42.0 and rc.material.g_e_abs is None
        assert rc.dr_nm == 0.5 and rc.dz_nm == 0.5
        assert rc.extent_factor == 20.0
        assert rc.t_pump_s == 10.0
        assert rc.d_cm2s is None and rc.d_list_cm2s is None
        assert rc.sample_every_s == 1.0
        # every key left out takes the field default of its dataclass
        assert rc == RunConfig(material=MaterialParams(),
                               geometry=DotGeometry(radius=8.0, height=4.0))

    def test_empty_helicity_and_dir_take_defaults(self, tmp_path):
        rc = load_config(write(tmp_path, GEO + "[protocol]\npump_helicity =\n"
                                              "[output]\ndir =\n"))
        assert rc.pump_helicity is Helicity.SIGMA_PLUS
        assert rc.out_dir == "."

    def test_scientific_notation(self, tmp_path):
        rc = load_config(write(
            tmp_path, "[geometry]\nradius_nm = 1.0e1\nheight_nm = 5E0\n"
                      "[solver]\nd_cm2s = 2E-15\n"))
        assert rc.geometry.radius == 10.0
        assert rc.d_cm2s == 2e-15

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_missing_radius_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match="radius_nm"):
            load_config(write(tmp_path, "[geometry]\nheight_nm = 5\n"))

    def test_missing_height_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match="height_nm"):
            load_config(write(tmp_path, "[geometry]\nradius_nm = 10\n"))

    def test_geometry_with_only_z_center_names_radius(self, tmp_path):
        with pytest.raises(ConfigError, match="radius_nm"):
            load_config(write(tmp_path, "[geometry]\nz_center_nm = 1\n"))

    def test_config_without_geometry_has_none(self, tmp_path):
        for text in ("[material]\ng_e_abs = 0.5\n", "[geometry]\n"):
            rc = load_config(write(tmp_path, text))
            assert rc.geometry is None
        assert rc.material == MaterialParams()

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="plotting"):
            load_config(write(tmp_path, "[geometry]\nradius_nm = 10\n"
                                        "height_nm = 5\n[plotting]\nx = 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        for text, key in (
                ("[geometry]\nradius_um = 10\nheight_nm = 5\n", "radius_um"),
                ("[geometry]\nradius_nm = 10\nheight_nm = 5\n"
                 "[protocol]\nt_erase_s = 10\n", "t_erase_s")):
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                load_config(write(tmp_path, text))

    def test_conflicting_d_keys_rejected(self, tmp_path):
        text = ("[geometry]\nradius_nm = 10\nheight_nm = 5\n"
                "[solver]\nd_cm2s = 1e-13\nd_list_cm2s = 1e-13, 1e-12\n")
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, text))

    def test_empty_d_list_rejected(self, tmp_path):
        text = ("[geometry]\nradius_nm = 10\nheight_nm = 5\n"
                "[solver]\nd_list_cm2s =\n")
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, text))

    def test_bad_d_bounds_rejected(self, tmp_path):
        text = ("[geometry]\nradius_nm = 10\nheight_nm = 5\n"
                "[solver]\nd_bounds_cm2s = 1e-12, 1e-15\n")
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, text))

    def test_unknown_preset_rejected(self, tmp_path):
        # The [protocol] preset key is gone: any value of it is an unknown key.
        for value in ("paper-rise", "paper-decay"):
            text = ("[geometry]\nradius_nm = 10\nheight_nm = 5\n"
                    f"[protocol]\npreset = {value}\n")
            with pytest.raises(ConfigError, match="unknown key 'preset'"):
                load_config(write(tmp_path, text))

    def test_non_circular_pump_rejected(self, tmp_path):
        text = ("[geometry]\nradius_nm = 10\nheight_nm = 5\n"
                "[protocol]\npump_helicity = linear\n")
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, text))

    def test_non_numeric_value_rejected(self, tmp_path):
        text = "[geometry]\nradius_nm = ten\nheight_nm = 5\n"
        with pytest.raises(ConfigError, match="radius_nm"):
            load_config(write(tmp_path, text))

    def test_material_validated(self, tmp_path):
        text = ("[material]\na_ga_uev = -42\n"
                "[geometry]\nradius_nm = 10\nheight_nm = 5\n")
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, text))

    def test_malformed_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="malformed config"):
            load_config(write(tmp_path, "radius_nm = 10\n" + GEO))

    def test_file_that_is_not_utf8_rejected_naming_it(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[geometry]\nradius_nm = \xff\nheight_nm = 5\n")
        with pytest.raises(ConfigError,
                           match="cannot read config .*bad.ini: .*0xff"):
            load_config(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.ini"
        path.write_bytes(b"\xef\xbb\xbf" + FULL.encode("utf-8"))
        assert load_config(path) == load_config(write(tmp_path, FULL))

    def test_default_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            load_config(write(tmp_path, "[DEFAULT]\nx = 1\n" + GEO))

    def test_geometry_validated(self, tmp_path):
        text = "[geometry]\nradius_nm = -1\nheight_nm = 5\n"
        with pytest.raises(ConfigError, match=r"\[geometry\]: .*radius"):
            load_config(write(tmp_path, text))

    def test_unknown_helicity_rejected(self, tmp_path):
        for value in ("sideways", "linear", "none"):
            with pytest.raises(ConfigError,
                               match=f"pump_helicity: unknown value "
                                     f"'{value}', must be sigma\\+ or sigma-"):
                load_config(write(tmp_path, GEO + "[protocol]\n"
                                  f"pump_helicity = {value}\n"))

    @pytest.mark.parametrize("section, line, key", [
        ("output", "sample_every_s = 0", "sample_every_s"),
        ("protocol", "t_pump_s = -1", "t_pump_s"),
        ("protocol", "t_dark_s = -1", "t_dark_s"),
        ("solver", "d_cm2s = -1e-13", "d_cm2s"),
        ("solver", "d_list_cm2s = 1e-13, -1e-13", "d_list_cm2s"),
        ("output", "snapshot_times_s = 0, -1", "snapshot_times_s"),
        ("solver", "t1_s = 0", "t1_s"),
        ("solver", "dt_s = -1", "dt_s"),
        ("solver", "dr_nm = 0", "dr_nm"),
        ("solver", "dz_nm = -0.5", "dz_nm"),
        ("solver", "extent_factor = 4.5", "extent_factor"),
    ])
    def test_out_of_range_value_names_key(self, tmp_path, section, line,
                                          key):
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: "):
            load_config(write(tmp_path, GEO + f"[{section}]\n{line}\n"))
