"""Run configuration: strict INI-style config files.

Sections and keys (units embedded in the names):

    [material]   a_ga_uev, a_as_uev, i_ga, i_as, g_e_abs, g_h_abs, b_ext_t
    [geometry]   radius_nm (required), height_nm (required), z_center_nm
    [solver]     d_cm2s | d_list_cm2s | d_bounds_cm2s, t1_s, dr_nm, dz_nm,
                 dt_s, extent_factor
    [protocol]   t_dark_s, t_pump_s, pump_helicity
    [output]     dir, sample_every_s, snapshot_times_s

Unknown sections or keys are rejected. All numeric values accept
scientific notation and must be finite. At most one of d_cm2s /
d_list_cm2s / d_bounds_cm2s may be given; which one is required depends
on the command.
"""
from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

from .domain import DotGeometry, Helicity, MaterialParams, validate_material
from .errors import ConfigError, InvariantViolation

_SCHEMA = {
    "material": {"a_ga_uev", "a_as_uev", "i_ga", "i_as", "g_e_abs",
                 "g_h_abs", "b_ext_t"},
    "geometry": {"radius_nm", "height_nm", "z_center_nm"},
    "solver": {"d_cm2s", "d_list_cm2s", "d_bounds_cm2s", "t1_s", "dr_nm",
               "dz_nm", "dt_s", "extent_factor"},
    "protocol": {"t_dark_s", "t_pump_s", "pump_helicity"},
    "output": {"dir", "sample_every_s", "snapshot_times_s"},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with defaults applied."""

    material: MaterialParams
    geometry: DotGeometry
    d_cm2s: float | None = None
    d_list_cm2s: tuple[float, ...] | None = None
    d_bounds_cm2s: tuple[float, float] | None = None
    t1_s: float | None = None
    dr_nm: float = 0.5
    dz_nm: float = 0.5
    dt_s: float | None = None
    extent_factor: float = 20.0
    t_dark_s: float | None = None
    t_pump_s: float = 10.0
    pump_helicity: Helicity = Helicity.SIGMA_PLUS
    out_dir: str = "."
    sample_every_s: float = 1.0
    snapshot_times_s: tuple[float, ...] = field(default_factory=tuple)


def _get_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(
            f"[{section}] {key}: not a number: '{raw}'") from exc
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: not finite: '{raw}'")
    return value


def _get_float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",")]
    if parts == [""]:
        raise ConfigError(f"[{section}] {key}: empty list")
    return tuple(_get_float(section, key, p) for p in parts)


def load_config(path: str | os.PathLike) -> RunConfig:
    """Parse and validate a config file; raises ConfigError naming the
    offending section/key on any schema violation."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")

    def raw(section: str, key: str) -> str | None:
        if parser.has_section(section) and key in parser[section]:
            return parser[section][key]
        return None

    def num(section: str, key: str, default: float | None) -> float | None:
        value = raw(section, key)
        return default if value is None else _get_float(section, key, value)

    material = MaterialParams(
        a_ga=num("material", "a_ga_uev", 42.0),
        a_as=num("material", "a_as_uev", 46.0),
        i_ga=num("material", "i_ga", 1.5),
        i_as=num("material", "i_as", 1.5),
        g_e_abs=num("material", "g_e_abs", None),
        g_h_abs=num("material", "g_h_abs", None),
        b_ext=num("material", "b_ext_t", 2.0),
    )
    try:
        validate_material(material)
    except InvariantViolation as exc:
        raise ConfigError(f"[material]: {exc}") from exc

    radius = num("geometry", "radius_nm", None)
    height = num("geometry", "height_nm", None)
    if radius is None:
        raise ConfigError("missing required key 'radius_nm' in [geometry]")
    if height is None:
        raise ConfigError("missing required key 'height_nm' in [geometry]")
    try:
        geometry = DotGeometry(radius=radius, height=height,
                               z_center=num("geometry", "z_center_nm", 0.0))
    except InvariantViolation as exc:
        raise ConfigError(f"[geometry]: {exc}") from exc

    d_single = num("solver", "d_cm2s", None)
    d_list_raw = raw("solver", "d_list_cm2s")
    d_bounds_raw = raw("solver", "d_bounds_cm2s")
    n_given = sum(x is not None for x in (d_single, d_list_raw, d_bounds_raw))
    if n_given > 1:
        raise ConfigError(
            "[solver]: give at most one of d_cm2s, d_list_cm2s, d_bounds_cm2s")
    d_list = (_get_float_list("solver", "d_list_cm2s", d_list_raw)
              if d_list_raw is not None else None)
    d_bounds = None
    if d_bounds_raw is not None:
        pair = _get_float_list("solver", "d_bounds_cm2s", d_bounds_raw)
        if len(pair) != 2 or not (0 < pair[0] < pair[1]):
            raise ConfigError(
                "[solver] d_bounds_cm2s: need 'low, high' with 0 < low < high")
        d_bounds = (pair[0], pair[1])

    helicity_raw = raw("protocol", "pump_helicity") or Helicity.SIGMA_PLUS.value
    try:
        pump_helicity = Helicity(helicity_raw)
    except ValueError as exc:
        raise ConfigError(
            f"[protocol] pump_helicity: unknown value '{helicity_raw}'") from exc
    if not pump_helicity.is_circular:
        raise ConfigError(
            "[protocol] pump_helicity: must be sigma+ or sigma-")

    snapshot_raw = raw("output", "snapshot_times_s")
    snapshots = (_get_float_list("output", "snapshot_times_s", snapshot_raw)
                 if snapshot_raw is not None else ())

    cfg = RunConfig(
        material=material,
        geometry=geometry,
        d_cm2s=d_single,
        d_list_cm2s=d_list,
        d_bounds_cm2s=d_bounds,
        t1_s=num("solver", "t1_s", None),
        dr_nm=num("solver", "dr_nm", 0.5),
        dz_nm=num("solver", "dz_nm", 0.5),
        dt_s=num("solver", "dt_s", None),
        extent_factor=num("solver", "extent_factor", 20.0),
        t_dark_s=num("protocol", "t_dark_s", None),
        t_pump_s=num("protocol", "t_pump_s", 10.0),
        pump_helicity=pump_helicity,
        out_dir=raw("output", "dir") or ".",
        sample_every_s=num("output", "sample_every_s", 1.0),
        snapshot_times_s=snapshots,
    )
    if cfg.sample_every_s <= 0:
        raise ConfigError("[output] sample_every_s: must be > 0")
    if cfg.t_pump_s < 0:
        raise ConfigError("[protocol] t_pump_s: must be >= 0")
    if any(t < 0 for t in cfg.snapshot_times_s):
        raise ConfigError("[output] snapshot_times_s: entries must be >= 0")
    if cfg.d_cm2s is not None and cfg.d_cm2s < 0:
        raise ConfigError("[solver] d_cm2s: must be >= 0")
    if cfg.d_list_cm2s is not None and any(d < 0 for d in cfg.d_list_cm2s):
        raise ConfigError("[solver] d_list_cm2s: entries must be >= 0")
    if cfg.t_dark_s is not None and cfg.t_dark_s < 0:
        raise ConfigError("[protocol] t_dark_s: must be >= 0")
    return cfg
