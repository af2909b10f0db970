"""Run configuration: strict INI-style config files.

``_SCHEMA`` lists every accepted ``[section] key`` (units embedded in the
names) with the field it fills and its parser. A key left out keeps the
field default of ``MaterialParams``, ``DotGeometry`` or ``RunConfig``, the
only defaults. A config without ``[geometry]`` keys has no geometry (only
``convert`` runs without one); a ``[geometry]`` that gives any key must
give both radius_nm and height_nm. Unknown sections or keys are rejected.
Numeric values accept scientific notation and must be finite. At most one
of d_cm2s / d_list_cm2s / d_bounds_cm2s may be given; which one a command
needs depends on the command.
"""
from __future__ import annotations

import configparser
import math
import os
from collections import namedtuple
from dataclasses import dataclass, field

from .domain import DotGeometry, Helicity, MaterialParams, validate_material
from .errors import ConfigError, InvariantViolation


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with defaults applied."""

    material: MaterialParams
    geometry: DotGeometry | None  # None: the file gives no [geometry] key
    d_cm2s: float | None = None
    d_list_cm2s: tuple[float, ...] | None = None
    d_bounds_cm2s: tuple[float, float] = (1e-16, 1e-11)  # fit-d search range
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


def _checked(parse, ok, rule: str):
    """``parse``, then reject a value for which ``ok`` is false."""
    def parse_checked(section: str, key: str, raw: str):
        value = parse(section, key, raw)
        if not ok(value):
            raise ConfigError(f"[{section}] {key}: {rule}")
        return value
    return parse_checked


_NON_NEGATIVE = _checked(_get_float, lambda v: v >= 0, "must be >= 0")
_POSITIVE = _checked(_get_float, lambda v: v > 0, "must be > 0")
_NON_NEGATIVE_LIST = _checked(_get_float_list, lambda v: min(v) >= 0,
                              "entries must be >= 0")
_EXTENT = _checked(_get_float, lambda v: v >= 5, "must be >= 5")
_BOUNDS = _checked(_get_float_list,
                   lambda v: len(v) == 2 and 0 < v[0] < v[1],
                   "need 'low, high' with 0 < low < high")


def _get_helicity(section: str, key: str, raw: str) -> Helicity | None:
    """sigma+ or sigma-; None (the field default) for an empty value."""
    if not raw:
        return None
    try:
        return Helicity(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: unknown value '{raw}', "
                          f"must be sigma+ or sigma-") from exc


def _get_dir(section: str, key: str, raw: str) -> str | None:
    """The value; None (the field default) for an empty value."""
    return raw or None


# A key fills the field ``attr`` with ``parse(section, key, raw)``, unless
# that returns None; a key marked ``required`` must be given once its
# section gives any key; at most one key marked ``one_d`` may be given.
_Key = namedtuple("_Key", "attr parse required one_d",
                  defaults=(False, False))


_SCHEMA = {
    "material": {  # MaterialParams
        "a_ga_uev": _Key("a_ga", _get_float),
        "a_as_uev": _Key("a_as", _get_float),
        "i_ga": _Key("i_ga", _get_float),
        "i_as": _Key("i_as", _get_float),
        "g_e_abs": _Key("g_e_abs", _get_float),
        "g_h_abs": _Key("g_h_abs", _get_float),
        "b_ext_t": _Key("b_ext", _get_float),
    },
    "geometry": {  # DotGeometry
        "radius_nm": _Key("radius", _get_float, required=True),
        "height_nm": _Key("height", _get_float, required=True),
        "z_center_nm": _Key("z_center", _get_float),
    },
    "solver": {  # RunConfig, as are the sections below
        "d_cm2s": _Key("d_cm2s", _NON_NEGATIVE, one_d=True),
        "d_list_cm2s": _Key("d_list_cm2s", _NON_NEGATIVE_LIST, one_d=True),
        "d_bounds_cm2s": _Key("d_bounds_cm2s", _BOUNDS, one_d=True),
        "t1_s": _Key("t1_s", _POSITIVE),
        "dr_nm": _Key("dr_nm", _POSITIVE),
        "dz_nm": _Key("dz_nm", _POSITIVE),
        "dt_s": _Key("dt_s", _POSITIVE),
        "extent_factor": _Key("extent_factor", _EXTENT),
    },
    "protocol": {
        "t_dark_s": _Key("t_dark_s", _NON_NEGATIVE),
        "t_pump_s": _Key("t_pump_s", _NON_NEGATIVE),
        "pump_helicity": _Key("pump_helicity", _get_helicity),
    },
    "output": {
        "dir": _Key("out_dir", _get_dir),
        "sample_every_s": _Key("sample_every_s", _POSITIVE),
        "snapshot_times_s": _Key("snapshot_times_s", _NON_NEGATIVE_LIST),
    },
}


def load_config(path: str | os.PathLike) -> RunConfig:
    """Parse and validate a config file; raises ConfigError naming the
    offending section/key on any schema violation."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        # utf-8-sig skips the byte-order mark a Windows editor may write
        with open(path, "r", encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(
            f"cannot read config {os.fspath(path)}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]")
    values: dict[str, dict] = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
            spec = _SCHEMA[section][key]
            value = spec.parse(section, key, raw)
            if value is not None:
                values[section][spec.attr] = value

    for section, keys in _SCHEMA.items():
        for key, spec in keys.items():
            if (spec.required and values[section]
                    and not parser.has_option(section, key)):
                raise ConfigError(
                    f"missing required key '{key}' in [{section}]")
    d_keys = [key for key, spec in _SCHEMA["solver"].items() if spec.one_d]
    if sum(parser.has_option("solver", key) for key in d_keys) > 1:
        raise ConfigError(
            f"[solver]: give at most one of {', '.join(d_keys)}")

    try:
        material = validate_material(MaterialParams(**values["material"]))
    except InvariantViolation as exc:
        raise ConfigError(f"[material]: {exc}") from exc
    try:
        geometry = (DotGeometry(**values["geometry"]) if values["geometry"]
                    else None)
    except InvariantViolation as exc:
        raise ConfigError(f"[geometry]: {exc}") from exc
    return RunConfig(material=material, geometry=geometry,
                     **values["solver"], **values["protocol"],
                     **values["output"])
