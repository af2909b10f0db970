"""Shared value types: material parameters, dot geometry, pulse sequences
and measured/simulated time series.

All types are plain immutable values; validation is explicit
(``validate_material``) or happens where a value is consumed. A pulse
segment is a kind and a duration: the model computes the magnitude of
the dot polarization only, and ``Helicity`` enters where its sign is
observed (``observables``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvariantViolation


class Helicity(Enum):
    """Circular helicity of the pump, which sets the sign of the
    Overhauser shift."""

    SIGMA_PLUS = "sigma+"
    SIGMA_MINUS = "sigma-"

    @property
    def sign(self) -> int:
        """+1 for sigma+, -1 for sigma-."""
        return 1 if self is Helicity.SIGMA_PLUS else -1


@dataclass(frozen=True)
class MaterialParams:
    """Hyperfine constants (ueV), nuclear spins, g-factor magnitudes and
    external field (T) of the host material.

    Defaults are the GaAs values; the g-factor magnitudes have no defaults
    and stay ``None`` unless supplied, because Zeeman-splitting output is
    impossible without them.
    """

    a_ga: float = 42.0
    a_as: float = 46.0
    i_ga: float = 1.5
    i_as: float = 1.5
    g_e_abs: float | None = None
    g_h_abs: float | None = None
    b_ext: float = 2.0


def validate_material(m: MaterialParams) -> MaterialParams:
    """Check all MaterialParams invariants; return ``m`` unchanged if valid.

    Raises InvariantViolation naming the first violated invariant; a NaN
    or infinite field is ``NonFiniteValue``.
    """
    reject_non_finite(m, "a_ga", "a_as", "i_ga", "i_as", "g_e_abs",
                      "g_h_abs", "b_ext")
    if not (m.a_ga > 0):
        raise InvariantViolation("NonPositiveHyperfineConstant", f"a_ga = {m.a_ga}")
    if not (m.a_as > 0):
        raise InvariantViolation("NonPositiveHyperfineConstant", f"a_as = {m.a_as}")
    if not (m.i_ga > 0):
        raise InvariantViolation("NonPositiveNuclearSpin", f"i_ga = {m.i_ga}")
    if not (m.i_as > 0):
        raise InvariantViolation("NonPositiveNuclearSpin", f"i_as = {m.i_as}")
    if m.b_ext < 0:
        raise InvariantViolation("NegativeField", f"b_ext = {m.b_ext}")
    if m.g_e_abs is not None and m.g_e_abs < 0:
        raise InvariantViolation("NegativeGFactor", f"g_e_abs = {m.g_e_abs}")
    if m.g_h_abs is not None and m.g_h_abs < 0:
        raise InvariantViolation("NegativeGFactor", f"g_h_abs = {m.g_h_abs}")
    return m


def reject_non_finite(owner, *names: str) -> None:
    """Raise InvariantViolation naming the first of the attributes
    ``names`` of ``owner`` that is set (not None) but not finite."""
    for name in names:
        value = getattr(owner, name)
        if value is not None and not math.isfinite(value):
            raise InvariantViolation("NonFiniteValue", f"{name} = {value}")


@dataclass(frozen=True)
class DotGeometry:
    """Disk-shaped dot: radius and height in nm, mid-plane at ``z_center``."""

    radius: float = 10.0
    height: float = 5.0
    z_center: float = 0.0

    def __post_init__(self):
        reject_non_finite(self, "radius", "height", "z_center")
        if not (self.radius > 0):
            raise InvariantViolation("NonPositiveRadius", f"radius = {self.radius}")
        if not (self.height > 0):
            raise InvariantViolation("NonPositiveHeight", f"height = {self.height}")


class SegmentKind(Enum):
    ERASE = "erase"
    PUMP = "pump"
    DARK = "dark"
    PROBE = "probe"


@dataclass(frozen=True)
class PulseSegment:
    """One segment of an optical pulse sequence: a kind and a duration.

    The segment carries no helicity. In the paper's protocol the erase
    and probe pulses are linear and the pump is circular, but the model
    tracks the magnitude of the polarization only, so the pump's sign
    comes from ``[protocol] pump_helicity`` or the ``h`` argument of the
    Zeeman functions.
    """

    kind: SegmentKind
    duration: float

    def __post_init__(self):
        if not (0 <= self.duration < math.inf):
            raise InvariantViolation("NegativeDuration",
                                     f"{self.kind.value} duration = {self.duration}")


@dataclass(frozen=True)
class PulseSequence:
    segments: tuple[PulseSegment, ...]

    def __post_init__(self):
        if not self.segments:
            raise InvariantViolation("EmptySequence", "a pulse sequence needs >= 1 segment")

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)


def paper_decay_sequence(t_dark: float, t_pump: float = 10.0,
                         t_erase: float = 10.0,
                         t_probe: float = 0.1) -> PulseSequence:
    """The standard pump-probe decay protocol: erase, pump, dark delay,
    short probe readout (linear, circular, dark and linear in the
    paper)."""
    return PulseSequence(segments=(
        PulseSegment(SegmentKind.ERASE, t_erase),
        PulseSegment(SegmentKind.PUMP, t_pump),
        PulseSegment(SegmentKind.DARK, t_dark),
        PulseSegment(SegmentKind.PROBE, t_probe),
    ))


class YKind(Enum):
    """What the y column of a series means."""

    DOT_AVERAGE = "dot_average"
    ZEEMAN_SPLITTING_UEV = "zeeman_splitting_uev"


@dataclass(frozen=True)
class DecaySeries:
    """Time-stamped observable samples, measured or simulated.

    ``t`` and ``y`` are finite and ``t`` is strictly increasing;
    ``sigma``, when given, is the finite, positive uncertainty of each
    sample (a ``BadSigma`` otherwise); ``metadata`` holds free-form
    labels (helicity, pump power, field, ...) and no ``"sigma"``.
    """

    t: np.ndarray
    y: np.ndarray
    y_kind: YKind = YKind.DOT_AVERAGE
    metadata: dict = field(default_factory=dict)
    sigma: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)
        if t.ndim != 1 or t.size == 0 or y.shape != t.shape:
            raise InvariantViolation("BadSeriesShape",
                                     f"t shape {t.shape}, y shape {y.shape}")
        for name, v in (("t", t), ("y", y)):
            bad = np.flatnonzero(~np.isfinite(v))
            if bad.size:
                raise InvariantViolation("NonFiniteValue",
                                         f"{name}[{bad[0]}] = {v[bad[0]]}")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise InvariantViolation("NonMonotonicTime",
                                     "sample times must be strictly increasing")
        if "sigma" in self.metadata:
            raise InvariantViolation("BadSigma", "sigma is a field, not metadata")
        if self.sigma is not None:
            s = np.asarray(self.sigma, dtype=float)
            object.__setattr__(self, "sigma", s)
            if s.shape != t.shape:
                raise InvariantViolation(
                    "BadSigma", f"sigma shape {s.shape}, t shape {t.shape}")
            bad = np.flatnonzero(~((s > 0) & (s < math.inf)))
            if bad.size:
                raise InvariantViolation("BadSigma",
                                         f"sigma[{bad[0]}] = {s[bad[0]]:g}")

    def __len__(self) -> int:
        return int(self.t.size)
