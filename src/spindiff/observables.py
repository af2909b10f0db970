"""Conversions between nuclear polarization degree, Overhauser shift/field
and the exciton/electron Zeeman splittings read off PL spectra.

Sign convention: the polarization degree and the Overhauser field b_n are
signed, positive for sigma+ pumping. The solver computes the magnitude of
the polarization only; the pump's sign enters here, through the
``Helicity`` argument ``h`` of the Zeeman functions (``h.sign``).
g-factors enter as magnitudes. Every range check rejects a value that is
not a number with ``UnphysicalShift``, as it rejects one out of range.
"""
from __future__ import annotations

from dataclasses import dataclass

from .domain import Helicity, MaterialParams
from .errors import MissingGFactor, UnphysicalShift
from .units import MU_B_UEV_PER_T


def ohs_max(m: MaterialParams) -> float:
    """Overhauser shift of a fully polarized dot, i_ga*a_ga + i_as*a_as (ueV)."""
    return m.i_ga * m.a_ga + m.i_as * m.a_as


def polarization_degree(ohs_uev: float, m: MaterialParams) -> float:
    """Nuclear polarization degree corresponding to an Overhauser shift."""
    full = ohs_max(m)
    if not abs(ohs_uev) <= full:
        raise UnphysicalShift(
            f"|OHS| = {abs(ohs_uev)} ueV exceeds the fully polarized maximum {full} ueV")
    return ohs_uev / full


def _degree(p: float) -> float:
    """``p``, checked to be a polarization degree in [-1, 1]."""
    if not abs(p) <= 1:
        raise UnphysicalShift(f"polarization degree {p} outside [-1, 1]")
    return p


def overhauser_field(p: float, m: MaterialParams) -> float:
    """Effective nuclear field b_n (T) for polarization degree ``p``.

    Defined so that the electron energy shift g_e_abs * mu_B * b_n equals
    the Overhauser shift p * ohs_max.
    """
    _degree(p)
    if not m.g_e_abs:
        raise MissingGFactor("overhauser_field requires g_e_abs > 0")
    return p * ohs_max(m) / (m.g_e_abs * MU_B_UEV_PER_T)


def degree_from_field(b_n: float, m: MaterialParams) -> float:
    """Polarization degree whose Overhauser field is ``b_n`` (T): the
    inverse of ``overhauser_field``."""
    if not m.g_e_abs:
        raise MissingGFactor("converting a field requires g_e_abs > 0 "
                             "(set it in [material])")
    # dividing by the fully polarized field returns exactly +-1 there
    p = b_n / overhauser_field(1.0, m)
    if not abs(p) <= 1:
        raise UnphysicalShift(
            f"field {b_n} T exceeds the fully polarized value")
    return p


@dataclass(frozen=True)
class OverhauserState:
    """Polarization degree with its equivalent shift (ueV) and field (T);
    the field is None for a material without ``g_e_abs``."""

    polarization_degree: float
    ohs_energy: float
    b_n: float | None


def overhauser_state(p: float, m: MaterialParams) -> OverhauserState:
    """The shift and field of polarization degree ``p``, checked to lie
    in [-1, 1]."""
    return OverhauserState(
        polarization_degree=_degree(p), ohs_energy=p * ohs_max(m),
        b_n=None if m.g_e_abs is None else overhauser_field(p, m))


def electron_zeeman(m: MaterialParams, b_n: float, h: Helicity) -> float:
    """Electron Zeeman splitting mu_B*g_e*(b_ext -/+ b_n) in ueV.

    The nuclear field opposes the external field under sigma+ excitation
    and adds to it under sigma-.
    """
    if not m.g_e_abs:
        raise MissingGFactor("electron_zeeman requires g_e_abs > 0")
    return MU_B_UEV_PER_T * m.g_e_abs * (m.b_ext - h.sign * b_n)


def exciton_zeeman_splitting(m: MaterialParams, b_n: float, h: Helicity) -> float:
    """Exciton PL doublet splitting mu_B*[g_h*b_ext - g_e*(b_ext -/+ b_n)] in ueV."""
    if not m.g_e_abs or m.g_h_abs is None:
        raise MissingGFactor("exciton_zeeman_splitting requires g_e_abs and g_h_abs")
    return MU_B_UEV_PER_T * (m.g_h_abs * m.b_ext
                             - m.g_e_abs * (m.b_ext - h.sign * b_n))
