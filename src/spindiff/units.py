"""Fixed unit conventions: lengths in nm, times in s, energies in ueV,
magnetic fields in Tesla. Diffusion coefficients are accepted in cm^2/s at
the interfaces and converted to nm^2/s internally.
"""
from __future__ import annotations

import math

from .errors import InvariantViolation

# Bohr magneton in ueV/T (CODATA). Fixed physical constant, not configurable.
MU_B_UEV_PER_T = 57.8838

# 1 cm^2 = 1e14 nm^2
_CM2_TO_NM2 = 1.0e14


def diffusion_cm2s_to_nm2s(d_cm2_per_s: float) -> float:
    """Convert a diffusion coefficient from cm^2/s to nm^2/s."""
    if d_cm2_per_s < 0:
        raise InvariantViolation("NegativeDiffusion",
                                 f"diffusion coefficient must be >= 0, got {d_cm2_per_s}")
    d_nm2_per_s = d_cm2_per_s * _CM2_TO_NM2
    if not math.isfinite(d_nm2_per_s):
        raise InvariantViolation(
            "NonFiniteDiffusion",
            f"diffusion coefficient {d_cm2_per_s} cm^2/s is not finite "
            f"in nm^2/s")
    return d_nm2_per_s


def diffusion_nm2s_to_cm2s(d_nm2_per_s: float) -> float:
    """Convert a diffusion coefficient from nm^2/s to cm^2/s."""
    if d_nm2_per_s < 0:
        raise InvariantViolation("NegativeDiffusion",
                                 f"diffusion coefficient must be >= 0, got {d_nm2_per_s}")
    return d_nm2_per_s / _CM2_TO_NM2
