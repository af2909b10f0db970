"""Exception hierarchy shared across the package.

Validation failures carry the name of the first violated invariant so
callers (and the CLI) can report it without string-parsing. Each class's
``exit_code`` is the CLI exit status it maps to: 2 invalid input or
configuration, 3 numerical failure, 4 fit not identifiable.
"""
from __future__ import annotations


class SpinDiffError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class InvariantViolation(SpinDiffError):
    """An input value violates a documented invariant.

    ``name`` identifies the invariant, e.g. ``NonPositiveHyperfineConstant``
    or ``NegativeDiffusion``.
    """

    def __init__(self, name: str, detail: str):
        self.name = name
        super().__init__(f"{name}: {detail}")


class GridTooCoarse(SpinDiffError):
    """Requested resolution cannot resolve the dot."""


class GeometryMismatch(SpinDiffError):
    """Dot region does not lie inside the simulation grid."""


class NumericalBlowup(SpinDiffError):
    """Non-finite values appeared in a pump or a capacitance solve."""

    exit_code = 3


class UnphysicalShift(SpinDiffError):
    """Overhauser shift exceeds the fully polarized maximum."""


class MissingGFactor(SpinDiffError):
    """An operation requiring a g-factor was called without one."""


class NotIdentifiable(SpinDiffError):
    """Fit input carries no usable signal (constant data, flat objective,
    a time constant the samples do not resolve)."""

    exit_code = 4


class ConfigError(SpinDiffError):
    """Config file or measured-data file violates the documented schema,
    or a file cannot be read or written."""
