"""Nuclear-spin diffusion out of an optically pumped quantum dot.

Simulation of the axisymmetric diffusion of nuclear polarization from a
disk-shaped dot into the surrounding material, the pump/erase/dark/probe
protocol built on it, Overhauser-shift observables, and fitting of rise
times and the diffusion coefficient to measured decay data.
"""
from .config import RunConfig, load_config
from .dataio import (read_fit_report, read_measured_csv, read_table,
                     write_fit_report, write_measured_csv, write_snapshots,
                     write_table)
from .domain import (DecaySeries, DotGeometry, Helicity, MaterialParams,
                     PulseSegment, PulseSequence, SegmentKind, YKind,
                     paper_decay_sequence, validate_material)
from .errors import (ConfigError, GeometryMismatch, GridTooCoarse,
                     InvariantViolation, MissingGFactor, NotIdentifiable,
                     NumericalBlowup, SpinDiffError, UnphysicalShift)
from .kinetics import (DecayFit, DiffusionFit, RiseFit,
                       fit_diffusion_coefficient, fit_exponential_decay,
                       fit_exponential_rise, pumped_sampler, run_sequence,
                       simulate_decay_curve, time_to_level)
from .observables import (OverhauserState, degree_from_field,
                          electron_zeeman, exciton_zeeman_splitting, ohs_max,
                          overhauser_field, overhauser_state,
                          polarization_degree)
from .solver import (BoundaryMode, DarkSampler, Grid, PolarizationField,
                     SolverConfig, auto_dt, build_grid, dark_sample_times,
                     dot_average, evolve, simulate_dark, simulate_pump, step,
                     total_spin)
from .units import (MU_B_UEV_PER_T, diffusion_cm2s_to_nm2s,
                    diffusion_nm2s_to_cm2s)

__version__ = "0.1.0"

__all__ = [
    "BoundaryMode", "ConfigError", "DarkSampler", "DecayFit", "DecaySeries",
    "DiffusionFit", "DotGeometry", "GeometryMismatch", "Grid",
    "GridTooCoarse",
    "Helicity", "InvariantViolation", "MaterialParams", "MissingGFactor",
    "MU_B_UEV_PER_T", "NotIdentifiable", "NumericalBlowup",
    "OverhauserState", "PolarizationField", "PulseSegment", "PulseSequence",
    "RiseFit", "RunConfig", "SegmentKind", "SolverConfig", "SpinDiffError",
    "UnphysicalShift", "YKind", "auto_dt", "build_grid", "dark_sample_times",
    "degree_from_field", "diffusion_cm2s_to_nm2s", "diffusion_nm2s_to_cm2s",
    "dot_average", "electron_zeeman", "evolve", "exciton_zeeman_splitting",
    "fit_diffusion_coefficient", "fit_exponential_decay",
    "fit_exponential_rise", "load_config", "ohs_max", "overhauser_field",
    "overhauser_state", "paper_decay_sequence", "polarization_degree",
    "pumped_sampler", "read_fit_report", "read_measured_csv", "read_table",
    "run_sequence",
    "simulate_dark", "simulate_decay_curve", "simulate_pump", "step",
    "time_to_level", "total_spin", "validate_material", "write_fit_report",
    "write_measured_csv", "write_snapshots", "write_table",
]
