"""Axisymmetric finite-difference diffusion solver.

Solves dS/dt = D * [ (1/r) d_r(r d_r S) + d2_z S ] - S / T1 on a uniform
cell-centered (r, z) grid, with second-order conservative differences in
space. The spatial operator is separable, D (A_r x I + I x A_z); A_z is
symmetric and A_r is symmetric after weighting with sqrt(r). Both ways
of advancing time work in the eigenbasis of the two 1-D operators, the
fast-diagonalization method of Lynch, Rice & Thomas (Numer. Math. 6,
1964), built on first use (``_eigenbasis``). The axial modes are
closed-form DST-II or DCT-II vectors, cached per parity
(``_axial_modes``); the radial ones come from LAPACK's
divide-and-conquer tridiagonal solver (``stevd``), solved once per
(grid, boundary) (``_radial_modes``). ``stevd`` comes from the OpenBLAS
that numpy vendors, bound without scipy (``_lapack``), or from scipy
where numpy vendors none. Importing ``_lapack`` pins that OpenBLAS to
one thread for the whole process, so every product, solve and
eigensolve here runs on the calling thread, whatever its size:

  * Dot unclamped (dark delays, probes): any interval is propagated
    exactly. There is no time step and no time-discretization error;
    ``DarkSampler`` reads the dot average at any list of times from its
    modal coefficients, all times in one vectorized pass.
  * Dot clamped at S = 1 (the pump): exact in time as well, through
    the Laplace transform (``_exact_pump``). A source on the dot's cells
    holds them at S = 1, so the modal coefficients obey
    dc/dt = (D lam - 1/T1) c + Lift(g). At each node s the modal part is
    the diagonal W(s) = 1 / (s - D lam + 1/T1), and the source is the
    solution of one small system on the dot's cells, the capacitance
    matrix Read o W o Lift (Buzbee, Dorr, George & Golub, SIAM J. Numer.
    Anal. 8, 1971), solved by LU (``np.linalg.solve``). The inverse
    transform is a weighted sum over 10 nodes of the optimized cotangent
    contour of Weideman & Trefethen (Math. Comp. 76, 2007) and their
    conjugates, with least-squares weights (``_POLES``): it matches e^x
    on x <= 0 to 3.8e-14. The pump has no time step; the staircase dot
    boundary makes it first-order in dr.

One routine advances a field with the dot clamped, ``_clamped``: its
start is a ``DarkSampler`` plus the time elapsed since that sampler's
start, and the grid, the cfg and the start time are the sampler's. The
state is the start's modal coefficients at that time (at elapsed 0 the
start's own array, advanced in place: the routine consumes its start),
or its field values when D = 0. A start whose dot is not at S = 1 (a
re-pump after a dark interval) needs no reset: the source sets the dot
at once. It returns the ``DarkSampler`` of the pumped state, which keeps
the pumped coefficients.
``evolve(clamp=)`` hands it a ``DarkSampler`` built from its field and
reads the result's ``field``; ``simulate_pump`` hands it the sampler of
an unpolarized medium's dot indicator (at D > 0 with zero coefficients:
the clamp sets the dot at once, and the pump skips a zero start's
readout and free decay), and ``kinetics.run_sequence`` the last pumped
sampler with the dark time since, to pump again. Each caller drops the
start. Who transforms between the grid and the
modes: a ``DarkSampler`` built from a field (in, ``_to_modes``), and a
sampler's ``field`` and ``field_at`` (out, both through ``_from_modes``,
the one route from modes to a field), so ``evolve`` transforms its field
in and out once, clamped or not. The way in is one product per factor;
the way out runs in blocks of rows of the field, sized for cache and
memory (``_BLOCK_VALUES``). It forms, block by block, the rounding bound
gamma_n |q_r| |c| |q_z|^T of its product (Higham, Accuracy and
Stability of Numerical Algorithms, sec. 3.5) and sets every cell within
that bound of 0 to exactly +0.0:
far from the dot the field is much smaller than the product's rounding
error, so those cells would otherwise hold signed round-off. Every
other cell is the product bit for bit. With D > 0 a pump-then-dark
solve, the fit objective and ``kinetics.run_sequence`` make no
transform, whatever the pump's duration, and the sampler builds the
pumped field only when its ``field`` is read.

Which axial modes a sampler carries. Every ``DarkSampler`` holds its own
basis, which its pump, readouts and transforms read. A sampler
built from a field (``DarkSampler(field)``, behind ``evolve`` and
``simulate_dark``) holds all nz modes. ``simulate_pump`` starts from the
unpolarized medium; when the dot's columns are mirror-symmetric on the
grid (``cols.start + cols.stop == nz``, always so on a ``build_grid``
grid, which centers z on the dot's mid-plane), the start, the clamp and
the operator are all even under the reflection j -> nz - 1 - j, so the
pumped field stays even and its odd axial modes stay exactly zero. That
sampler, and every one ``_clamped`` makes from it, holds only the
ceil(nz / 2) even modes, so each pump, readout and field transform
makes half the passes over the coefficients, and the pump's capacitance
system folds the dot's columns over the mid-plane: 20 x 5 unknowns on
the production grid, not 20 x 10. The even modes are exactly symmetric
(``_axial_modes`` reflects the rows past the mid-plane), so the way out
forms a field only up to the mid-plane and mirrors it. A clamp that is not
mirror-symmetric would feed the odd modes; ``_clamped`` rejects it for
an even start (``AsymmetricClamp``).

The dot is a rectangle of cells in index space: the radial cell
centers inside the disk are a prefix of the rows and the axial ones an
interval of the columns. One cached builder, ``_dot``, returns it as a
record (rows, cols, w, w_sum): the two index slices, the read-only
volume weights r of its cells and their sum, built once per (grid,
geometry), so the readout and the clamp touch only its cells. It
rejects a dot beyond the grid or without a cell center, on every call,
so every use of the dot is checked: ``Grid.dot_mask``, the readouts, the
pump's clamp and ``kinetics.run_sequence``. A second cached builder,
``_dot_modes``, slices the basis on the dot once per (grid, geometry,
boundary, parity) and returns both things that are read from it: the
readout vectors, whose outer product is also the indicator's modal
coefficients, and the pump's tables of the rows and columns of the basis
on the dot. ``dot_averages``, ``simulate_pump`` and ``_clamped`` all read
that one record.

Discretization notes:
  * Cell centers sit at r_i = (i + 1/2) dr, so the axis r = 0 is a cell
    face with zero area: the radial flux vanishes there and the first
    cell's radial term reduces to 2*(S_1 - S_0)/dr^2, the symmetry-limit
    form of the operator with a zero-gradient ghost cell.
  * Fluxes are written in conservation form, so with reflective
    boundaries the discrete integral of S (cell volumes 2*pi*r*dr*dz) is
    conserved to round-off.
  * Outer boundaries are S = 0 on the boundary faces (production mode) or
    zero-flux (reflective test mode).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from ._lapack import stevd
from .domain import DecaySeries, DotGeometry, YKind, reject_non_finite
from .errors import (GeometryMismatch, GridTooCoarse, InvariantViolation,
                     NumericalBlowup)

# Default step of ``step()``: no advance of the solver takes a time step.
DT_CAP = 0.010
# Most cells per axis: one dense eigenvector matrix of 2**14 cells takes
# 2 GiB.
MAX_CELLS = 2 ** 14
# Most sampling instants of one dark interval: the times, the dot
# averages and each column written from them take 128 MiB per 2**24
# float64 values.
MAX_SAMPLES = 2 ** 24
_D_FLOOR = 1e-30
# Multiply-adds per product of the pump's blocks of radial modes, and
# the most values of the resolvents it keeps: a cache budget. On the
# production grid it makes blocks of 83 modes; one pump took 10.4 ms so,
# 11.6 ms in blocks of 166, 14.8 ms in blocks of 332 and 12.6 ms whole.
_PUMP_BLOCK_MADDS = 2 ** 18
# Most float64 values (1 MiB) that the buffers of one block hold: the
# rows of the field that ``_from_modes`` forms at once (109 on the
# production grid), or the times that ``dot_averages`` reads at once. A
# budget for cache and memory.
_BLOCK_VALUES = 2 ** 17
# The pump's inverse Laplace transform: rows (z_k, w_k) with
# f(t) = sum_k Re(w_k F(z_k / t)) / t. The z_k are the 10 nodes with
# Im z > 0 nearest the real axis of the 24-node optimized cotangent
# contour of Weideman & Trefethen (Math. Comp. 76, 2007),
# z(theta) = 24 (sigma + mu theta cot(alpha theta) + i nu theta) with
# (sigma, mu, alpha, nu) = (-0.6122, 0.5017, 0.6407, 0.2645), at
# theta_k = (k + 1/2) pi / 12; its last two nodes, of trapezoidal weight
# 1.5e-9 and 1.4e-12, are left out. The w_k are fitted to e^x by linear
# least squares on {0} and -logspace(-8, 8, 20001); they are within
# 2e-6 of the trapezoidal weights on the first five nodes. Over x in {0}
# and -logspace(-8, 5), the largest |sum_k Re(w_k / (z_k - x)) - e^x| is
# 3.8e-14, and sum_k |w_k / z_k| = 15.7 bounds how much the sum can
# amplify round-off in its terms. ``fitted_table`` in
# tests/test_solver.py derives the table again.
_POLES = np.array([
    (4.056312078191684+0.8309512568745002j, 18.20414035787101+24.75417758039123j),
    (3.7021515030617627+2.492853770623501j, -21.24347540867816+7.472783688512377j),
    (2.985706644555175+4.154756284372501j, -0.7167276552784536-11.897538151799402j),
    (1.8900529388482434+5.816658798121502j, 4.353403119413889+0.858963984278108j),
    (0.3879973995919297+7.478561311870502j, -0.4637429849336088+1.0209000192433808j),
    (-1.5604376258702102+9.140463825619504j, -0.1477029418803608-0.10930595122344029j),
    (-4.012059602761186+10.802366339368504j, 0.013580045543213903-0.012411331113336158j),
    (-7.046939798899983+12.464268853117504j, 0.0005527507921209206+0.0008792823562361955j),
    (-10.77879568377669+14.126171366866503j, -2.719822035865175e-05+1.1319796124220423e-05j),
    (-15.372252770892977+15.788073880615503j, -8.463545601047136e-08-3.6395403884918326e-07j),
])
# Longest pump in lifetimes of the fastest mode (t times the largest
# rate D |lam| + 1/T1). A longer one is cut to this: it keeps the squares
# in the resolvent finite, and only a clamped mode some 1e98 times
# slower than the fastest would not yet be at its steady state.
_MAX_STIFFNESS = 1e100


class BoundaryMode(Enum):
    """Outer-boundary handling at r_max, z_min, z_max."""

    DIRICHLET_ZERO = "dirichlet_zero"
    REFLECTIVE = "reflective"


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered cylindrical grid.

    ``nr`` cells cover r in [0, nr*dr]; ``nz`` cells cover
    z in [z_min, z_min + nz*dz]. Cell centers are offset half a spacing
    from the faces.
    """

    nr: int
    nz: int
    dr: float
    dz: float
    z_min: float

    def __post_init__(self):
        for name in ("nr", "nz"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, numbers.Integral):
                raise InvariantViolation("NonIntegerCellCount",
                                         f"{name} = {n!r}")
        reject_non_finite(self, "dr", "dz", "z_min")
        if not (self.dr > 0 and self.dz > 0):
            raise InvariantViolation("NonPositiveSpacing",
                                     f"dr = {self.dr}, dz = {self.dz}")
        if self.nr < 8 or self.nz < 8:
            raise InvariantViolation("GridTooSmall",
                                     f"need nr, nz >= 8, got {self.nr} x {self.nz}")
        _check_size(self.nr, self.nz)

    @property
    def r_max(self) -> float:
        return self.nr * self.dr

    @property
    def z_max(self) -> float:
        return self.z_min + self.nz * self.dz

    @property
    def r_centers(self) -> np.ndarray:
        return (np.arange(self.nr) + 0.5) * self.dr

    @property
    def z_centers(self) -> np.ndarray:
        return self.z_min + (np.arange(self.nz) + 0.5) * self.dz

    def dot_mask(self, geometry: DotGeometry) -> np.ndarray:
        """Boolean (nr, nz) mask of cells whose centers lie inside the
        disk; raises ``GeometryMismatch`` as ``_dot`` does."""
        rows, cols, _, _ = _dot(self, geometry)
        mask = np.zeros((self.nr, self.nz), dtype=bool)
        mask[rows, cols] = True
        return mask


@dataclass(frozen=True)
class PolarizationField:
    """Dimensionless nuclear polarization on a grid at simulation time ``time``."""

    grid: Grid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.nr, self.grid.nz):
            raise InvariantViolation(
                "FieldShapeMismatch",
                f"values shape {v.shape} != grid ({self.grid.nr}, {self.grid.nz})")


@dataclass(frozen=True)
class SolverConfig:
    """Diffusion coefficient in nm^2/s plus the step of ``step()`` and
    boundary options.

    Every advance is exact in time, clamped (the pump) or not, and is
    first-order in dr only: no advance takes a time step. ``dt`` is only
    the default step of the public ``step()``; ``None`` there picks
    min(dr, dz)^2 / (2 D), capped at 10 ms (``auto_dt``). ``t1_uniform``
    adds a uniform exp(-t/T1) relaxation of all unclamped cells.
    """

    d_qd: float
    t1_uniform: float | None = None
    dt: float | None = None
    boundary: BoundaryMode = BoundaryMode.DIRICHLET_ZERO

    def __post_init__(self):
        reject_non_finite(self, "d_qd", "t1_uniform", "dt")
        if not (self.d_qd >= 0):
            raise InvariantViolation("NegativeDiffusion", f"d_qd = {self.d_qd}")
        if self.t1_uniform is not None and not (self.t1_uniform > 0):
            raise InvariantViolation("NonPositiveRelaxationTime",
                                     f"t1_uniform = {self.t1_uniform}")
        if self.dt is not None and not (self.dt > 0):
            raise InvariantViolation("NonPositiveTimeStep", f"dt = {self.dt}")


def _check_size(nr, nz) -> None:
    """Reject a cell count per axis above ``MAX_CELLS`` (or not a number)."""
    if not (nr <= MAX_CELLS and nz <= MAX_CELLS):
        raise InvariantViolation("GridTooLarge", f"{nr:.6g} x {nz:.6g} cells, "
                                 f"need <= {MAX_CELLS} per axis")


def build_grid(geometry: DotGeometry, dr: float, dz: float,
               extent_factor: float = 20.0) -> Grid:
    """Grid around a dot: r_max >= extent_factor * radius, z extends
    extent_factor * height both ways from the dot mid-plane.

    The z grid is aligned so the dot mid-plane falls on a cell face, which
    makes the default 20 nm x 5 nm disk resolve exactly at dr = dz = 0.5.
    The cell counts are checked against ``MAX_CELLS`` while still floats,
    so a huge dot or a tiny spacing is rejected before anything is built.
    """
    if not (5 <= extent_factor < math.inf):
        raise InvariantViolation("ExtentFactorOutOfRange",
                                 f"extent_factor = {extent_factor}, need "
                                 f"finite >= 5")
    if not (dr > 0 and dz > 0):
        raise InvariantViolation("NonPositiveSpacing", f"dr = {dr}, dz = {dz}")
    nr = np.ceil(extent_factor * geometry.radius / dr)
    nz_half = np.ceil(extent_factor * geometry.height / dz)
    _check_size(nr, 2 * nz_half)
    cells_across_radius = int(np.ceil(geometry.radius / dr - 0.5))
    cells_across_height = 2 * int(np.ceil(geometry.height / (2 * dz) - 0.5))
    if cells_across_radius < 10:
        raise GridTooCoarse(
            f"dr = {dr} gives only {cells_across_radius} cells across the dot "
            f"radius (need >= 10)")
    if cells_across_height < 8:
        raise GridTooCoarse(
            f"dz = {dz} gives only {cells_across_height} cells across the dot "
            f"height (need >= 8)")
    return Grid(nr=int(nr), nz=2 * int(nz_half), dr=dr, dz=dz,
                z_min=geometry.z_center - int(nz_half) * dz)


def auto_dt(grid: Grid, d_qd: float) -> float:
    """Default step of ``step()``: min(dr,dz)^2/(2 D), capped at
    DT_CAP."""
    return min(min(grid.dr, grid.dz) ** 2 / (2.0 * max(d_qd, _D_FLOOR)),
               DT_CAP)


def _radial_coeffs(nr: int, dr: float, boundary: BoundaryMode):
    """Tridiagonal coefficients (lo, di, hi) of the radial operator
    (1/r) d_r(r d_r .), flux form, per unit D."""
    r_face = np.arange(nr + 1) * dr
    r_c = (np.arange(nr) + 0.5) * dr
    lo = r_face[:-1] / (r_c * dr * dr)
    hi = r_face[1:] / (r_c * dr * dr)
    di = -(lo + hi)
    if boundary is BoundaryMode.DIRICHLET_ZERO:
        # S = 0 on the outer face, half-spacing gradient
        di[-1] = -(lo[-1] + 2.0 * r_face[-1] / (r_c[-1] * dr * dr))
    else:
        di[-1] = -lo[-1]
    hi[-1] = 0.0
    lo[0] = 0.0  # axis face has zero area
    return lo, di, hi


def _axial_coeffs(nz: int, dz: float, boundary: BoundaryMode):
    """Tridiagonal coefficients of d2_z per unit D."""
    inv = 1.0 / (dz * dz)
    lo = np.full(nz, inv)
    hi = np.full(nz, inv)
    di = np.full(nz, -2.0 * inv)
    if boundary is BoundaryMode.DIRICHLET_ZERO:
        di[0] = -3.0 * inv
        di[-1] = -3.0 * inv
    else:
        di[0] = -inv
        di[-1] = -inv
    lo[0] = 0.0
    hi[-1] = 0.0
    return lo, di, hi


@lru_cache(maxsize=8)
def _axial_modes(nz: int, dz: float, boundary: BoundaryMode,
                 even: bool = False):
    """Eigenpairs (lam, q) of the axial operator (``_axial_coeffs``) in
    closed form, q orthogonal and C-ordered; with ``even``, only the
    modes symmetric about the grid's mid-plane, cached apart.

    With S = 0 on the boundary faces the modes are the DST-II vectors
    sqrt(2/n) sin(k pi (j + 1/2) / n), k = 1..n; with zero flux they are
    the DCT-II vectors sqrt(2/n) cos(k pi (j + 1/2) / n), k = 0..n-1.
    The k = n sine and the k = 0 cosine have norm sqrt(n) before scaling,
    so those vectors are (-1)^j / sqrt(n) and 1 / sqrt(n). Both bases have
    lam_k = -(4 / dz^2) sin^2(k pi / 2n). The integer (2j + 1) k is
    reduced mod 4n before it is scaled by pi / 2n: an unreduced angle
    loses digits to its size (largest entry of q^T q - I at n = 400:
    2.0e-14 to 2.8e-14 unreduced, 2.7e-15 to 2.9e-15 reduced). So an
    entry is one of the 4n values sqrt(2/n) sin(m pi / 2n), m = 0..4n-1
    (or cos), each evaluated once, as a table.

    Reflecting j to n - 1 - j multiplies mode k by (-1)^(k+1) for the
    sines and (-1)^k for the cosines. The table gives the rows up to the
    mid-plane, j < ceil(n / 2), and the rows past it are those rows
    reflected with that sign, so each mode is exactly symmetric or
    antisymmetric (but the middle row of an odd n, which is its own
    mirror: there an antisymmetric mode holds the round-off of
    sin(k pi / 2) or cos(k pi / 2), not 0). The symmetric modes are every
    other one from the first, k = 1, 3, ... and k = 0, 2, ...: the even
    modes are columns ``0::2`` of the full q and lam, entry for entry.
    """
    dirichlet = boundary is BoundaryMode.DIRICHLET_ZERO
    k = np.arange(1, nz + 1) if dirichlet else np.arange(nz)
    if even:
        k = k[::2]
    angle = np.arange(4 * nz) * (np.pi / (2 * nz))
    table = math.sqrt(2.0 / nz) * (np.sin(angle) if dirichlet
                                   else np.cos(angle))
    half = (nz + 1) // 2
    q = np.empty((nz, k.size))
    q[:half] = table[np.outer(2 * np.arange(half) + 1, k) % (4 * nz)]
    if not dirichlet:
        q[:half, 0] = 1.0 / math.sqrt(nz)
    elif k[-1] == nz:
        q[:half, -1] = (-1.0) ** np.arange(half) / math.sqrt(nz)
    # row n - 1 - j of mode k is sign_k times row j
    sign = (-1.0) ** (k + 1) if dirichlet else (-1.0) ** k
    q[half:] = q[nz - half - 1::-1] * sign
    lam = -4.0 / (dz * dz) * np.sin(k * (np.pi / (2 * nz))) ** 2
    return lam, q


@lru_cache(maxsize=8)
def _radial_modes(grid: Grid, boundary: BoundaryMode):
    """(lam_r, q_r, sqrt_r): the eigenpairs of the radial operator per
    unit D, and the weights sqrt(r).

    A_r = diag(1/sqrt_r) q_r diag(lam_r) q_r^T diag(sqrt_r), q_r
    orthogonal. Weighting the radial operator with sqrt(r) makes it
    symmetric, with off-diagonal sqrt(hi[i] * lo[i+1]); its eigenpairs
    come from LAPACK's divide-and-conquer driver ``stevd`` (Gu &
    Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995; ``_lapack.stevd``).
    At nr = 400 it takes 7.1-7.6 ms against the MRRR driver's 9.3 ms,
    and its q_r is orthogonal to 2.4e-15, not 5.4e-13. q_r comes back
    Fortran-ordered.
    """
    lo, di, hi = _radial_coeffs(grid.nr, grid.dr, boundary)
    lam_r, q_r = stevd(di, np.sqrt(hi[:-1] * lo[1:]))
    return lam_r, q_r, np.sqrt(grid.r_centers)


def _eigenbasis(grid: Grid, boundary: BoundaryMode, even: bool = False):
    """Eigenpairs of the unclamped operator per unit D:
    (lam_r, q_r, lam_z, q_z, sqrt_r) with
    A_r = diag(1/sqrt_r) q_r diag(lam_r) q_r^T diag(sqrt_r) and
    A_z = q_z diag(lam_z) q_z^T. The radial modes (``_radial_modes``) are
    solved once per grid and boundary; the axial ones (``_axial_modes``)
    are all ``nz`` modes, or with ``even`` the ceil(nz / 2) symmetric
    ones, which span every field that is even about the mid-plane.
    """
    lam_r, q_r, sqrt_r = _radial_modes(grid, boundary)
    return (lam_r, q_r, *_axial_modes(grid.nz, grid.dz, boundary, even),
            sqrt_r)


@lru_cache(maxsize=64)
def _dot(grid: Grid, geometry: DotGeometry):
    """The dot's cells, checked and read-only: (rows, cols, w, w_sum).

    The radial cell centers inside the disk (r < radius) are a prefix of
    the rows and the axial ones (|z - z_c| < h/2) an interval of the
    columns, so the dot is the rectangle ``[rows, cols]`` of two index
    slices. w holds the volume weight r of each dot cell and w_sum their
    sum. Raises ``GeometryMismatch`` for a dot beyond the grid or one
    that holds no cell center; the cache keeps no exception, so a bad dot
    raises on every call.
    """
    half = geometry.height / 2
    if (geometry.radius > grid.r_max or geometry.z_center - half < grid.z_min
            or geometry.z_center + half > grid.z_max):
        raise GeometryMismatch(f"{geometry} extends beyond the grid")
    n_r = int(np.count_nonzero(grid.r_centers < geometry.radius))
    z_in = np.flatnonzero(np.abs(grid.z_centers - geometry.z_center) < half)
    if not (n_r and z_in.size):
        raise GeometryMismatch("no cell centers fall inside the dot")
    rows, cols = slice(0, n_r), slice(int(z_in[0]), int(z_in[-1]) + 1)
    w = np.repeat(grid.r_centers[rows, None], z_in.size, 1)
    w.setflags(write=False)
    return rows, cols, w, float(w.sum())


def _check_time(name: str, t) -> None:
    """Reject a time, or an array of times, that is negative or not
    finite, naming the first bad entry."""
    t = np.asarray(t, dtype=float)
    bad = t[~((t >= 0) & (t < math.inf))]
    if bad.size:
        raise InvariantViolation("NegativeDuration",
                                 f"{name} = {float(bad[0])}")


def _to_modes(values: np.ndarray, basis) -> np.ndarray:
    """Modal coefficients q_r^T (sqrt(r) S) q_z of a field."""
    _, q_r, _, q_z, sqrt_r = basis
    return np.matmul(np.matmul(q_r.T, sqrt_r[:, None] * values), q_z)


def _from_modes(coef: np.ndarray, basis) -> np.ndarray:
    """The field q_r c q_z^T / sqrt(r) of modal coefficients c, with its
    certified zeros: the one route from modes to a field.

    The computed S = q_r c q_z^T is within gamma_n B of the exact product
    of the stored factors, cell by cell, where B = |q_r| |c| |q_z|^T,
    gamma_n = n u / (1 - n u) and u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., SIAM 2002, sec. 3.5). n
    is the sum of the two inner dimensions, the radial and the axial
    modes, plus one, which covers the rounding of gamma_n B itself. A
    cell with |S| <= gamma_n B is no farther from 0 than its own rounding
    error, so it carries no digit of the field: it is set to +0.0 before
    the division by sqrt(r). Every other cell is the product bit for
    bit.

    The field is formed in blocks of rows, as many as ``_BLOCK_VALUES``
    allows: each block forms its rows of q_r c, of S and of the bound,
    all inner terms at once, so no full q_r c or B is held. On the
    production grid one field took 4.2 ms in blocks of 100 rows, 5.0 ms
    in whole products and 9.2 ms in the 25 x 25 tiles that kept every
    product under OpenBLAS's threading threshold before the pin
    (``_lapack``).

    In the even axial modes (fewer modes than rows of q_z) the field is
    mirror-symmetric: q_z's rows j and nz - 1 - j are equal
    (``_axial_modes``), and so are the columns j and nz - 1 - j of the
    exact S and B. So only the first ceil(nz / 2) columns are formed and
    bounded, and those columns, divided by sqrt(r), are copied into
    their mirrors, block by block: the field is exactly symmetric."""
    _, q_r, _, q_z, sqrt_r = basis
    n_r, n_e = coef.shape
    nz = len(q_z)
    width = (nz + 1) // 2 if n_e < nz else nz
    n = n_r + n_e + 1
    gamma = n * 2.0 ** -53 / (1 - n * 2.0 ** -53)
    z_t = q_z[:width].T
    abs_c, abs_zt = np.abs(coef), np.abs(z_t)
    out = np.empty((n_r, nz))
    # values per row: |q_r|, q_r c, gamma_n |q_r| |c|, the bound and |S|
    step = max(1, _BLOCK_VALUES // (n_r + 2 * (n_e + width)))
    for i in range(0, n_r, step):
        rows = slice(i, i + step)
        s = out[rows, :width]
        np.matmul(np.matmul(q_r[rows], coef), z_t, out=s)
        bound = np.matmul(np.abs(q_r[rows]), abs_c)
        bound *= gamma
        s[np.abs(s) <= np.matmul(bound, abs_zt)] = 0.0
        s /= sqrt_r[rows, None]
        if width < nz:
            out[rows, width:] = s[:, nz - width - 1::-1]
    return out


@lru_cache(maxsize=64)
def _dot_modes(grid: Grid, geometry: DotGeometry, boundary: BoundaryMode,
               even: bool = False):
    """The basis on the dot's cells, read-only, for the axial modes of
    ``_eigenbasis(grid, boundary, even)``: ((ra, rb), rect), the dot's
    readout vectors and the pump's tables, sliced from the basis once.

    The readout vectors are ra = sqrt(r)^T q_r over the dot's rows and
    rb = 1^T q_z over all its columns. The sum of r * S over the dot is
    ra^T c rb for modal coefficients c, and the dot indicator's
    coefficients are the outer product of ra and rb: the dot is a
    rectangle of rows and columns. The rows of q_r are taken as a
    C-ordered copy: ``stevd`` returns q_r Fortran-ordered, and a strided
    slice rounds differently. q_z is C-ordered already.

    rect = (a, s, b, b2t, i, k, pair_r, pair_z) holds the pump's tables.
    a is that copy of the dot's rows of q_r and s their weights sqrt(r);
    b holds the rows of q_z of the dot's columns, in the even axial modes
    only those up to the mid-plane: an even state's source is even, so
    the dot's columns fold over it. The capacitance matrix of a contour
    node, K[(i, j), (k, l)] = sum_pq a_ip a_kp V_pq b_jq b_lq, is
    symmetric in i <-> k and in j <-> l apart, so it is read from a table
    of its distinct pairs: b2t holds the products b_jq b_lq of the pairs
    j <= l as columns, (i, k) are the index arrays of the pairs i <= k,
    and entry K[(i, j), (k, l)] is at row pair_r[i, k] and column
    pair_z[j, l] of the table. The pump spreads the table into K itself,
    so nothing here grows with the square of the dot's cell count, and a
    readout of a region much larger than the dot stays cheap.
    """
    rows, cols, _, _ = _dot(grid, geometry)
    _, q_r, _, q_z, sqrt_r = _eigenbasis(grid, boundary, even)
    a, s = q_r[rows].copy(), sqrt_r[rows]
    readout = (np.matmul(s, a), q_z[cols].sum(axis=0))
    if even:
        cols = slice(cols.start, (cols.start + cols.stop + 1) // 2)
    b = q_z[cols]
    i, k = np.triu_indices(len(a))
    j, l = np.triu_indices(len(b))
    pair_r = np.empty((len(a), len(a)), dtype=np.intp)
    pair_r[i, k] = pair_r[k, i] = np.arange(i.size)
    pair_z = np.empty((len(b), len(b)), dtype=np.intp)
    pair_z[j, l] = pair_z[l, j] = np.arange(j.size)
    rect = (a, s, b, np.ascontiguousarray((b[j] * b[l]).T), i, k, pair_r,
            pair_z)
    for x in (*readout, *rect):
        x.setflags(write=False)
    return readout, rect


def _exact_pump(coef: np.ndarray, basis, cfg: SolverConfig, duration: float,
                rect) -> np.ndarray:
    """Hold the dot at S = 1 for ``duration`` >= 0, exactly in time, on
    the modal coefficients ``coef`` (updated in place and returned) in
    the modes of ``basis`` (an ``_eigenbasis``); ``rect`` is the pump's
    tables of the clamp's ``_dot_modes`` in that basis. Needs D > 0.

    The duration t enters only through M = t (D lam - 1/T1), so at the
    contour node z (s = z / t) the modal part is V = 1 / (z - M) =
    W(s) / t, and a pump of any length has finite nodes; one longer than
    ``_MAX_STIFFNESS`` lifetimes of the fastest mode is cut to that. With
    Read(c) = a c b^T (the dot's values times s) and Lift(u) = a^T u b
    (a source u on the dot's cells), the source of the node solves
    K u = s / z - Read(V c), K = Read o V o Lift (``np.linalg.solve``,
    LAPACK's ``zgesv``), so that the dot reads 1 at every t > 0, whatever
    it read at the start. A zero pivot raises ``NumericalBlowup``. The
    pumped coefficients are the exact free part exp(M) c plus
    sum_k Re(w_k V_k Lift(u_k)) over the 10 nodes z_k of ``_POLES`` and
    their weights w_k: the inverse Laplace transform
    f(t) = sum_k Re(w_k F(z_k / t)) / t, one LU solve per node.

    Every product runs over blocks of radial modes and stays under
    ``_PUMP_BLOCK_MADDS``; V is split into its real and imaginary parts,
    so each is a real product. A first pass sums the pair table of each
    node's K and Read(V c) over the blocks; a second pass adds the
    source's part, computing V again. The buffers are a few blocks in
    size, and no larger than the modes. When the modes are one block and
    V of every node takes no more values than ``_PUMP_BLOCK_MADDS`` (a
    50x80 grid, not a 400x400 one), V is kept per node instead, and the
    second pass reads it. Non-finite values are checked once, at the end.
    A start of zero coefficients (``simulate_pump``'s) reads 0 and stays
    0 while free, so for it the first pass forms no Read(V c) and the
    free part exp(M) c is not taken: the result is the same, bit for bit.
    """
    lam_r, _, lam_z, _, _ = basis
    a, s, b, b2t, i, k, pair_r, pair_z = rect
    z, w = _POLES.T
    relax = 1.0 / cfg.t1_uniform if cfg.t1_uniform else 0.0
    fastest = -cfg.d_qd * (lam_r.min() + lam_z.min()) + relax
    t = min(duration, _MAX_STIFFNESS / fastest)
    m_r, m_z = t * (cfg.d_qd * lam_r - relax), t * cfg.d_qd * lam_z
    nr, ne = coef.shape
    n = min(nr, max(1, _PUMP_BLOCK_MADDS // b2t.shape[1] // max(ne, i.size)))
    blocks = [slice(r, min(r + n, nr)) for r in range(0, nr, n)]
    keep = len(blocks) == 1 and z.size * nr * ne <= _PUMP_BLOCK_MADDS
    inv, prod = np.empty((n, ne)), np.empty((2, n, ne))
    v = np.empty((z.size if keep else 1, 2, n, ne))

    def resolvents(blk):
        """(node, V) for each node, V = 1 / (z - M) on the rows ``blk``
        as (Re V, Im V), in one buffer, or in one per node if ``keep``."""
        rows = blk.stop - blk.start
        base, den = -m_r[blk, None] - m_z, inv[:rows]
        for node, zk in enumerate(z):
            vk = v[node if keep else 0, :, :rows]
            np.add(base, zk.real, out=vk[0])
            np.multiply(vk[0], vk[0], out=den)
            den += zk.imag ** 2
            np.divide(1.0, den, out=den)
            vk[0] *= den
            np.multiply(den, -zk.imag, out=vk[1])
            yield node, vk

    # a zero start (``simulate_pump``'s) reads 0 and stays 0 when free
    moving = coef.any()
    pairs = np.zeros((z.size, 2, i.size, b2t.shape[1]))
    read = np.zeros((z.size, 2, len(a), len(b)))
    for blk in blocks:
        a_b, c_b, p = a[:, blk], coef[blk], prod[:, :blk.stop - blk.start]
        a2_b = a[i, blk]
        a2_b *= a[k, blk]
        for node, vk in resolvents(blk):
            pairs[node] += np.matmul(a2_b, np.matmul(vk, b2t))
            if moving:
                np.multiply(vk, c_b, out=p)
                read[node] += np.matmul(a_b, np.matmul(p, b.T))
    rhs = s[:, None] / z[:, None, None] - (read[:, 0] + 1j * read[:, 1])
    # the position of each entry of K in the flattened pair table
    flat = (pair_r[:, None, :, None] * b2t.shape[1]
            + pair_z[None, :, None, :]).reshape(a.shape[0] * len(b), -1)
    for node in range(z.size):
        cap = (pairs[node, 0] + 1j * pairs[node, 1]).ravel()[flat]
        try:
            u = np.linalg.solve(cap, rhs[node].ravel())
        except np.linalg.LinAlgError as exc:
            raise NumericalBlowup(
                f"singular capacitance system at node {z[node]} of a pump "
                f"of {duration} s") from exc
        rhs[node] = u.reshape(rhs.shape[1:])
    rhs *= w[:, None, None]
    src = np.stack([rhs.real, rhs.imag], axis=1)
    if moving:
        coef *= np.exp(m_r)[:, None]
        coef *= np.exp(m_z)
    for blk in blocks:
        a_t, c_b, p = a[:, blk].T, coef[blk], prod[:, :blk.stop - blk.start]
        for node, vk in enumerate(v) if keep else resolvents(blk):
            np.matmul(np.matmul(a_t, src[node]), b, out=p)
            p *= vk
            c_b += p[0]
            c_b -= p[1]
    _require_finite(coef, duration)
    return coef


def _require_finite(x: np.ndarray, duration: float) -> None:
    if not np.isfinite(x).all():
        raise NumericalBlowup(
            f"non-finite polarization after a pump of {duration} s")


class DarkSampler:
    """Exact free evolution of one field with the dot unclamped.

    Construction transforms the field, taken as dark time t = 0, into
    modal coefficients once. The clamped routine (``_clamped``, behind
    ``simulate_pump``, ``evolve(clamp=)`` and the re-pumps of
    ``kinetics.run_sequence``) takes a sampler as its start and consumes
    it: it hands the start's coefficients, advanced, to a new sampler,
    whose ``field`` is then built on first read. An instant pump of an
    unpolarized medium is the sampler of the exact dot indicator, with
    the indicator's coefficients. ``dot_averages`` reads the dot average
    at any times as e_r(t)^T G e_z(t), where G holds the coefficients
    weighted by the separable dot functional and e_r, e_z are the modal
    decay factors, without rebuilding the field. It stacks the factors of
    a block of times as rows, E_r and E_z, and reads the whole block as
    the row sums of (E_r G) * E_z. ``field_at`` rebuilds the field at one
    time. The uniform T1 factor exp(-t/T1) is applied exactly. At t = 0
    the dot average is the start field's (exactly 1 for the pumped dot),
    and for every t when D = 0 it is read from the field directly,
    without transforms. The sampler holds its own basis: all nz axial
    modes when built from a field, only the even ones for the pump of a
    mirror-symmetric dot (see the module docstring).
    """

    def __init__(self, field: PolarizationField, cfg: SolverConfig):
        self._field, self.cfg = field, cfg
        self._grid, self._t0, self._clamp = field.grid, field.time, None
        self._basis = self._coef = None
        self._even = False
        if cfg.d_qd > 0:
            self._basis = _eigenbasis(field.grid, cfg.boundary)
            self._coef = _to_modes(field.values, self._basis)

    @classmethod
    def _pumped(cls, coef: np.ndarray | None, grid: Grid, cfg: SolverConfig,
                t0: float, clamp: DotGeometry, even: bool,
                field: PolarizationField | None = None) -> DarkSampler:
        """The sampler of the field at time ``t0`` whose modal
        coefficients are ``coef`` (None at D = 0), in the even axial
        modes when ``even``, with the cells of ``clamp`` at exactly
        S = 1. ``field``, when given, is that field (at D = 0 it is the
        only state)."""
        self = cls.__new__(cls)
        self._field, self.cfg, self._coef = field, cfg, coef
        self._grid, self._t0, self._clamp = grid, t0, clamp
        self._even = even
        self._basis = (_eigenbasis(grid, cfg.boundary, even)
                       if cfg.d_qd > 0 else None)
        return self

    @property
    def field(self) -> PolarizationField:
        """The field at the sampler's start."""
        if self._field is None:
            values = _from_modes(self._coef, self._basis)
            rows, cols, _, _ = _dot(self._grid, self._clamp)
            values[rows, cols] = 1.0
            self._field = PolarizationField(self._grid, values, self._t0)
        return self._field

    def _factors(self, t: np.ndarray):
        """(relax, E_r, E_z) at the array of times ``t``: the T1 factors
        exp(-t/T1) and, when D > 0, the rows of modal decay factors
        exp(D t lam), with the T1 factor folded into E_r."""
        _check_time("t", t)
        t1 = self.cfg.t1_uniform
        relax = np.exp(-t / t1) if t1 else np.ones(t.size)
        if self._basis is None:
            return relax, None, None
        lam_r, _, lam_z, _, _ = self._basis
        tau = self.cfg.d_qd * t[:, None]
        return relax, relax[:, None] * np.exp(tau * lam_r), np.exp(tau * lam_z)

    def _coef_at(self, t: float) -> np.ndarray:
        """The modal coefficients ``t`` after the sampler's start (D > 0);
        at t = 0 the sampler's own array, not a copy."""
        if t == 0:
            return self._coef
        _, e_r, e_z = self._factors(np.array([t], dtype=float))
        # in place: one temporary of the coefficients' size, not two
        coef = e_r.T * self._coef
        coef *= e_z
        return coef

    def field_at(self, t: float) -> PolarizationField:
        """The field ``t`` after the sampler's start."""
        if t == 0:
            return self.field
        if self._basis is None:
            relax = self._factors(np.array([t], dtype=float))[0]
            values = self.field.values * relax[0]
        else:
            values = _from_modes(self._coef_at(t), self._basis)
        return PolarizationField(self._grid, values, self._t0 + t)

    def dot_averages(self, times, geometry: DotGeometry) -> np.ndarray:
        """Dot average (as ``dot_average``) at each of ``times`` after the
        sampler's start. Each value depends only on its own time."""
        t = np.asarray(times, dtype=float).reshape(-1)
        if self._basis is None:
            return dot_average(self.field, geometry) * self._factors(t)[0]
        # sum of r * S over the dot, mode by mode, over the sum of r
        (a, b), _ = _dot_modes(self._grid, geometry, self.cfg.boundary,
                               self._even)
        _, _, _, w_sum = _dot(self._grid, geometry)
        g = a[:, None] * self._coef
        g *= b
        g /= w_sum
        out = np.empty(t.size)
        # blocks of times bound the memory of E_r, E_z and E_r @ g
        rows = max(1, _BLOCK_VALUES // (g.shape[0] + 2 * g.shape[1]))
        for k in range(0, t.size, rows):
            _, e_r, e_z = self._factors(t[k:k + rows])
            out[k:k + rows] = (np.matmul(e_r, g) * e_z).sum(axis=1)
        zero = t == 0
        if zero.any():
            out[zero] = (1.0 if geometry == self._clamp
                         else dot_average(self.field, geometry))
        return out


def dark_sample_times(t_dark: float, sample_every: float) -> np.ndarray:
    """Sampling instants of a dark interval: 0, sample_every,
    2*sample_every, ... up to ``t_dark``, plus ``t_dark`` itself when it
    falls off the cadence. The last instant is always exactly
    ``t_dark``. More than ``MAX_SAMPLES`` intervals are
    ``TooManySamples``, rejected before anything is allocated."""
    _check_time("t_dark", t_dark)
    if not (sample_every > 0):
        raise InvariantViolation("NonPositiveSampleInterval",
                                 f"sample_every = {sample_every}")
    if not (t_dark / sample_every <= MAX_SAMPLES):
        raise InvariantViolation("TooManySamples", f"t_dark = {t_dark} at "
                                 f"sample_every = {sample_every} is "
                                 f"{t_dark / sample_every:.6g} intervals, "
                                 f"need <= {MAX_SAMPLES}")
    n_samples = int(np.floor(t_dark / sample_every + 1e-9))
    t = np.arange(n_samples + 1) * sample_every
    if t_dark - n_samples * sample_every > 1e-9 * max(t_dark, 1.0):
        t = np.append(t, t_dark)
    else:
        t[-1] = t_dark  # on the cadence: no round-off past the end
    return t


def _clamped(start: DarkSampler, elapsed: float, clamp: DotGeometry,
             duration: float) -> DarkSampler:
    """The ``DarkSampler`` of the free evolution of ``start`` to
    ``elapsed`` after its start, then held at S = 1 on the cells of
    ``clamp`` for ``duration`` >= 0: the one clamped advance, behind
    ``evolve(clamp=)``, ``simulate_pump`` and the re-pumps of
    ``kinetics.run_sequence``. The grid, the cfg and the start time are
    ``start``'s. The dot is at S = 1 from the start of the clamp on,
    whatever ``start`` holds there.

    The routine consumes ``start``. At D > 0 the state is
    ``start._coef_at(elapsed)``: at ``elapsed`` = 0 the start's own
    coefficients, which ``_exact_pump`` updates in place and hands to the
    returned sampler, so the caller drops ``start``. At D = 0 no two
    cells couple: the state is the values of ``start.field_at(elapsed)``
    times the T1 factor exp(-duration / T1), a new array, with the dot's
    cells set to 1.
    """
    grid, cfg, even = start._grid, start.cfg, start._even
    rows, cols, _, _ = _dot(grid, clamp)
    if even and cols.start + cols.stop != grid.nz:
        raise InvariantViolation(
            "AsymmetricClamp", f"{clamp} is not mirror-symmetric on the "
            f"grid, but the start carries only the even axial modes")
    t = start._t0 + elapsed + duration
    if cfg.d_qd > 0:
        _, rect = _dot_modes(grid, clamp, cfg.boundary, even)
        coef = _exact_pump(start._coef_at(elapsed), start._basis, cfg,
                           duration, rect)
        return DarkSampler._pumped(coef, grid, cfg, t, clamp, even)
    relax = math.exp(-duration / cfg.t1_uniform) if cfg.t1_uniform else 1.0
    values = start.field_at(elapsed).values * relax
    _require_finite(values, duration)
    values[rows, cols] = 1.0
    return DarkSampler._pumped(None, grid, cfg, t, clamp, even,
                               PolarizationField(grid, values, t))


def step(field: PolarizationField, cfg: SolverConfig,
         clamp: DotGeometry | None = None) -> PolarizationField:
    """Advance by one time step (cfg.dt, or the automatic default
    ``auto_dt``), as ``evolve`` does: the only use of a time step."""
    dt = cfg.dt if cfg.dt is not None else auto_dt(field.grid, cfg.d_qd)
    return evolve(field, cfg, dt, clamp)


def evolve(field: PolarizationField, cfg: SolverConfig, duration: float,
           clamp: DotGeometry | None = None) -> PolarizationField:
    """Advance by ``duration``.

    Unclamped, the propagation is exact (``DarkSampler``). With
    ``clamp``, the cells inside the disk are held at S = 1 for
    ``duration``, exactly in time, and the uniform T1 factor, when
    configured, multiplies everything else. That is the pump
    (``_clamped``): with D > 0 the field goes into the modes once, as a
    ``DarkSampler``, and comes out once, as the pumped sampler's
    ``field``. ``cfg.dt`` plays no part.
    """
    _check_time("duration", duration)
    if clamp is not None:
        _dot(field.grid, clamp)
    if duration == 0:
        return field
    if clamp is None:
        return DarkSampler(field, cfg).field_at(duration)
    return _clamped(DarkSampler(field, cfg), 0.0, clamp, duration).field


def simulate_pump(geometry: DotGeometry, cfg: SolverConfig, t_pump: float,
                  grid: Grid) -> DarkSampler:
    """Pump phase: saturate the dot of an unpolarized medium instantly and
    hold it at S = 1 for ``t_pump`` while diffusion feeds the halo.
    Returns the ``DarkSampler`` of the pumped field.

    The start is the sampler of the dot indicator, built once, in the
    even axial modes alone when the dot's columns are mirror-symmetric on
    the grid; the exact 0/1 field is built only where it is the state
    (D = 0) or is read as is (``t_pump`` = 0). An instant pump returns
    that sampler, whose coefficients at D > 0 are the indicator's, the
    outer product of the readout vectors (``_dot_modes``), and runs no
    pump. A longer one hands it to the clamped routine of ``evolve``
    (``_clamped``), which consumes it. The clamp sets the dot to S = 1
    at once, so the pump only needs the unpolarized halo: at D > 0 that
    start holds zero coefficients, for which ``_exact_pump`` skips the
    start's readout and free decay (its ``field`` still reads the
    indicator, as the dot is set on read). No grid <-> mode transform is
    made, and the field is built only when the returned sampler's
    ``field`` is read. A pump from a polarized state
    (``kinetics.run_sequence``) hands its sampler to ``_clamped``
    directly."""
    _check_time("t_pump", t_pump)
    _, cols, _, _ = _dot(grid, geometry)
    even = cols.start + cols.stop == grid.nz
    coef = None
    if cfg.d_qd > 0:
        ra, rb = _dot_modes(grid, geometry, cfg.boundary, even)[0]
        # a pump sets the dot to S = 1 at once: its start is the
        # unpolarized medium, whose coefficients are zero
        coef = (np.outer(ra, rb) if t_pump == 0
                else np.zeros((ra.size, rb.size)))
    # the field coerces the boolean mask to exact 0.0 and 1.0
    indicator = (PolarizationField(grid, grid.dot_mask(geometry))
                 if coef is None or t_pump == 0 else None)
    start = DarkSampler._pumped(coef, grid, cfg, 0.0, geometry, even,
                                indicator)
    return _clamped(start, 0.0, geometry, t_pump) if t_pump > 0 else start


def simulate_dark(field: PolarizationField, cfg: SolverConfig, t_dark: float,
                  sample_every: float, geometry: DotGeometry) -> DecaySeries:
    """Free decay: the dot average at ``dark_sample_times(t_dark,
    sample_every)``. The first sample, at t = 0, is the input field's."""
    t = dark_sample_times(t_dark, sample_every)
    y = DarkSampler(field, cfg).dot_averages(t, geometry)
    return DecaySeries(t=t, y=y, y_kind=YKind.DOT_AVERAGE)


def dot_average(field: PolarizationField, geometry: DotGeometry) -> float:
    """Volume-weighted mean polarization over the dot disk
    (cell volumes proportional to r * dr * dz)."""
    rows, cols, w, w_sum = _dot(field.grid, geometry)
    return float(np.sum(field.values[rows, cols] * w) / w_sum)


def total_spin(field: PolarizationField) -> float:
    """Polarization-weighted volume integral over the whole grid, nm^3."""
    grid = field.grid
    per_r = field.values.sum(axis=1) * grid.r_centers
    return float(2.0 * np.pi * grid.dr * grid.dz * per_r.sum())
