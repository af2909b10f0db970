"""Diffusion-solver verification against analytic oracles.

Oracles used here, all closed-form:
  * free-space Gaussian: an isotropic Gaussian stays Gaussian with
    sigma^2(t) = sigma^2(0) + 2 D t per axis;
  * 1D slab in a reflective box: Neumann cosine series for a step initial
    profile, averaged over the slab;
  * exact conservation of the discrete volume integral under reflective
    boundaries, and the discrete maximum principle at the automatic step;
  * the matrix exponential of the assembled 2-D operator, which the
    modal propagation of unclamped intervals must reproduce;
  * the matrix exponential of the clamped system, the halo block of that
    operator augmented by its coupling to the dot at S = 1
    (``expm_clamped`` in conftest.py), which the exact pump must
    reproduce, and its steady state, which a long pump must reach;
  * the pump's pole table against e^x on x <= 0, against its own
    derivation from the optimized cotangent contour and a least-squares
    fit (``fitted_table``), and against the 32-node contour (``talbot``).
"""
import re
from functools import lru_cache

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, expm
from scipy.linalg.lapack import zgesv

from spindiff import _lapack, solver
from spindiff import (BoundaryMode, DarkSampler, DotGeometry,
                      GeometryMismatch, GridTooCoarse, Grid,
                      InvariantViolation, NumericalBlowup,
                      PolarizationField, SolverConfig,
                      auto_dt, build_grid, dark_sample_times, dot_average,
                      evolve, pumped_sampler, simulate_dark, simulate_pump,
                      step, total_spin, write_snapshots)
from spindiff.solver import (MAX_CELLS, MAX_SAMPLES, _axial_coeffs,
                             _axial_modes,
                             _clamped, _dot, _dot_modes, _eigenbasis,
                             _from_modes, _product, _radial_coeffs,
                             _radial_modes, _to_modes)

GEO = DotGeometry()


def gaussian_field(grid, sigma):
    r = grid.r_centers[:, None]
    z = grid.z_centers[None, :]
    return np.exp(-(r ** 2 + z ** 2) / (2.0 * sigma ** 2))


def slab_average_series(t, height, box, d, n_terms=2000):
    """Slab mean of 1D Neumann diffusion from a centered step profile.

    Box [0, L] with the step spanning (a, b) = ((L-h)/2, (L+h)/2):
    mean(t) = h/L + sum_n 2L/(n pi)^2/h * (sin(n pi b/L) - sin(n pi a/L))^2
              * exp(-D (n pi / L)^2 t).
    """
    a = (box - height) / 2.0
    b = (box + height) / 2.0
    n = np.arange(1, n_terms + 1)
    k = n * np.pi / box
    coef = 2.0 * box / (n * np.pi) ** 2 / height \
        * (np.sin(k * b) - np.sin(k * a)) ** 2
    return height / box + np.sum(coef * np.exp(-d * k ** 2 * t))


def talbot(n):
    """The table (rows (z_k, w_k), as ``solver._POLES``) of the
    n-node optimized cotangent contour of Weideman & Trefethen (Math.
    Comp. 76, 2007), z(theta) = n (sigma + mu theta cot(alpha theta)
    + i nu theta): its n // 2 nodes with Im z > 0, at the midpoints
    theta_k = (k + 1/2) 2 pi / n, with the trapezoidal weights
    w_k = -2i exp(z_k) z'(theta_k) / n."""
    sigma, mu, alpha, nu = -0.6122, 0.5017, 0.6407, 0.2645
    theta = (np.arange(n // 2) + 0.5) * (2.0 * np.pi / n)
    cot = 1.0 / np.tan(alpha * theta)
    z = n * (sigma + mu * theta * cot + 1j * nu * theta)
    dz = n * (mu * cot - mu * alpha * theta / np.sin(alpha * theta) ** 2
              + 1j * nu)
    return np.column_stack([z, -2j * np.exp(z) * dz / n])


def fitted_table(n=24, nodes=10):
    """``talbot(n)``'s first ``nodes`` nodes, nearest the real axis, with
    weights fitted to e^x by linear least squares on {0} and
    -logspace(-8, 8, 20001), as ``solver._POLES`` is built."""
    z = talbot(n)[:nodes, 0]
    x = np.concatenate(([0.0], -np.logspace(-8, 8, 20001)))
    r = 1.0 / (z - x[:, None])
    fit = np.linalg.lstsq(np.hstack([r.real, -r.imag]), np.exp(x),
                          rcond=None)[0]
    return np.column_stack([z, fit[:nodes] + 1j * fit[nodes:]])


class TestGrid:
    def test_build_grid_default_extent(self):
        grid = build_grid(GEO, 0.5, 0.5, extent_factor=10.0)
        assert grid.r_max >= 100.0
        assert np.sum(grid.r_centers < GEO.radius) == 20
        assert grid.z_min == -50.0 and grid.z_max == 50.0

    def test_default_dot_resolves_exactly(self):
        grid = build_grid(GEO, 0.5, 0.5)
        mask = grid.dot_mask(GEO)
        assert mask.sum() == 20 * 10  # 20 cells across radius, 10 in z
        # the dot's cells are cache state: built once, read-only
        _, _, w, _ = dot = _dot(grid, GEO)
        assert _dot(grid, GEO) is dot
        with pytest.raises(ValueError):
            w[0] = w[0]

    def test_too_coarse_rejected(self):
        with pytest.raises(GridTooCoarse):
            build_grid(GEO, 2.0, 0.5)
        with pytest.raises(GridTooCoarse):
            build_grid(GEO, 0.5, 1.0)

    def test_small_extent_rejected(self):
        with pytest.raises(InvariantViolation):
            build_grid(GEO, 0.5, 0.5, extent_factor=3.0)

    @pytest.mark.parametrize("radius, dr, count", [
        (1e300, 0.5, "4e+301"),  # np.arange would exceed its maximum size
        (1e308, 0.5, "inf"),  # int(inf) would overflow
        (3e4, 0.5, "1.2e+06"),  # the eigenbasis would take 10 TiB
        (10.0, 1e-300, "2e+302"),
    ])
    def test_too_many_cells_rejected(self, radius, dr, count):
        # the float counts are checked, before anything is allocated
        with pytest.raises(InvariantViolation, match="GridTooLarge") as err:
            build_grid(DotGeometry(radius=radius, height=5.0), dr, 0.5)
        assert count in str(err.value)

    def test_cell_count_bound(self):
        for nr, nz in ((MAX_CELLS + 1, 16), (16, MAX_CELLS + 1)):
            with pytest.raises(InvariantViolation,
                               match=f"GridTooLarge: .*{MAX_CELLS + 1}"):
                Grid(nr=nr, nz=nz, dr=1.0, dz=1.0, z_min=-8.0)
        assert MAX_CELLS == 2 ** 14
        Grid(nr=MAX_CELLS, nz=MAX_CELLS, dr=1.0, dz=1.0, z_min=-8.0)

    def test_non_positive_spacing_rejected(self):
        with pytest.raises(InvariantViolation, match="NonPositiveSpacing"):
            Grid(nr=16, nz=16, dr=0.0, dz=1.0, z_min=-8.0)
        with pytest.raises(InvariantViolation, match="NonPositiveSpacing"):
            build_grid(GEO, 0.0, 0.5)

    @pytest.mark.parametrize("count", [16.5, 20.0, np.float64(20.0), True])
    @pytest.mark.parametrize("name", ["nr", "nz"])
    def test_non_integer_cell_count_rejected(self, name, count):
        counts = {"nr": 16, "nz": 16, name: count}
        with pytest.raises(InvariantViolation,
                           match=f"NonIntegerCellCount: {name} = "):
            Grid(**counts, dr=1.0, dz=1.0, z_min=-8.0)

    def test_numpy_integer_cell_count_accepted(self):
        grid = Grid(nr=np.int64(20), nz=np.int64(16), dr=1.0, dz=1.0,
                    z_min=-8.0)
        assert grid.r_centers.size == 20 and grid.z_centers.size == 16
        assert grid.dot_mask(GEO).shape == (20, 16)

    def test_minimum_cell_counts(self):
        with pytest.raises(InvariantViolation):
            Grid(nr=4, nz=16, dr=1.0, dz=1.0, z_min=-8.0)

    def test_auto_dt_cap_and_sampling(self):
        grid = Grid(nr=16, nz=16, dr=0.5, dz=0.5, z_min=-4.0)
        assert auto_dt(grid, 10.0) == pytest.approx(0.01)  # capped
        assert auto_dt(grid, 1000.0) == pytest.approx(0.25 / 2000.0)
        assert auto_dt(grid, 0.0) == pytest.approx(0.01)

    def test_field_shape_checked(self):
        grid = Grid(nr=16, nz=16, dr=1.0, dz=1.0, z_min=-8.0)
        with pytest.raises(InvariantViolation):
            PolarizationField(grid, np.zeros((8, 16)))


class TestGaussianOracle:
    def test_free_space_gaussian_spread(self):
        grid = Grid(nr=100, nz=200, dr=0.5, dz=0.5, z_min=-50.0)
        sigma0, d, t = 5.0, 10.0, 1.0
        cfg = SolverConfig(d_qd=d, dt=0.01)
        field = PolarizationField(grid, gaussian_field(grid, sigma0))
        out = evolve(field, cfg, t)
        sigma_t = np.sqrt(sigma0 ** 2 + 2.0 * d * t)
        exact = (sigma0 ** 2 / sigma_t ** 2) ** 1.5 \
            * gaussian_field(grid, sigma_t)
        l2 = np.linalg.norm(out.values - exact) / np.linalg.norm(exact)
        assert l2 < 0.01

    def test_gaussian_also_passes_under_reflective_walls(self):
        # tails are ~exp(-250) at the walls, so the boundary mode is moot
        grid = Grid(nr=100, nz=200, dr=0.5, dz=0.5, z_min=-50.0)
        cfg = SolverConfig(d_qd=10.0, dt=0.01,
                           boundary=BoundaryMode.REFLECTIVE)
        field = PolarizationField(grid, gaussian_field(grid, 5.0))
        out = evolve(field, cfg, 1.0)
        sigma_t = np.sqrt(25.0 + 20.0)
        exact = (25.0 / sigma_t ** 2) ** 1.5 * gaussian_field(grid, sigma_t)
        l2 = np.linalg.norm(out.values - exact) / np.linalg.norm(exact)
        assert l2 < 0.01


class TestSlabOracle:
    def test_quasi_1d_slab_matches_cosine_series(self):
        # radially uniform initial data in a reflective box is exactly 1D
        box = 20.0
        grid = Grid(nr=8, nz=200, dr=25.0, dz=0.1, z_min=-box / 2)
        wide = DotGeometry(radius=grid.r_max, height=5.0)
        cfg = SolverConfig(d_qd=10.0, dt=0.005,
                           boundary=BoundaryMode.REFLECTIVE)
        field = simulate_pump(wide, cfg, 0.0, grid).field
        t_prev = 0.0
        for t in (0.05, 0.2, 0.5, 1.0):
            field = evolve(field, cfg, t - t_prev)
            t_prev = t
            expected = slab_average_series(t, wide.height, box, cfg.d_qd)
            assert dot_average(field, wide) == pytest.approx(expected,
                                                             abs=1e-3)


class TestConservationAndMaximumPrinciple:
    def test_reflective_conservation_over_1000_steps(self):
        grid = Grid(nr=40, nz=40, dr=1.0, dz=1.0, z_min=-20.0)
        rng = np.random.default_rng(42)
        field = PolarizationField(grid, rng.random((40, 40)))
        cfg = SolverConfig(d_qd=5.0, dt=0.05,
                           boundary=BoundaryMode.REFLECTIVE)
        before = total_spin(field)
        for _ in range(1000):
            field = step(field, cfg)
        assert abs(total_spin(field) - before) / before < 1e-6

    def test_maximum_principle_at_auto_dt(self):
        grid = Grid(nr=40, nz=40, dr=1.0, dz=1.0, z_min=-20.0)
        rng = np.random.default_rng(7)
        field = PolarizationField(grid, rng.random((40, 40)))
        cfg = SolverConfig(d_qd=5.0)  # auto dt
        for _ in range(300):
            field = step(field, cfg)
            assert field.values.min() >= -1e-12
            assert field.values.max() <= 1.0 + 1e-12

    def test_dirichlet_leaks_mass_monotonically(self):
        # a uniform field has an immediate outward gradient at the S = 0 walls
        grid = Grid(nr=16, nz=16, dr=1.0, dz=1.0, z_min=-8.0)
        field = PolarizationField(grid, np.ones((16, 16)))
        cfg = SolverConfig(d_qd=5.0, dt=0.05)
        totals = [total_spin(field)]
        for _ in range(30):
            field = step(field, cfg)
            totals.append(total_spin(field))
        assert all(b < a for a, b in zip(totals, totals[1:]))


class TestTrivialDynamics:
    def test_uniform_field_is_reflective_steady_state(self):
        grid = Grid(nr=16, nz=16, dr=1.0, dz=1.0, z_min=0.0)
        field = PolarizationField(grid, np.full((16, 16), 0.37))
        cfg = SolverConfig(d_qd=25.0, dt=0.02,
                           boundary=BoundaryMode.REFLECTIVE)
        out = evolve(field, cfg, 1.0)
        np.testing.assert_allclose(out.values, 0.37, rtol=0, atol=1e-13)

    def test_zero_diffusion_freezes_field(self):
        grid = Grid(nr=16, nz=16, dr=1.0, dz=1.0, z_min=0.0)
        rng = np.random.default_rng(3)
        values = rng.random((16, 16))
        field = PolarizationField(grid, values.copy())
        out = evolve(field, SolverConfig(d_qd=0.0, dt=0.1), 5.0)
        np.testing.assert_array_equal(out.values, values)

    def test_t1_relaxation_multiplies_exponential(self):
        grid = Grid(nr=16, nz=16, dr=1.0, dz=1.0, z_min=0.0)
        field = PolarizationField(grid, np.full((16, 16), 1.0))
        cfg = SolverConfig(d_qd=0.0, t1_uniform=2.0, dt=0.1)
        out = evolve(field, cfg, 1.0)
        np.testing.assert_allclose(out.values, np.exp(-0.5), rtol=1e-12)

    def test_mirror_symmetry_preserved(self):
        grid = Grid(nr=24, nz=24, dr=1.0, dz=1.0, z_min=-12.0)
        geo = DotGeometry(radius=8.0, height=6.0)
        cfg = SolverConfig(d_qd=4.0, dt=0.05)
        field = simulate_pump(geo, cfg, 1.0, grid).field
        field = evolve(field, cfg, 1.0)
        np.testing.assert_allclose(field.values, field.values[:, ::-1],
                                   rtol=0, atol=1e-14)

    def test_evolve_lands_exactly(self):
        grid = Grid(nr=16, nz=16, dr=1.0, dz=1.0, z_min=0.0)
        field = PolarizationField(grid, np.zeros((16, 16)), time=1.0)
        out = evolve(field, SolverConfig(d_qd=1.0, dt=0.1), 0.35)
        assert out.time == pytest.approx(1.35, rel=1e-15)


def tridiagonal(coeffs):
    lo, di, hi = coeffs
    return np.diag(di) + np.diag(lo[1:], -1) + np.diag(hi[:-1], 1)


def max_abs(x):
    return float(np.abs(x).max())


class TestEigenbasis:
    """The basis on the production grid and on a small grid of odd nz:
    the closed-form axial modes and the MRRR radial modes diagonalize
    the assembled operators and are orthogonal to round-off."""

    GRIDS = {"400x400": build_grid(GEO, 0.5, 0.5),
             "9x13": Grid(nr=9, nz=13, dr=1.0, dz=0.7, z_min=-4.55)}

    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    @pytest.mark.parametrize("size", list(GRIDS))
    def test_axial_modes_diagonalize_operator(self, size, boundary):
        g = self.GRIDS[size]
        _, _, lam_z, q_z, _ = _eigenbasis(g, boundary)
        a_z = tridiagonal(_axial_coeffs(g.nz, g.dz, boundary))
        assert max_abs(a_z @ q_z - q_z * lam_z) <= 1e-13 * max_abs(a_z)
        assert max_abs(q_z.T @ q_z - np.eye(g.nz)) <= 1e-14

    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    @pytest.mark.parametrize("size", list(GRIDS))
    def test_radial_modes_diagonalize_operator(self, size, boundary):
        g = self.GRIDS[size]
        lam_r, q_r, _, _, sqrt_r = _eigenbasis(g, boundary)
        a_r = tridiagonal(_radial_coeffs(g.nr, g.dr, boundary))
        # the sqrt(r) weighting makes A_r symmetric
        sym = sqrt_r[:, None] * a_r / sqrt_r
        assert max_abs(sym @ q_r - q_r * lam_r) <= 1e-13 * max_abs(a_r)
        assert max_abs(q_r.T @ q_r - np.eye(g.nr)) <= 1e-12

    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    @pytest.mark.parametrize("size", list(GRIDS))
    def test_one_radial_solve_pinned_to_mrrr(self, monkeypatch, size,
                                             boundary):
        # one call of the MRRR driver, which stays on the calling thread;
        # the divide-and-conquer driver runs on threaded BLAS
        drivers = []

        def spy(*args):
            drivers.append("stemr")
            return _lapack.stemr(*args)

        monkeypatch.setattr(solver, "stemr", spy)
        # past the cache, so every call solves for the radial modes
        _radial_modes.__wrapped__(self.GRIDS[size], boundary)
        assert drivers == ["stemr"]


class TestLapack:
    """The solver's two LAPACK routines (``spindiff._lapack``) against
    scipy's: the radial eigenpairs bit for bit, the capacitance solve to
    the forward-error bound of two backward-stable LU solves."""

    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    @pytest.mark.parametrize("nr, dr", [(400, 0.5), (50, 1.0)])
    def test_stemr_bitwise_scipy(self, nr, dr, boundary):
        # the radial operators of the production and the fit-d grids
        lo, di, hi = _radial_coeffs(nr, dr, boundary)
        e = np.sqrt(hi[:-1] * lo[1:])
        lam, q = _lapack.stemr(di, e)
        want_lam, want_q = eigh_tridiagonal(di, e, lapack_driver="stemr")
        np.testing.assert_array_equal(lam, want_lam)
        np.testing.assert_array_equal(q, want_q)
        assert q.flags.f_contiguous

    def test_lu_solve_matches_zgesv_on_production_system(self, monkeypatch):
        # the 100-unknown capacitance systems of a 10 s pump at 1e-12
        # cm2/s on the 400x400 grid, the largest condition number (378)
        # of the production pumps
        systems = []

        def kept(a, b):
            systems.append((a.copy(), b.copy()))
            return _lapack.lu_solve(a, b)

        monkeypatch.setattr(solver, "lu_solve", kept)
        simulate_pump(GEO, SolverConfig(d_qd=1e2), 10.0,
                      build_grid(GEO, 0.5, 0.5))
        assert len(systems) == 10
        for a, b in systems:
            assert a.shape == (100, 100)
            x, info = _lapack.lu_solve(a.copy(), b.copy())
            _, _, want, want_info = zgesv(a, b)
            assert info == want_info == 0
            # each solve's relative forward error is at most about
            # n u cond(a) in the max norm
            bound = 2 * len(b) * 2.0 ** -53 * np.linalg.cond(a, np.inf)
            assert max_abs(x - want) <= bound * max_abs(want)

    def test_lu_solve_reports_singular_matrix(self):
        a = np.ones((3, 3), dtype=complex)
        _, info = _lapack.lu_solve(a, np.ones(3, dtype=complex))
        assert info > 0

    @pytest.mark.skipif(_lapack.LIBRARY is None,
                        reason="numpy vendors no OpenBLAS to bind: scipy "
                               "checks the shapes")
    def test_lu_solve_rejects_mismatched_shapes(self):
        # the shapes are checked before any pointer reaches LAPACK
        with pytest.raises(ValueError, match="n x n matrix and an n-vector"):
            _lapack.lu_solve(np.eye(3), np.ones(2))


class TestModalPropagation:
    GRID = Grid(nr=10, nz=12, dr=1.0, dz=0.8, z_min=-4.8)
    GEO = DotGeometry(radius=3.0, height=2.0)

    def random_field(self, seed=11):
        rng = np.random.default_rng(seed)
        return PolarizationField(self.GRID,
                                 rng.random((self.GRID.nr, self.GRID.nz)))

    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    def test_matches_expm_of_assembled_operator(self, boundary):
        g = self.GRID
        a_r = tridiagonal(_radial_coeffs(g.nr, g.dr, boundary))
        a_z = tridiagonal(_axial_coeffs(g.nz, g.dz, boundary))
        # values[i, j] flattens to i * nz + j
        op = np.kron(a_r, np.eye(g.nz)) + np.kron(np.eye(g.nr), a_z)
        d, t, t1 = 3.0, 0.7, 2.5
        field = self.random_field()
        out = evolve(field, SolverConfig(d_qd=d, t1_uniform=t1,
                                         boundary=boundary), t)
        want = expm(t * d * op) @ field.values.ravel() * np.exp(-t / t1)
        np.testing.assert_allclose(out.values.ravel(), want, rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    def test_semigroup(self, boundary):
        cfg = SolverConfig(d_qd=2.0, boundary=boundary)
        field = self.random_field(5)
        two = evolve(evolve(field, cfg, 0.3), cfg, 1.1)
        one = evolve(field, cfg, 1.4)
        np.testing.assert_allclose(two.values, one.values, rtol=0, atol=1e-12)
        assert two.time == pytest.approx(one.time, rel=1e-15)

    def test_modal_dot_average_matches_rebuilt_field(self):
        cfg = SolverConfig(d_qd=1.5, t1_uniform=4.0)
        sampler = DarkSampler(self.random_field(8), cfg)
        times = [0.0, 0.05, 0.4, 2.0, 9.0]
        got = sampler.dot_averages(times, self.GEO)
        want = [dot_average(sampler.field_at(t), self.GEO) for t in times]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_negative_time_rejected(self):
        sampler = DarkSampler(self.random_field(), SolverConfig(d_qd=1.0))
        with pytest.raises(InvariantViolation):
            sampler.dot_averages([0.0, -1.0], self.GEO)

    @pytest.mark.parametrize("d", [1.0, 0.0])
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"),
                                     -float("inf")])
    def test_non_finite_or_negative_time_rejected(self, d, bad):
        sampler = DarkSampler(self.random_field(), SolverConfig(d_qd=d))
        with pytest.raises(InvariantViolation, match="NegativeDuration"):
            sampler.dot_averages([0.0, 0.5, bad, 1.0], self.GEO)

    @pytest.mark.parametrize("kind", [list, tuple, np.array])
    def test_times_as_any_sequence(self, kind):
        sampler = DarkSampler(self.random_field(3), SolverConfig(d_qd=1.5))
        times = [0.0, 0.3, 1.2]
        got = sampler.dot_averages(kind(times), self.GEO)
        want = [dot_average(sampler.field_at(t), self.GEO) for t in times]
        assert got.shape == (3,)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("d", [1.0, 0.0])
    def test_empty_times(self, d):
        sampler = DarkSampler(self.random_field(), SolverConfig(d_qd=d))
        for times in ([], (), np.array([])):
            assert sampler.dot_averages(times, self.GEO).shape == (0,)

    def test_zero_time_is_input_dot_average_exactly(self):
        field = self.random_field(6)
        got = DarkSampler(field, SolverConfig(d_qd=2.0, t1_uniform=3.0)) \
            .dot_averages([0.5, 0.0, 2.0, 0.0], self.GEO)
        assert got[1] == got[3] == dot_average(field, self.GEO)

    def test_zero_diffusion_with_t1(self):
        field = self.random_field(7)
        times = np.array([0.0, 0.5, 3.0])
        got = DarkSampler(field, SolverConfig(d_qd=0.0, t1_uniform=2.0)) \
            .dot_averages(times, self.GEO)
        p0 = dot_average(field, self.GEO)
        assert got[0] == p0
        np.testing.assert_allclose(got, p0 * np.exp(-times / 2.0),
                                   rtol=1e-15, atol=0)

    def test_times_beyond_one_block(self):
        # more times than one block holds on this grid (2^18 / 120)
        cfg = SolverConfig(d_qd=1.5, t1_uniform=4.0)
        sampler = DarkSampler(self.random_field(9), cfg)
        times = np.linspace(0.0, 3.0, 5001)
        got = sampler.dot_averages(times, self.GEO)
        for i in (0, 1, 2183, 2184, 2185, 4368, 5000):
            want = dot_average(sampler.field_at(times[i]), self.GEO)
            assert got[i] == pytest.approx(want, rel=0, abs=1e-13)


class TestModalPump:
    """The exact pump against the matrix exponential of the clamped
    system, on a grid small enough for a dense one (``SMALL``)."""

    GRID = Grid(nr=24, nz=30, dr=0.5, dz=0.5, z_min=-7.5)
    GEO = DotGeometry(radius=4.0, height=3.0)
    # the oracle's grid and dot: 296 halo cells
    SMALL = Grid(nr=16, nz=20, dr=0.5, dz=0.5, z_min=-5.0)
    DOT = DotGeometry(radius=3.0, height=2.0)

    def start(self, cfg, even, seed=17):
        """A random start field and its sampler, in the even axial modes
        (the field made mirror-symmetric) or in all of them."""
        g = self.SMALL
        values = np.random.default_rng(seed).random((g.nr, g.nz))
        if not even:
            return values, DarkSampler(PolarizationField(g, values), cfg)
        values = 0.5 * (values + values[:, ::-1])
        coef = _to_modes(values, _eigenbasis(g, cfg.boundary, even=True))
        return values, DarkSampler._pumped(coef, g, cfg, 0.0, self.DOT, True)

    # 1e-4 s and 30 s are the near-zero and the near-steady ends of the
    # pole table's range
    @pytest.mark.parametrize("duration", [1e-4, 0.3, 30.0])
    @pytest.mark.parametrize("t1", [None, 0.7])
    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    @pytest.mark.parametrize("even", [False, True])
    def test_matches_expm_oracle(self, expm_clamped, even, boundary, t1,
                                 duration):
        g = self.SMALL
        cfg = SolverConfig(d_qd=10.0, t1_uniform=t1, boundary=boundary)
        values, start = self.start(cfg, even)
        out = _clamped(start, 0.0, self.DOT, duration)
        assert out._coef_at(0.0).shape[1] == (10 if even else 20)
        want = expm_clamped(values, g, cfg, duration, g.dot_mask(self.DOT))
        np.testing.assert_allclose(out.field.values, want, rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("t1", [None, 0.7])
    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    def test_indicator_start_matches_expm_oracle(self, expm_clamped,
                                                 boundary, t1):
        # simulate_pump runs in the even axial modes, the indicator
        # field's clamped evolve in all of them
        g, geo = self.SMALL, self.DOT
        cfg = SolverConfig(d_qd=10.0, t1_uniform=t1, boundary=boundary)
        mask = g.dot_mask(geo)
        want = expm_clamped(mask, g, cfg, 0.45, mask)
        pumped = simulate_pump(geo, cfg, 0.45, g)
        assert pumped._coef_at(0.0).shape[1] == 10
        old = evolve(PolarizationField(g, mask), cfg, 0.45, clamp=geo)
        for got in (pumped.field, old):
            np.testing.assert_allclose(got.values, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("t1", [None, 0.7])
    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    def test_poles_match_32_node_contour(self, monkeypatch, boundary, t1):
        cfg = SolverConfig(d_qd=10.0, t1_uniform=t1, boundary=boundary)
        for even in (False, True):
            poles = _clamped(self.start(cfg, even)[1], 0.0, self.DOT, 0.3)
            with monkeypatch.context() as m:
                m.setattr(solver, "_POLES", talbot(32))
                contour = _clamped(self.start(cfg, even)[1], 0.0, self.DOT,
                                   0.3)
            np.testing.assert_allclose(poles.field.values,
                                       contour.field.values, rtol=0,
                                       atol=1e-13)

    @pytest.mark.parametrize("t1", [None, 0.7])
    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    def test_zero_start_matches_indicator_start(self, monkeypatch,
                                                expm_clamped, boundary, t1):
        # simulate_pump starts from zero coefficients: the clamp sets the
        # dot at once, so the indicator's start gives the same pump
        g, geo = self.SMALL, self.DOT
        cfg = SolverConfig(d_qd=10.0, t1_uniform=t1, boundary=boundary)
        (ra, rb), _ = _dot_modes(g, geo, boundary, True)
        products = []
        matmul = np.matmul

        def spy(*args, **kwargs):
            products.append(1)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        pumped = simulate_pump(geo, cfg, 0.45, g)
        zero_start = len(products)
        start = DarkSampler._pumped(np.outer(ra, rb), g, cfg, 0.0, geo, True)
        indicator = _clamped(start, 0.0, geo, 0.45)
        # the zero start makes no Read(V c), two products per node
        assert len(products) - zero_start == zero_start + 2 * 10
        np.testing.assert_allclose(pumped._coef_at(0.0),
                                   indicator._coef_at(0.0), rtol=0,
                                   atol=1e-13)
        mask = g.dot_mask(geo)
        want = expm_clamped(mask, g, cfg, 0.45, mask)
        for got in (pumped, indicator):
            np.testing.assert_allclose(got.field.values, want, rtol=0,
                                       atol=1e-13)

    def test_one_zgesv_per_node(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append(a.shape)
            return _lapack.lu_solve(a, b)

        monkeypatch.setattr(solver, "lu_solve", counted)
        simulate_pump(self.DOT, SolverConfig(d_qd=10.0), 0.3, self.SMALL)
        # the dot's 6 rows times its 2 columns up to the mid-plane
        assert calls == [(12, 12)] * 10

    def test_singular_capacitance_raises(self, monkeypatch):
        # LAPACK's info > 0: a zero pivot, no solution
        monkeypatch.setattr(solver, "lu_solve", lambda a, b: (None, 1))
        node = re.escape(f"at node {solver._POLES[0, 0]} of a pump of 0.3 s")
        with pytest.raises(NumericalBlowup,
                           match=f"singular capacitance system {node}"):
            simulate_pump(self.DOT, SolverConfig(d_qd=10.0), 0.3, self.SMALL)

    def test_singular_matrix_raises(self, monkeypatch):
        # a capacitance matrix made singular before LAPACK factors it
        monkeypatch.setattr(solver, "lu_solve", lambda a, b: _lapack.lu_solve(
            np.zeros_like(a), b))
        with pytest.raises(NumericalBlowup, match="singular capacitance"):
            simulate_pump(self.DOT, SolverConfig(d_qd=10.0), 0.3, self.SMALL)

    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    def test_scipy_routines_match_expm_oracle(self, monkeypatch,
                                              expm_clamped, boundary):
        # the route where numpy vendors no OpenBLAS to bind; fresh
        # caches, so the basis and the pump's tables are built on it
        calls = []

        def counted(name, routine):
            def call(*args):
                calls.append(name)
                return routine(*args)
            return call

        eig, solve = _lapack._scipy_routines()
        monkeypatch.setattr(solver, "stemr", counted("stemr", eig))
        monkeypatch.setattr(solver, "lu_solve", counted("lu_solve", solve))
        for name in ("_radial_modes", "_dot_modes"):
            cached = getattr(solver, name)
            monkeypatch.setattr(solver, name, lru_cache(maxsize=8)(
                cached.__wrapped__))
        g, geo = self.SMALL, self.DOT
        cfg = SolverConfig(d_qd=10.0, t1_uniform=0.7, boundary=boundary)
        mask = g.dot_mask(geo)
        pumped = simulate_pump(geo, cfg, 0.45, g)
        assert calls == ["stemr"] + ["lu_solve"] * 10
        np.testing.assert_allclose(pumped.field.values,
                                   expm_clamped(mask, g, cfg, 0.45, mask),
                                   rtol=0, atol=1e-12)

    def test_row_blocks_match_one_block(self, monkeypatch, expm_clamped):
        # one radial mode per block instead of all 16 in one
        g = self.SMALL
        cfg = SolverConfig(d_qd=10.0, t1_uniform=0.7)
        one = _clamped(self.start(cfg, True)[1], 0.0, self.DOT, 0.3)
        monkeypatch.setattr(solver, "_ONE_THREAD_MADDS", 1)
        values, start = self.start(cfg, True)
        rows = _clamped(start, 0.0, self.DOT, 0.3)
        # the two block orders differ by round-off only: each node's term
        # is at most |w_k / z_k| times the coefficients' scale, and its
        # sums and LU solve over the n unknowns (the dot's cells, folded
        # at the mid-plane) carry about n unit round-offs (Higham's
        # gamma_n), 2e-13 here. A dropped or doubled block of modes is off
        # by 0.4 or more.
        z, w = solver._POLES.T
        n = g.dot_mask(self.DOT).sum() // 2
        bound = (np.finfo(float).eps / 2 * n * np.abs(w / z).sum()
                 * np.abs(one._coef_at(0.0)).max())
        np.testing.assert_allclose(rows._coef_at(0.0), one._coef_at(0.0),
                                   rtol=0, atol=bound)
        np.testing.assert_allclose(
            rows.field.values,
            expm_clamped(values, g, cfg, 0.3, g.dot_mask(self.DOT)),
            rtol=0, atol=1e-12)

    def test_dot_cells_exactly_one(self):
        g = self.GRID
        start = np.random.default_rng(4).random((g.nr, g.nz))
        out = evolve(PolarizationField(g, start),
                     SolverConfig(d_qd=3.0, t1_uniform=2.0, dt=0.01), 0.37,
                     clamp=self.GEO)
        mask = g.dot_mask(self.GEO)
        assert np.all(out.values[mask] == 1.0)
        assert np.all(out.values[~mask] < 1.0)

    @pytest.mark.parametrize("d", [10.0, 0.0])
    def test_non_finite_start_raises(self, d):
        g = self.GRID
        start = np.random.default_rng(2).random((g.nr, g.nz))
        start[3, 5] = np.nan
        with pytest.raises(NumericalBlowup, match="non-finite polarization"):
            evolve(PolarizationField(g, start), SolverConfig(d_qd=d, dt=0.01),
                   0.2, clamp=self.GEO)

    def test_zero_diffusion_is_relaxation_and_reset(self):
        g = self.GRID
        start = np.random.default_rng(9).random((g.nr, g.nz))
        cfg = SolverConfig(d_qd=0.0, t1_uniform=2.0, dt=0.1)
        out = evolve(PolarizationField(g, start), cfg, 1.0, clamp=self.GEO)
        mask = g.dot_mask(self.GEO)
        want = np.where(mask, 1.0, start * np.exp(-0.1 / 2.0) ** 10)
        np.testing.assert_allclose(out.values, want, rtol=1e-14, atol=0)
        assert np.all(out.values[mask] == 1.0)


class TestPoleTable:
    """``solver._POLES``: the pump's inverse Laplace transform."""

    def test_approximates_exp_on_negative_axis(self):
        z, w = solver._POLES.T
        x = np.concatenate(([0.0], -np.logspace(-8, 5, 50001)))
        r = (w / (z - x[:, None])).real.sum(axis=1)
        assert np.abs(r - np.exp(x)).max() < 5e-14

    def test_table_is_the_fitted_contour(self):
        want = fitted_table()
        np.testing.assert_allclose(solver._POLES[:, 0], want[:, 0], rtol=0,
                                   atol=1e-13)
        # the fit's matrix has condition number 1e9: another LAPACK
        # driver moves the weights by up to 1e-7 without moving the fit;
        # a change that moves the fit fails the scalar check above
        np.testing.assert_allclose(solver._POLES[:, 1], want[:, 1], rtol=0,
                                   atol=1e-6)

    def test_round_off_amplification_is_the_contours(self):
        # sum_k |w_k / (z_k - x)| bounds how much the sum amplifies
        # round-off in its terms: it peaks at x = 0, at the value of the
        # full 24-node contour
        z, w = solver._POLES.T
        x = np.concatenate(([0.0], -np.logspace(-8, 5, 501)))
        lebesgue = np.abs(w / (z - x[:, None])).sum(axis=1)
        full = talbot(24)
        assert lebesgue.max() == lebesgue[0]
        np.testing.assert_allclose(
            lebesgue[0], np.abs(full[:, 1] / full[:, 0]).sum(), rtol=1e-9)


class TestPumpedSampler:
    """``simulate_pump`` hands the pump's modal coefficients to the
    sampler; it must agree with the field route it replaces."""

    GRID = build_grid(GEO, 1.0, 0.625, extent_factor=5.0)

    def indicator(self):
        values = np.zeros((self.GRID.nr, self.GRID.nz))
        values[self.GRID.dot_mask(GEO)] = 1.0
        return PolarizationField(self.GRID, values)

    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    @pytest.mark.parametrize("t1", [None, 30.0])
    def test_matches_field_route(self, boundary, t1):
        cfg = SolverConfig(d_qd=10.0, dt=0.1, t1_uniform=t1,
                           boundary=boundary)
        sampler = simulate_pump(GEO, cfg, 2.0, self.GRID)
        times = np.linspace(0.0, 20.0, 11)
        got = sampler.dot_averages(times, GEO)
        assert got[0] == 1.0
        # the field route: the indicator advanced under the clamp
        old = evolve(self.indicator(), cfg, 2.0, clamp=GEO)
        np.testing.assert_allclose(
            got, DarkSampler(old, cfg).dot_averages(times, GEO),
            rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            got, DarkSampler(sampler.field, cfg).dot_averages(times, GEO),
            rtol=0, atol=1e-12)
        assert sampler.field.time == old.time == 2.0
        np.testing.assert_allclose(sampler.field.values, old.values,
                                   rtol=0, atol=1e-12)
        assert np.all(sampler.field.values[self.GRID.dot_mask(GEO)] == 1.0)
        np.testing.assert_allclose(sampler.field_at(3.0).values,
                                   evolve(old, cfg, 3.0).values,
                                   rtol=0, atol=1e-12)

    def test_readout_of_another_dot_reads_the_field(self):
        cfg = SolverConfig(d_qd=10.0, dt=0.1)
        sampler = simulate_pump(GEO, cfg, 2.0, self.GRID)
        wider = DotGeometry(radius=15.0, height=5.0)
        got = sampler.dot_averages([0.0, 1.0], wider)
        assert got[0] == dot_average(sampler.field, wider) < 1.0

    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    def test_start_is_outer_product_of_readout_vectors(self, boundary):
        for grid in (self.GRID, build_grid(GEO, 0.5, 0.5, 5.0)):
            values = np.zeros((grid.nr, grid.nz))
            values[grid.dot_mask(GEO)] = 1.0
            want = _to_modes(values, _eigenbasis(grid, boundary))
            got = np.outer(*_dot_modes(grid, GEO, boundary)[0])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_readout_vectors_are_read_only_and_checked(self):
        (a, b), _ = _dot_modes(self.GRID, GEO,
                               BoundaryMode.DIRICHLET_ZERO)
        assert not (a.flags.writeable or b.flags.writeable)
        with pytest.raises(GeometryMismatch):
            _dot_modes(self.GRID, DotGeometry(radius=100.0, height=5.0),
                       BoundaryMode.DIRICHLET_ZERO)

    def test_pump_consumes_its_start_only_at_elapsed_zero(self):
        cfg = SolverConfig(d_qd=10.0, dt=0.1)
        start = simulate_pump(GEO, cfg, 1.0, self.GRID)
        kept = start._coef_at(0.0).copy()
        later = _clamped(start, 0.5, GEO, 0.5)
        np.testing.assert_array_equal(start._coef_at(0.0), kept)
        assert later.field.time == 2.0
        # at elapsed 0 the start's coefficients are advanced in place
        coef = start._coef_at(0.0)
        again = _clamped(start, 0.0, GEO, 0.5)
        assert again._coef_at(0.0) is coef and again.field.time == 1.5

    @pytest.mark.parametrize("t_pump", [0.0, 2.0])
    def test_zero_diffusion_pump_is_field_route(self, t_pump):
        cfg = SolverConfig(d_qd=0.0, dt=0.1, t1_uniform=30.0)
        sampler = simulate_pump(GEO, cfg, t_pump, self.GRID)
        old = evolve(self.indicator(), cfg, t_pump, clamp=GEO)
        np.testing.assert_array_equal(sampler.field.values, old.values)
        times = [0.0, 1.0, 5.0]
        np.testing.assert_array_equal(
            sampler.dot_averages(times, GEO),
            DarkSampler(old, cfg).dot_averages(times, GEO))


class TestEvenAxialModes:
    """A dot whose columns are mirror-symmetric on the grid is pumped in
    the even axial modes alone; the result must agree with the field
    route, which runs in the full basis."""

    GRIDS = {"build_grid": build_grid(GEO, 1.0, 0.625, extent_factor=5.0),
             "odd_nz": Grid(nr=20, nz=25, dr=0.5, dz=0.4, z_min=-5.0)}
    DOTS = {"build_grid": GEO, "odd_nz": DotGeometry(radius=4.0, height=3.0)}

    @staticmethod
    def indicator(grid, geometry):
        values = np.zeros((grid.nr, grid.nz))
        values[grid.dot_mask(geometry)] = 1.0
        return PolarizationField(grid, values)

    @staticmethod
    def direct_modes(nz, boundary, even):
        """The closed-form axial modes evaluated entry by entry, each at
        its own reduced angle (2j + 1) k mod 4n: the reference that
        ``_axial_modes``'s table reproduces."""
        dirichlet = boundary is BoundaryMode.DIRICHLET_ZERO
        k = np.arange(1, nz + 1) if dirichlet else np.arange(nz)
        if even:
            k = k[::2]
        angle = (np.outer(2 * np.arange(nz) + 1, k) % (4 * nz)
                 * (np.pi / (2 * nz)))
        q = np.sqrt(2.0 / nz) * (np.sin(angle) if dirichlet
                                 else np.cos(angle))
        if not dirichlet:
            q[:, 0] = 1.0 / np.sqrt(nz)
        elif k[-1] == nz:
            q[:, -1] = (-1.0) ** np.arange(nz) / np.sqrt(nz)
        return q

    @pytest.mark.parametrize("even", [False, True])
    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    @pytest.mark.parametrize("nz", [7, 10, 80, 400])
    def test_table_is_the_direct_formula(self, nz, boundary, even):
        # bit for bit on the rows up to the mid-plane, which the table
        # gives; the rows past it are their reflections, a few ulps from
        # the direct values, whose larger angles carry more round-off
        q = _axial_modes(nz, 0.5, boundary, even)[1]
        want = self.direct_modes(nz, boundary, even)
        half = (nz + 1) // 2
        np.testing.assert_array_equal(q[:half], want[:half])
        assert max_abs(q - want) <= 8 * np.spacing(max_abs(want))

    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    @pytest.mark.parametrize("nz", [12, 13, 91, 400])
    def test_modes_are_exactly_even_or_odd(self, nz, boundary):
        q = _axial_modes(nz, 0.5, boundary)[1]
        even, odd = q[:, ::2], q[:, 1::2]
        np.testing.assert_array_equal(even[::-1], even)
        # the middle row of an odd nz is its own mirror: there an odd
        # mode holds the round-off of sin(k pi / 2) or cos(k pi / 2)
        off_middle = np.arange(nz) != nz // 2 if nz % 2 else slice(None)
        np.testing.assert_array_equal(odd[::-1][off_middle],
                                      -odd[off_middle])
        if nz % 2:
            assert 0 < max_abs(odd[nz // 2]) <= 2.0 ** -52

    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    @pytest.mark.parametrize("nz", [12, 13, 400])
    def test_even_modes_are_every_other_column(self, nz, boundary):
        lam, q = _axial_modes(nz, 0.5, boundary)
        lam_even, q_even = _axial_modes(nz, 0.5, boundary, True)
        np.testing.assert_array_equal(lam_even, lam[::2])
        np.testing.assert_array_equal(q_even, q[:, ::2])
        # each is exactly symmetric about the mid-plane
        np.testing.assert_array_equal(q_even[::-1], q_even)

    @pytest.mark.parametrize("t1", [None, 0.8])
    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    @pytest.mark.parametrize("name", list(GRIDS))
    def test_matches_full_basis_route(self, name, boundary, t1):
        grid, geo = self.GRIDS[name], self.DOTS[name]
        cfg = SolverConfig(d_qd=10.0, dt=0.05, t1_uniform=t1,
                           boundary=boundary)
        sampler = simulate_pump(geo, cfg, 1.0, grid)
        assert sampler._coef_at(0.0).shape == (grid.nr, (grid.nz + 1) // 2)
        old = evolve(self.indicator(grid, geo), cfg, 1.0, clamp=geo)
        np.testing.assert_allclose(sampler.field.values, old.values,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(sampler.field_at(2.5).values,
                                   evolve(old, cfg, 2.5).values,
                                   rtol=0, atol=1e-13)
        times = [0.0, 0.3, 2.5, 40.0]
        wider = DotGeometry(radius=6.0, height=2.0, z_center=0.5)
        for readout in (geo, wider):
            np.testing.assert_allclose(
                sampler.dot_averages(times, readout),
                DarkSampler(old, cfg).dot_averages(times, readout),
                rtol=0, atol=1e-13)
        # a second pump from the even state after a dark interval
        again = _clamped(sampler, 0.7, geo, 0.5)
        v = evolve(old, cfg, 0.7).values
        v[grid.dot_mask(geo)] = 1.0
        want = evolve(PolarizationField(grid, v, 1.7), cfg, 0.5, clamp=geo)
        np.testing.assert_allclose(again.field.values, want.values,
                                   rtol=0, atol=1e-13)

    def test_production_pump_carries_half_the_axial_modes(self):
        grid = build_grid(GEO, 0.5, 0.5)
        cfg = SolverConfig(d_qd=10.0, dt=0.01)
        assert simulate_pump(GEO, cfg, 0.0, grid)._coef_at(0.0).shape == \
            (400, 200)
        grid = self.GRIDS["build_grid"]
        for t_pump in (0.0, 0.2):
            coef = simulate_pump(GEO, cfg, t_pump, grid)._coef_at(0.0)
            assert coef.shape == (grid.nr, (grid.nz + 1) // 2)

    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    def test_off_center_dot_keeps_all_modes(self, boundary):
        grid = self.GRIDS["build_grid"]
        geo = DotGeometry(z_center=1.25)
        cfg = SolverConfig(d_qd=10.0, dt=0.05, t1_uniform=0.8,
                           boundary=boundary)
        sampler = simulate_pump(geo, cfg, 1.0, grid)
        assert sampler._coef_at(0.0).shape == (grid.nr, grid.nz)
        old = evolve(self.indicator(grid, geo), cfg, 1.0, clamp=geo)
        np.testing.assert_allclose(sampler.field.values, old.values,
                                   rtol=0, atol=1e-13)
        times = [0.0, 0.3, 2.5]
        np.testing.assert_allclose(
            sampler.dot_averages(times, geo),
            DarkSampler(old, cfg).dot_averages(times, geo),
            rtol=0, atol=1e-13)

    @pytest.mark.parametrize("elapsed", [0.0, 0.4])
    def test_even_start_rejects_asymmetric_clamp(self, elapsed):
        grid = self.GRIDS["build_grid"]
        cfg = SolverConfig(d_qd=10.0, dt=0.05)
        start = simulate_pump(GEO, cfg, 0.5, grid)
        with pytest.raises(InvariantViolation, match="AsymmetricClamp"):
            _clamped(start, elapsed, DotGeometry(z_center=1.25), 0.5)


class TestDotModes:
    """``_dot_modes`` slices the basis on the dot once: its readout
    vectors and its pump tables must be exactly what slicing the basis
    directly gives, in either parity and for either boundary."""

    GRIDS = TestEvenAxialModes.GRIDS
    DOTS = TestEvenAxialModes.DOTS
    # does not fold onto itself in either grid
    OFF_CENTER = DotGeometry(radius=3.0, height=2.0, z_center=0.5)

    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    @pytest.mark.parametrize("even", [False, True])
    @pytest.mark.parametrize("name", list(GRIDS))
    def test_readout_vectors_are_the_sliced_basis(self, name, even,
                                                  boundary):
        grid = self.GRIDS[name]
        _, q_r, _, q_z, sqrt_r = _eigenbasis(grid, boundary, even)
        for geo in (self.DOTS[name], self.OFF_CENTER):
            rows, cols, _, _ = _dot(grid, geo)
            (ra, rb), _ = _dot_modes(grid, geo, boundary, even)
            np.testing.assert_array_equal(ra,
                                          sqrt_r[rows] @ q_r[rows].copy())
            np.testing.assert_array_equal(rb, q_z[cols].sum(axis=0))

    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    @pytest.mark.parametrize("even", [False, True])
    @pytest.mark.parametrize("name", list(GRIDS))
    def test_pump_tables_match_rederivation(self, name, even, boundary):
        grid, geo = self.GRIDS[name], self.DOTS[name]
        _, q_r, _, q_z, sqrt_r = _eigenbasis(grid, boundary, even)
        rows, cols, _, _ = _dot(grid, geo)
        # an even source is even, so only the dot's columns at or below
        # the mid-plane are unknowns
        cols = [j for j in range(cols.start, cols.stop)
                if not even or 2 * j <= grid.nz - 1]
        a, b = q_r[rows], q_z[cols]
        pairs_r = [(i, k) for i in range(len(a)) for k in range(i, len(a))]
        pairs_z = [(j, l) for j in range(len(b)) for l in range(j, len(b))]

        def position(pairs, n):
            # the pair of (i, k) and of (k, i) is the same table entry
            return np.array([[pairs.index((min(i, k), max(i, k)))
                              for k in range(n)] for i in range(n)])

        want = (a, sqrt_r[rows], b,
                np.array([b[j] * b[l] for j, l in pairs_z]).T,
                np.array([i for i, _ in pairs_r]),
                np.array([k for _, k in pairs_r]),
                position(pairs_r, len(a)), position(pairs_z, len(b)))
        _, rect = _dot_modes(grid, geo, boundary, even)
        assert len(rect) == len(want)
        for got, expect in zip(rect, want):
            assert not got.flags.writeable
            np.testing.assert_array_equal(got, expect)
        assert rect[0].flags.c_contiguous and rect[3].flags.c_contiguous

    @pytest.mark.parametrize("name", list(GRIDS))
    def test_field_at_is_one_transform_out(self, monkeypatch, name):
        grid, geo = self.GRIDS[name], self.DOTS[name]
        cfg = SolverConfig(d_qd=10.0, dt=0.05)
        pumped = simulate_pump(geo, cfg, 0.5, grid)
        free = DarkSampler(pumped.field, cfg)
        calls = []
        from_modes = solver._from_modes

        def counting(coef, basis):
            calls.append(coef.shape)
            return from_modes(coef, basis)

        monkeypatch.setattr(solver, "_from_modes", counting)
        for sampler in (pumped, free):
            calls.clear()
            values = sampler.field_at(1.5).values
            assert calls == [sampler._coef_at(0.0).shape]
            assert values.shape == (grid.nr, grid.nz)


class TestOneThreadProducts:
    """Every matrix product in ``solver`` is an ``np.matmul`` call of at
    most ``_ONE_THREAD_MADDS`` multiply-adds, which OpenBLAS runs on the
    calling thread; the grid <-> mode transforms tile larger products.
    A product that fits in one tile is the single product, bit for bit,
    and a tiled one agrees with it to round-off."""

    PRODUCTION = build_grid(GEO, 0.5, 0.5, extent_factor=20.0)
    # tiles of side 44 over 130 rows and 53 over 90 columns: neither
    # dimension is a multiple of the tile side
    ODD = Grid(nr=130, nz=90, dr=0.5, dz=0.5, z_min=-22.5)
    # the grid of simulate's snapshots on the smallest configs
    SMALL = build_grid(GEO, 1.0, 0.625, extent_factor=5.0)

    @pytest.fixture
    def products(self, monkeypatch):
        """The multiply-adds of each ``np.matmul`` call, as OpenBLAS
        sees it: stacked matrices are multiplied one pair at a time."""
        calls = []
        matmul = np.matmul

        def spy(a, b, *args, **kwargs):
            m = a.shape[-2] if a.ndim > 1 else 1
            n = b.shape[-1] if b.ndim > 1 else 1
            calls.append(m * n * a.shape[-1])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        return calls

    @staticmethod
    def single(basis, coef=None, values=None):
        """One product per factor: the field of ``coef`` or the modes of
        ``values``."""
        _, q_r, _, q_z, sqrt_r = basis
        if coef is not None:
            return q_r @ coef @ q_z.T / sqrt_r[:, None]
        return q_r.T @ (sqrt_r[:, None] * values) @ q_z

    @pytest.mark.parametrize("even", [False, True])
    def test_transforms_tile_every_product(self, products, even):
        g = self.PRODUCTION
        basis = _eigenbasis(g, BoundaryMode.DIRICHLET_ZERO, even)
        ne = basis[3].shape[1]
        rng = np.random.default_rng(11)
        _to_modes(rng.random((g.nr, g.nz)), basis)
        _from_modes(rng.random((g.nr, ne)), basis)
        # the tiles add up to the two whole products in, the first product
        # out and that of its rounding bound; the product against q_z and
        # that of the bound run over the column blocks that hold a column
        # up to the mid-plane: in the even modes the 6 blocks of side
        # isqrt(2**18 // 200) = 36 that cover columns 0-199, and in the
        # full basis all columns
        formed = 6 * 36 if even else g.nz
        assert sum(products) == (g.nr * g.nz * (g.nr + ne)
                                 + 2 * g.nr * ne * (g.nr + formed))
        assert max(products) <= solver._ONE_THREAD_MADDS

    @pytest.mark.parametrize("even", [False, True])
    def test_field_at_and_evolve_stay_under_the_bound(self, products, even):
        g, cfg = self.PRODUCTION, SolverConfig(d_qd=10.0)
        if even:
            sampler = simulate_pump(GEO, cfg, 0.3, g)
            assert sampler._even
            sampler.field_at(1.0)
        else:
            field = PolarizationField(g, g.dot_mask(GEO))
            DarkSampler(field, cfg).field_at(1.0)
            evolve(field, cfg, 0.3)
            evolve(field, cfg, 0.3, clamp=GEO)
        ne = (g.nz + 1) // 2 if even else g.nz
        # at least one whole transform out was seen
        assert sum(products) >= g.nr * g.nz * (g.nr + ne)
        assert max(products) <= solver._ONE_THREAD_MADDS

    @pytest.mark.parametrize("even", [False, True])
    @pytest.mark.parametrize("name", ["ODD", "PRODUCTION"])
    def test_tiles_match_one_product(self, name, even):
        g = getattr(self, name)
        basis = _eigenbasis(g, BoundaryMode.DIRICHLET_ZERO, even)
        ne = basis[3].shape[1]
        rng = np.random.default_rng(12)
        coef, values = rng.random((g.nr, ne)), rng.random((g.nr, g.nz))
        for got, want in ((_from_modes(coef.copy(), basis),
                           self.single(basis, coef=coef)),
                          (_to_modes(values, basis),
                           self.single(basis, values=values))):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("name, even", [("SMALL", True), ("ODD", False),
                                            ("ODD", True)])
    def test_one_tile_is_the_single_product(self, monkeypatch, name, even):
        g = getattr(self, name)
        basis = _eigenbasis(g, BoundaryMode.DIRICHLET_ZERO, even)
        ne = basis[3].shape[1]
        if name == "ODD":
            monkeypatch.setattr(solver, "_ONE_THREAD_MADDS", g.nr ** 2 * g.nz)
        # every product of the two transforms fits in one tile
        assert g.nr * g.nz * max(g.nr, ne) <= solver._ONE_THREAD_MADDS
        rng = np.random.default_rng(13)
        coef, values = rng.random((g.nr, ne)), rng.random((g.nr, g.nz))
        np.testing.assert_array_equal(_from_modes(coef.copy(), basis),
                                      self.single(basis, coef=coef))
        np.testing.assert_array_equal(_to_modes(values, basis),
                                      self.single(basis, values=values))


class TestCertifiedZeros:
    """``_from_modes`` sets a cell to +0.0 where the computed product S =
    q_r c q_z^T is within gamma_n B of 0, B = |q_r| |c| |q_z|^T its
    rounding bound (Higham, sec. 3.5), and leaves every other cell the
    tiled product, bit for bit."""

    PRODUCTION = TestOneThreadProducts.PRODUCTION
    ODD = TestOneThreadProducts.ODD

    @staticmethod
    def unflushed(coef, basis):
        """(S, gamma_n B): the tiled product before the flush and before
        the division by sqrt(r), and its rounding bound, formed here as
        one product per factor."""
        _, q_r, _, q_z, _ = basis
        n = sum(coef.shape) + 1
        gamma = n * 2.0 ** -53 / (1 - n * 2.0 ** -53)
        return (_product(_product(q_r, coef), q_z.T),
                gamma * (np.abs(q_r) @ np.abs(coef) @ np.abs(q_z).T))

    def modes(self, name):
        """(coef, basis): the simulate-slow protocol's pumped state 4 s
        into the dark, in the even modes of the production grid, or a
        narrow Gaussian's modes on the ODD grid, in all its modes."""
        if name == "PRODUCTION":
            sampler = pumped_sampler(2e-15, 0.4, GEO, self.PRODUCTION)
            return sampler._coef_at(4.0), sampler._basis
        basis = _eigenbasis(self.ODD, BoundaryMode.DIRICHLET_ZERO)
        return _to_modes(gaussian_field(self.ODD, 2.0), basis), basis

    @pytest.mark.parametrize("name", ["PRODUCTION", "ODD"])
    def test_only_cells_within_the_bound_are_zeroed(self, name):
        coef, basis = self.modes(name)
        got = _from_modes(coef.copy(), basis)
        s, bound = self.unflushed(coef, basis)
        zero = got == 0
        assert zero.mean() > 0.5
        assert np.all(np.abs(s[zero]) <= bound[zero])
        above = np.abs(s) > bound
        np.testing.assert_array_equal(got[above],
                                      (s / basis[4][:, None])[above])

    # nz = 91: the dot's columns 43-47 are mirror-symmetric about the
    # middle column 45, and the products are tiled (130 x 91 x 46 cells)
    ODD_NZ = Grid(nr=130, nz=91, dr=0.5, dz=0.5, z_min=-22.75)

    @pytest.mark.parametrize("name", ["PRODUCTION", "ODD_NZ"])
    def test_even_field_is_mirror_symmetric(self, name):
        # the even modes' field is formed up to the mid-plane and mirrored:
        # exactly symmetric, and in every cell it forms that is above the
        # bound, the full-width tiled product. Past the mid-plane that
        # product is the mirror to round-off only: OpenBLAS rounds a
        # column by the width of the tile that holds it (here 75 columns
        # against the last tile's 16)
        g = getattr(self, name)
        geo = DotGeometry(radius=5.0, height=2.0)
        sampler = (pumped_sampler(2e-15, 0.4, GEO, g) if name == "PRODUCTION"
                   else simulate_pump(geo, SolverConfig(d_qd=0.5), 0.4, g))
        assert sampler._even
        coef, basis = sampler._coef_at(4.0), sampler._basis
        got = _from_modes(coef.copy(), basis)
        np.testing.assert_array_equal(got[:, ::-1], got)
        s, bound = self.unflushed(coef, basis)
        half = (slice(None), slice(0, (g.nz + 1) // 2))
        got, s, bound = got[half], s[half], bound[half]
        zero = got == 0
        assert 0.3 < zero.mean() < 1
        assert np.all(np.abs(s[zero]) <= bound[zero])
        above = np.abs(s) > bound
        np.testing.assert_array_equal(got[above],
                                      (s / basis[4][:, None])[above])

    def test_a_flushed_cell_is_written_as_0(self, tmp_path):
        g, geo = TestModalPump.SMALL, TestModalPump.DOT
        pumped = simulate_pump(geo, SolverConfig(d_qd=0.01), 0.3, g)
        values = pumped.field.values
        zero = values == 0
        assert zero.any() and not np.signbit(values[zero]).any()
        path = tmp_path / "snap.csv"
        write_snapshots(path, [0.0], g.r_centers, g.z_centers, [values])
        s = [line.rsplit(",", 1)[1] for line in path.read_text().split()[1:]]
        assert s.count("0") == zero.sum()
        assert not any(x.startswith("-") for x in s)

    @pytest.mark.parametrize("boundary", list(BoundaryMode))
    @pytest.mark.parametrize("d", [0.1, 0.01])
    def test_no_farther_from_expm_oracle(self, expm_clamped, d, boundary):
        g, geo = TestModalPump.SMALL, TestModalPump.DOT
        cfg = SolverConfig(d_qd=d, boundary=boundary)
        mask = g.dot_mask(geo)
        want = expm_clamped(mask, g, cfg, 0.3, mask)
        pumped = simulate_pump(geo, cfg, 0.3, g)
        raw = self.unflushed(pumped._coef, pumped._basis)[0]
        raw /= pumped._basis[4][:, None]
        raw[mask] = 1.0
        got = pumped.field.values
        # the semi-discrete field is positive, down to 1e-44 here
        assert want.min() > 0 and (raw < 0).any()
        assert got.min() >= 0
        assert np.abs(got - want).max() <= np.abs(raw - want).max()

    def test_production_snapshots_are_mostly_exact_zeros(self):
        sampler = pumped_sampler(2e-15, 0.4, GEO, self.PRODUCTION)
        for t in (0.0, 4.0):
            values = sampler.field_at(t).values
            assert values.min() >= 0
            assert np.mean(values == 0) > 0.95


class TestPumpAndDark:
    def test_instant_pump_is_dot_indicator(self):
        grid = build_grid(GEO, 0.5, 0.5, extent_factor=5.0)
        field = simulate_pump(GEO, SolverConfig(d_qd=10.0), 0.0,
                              grid).field
        np.testing.assert_array_equal(
            np.unique(field.values), np.array([0.0, 1.0]))
        assert dot_average(field, GEO) == 1.0
        assert total_spin(field) == pytest.approx(np.pi * 100.0 * 5.0,
                                                  rel=1e-12)

    def test_pump_keeps_dot_saturated(self):
        # an exact 1.0 is why the dark series needs no normalization
        grid = build_grid(GEO, 1.0, 0.625, extent_factor=5.0)
        for d_qd, t1 in ((10.0, None), (10.0, 30.0), (0.0, 30.0)):
            cfg = SolverConfig(d_qd=d_qd, dt=0.02, t1_uniform=t1)
            field = simulate_pump(GEO, cfg, 2.0, grid).field
            assert dot_average(field, GEO) == 1.0
            assert field.values.max() == 1.0
            # diffusion, if any, has populated a halo outside the dot
            outside = ~grid.dot_mask(GEO)
            assert (field.values[outside].max() > 0.01) == (d_qd > 0)

    def test_dark_series_sampling(self):
        grid = build_grid(GEO, 1.0, 0.625, extent_factor=5.0)
        cfg = SolverConfig(d_qd=10.0, dt=0.02)
        field = simulate_pump(GEO, cfg, 1.0, grid).field
        series = simulate_dark(field, cfg, 2.0, 0.5, GEO)
        np.testing.assert_allclose(series.t, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert series.y[0] == 1.0
        assert np.all(np.diff(series.y) < 0)

    def test_dark_with_partial_tail_sample(self):
        grid = build_grid(GEO, 1.0, 0.625, extent_factor=5.0)
        cfg = SolverConfig(d_qd=10.0, dt=0.02)
        field = simulate_pump(GEO, cfg, 0.0, grid).field
        series = simulate_dark(field, cfg, 1.3, 0.5, GEO)
        np.testing.assert_allclose(series.t, [0.0, 0.5, 1.0, 1.3])

    @pytest.mark.parametrize("t_dark, every", [(0.3, 0.1), (0.7, 0.1)])
    def test_sample_times_end_exactly_at_t_dark(self, t_dark, every):
        # n * every overshoots t_dark by one ulp on these
        t = dark_sample_times(t_dark, every)
        assert t[-1] == t_dark
        np.testing.assert_array_equal(t[:-1], np.arange(t.size - 1) * every)

    @pytest.mark.parametrize("t_dark, every", [(4.0, 0.2), (0.1, 0.01),
                                               (60.0, 1.0)])
    def test_exact_cadence_sample_times_unchanged(self, t_dark, every):
        n = round(t_dark / every)
        np.testing.assert_array_equal(dark_sample_times(t_dark, every),
                                      np.arange(n + 1) * every)

    @pytest.mark.parametrize("t_dark, every", [
        (1e300, 1.0), (1.0, 1e-300),  # the count overflows np.arange
        (1e12, 1.0),  # 7.28 TiB of sample times
        (MAX_SAMPLES + 1.0, 1.0),
    ])
    def test_too_many_samples_rejected(self, t_dark, every):
        # the count is checked before anything is allocated
        assert MAX_SAMPLES == 2 ** 24
        grid = build_grid(GEO, 1.0, 0.625, extent_factor=5.0)
        field = PolarizationField(grid, np.zeros((grid.nr, grid.nz)))
        for sample in (lambda: dark_sample_times(t_dark, every),
                       lambda: simulate_dark(field, SolverConfig(d_qd=10.0),
                                             t_dark, every, GEO)):
            with pytest.raises(InvariantViolation,
                               match="TooManySamples") as err:
                sample()
            assert f"t_dark = {t_dark} at sample_every = {every}" in \
                str(err.value)

    @pytest.mark.parametrize("d, t1, boundary", [
        (10.0, None, BoundaryMode.DIRICHLET_ZERO),
        (10.0, 0.7, BoundaryMode.DIRICHLET_ZERO),
        (10.0, None, BoundaryMode.REFLECTIVE),
        (0.0, None, BoundaryMode.DIRICHLET_ZERO),
        (0.0, 0.7, BoundaryMode.DIRICHLET_ZERO),
    ])
    def test_any_finite_pump_finishes(self, steady_clamped, d, t1, boundary):
        # no step count to overflow: a 1e300 s pump is the steady state,
        # as a 1e200 s one is, from the unpolarized medium or a field
        g = TestModalPump.SMALL
        geo = TestModalPump.DOT
        cfg = SolverConfig(d_qd=d, t1_uniform=t1, dt=1e-300,
                           boundary=boundary)
        mask = g.dot_mask(geo)
        start = PolarizationField(g, np.random.default_rng(5).random(
            (g.nr, g.nz)))
        if d > 0:
            want = dict.fromkeys(("unpolarized", "field"),
                                 steady_clamped(g, cfg, mask))
        else:  # nothing couples: the halo relaxes or stays
            want = {"unpolarized": np.where(mask, 1.0, 0.0),
                    "field": np.where(mask, 1.0,
                                      0.0 if t1 else start.values)}
        for t in (1e200, 1e300):
            pumped = {"unpolarized": simulate_pump(geo, cfg, t, g).field,
                      "field": evolve(start, cfg, t, clamp=geo)}
            for name, field in pumped.items():
                assert np.all(np.isfinite(field.values))
                assert np.all(field.values[mask] == 1.0)
                assert dot_average(field, geo) == 1.0
                np.testing.assert_allclose(field.values, want[name],
                                           rtol=0, atol=1e-13)

    def test_dot_outside_grid_rejected(self):
        grid = Grid(nr=8, nz=16, dr=1.0, dz=1.0, z_min=-8.0)
        field = PolarizationField(grid, np.zeros((8, 16)))
        with pytest.raises(GeometryMismatch):
            dot_average(field, DotGeometry(radius=20.0, height=5.0))
        # the pump's clamp is checked as well: a dot beyond the grid in r
        # or in z, or one that holds no cell center, is never clamped
        grid = Grid(nr=16, nz=16, dr=1.0, dz=1.0, z_min=-8.0)
        field = PolarizationField(grid, np.zeros((16, 16)))
        for dot in (DotGeometry(radius=30.0, height=5.0),
                    DotGeometry(radius=5.0, height=5.0, z_center=50.0),
                    DotGeometry(radius=0.4, height=5.0)):
            for cfg in (SolverConfig(d_qd=1.0, dt=0.1),
                        SolverConfig(d_qd=0.0, dt=0.1)):
                for duration in (0.5, 0.0):
                    with pytest.raises(GeometryMismatch):
                        evolve(field, cfg, duration, clamp=dot)
                with pytest.raises(GeometryMismatch):
                    step(field, cfg, clamp=dot)
            with pytest.raises(GeometryMismatch):
                grid.dot_mask(dot)

    def test_negative_diffusion_rejected(self):
        with pytest.raises(InvariantViolation):
            SolverConfig(d_qd=-1.0)

    @pytest.mark.parametrize("kwargs, name", [
        ({"t1_uniform": 0.0}, "NonPositiveRelaxationTime"),
        ({"dt": 0.0}, "NonPositiveTimeStep"),
    ])
    def test_non_positive_times_rejected(self, kwargs, name):
        with pytest.raises(InvariantViolation, match=name):
            SolverConfig(d_qd=1.0, **kwargs)

    def test_non_positive_sample_interval_rejected(self):
        with pytest.raises(InvariantViolation,
                           match="NonPositiveSampleInterval"):
            dark_sample_times(1.0, 0.0)

    def test_nan_inputs_rejected(self):
        nan, inf = float("nan"), float("inf")
        for bad in (nan, inf):
            for kwargs in ({"d_qd": bad}, {"d_qd": 1.0, "t1_uniform": bad},
                           {"d_qd": 1.0, "dt": bad}):
                with pytest.raises(InvariantViolation):
                    SolverConfig(**kwargs)
        for kwargs in ({"dr": nan}, {"dr": inf}, {"z_min": nan}):
            grid = {**dict(nr=16, nz=16, dr=1.0, dz=1.0, z_min=-8.0), **kwargs}
            with pytest.raises(InvariantViolation, match=list(kwargs)[0]):
                Grid(**grid)
        for bad in (nan, inf):
            with pytest.raises(InvariantViolation):
                build_grid(GEO, 0.5, 0.5, extent_factor=bad)
