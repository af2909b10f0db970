"""Shared oracle of the clamped pump."""
import numpy as np
import pytest
from scipy.linalg import expm

from spindiff.solver import _axial_coeffs, _radial_coeffs


def tridiagonal(coeffs):
    lo, di, hi = coeffs
    return np.diag(di) + np.diag(lo[1:], -1) + np.diag(hi[:-1], 1)


def clamped_operator(grid, cfg, mask):
    """The halo block of the assembled operator D (A_r x I + I x A_z)
    - 1/T1, with the column of its coupling to the dot at S = 1, as the
    augmented matrix of the clamped system, and the halo's flat mask."""
    a_r = tridiagonal(_radial_coeffs(grid.nr, grid.dr, cfg.boundary))
    a_z = tridiagonal(_axial_coeffs(grid.nz, grid.dz, cfg.boundary))
    # values[i, j] flattens to i * nz + j
    op = cfg.d_qd * (np.kron(a_r, np.eye(grid.nz))
                     + np.kron(np.eye(grid.nr), a_z))
    if cfg.t1_uniform:
        op -= np.eye(len(op)) / cfg.t1_uniform
    halo = ~mask.ravel()
    aug = np.zeros((halo.sum() + 1,) * 2)
    aug[:-1, :-1] = op[np.ix_(halo, halo)]
    aug[:-1, -1] = op[np.ix_(halo, ~halo)].sum(axis=1)
    return aug, halo


def _expm_clamped(values, grid, cfg, duration, mask):
    """Reference pump: the exact solution of the semi-discrete clamped
    system from ``values``, held at S = 1 on ``mask`` for ``duration``,
    as the matrix exponential of the augmented halo block; the dot's
    cells read exactly 1."""
    aug, halo = clamped_operator(grid, cfg, mask)
    y = expm(duration * aug) @ np.append(np.ravel(values)[halo], 1.0)
    out = np.ones(halo.size)
    out[halo] = y[:-1]
    return out.reshape(grid.nr, grid.nz)


@pytest.fixture
def expm_clamped():
    return _expm_clamped


def _steady_clamped(grid, cfg, mask):
    """The steady state of the clamped system, which every pump reaches
    as its duration grows: the halo block solved against its coupling
    to the dot."""
    aug, halo = clamped_operator(grid, cfg, mask)
    out = np.ones(halo.size)
    out[halo] = np.linalg.solve(aug[:-1, :-1], -aug[:-1, -1])
    return out.reshape(grid.nr, grid.nz)


@pytest.fixture
def steady_clamped():
    return _steady_clamped
