"""Seeded random test fields: band-limited noise, bumps, and shell samples."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._fft import ifftn
from .grids import Field, GridSpec


@lru_cache(maxsize=4)
def _window(grid: GridSpec) -> np.ndarray:
    """exp(-sum (x/0.6L)^8) on the grid, built once per grid and read-only."""
    w = np.exp(-np.sum((grid.mesh() / (0.6 * grid.L)) ** 8, axis=-1))
    # exact zeros on the outermost layer keep zero-extension identities exact
    for a in range(grid.dim):
        sl = [slice(None)] * grid.dim
        sl[a] = 0
        w[tuple(sl)] = 0.0
        sl[a] = grid.M - 1
        w[tuple(sl)] = 0.0
    w.setflags(write=False)
    return w


@lru_cache(maxsize=4)
def _unit_roots(M: int) -> np.ndarray:
    """e^{2 pi i m / M} for m = 0 .. M-1, built once per M and read-only."""
    r = np.exp(2j * np.pi * np.arange(M) / M)
    r.setflags(write=False)
    return r


def band_limited_field(grid: GridSpec, rng: np.random.Generator, *,
                       complex_valued: bool = True) -> Field:
    """Random superposition of 12 Fourier modes up to max(2, M/8), windowed
    so the samples vanish toward the box boundary (smooth decaying test
    fields).

    The sum is the inverse transform of the 12 coefficients: the leading axes
    are summed directly, each mode as a product of one-axis plane waves, into
    the column of its last-axis wavenumber, and one batched 1-D inverse
    transform sums the last axis (in 1-D, exactly the full transform)."""
    M = grid.M
    max_mode = max(2, M // 8)
    roots, n = _unit_roots(M), np.arange(M)
    cols = np.zeros(grid.shape, dtype=complex)
    for _ in range(12):
        k = [int(rng.integers(-max_mode, max_mode + 1)) % M for _ in range(grid.dim)]
        c = rng.normal() + 1j * rng.normal()
        for ka in reversed(k[:-1]):
            c = np.multiply.outer(roots[ka * n % M], c)
        cols[..., k[-1]] += c
    vals = ifftn(cols, axes=(-1,)) * M
    if not complex_valued:
        vals = np.real(vals)
    vals = vals * _window(grid)
    nrm = np.max(np.abs(vals))
    if nrm > 0:
        vals = vals / nrm
    return Field(vals, grid)


def _gaussian(grid: GridSpec, center=None, region: np.ndarray | None = None,
              width: float = 1.0) -> np.ndarray:
    """exp(-|x - center|^2 / (2 w^2)) on the grid, w = `width`. With a
    `region` mask, w = max(the region's narrowest extent / 6, 2h) instead,
    and a `center` of None is the region's centroid."""
    mesh = grid.mesh()
    if region is not None:
        pts = mesh[region]
        extent = float(np.min(pts.max(axis=0) - pts.min(axis=0))) if pts.size else 0.0
        width = max(extent / 6.0, 2 * grid.h)
        if center is None:
            center = pts.mean(axis=0)
    return np.exp(-np.sum((mesh - center) ** 2, axis=-1) / (2 * width ** 2))


def gaussian_bump(grid: GridSpec, width: float = 1.0) -> Field:
    """Real Gaussian of unit height centred at the origin."""
    return Field(_gaussian(grid, 0.0, width=width), grid)


def bump_in_region(grid: GridSpec, mask: np.ndarray) -> Field:
    """Gaussian bump supported (to machine precision) inside the masked region:
    centered at the region centroid, hard-masked to the region."""
    return Field(np.where(mask, _gaussian(grid, region=mask), 0.0), grid)
