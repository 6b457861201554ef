"""Seeded random test fields: band-limited noise, bumps, and shell samples."""

from __future__ import annotations

import numpy as np

from ._fft import ifftn
from .grids import Field, GridSpec, axis_sum


def _window_factor(grid: GridSpec) -> np.ndarray:
    """One axis's factor exp(-(x/0.6L)^8) of the sample window
    exp(-sum (x/0.6L)^8), zero at both ends: the window is the product of the
    factors of its axes, so it is zero on the grid's outermost layer, which
    keeps zero-extension identities exact."""
    w = np.exp(-(grid.axis() / (0.6 * grid.L)) ** 8)
    w[[0, -1]] = 0.0
    return w


def draw_modes(grid: GridSpec, rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 12 modes of each of n fields from one batch of uniforms on [0, 1),
    `rng.random()` (a `random.Random`), N + 2 per mode, field after field:
    wavenumbers floor(u (2 top + 1)) - top, uniform on [-top, top]^N with
    top = max(2, M/8), as indices mod M, (n, 12, N), and standard complex
    normal coefficients by Box-Muller, sqrt(-2 log(1 - u1)) e^(2 pi i u2),
    (n, 12). Drawing n fields at once draws what n single draws would."""
    top, N = max(2, grid.M // 8), grid.dim
    u = np.array([rng.random() for _ in range(n * 12 * (N + 2))]).reshape(n, 12, N + 2)
    # u < 1, so the floor is at most 2 top
    k = (np.floor(u[..., :N] * (2 * top + 1)).astype(int) - top) % grid.M
    return k, np.sqrt(-2.0 * np.log1p(-u[..., N])) * np.exp(2j * np.pi * u[..., N + 1])


def band_limited_field(grid: GridSpec, draws, *, complex_valued: bool = True):
    """Random superposition of 12 Fourier modes, windowed so the samples
    vanish toward the box boundary (smooth decaying test fields), with sup
    norm 1 (a zero draw stays zero). `draws` is a `random.Random`, from which
    one field is drawn and returned as a Field, or the modes (k, c) of n
    fields from `draw_modes`, whose fields are returned stacked,
    (n,) + grid.shape.

    The sum is the inverse transform of the coefficients: the leading axes
    are summed directly, each mode as a product of one-axis plane waves, into
    the column of its last-axis wavenumber (one scatter per mode slot for all
    n fields), and one batched 1-D inverse transform sums the last axis. The
    window is a product of one factor per axis (`_window_factor`): each
    leading axis's factor multiplies that axis's plane waves, and the last
    axis's factor the transformed values, so no grid-sized window is built."""
    single = not isinstance(draws, tuple)
    k, c = draw_modes(grid, draws, 1) if single else draws
    M, n = grid.M, len(c)
    roots = np.exp(2j * np.pi * np.arange(M) / M)  # e^{2 pi i m / M}
    window = _window_factor(grid)
    cols = np.zeros((n,) + grid.shape, dtype=complex)
    for j in range(12):
        wave = c[:, j]
        for a in range(grid.dim - 1):
            factor = roots[np.outer(k[:, j, a], np.arange(M)) % M] * window
            wave = wave[..., None] * factor.reshape((n,) + (1,) * a + (M,))
        cols[np.arange(n), ..., k[:, j, -1]] += wave
    vals = ifftn(cols, axes=(-1,))
    del cols  # from here about two group-sized arrays at the peak
    vals = (vals if complex_valued else vals.real) * M
    vals *= window
    nrm = np.max(np.abs(vals), axis=tuple(range(1, grid.dim + 1)))
    vals /= np.where(nrm > 0, nrm, 1.0).reshape((n,) + (1,) * grid.dim)
    return Field(vals[0], grid) if single else vals


def _gaussian(grid: GridSpec, center=None, region: np.ndarray | None = None) -> np.ndarray:
    """exp(-|x - center|^2 / (2 w^2)) on the grid, w = 1. With a `region`
    mask, w = max(the region's narrowest extent / 6, 2h) instead, and a
    `center` of None is the region's centroid."""
    ax = grid.axis()
    width = 1.0
    if region is not None:
        # the region's points as mesh()[region] has them, (n, N) in C order
        # (np.argwhere's transposed layout would sum the centroid differently)
        pts = ax[np.stack(np.nonzero(region), axis=-1)]
        extent = float(np.min(pts.max(axis=0) - pts.min(axis=0))) if pts.size else 0.0
        width = max(extent / 6.0, 2 * grid.h)
        if center is None:
            center = pts.mean(axis=0)
    center = np.broadcast_to(center, (grid.dim,))
    return np.exp(-axis_sum([(ax - c) ** 2 for c in center]) / (2 * width ** 2))


def gaussian_bump(grid: GridSpec) -> Field:
    """Real Gaussian of unit height and unit width centred at the origin."""
    return Field(_gaussian(grid, 0.0), grid)


def bump_in_region(grid: GridSpec, mask: np.ndarray) -> Field:
    """Gaussian bump supported (to machine precision) inside the masked region:
    centered at the region centroid, hard-masked to the region."""
    return Field(np.where(mask, _gaussian(grid, region=mask), 0.0), grid)
