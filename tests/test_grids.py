"""Grid coordinates without a mesh: per-axis sums by broadcasting and grid
callables evaluated on chunks of rows, against the coordinate-mesh forms."""

from dataclasses import replace

import numpy as np
import pytest

from choquard import (BallRegion, GridSpec, PotentialSpec, ProblemConfig, SolverOptions,
                      build_penalized_context, clipped_quadratic_V, sine_A)
from choquard import config, operators, sampling, solver
from choquard.grids import CHUNK_POINTS, axis_sum


@pytest.mark.parametrize("dim, M", [(1, 6000), (2, 96), (3, 24), (3, 32), (3, 80)],
                         ids=["1d-two-chunks", "2d-ragged", "3d-ragged", "3d-even",
                              "3d-row-per-chunk"])
def test_chunks_are_the_mesh_rows_in_order(dim, M):
    grid = GridSpec(L=5.0, M=M, dim=dim)
    mesh, row = grid.mesh(), M ** (dim - 1)
    start = 0
    for rows, x in grid.chunks():
        assert rows.start == start and rows.stop > start
        assert x.size // dim <= max(CHUNK_POINTS, row)
        np.testing.assert_array_equal(x, mesh[rows])
        start = rows.stop
    assert start == M


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_axis_sum_matches_the_mesh_sum(dim):
    # the same additions in the same order as np.sum over a mesh's last axis
    rng = np.random.default_rng(dim)
    terms = [rng.normal(size=9 + a) * 10.0 ** rng.integers(-8, 8, size=9 + a)
             for a in range(dim)]
    mesh = np.stack(np.meshgrid(*terms, indexing="ij"), axis=-1)
    np.testing.assert_array_equal(axis_sum([t ** 2 for t in terms]),
                                  np.sum(mesh ** 2, axis=-1))


@pytest.mark.parametrize("dim, M", [(1, 64), (2, 24), (3, 16)], ids=["1d", "2d", "3d"])
def test_broadcast_radii_and_wavenumbers_match_the_meshgrid_forms(dim, M):
    grid = GridSpec(L=7.0, M=M, dim=dim)
    xi = grid.wavenumbers()
    ks = np.meshgrid(*([xi] * (dim - 1) + [xi[:M // 2 + 1]]), indexing="ij")
    np.testing.assert_array_equal(grid.wavenumber_mesh_sq(), sum(k ** 2 for k in ks))
    for offsets, h in ((np.arange(-M, M), grid.h), (np.arange(-3, 4), 1.0),
                       (((np.arange(M) + M // 2) % M) - M // 2, 0.3)):
        axes = np.meshgrid(*([offsets * h] * dim), indexing="ij")
        np.testing.assert_array_equal(operators.offset_radii(offsets, h, dim),
                                      np.sqrt(sum(a ** 2 for a in axes)))


@pytest.mark.parametrize("dim, M", [(1, 64), (2, 24), (3, 16)], ids=["1d", "2d", "3d"])
def test_window_and_gaussians_match_the_mesh_formulas(dim, M):
    grid = GridSpec(L=7.0, M=M, dim=dim)
    mesh = grid.mesh()
    window = np.exp(-np.sum((mesh / (0.6 * grid.L)) ** 8, axis=-1))
    inner = (slice(1, M - 1),) * dim
    np.testing.assert_array_equal(sampling._window(grid)[inner], window[inner])
    region = np.sum((mesh - 0.4) ** 2, axis=-1) < 2.5 ** 2
    pts = mesh[region]
    width = max(float(np.min(pts.max(axis=0) - pts.min(axis=0))) / 6.0, 2 * grid.h)
    for center, w, got in ((0.0, 1.3, sampling._gaussian(grid, 0.0, width=1.3)),
                           (mesh[(2,) * dim], 1.0, sampling._gaussian(grid, mesh[(2,) * dim])),
                           (pts.mean(axis=0), width, sampling._gaussian(grid, region=region))):
        np.testing.assert_array_equal(
            got, np.exp(-np.sum((mesh - center) ** 2, axis=-1) / (2 * w ** 2)))


def test_grid_callables_build_no_mesh(monkeypatch):
    # V, the region and A are read on chunks; the window, the Gaussians, the
    # start's tie-break radius, the kernel radii and |xi|^2 are per-axis sums
    grid = GridSpec(L=12.0, M=32, dim=3)
    cfg = ProblemConfig(dim=3, s=0.75, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=sine_A(0.5, 4.0, 3),
                        region=BallRegion((0.0, 0.0, 0.0), 1.0))
    ctx = build_penalized_context(cfg, replace(pot, A=None), grid)
    sampling._window.cache_clear()

    def refused(*args, **kwargs):
        raise AssertionError("a coordinate mesh was built")
    monkeypatch.setattr(GridSpec, "mesh", refused)
    monkeypatch.setattr(GridSpec, "points", refused)
    config.sampled_well(pot, cfg.eps, grid)
    assert operators.magnetic_on(pot.A_eps(cfg.eps), grid)
    sampling._window(grid)
    sampling._gaussian(grid, 0.0)
    sampling._gaussian(grid, region=ctx.lambda_mask)
    solver._default_start(ctx, SolverOptions(seed=1))
    operators.offset_radii(np.arange(-4, 4), grid.h, 3)
    grid.wavenumber_mesh_sq()
