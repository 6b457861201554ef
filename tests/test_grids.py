"""Grid coordinates without a mesh: per-axis sums by broadcasting and grid
callables evaluated on chunks of rows, against the coordinate-mesh forms."""

from dataclasses import replace
from random import Random

import numpy as np
import pytest

from choquard import (BallRegion, GridSpec, PotentialSpec, ProblemConfig, SolverOptions,
                      build_penalized_context, clipped_quadratic_V, constant_A, sine_A)
from choquard import config, operators, sampling, solver
from choquard.grids import CHUNK_POINTS, axis_sum

from conftest import mesh_window


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


@pytest.mark.parametrize("dim, M, tol", [(1, 64, 0.0), (2, 24, 1e-14), (3, 16, 1e-14)],
                         ids=["1d", "2d", "3d"])
def test_window_and_gaussians_match_the_mesh_formulas(dim, M, tol):
    # the window is the product of its per-axis factors: the mesh formula's
    # bits in 1-D, within roundoff of them elsewhere, and exact zeros on the
    # outermost layer
    grid = GridSpec(L=7.0, M=M, dim=dim)
    mesh = grid.mesh()
    window = mesh_window(grid)
    product = np.prod(np.meshgrid(*([sampling._window_factor(grid)] * dim), indexing="ij"),
                      axis=0)
    assert np.max(np.abs(product - window)) <= tol * np.max(window)
    inner = (slice(1, M - 1),) * dim
    assert np.all(product[inner] > 0) and np.sum(product == 0) == M ** dim - (M - 2) ** dim
    region = np.sum((mesh - 0.4) ** 2, axis=-1) < 2.5 ** 2
    pts = mesh[region]
    width = max(float(np.min(pts.max(axis=0) - pts.min(axis=0))) / 6.0, 2 * grid.h)
    for center, w, got in ((mesh[(2,) * dim], 1.0, sampling._gaussian(grid, mesh[(2,) * dim])),
                           (pts.mean(axis=0), width, sampling._gaussian(grid, region=region))):
        np.testing.assert_array_equal(
            got, np.exp(-np.sum((mesh - center) ** 2, axis=-1) / (2 * w ** 2)))


def test_grid_callables_build_no_mesh(monkeypatch):
    # V, the region and A are read on chunks; the window's factors, the
    # Gaussians, the start's tie-break radius, the plane wave of A(0), the
    # kernel radii and |xi|^2 are per-axis terms
    grid = GridSpec(L=12.0, M=32, dim=3)
    cfg = ProblemConfig(dim=3, s=0.75, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=sine_A(0.5, 4.0, 3),
                        region=BallRegion((0.0, 0.0, 0.0), 1.0))
    ctx = build_penalized_context(cfg, replace(pot, A=None), grid)
    # a constant A: the operator's pair tables are built here, with a mesh
    small = GridSpec(L=3.0, M=8, dim=3)
    ctx_a = build_penalized_context(cfg, replace(pot, A=constant_A([0.3, -0.2, 0.25])), small)

    def refused(*args, **kwargs):
        raise AssertionError("a coordinate mesh was built")
    monkeypatch.setattr(GridSpec, "mesh", refused)
    monkeypatch.setattr(GridSpec, "points", refused)
    config.sampled_well(pot, cfg.eps, grid)
    assert operators.magnetic_on(pot.A_eps(cfg.eps), grid)
    sampling.band_limited_field(grid, Random(0))
    ctx_a.a0_plane_wave(np.ones(small.shape))
    sampling._gaussian(grid, 0.0)
    sampling._gaussian(grid, region=ctx.lambda_mask)
    solver._default_start(ctx, SolverOptions(seed=1))
    operators.offset_radii(np.arange(-4, 4), grid.h, 3)
    grid.wavenumber_mesh_sq()


@pytest.mark.parametrize("dim, M", [(1, 64), (2, 16), (3, 8)], ids=["1d", "2d", "3d"])
def test_a0_plane_wave_matches_the_tensordot_form(dim, M):
    # a constant A is nonzero at the origin: the phase A(0).x from per-axis
    # terms, against its contraction with the coordinate mesh
    grid = GridSpec(L=3.0, M=M, dim=dim)
    cfg = ProblemConfig(dim=dim, s=0.75, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    A0 = np.array([0.3, -0.2, 0.25][:dim])
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=constant_A(A0),
                        region=BallRegion((0.0,) * dim, 1.0))
    ctx = build_penalized_context(cfg, pot, grid)
    assert ctx.op.A is not None
    vals = np.random.default_rng(dim).normal(size=grid.shape)
    ref = vals * np.exp(1j * np.tensordot(grid.mesh(), A0, axes=([-1], [0])))
    assert np.max(np.abs(ctx.a0_plane_wave(vals) - ref)) <= 1e-15 * np.max(np.abs(vals))
