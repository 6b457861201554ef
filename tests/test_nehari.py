import importlib

import numpy as np
import pytest

from choquard import Field, NehariError, nehari_project, nehari_residual
from choquard.sampling import band_limited_field, bump_in_region

from conftest import nehari_closed_form


def region_supported_field(ctx, seed):
    """Random smooth field hard-supported inside the blown-up region."""
    rng = np.random.default_rng(seed)
    noise = band_limited_field(ctx.grid, rng, complex_valued=False)
    bump = bump_in_region(ctx.grid, ctx.lambda_mask)
    vals = bump.values * (1.0 + 0.3 * noise.values)
    return Field(np.where(ctx.lambda_mask, vals, 0.0), ctx.grid)


def test_bisection_matches_closed_form(plain_ctx):
    ctx, _, _ = plain_ctx
    for seed in range(6):
        u = region_supported_field(ctx, seed)
        t_b = nehari_project(u, ctx)
        t_a = nehari_closed_form(u, ctx)
        assert t_b == pytest.approx(t_a, rel=1e-10)


def test_fixed_point_on_manifold(plain_ctx):
    ctx, _, _ = plain_ctx
    u = region_supported_field(ctx, 12)
    t1 = nehari_project(u, ctx)
    w = Field(t1 * u.values, ctx.grid)
    assert nehari_project(w, ctx) == pytest.approx(1.0, abs=1e-10)


def test_ray_invariance_under_scaling(plain_ctx):
    ctx, _, _ = plain_ctx
    u = region_supported_field(ctx, 21)
    t1 = nehari_project(u, ctx)
    t2 = nehari_project(Field(2.0 * u.values, ctx.grid), ctx)
    assert 2.0 * t2 == pytest.approx(t1, rel=1e-10)


def test_residual_small_at_projection(magnetic_ctx):
    ctx, _, u0 = magnetic_ctx
    t = nehari_project(u0, ctx)
    w = Field(t * u0.values, ctx.grid)
    n2 = ctx.norm_eps_sq(w.values)
    assert abs(nehari_residual(w, ctx)) < 1e-8 * n2


def test_zero_field_rejected(plain_ctx):
    ctx, _, _ = plain_ctx
    with pytest.raises(NehariError):
        nehari_project(Field(np.zeros(ctx.grid.shape), ctx.grid), ctx)


def test_no_nehari_point_on_degenerate_ray(plain_ctx):
    # amplitudes so small the Hartree pairing underflows to exactly zero:
    # the closed form has no finite t
    ctx, _, _ = plain_ctx
    u = Field(1e-80 * np.exp(-ctx.grid.axis() ** 2), ctx.grid)
    with pytest.raises(NehariError, match="ray has no Nehari point"):
        nehari_project(u, ctx)


def count_convolutions(monkeypatch):
    energy_mod = importlib.import_module("choquard.energy")  # not the function
    calls = []
    convolve = energy_mod.riesz_convolve

    def counted(h, cache):
        calls.append(1)
        return convolve(h, cache)
    monkeypatch.setattr(energy_mod, "riesz_convolve", counted)
    return calls


def test_inactive_truncation_takes_one_convolution(plain_ctx, monkeypatch):
    ctx, _, _ = plain_ctx
    u = region_supported_field(ctx, 5)
    calls = count_convolutions(monkeypatch)
    nehari_project(u, ctx)
    assert len(calls) == 1


@pytest.mark.parametrize("width", [2.0, 5.0, 9.0])
def test_truncated_ray_bisects_between_closed_form_bounds(plain_ctx, monkeypatch, width):
    # wide Gaussians put mass outside the region above the threshold a at
    # the closed-form t, so the truncation is active along the ray
    ctx, _, _ = plain_ctx
    u = Field(np.exp(-ctx.grid.axis() ** 2 / (2 * width ** 2)), ctx.grid)
    t_lower = nehari_closed_form(u, ctx)
    outside = ~ctx.lambda_mask
    assert np.max(t_lower ** 2 * np.abs(u.values[outside]) ** 2) > ctx.pen.a
    calls = count_convolutions(monkeypatch)
    t = nehari_project(u, ctx)
    assert len(calls) > 2
    assert t >= t_lower
    w = Field(t * u.values, ctx.grid)
    assert abs(nehari_residual(w, ctx)) <= 1e-10 * ctx.norm_eps_sq(w.values)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_norm_rejected(plain_ctx, bad):
    ctx, _, u0 = plain_ctx
    Lu = ctx.apply_op(u0.values)
    Lu[u0.argmax_index()] = bad
    with pytest.raises(NehariError):
        nehari_project(u0, ctx, Lu=Lu)
