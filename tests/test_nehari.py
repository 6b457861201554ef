from dataclasses import replace

import numpy as np
import pytest

import choquard.energy as energy_mod
from choquard import (BallRegion, Field, GridSpec, NehariError, PotentialSpec,
                      ProblemConfig, build_penalized_context, calibrate_penalization,
                      energy_terms, energy_value, gradient, nehari_project,
                      nehari_residual, riesz_convolve, validate_config)
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
        t_b = nehari_project(u, ctx).t
        t_a = nehari_closed_form(u, ctx)
        assert t_b == pytest.approx(t_a, rel=1e-10)


def test_fixed_point_on_manifold(plain_ctx):
    ctx, _, _ = plain_ctx
    u = region_supported_field(ctx, 12)
    t1 = nehari_project(u, ctx).t
    w = Field(t1 * u.values, ctx.grid)
    assert nehari_project(w, ctx).t == pytest.approx(1.0, abs=1e-10)


def test_ray_invariance_under_scaling(plain_ctx):
    ctx, _, _ = plain_ctx
    u = region_supported_field(ctx, 21)
    t1 = nehari_project(u, ctx).t
    t2 = nehari_project(Field(2.0 * u.values, ctx.grid), ctx).t
    assert 2.0 * t2 == pytest.approx(t1, rel=1e-10)


def test_residual_small_at_projection(magnetic_ctx):
    ctx, _, u0 = magnetic_ctx
    t = nehari_project(u0, ctx).t
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


@pytest.fixture(scope="module")
def twin_well_ray():
    """ROADMAP item 14's twin wells on paper1d's grid at eps = 1/8, calibrated
    at seed 7, and a bump in the twin well at 3/eps: its largest value on the
    region Lambda/eps is 3.5e-57, so the region alone pairs to zero."""
    grid = GridSpec(L=64.0, M=1024, dim=1)
    cfg = ProblemConfig(dim=1, s=0.75, mu=0.5, q=4.0, eps=0.125, V0=1.0)

    def V(p):
        x = np.asarray(p)[..., 0]
        return 1.0 + np.minimum(np.minimum(x ** 2, (x - 3.0) ** 2), 4.0)
    pot = PotentialSpec(V=V, A=None, region=BallRegion((0.0,), 1.0))
    assert validate_config(cfg, pot, grid).ok
    ctx = build_penalized_context(cfg, pot, grid)
    ctx = replace(ctx, pen=calibrate_penalization(ctx, seed=7).pen)
    u = Field(np.exp(-(grid.axis() - 3.0 / cfg.eps) ** 2 / 2), grid)
    assert 0 < np.max(u.values[ctx.lambda_mask]) < 1e-56
    return ctx, u


def test_twin_well_ray_is_bracketed_by_doubling(twin_well_ray, monkeypatch):
    # the truncated G grows linearly past a, so the pairing on this ray
    # crosses ||u||^2 (one doubling of t_lo = 1.0915 brackets it), and the
    # root is the literal bisection's
    ctx, u = twin_well_ray
    brackets = record_brackets(monkeypatch)
    t, K, J = nehari_project(u, ctx)
    t_lower = nehari_closed_form(u, ctx)
    assert np.max(t_lower ** 2 * np.abs(u.values[~ctx.lambda_mask]) ** 2) > ctx.pen.a
    [(lo, hi, _)] = brackets
    assert lo == pytest.approx(t_lower, rel=1e-12) and hi >= 2.0 * lo
    assert t == pytest.approx(1.1460, abs=1e-4)
    assert t == pytest.approx(literal_bisection(u, ctx, t_lower), rel=1e-11)
    w = Field(t * u.values, ctx.grid)
    n2 = ctx.norm_eps_sq(w.values)
    assert abs(nehari_residual(w, ctx, K=K)) < 1e-10 * n2
    assert J == pytest.approx(energy_value(w, ctx), rel=1e-12)


def test_twin_well_ray_past_the_doubling_cap_has_no_point(twin_well_ray, monkeypatch):
    ctx, u = twin_well_ray
    monkeypatch.setattr(energy_mod, "NEHARI_BRACKET_DOUBLINGS", 0)
    with pytest.raises(NehariError, match="^ray has no Nehari point$"):
        nehari_project(u, ctx)


def record_brackets(monkeypatch):
    """The (lo, hi, f_hi) of every `root_decreasing` call; each call checks
    that f_hi is the pairing at hi."""
    brackets = []
    root = energy_mod.root_decreasing

    def recorded(fn, lo, hi, f_hi):
        brackets.append((lo, hi, f_hi))
        t = root(fn, lo, hi, f_hi)
        with monkeypatch.context() as m:
            m.setattr(energy_mod, "riesz_convolve", riesz_convolve)
            assert f_hi == fn(hi) < 0
        return t
    monkeypatch.setattr(energy_mod, "root_decreasing", recorded)
    return brackets


def count_convolutions(monkeypatch):
    calls = []
    convolve = energy_mod.riesz_convolve

    def counted(h, cache, out=None):
        calls.append(1)
        return convolve(h, cache, out)
    monkeypatch.setattr(energy_mod, "riesz_convolve", counted)
    return calls


@pytest.fixture(scope="module")
def solve3d_start():
    """solve3d's config and grid calibrated at seed 7, and its default start,
    whose projection takes the truncated branch."""
    from choquard import SolverOptions, clipped_quadratic_V
    from choquard.solver import _default_start
    grid = GridSpec(L=12.0, M=32, dim=3)
    cfg = ProblemConfig(dim=3, s=0.75, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                        region=BallRegion((0.0, 0.0, 0.0), 1.0))
    ctx = build_penalized_context(cfg, pot, grid)
    ctx = replace(ctx, pen=calibrate_penalization(ctx, seed=7).pen)
    return ctx, _default_start(ctx, SolverOptions(seed=7))


def test_truncated_projection_peaks_within_the_closed_form_budget(solve3d_start,
                                                                  monkeypatch):
    # t^2 |u|^2 is not held across a convolution and the pairing array goes
    # once it is summed, so the projection peaks about 4.1 field sizes above
    # its entry, above a closed-form trial's 3.6 (5.07 with t^2 |u|^2 bound,
    # 5.14 with the pairing array kept)
    from conftest import traced_peak
    ctx, start = solve3d_start
    Lu = ctx.apply_op(start.values)
    calls = count_convolutions(monkeypatch)
    nehari_project(start, ctx, Lu=Lu)
    assert len(calls) > 2
    assert traced_peak(lambda: nehari_project(start, ctx, Lu=Lu), 8 * ctx.grid.size) <= 4.5


def test_closed_form_projection_convolves_into_F(solve3d_start, monkeypatch):
    # F(|u|^2)'s last reader is the forward transform, so the convolution is
    # written into its storage: 3.57 field sizes above the entry, 4.07 with
    # F held through the inverse transform
    from conftest import traced_peak
    ctx, start = solve3d_start
    ctx = replace(ctx, pen=None)
    Lu = ctx.apply_op(start.values)
    calls = count_convolutions(monkeypatch)
    nehari_project(start, ctx, Lu=Lu)
    assert len(calls) == 1
    assert traced_peak(lambda: nehari_project(start, ctx, Lu=Lu), 8 * ctx.grid.size) < 3.8


def test_solve3d_start_is_bracketed_by_doubling(solve3d_start, monkeypatch):
    # the root search runs between the closed-form lower bound and its first
    # doubling, takes the pairing at the doubling from the bracket loop, and
    # lands on the literal bisection's root: 13 convolutions (the closed form,
    # the doubling, 10 pairings of the root search, the potential at the
    # root), 14 when the root search evaluates its upper end again
    ctx, start = solve3d_start
    brackets = record_brackets(monkeypatch)
    calls = count_convolutions(monkeypatch)
    t = nehari_project(start, ctx).t
    assert len(calls) <= 13
    t_lower = nehari_closed_form(start, ctx)
    assert np.max(t_lower ** 2 * np.abs(start.values[~ctx.lambda_mask]) ** 2) > ctx.pen.a
    [(lo, hi, _)] = brackets
    assert lo == pytest.approx(t_lower, rel=1e-12) and hi == 2.0 * lo
    assert t == pytest.approx(literal_bisection(start, ctx, t_lower), rel=1e-11)


def test_inactive_truncation_takes_one_convolution(plain_ctx, monkeypatch):
    ctx, _, _ = plain_ctx
    u = region_supported_field(ctx, 5)
    calls = count_convolutions(monkeypatch)
    nehari_project(u, ctx)
    assert len(calls) == 1


@pytest.mark.parametrize("width", [2.0, 5.0, 9.0])
def test_truncated_ray_root_lies_above_the_closed_form_bound(plain_ctx, monkeypatch, width):
    # wide Gaussians put mass outside the region above the threshold a at
    # the closed-form t, so the truncation is active along the ray, and the
    # root lies above that t
    ctx, _, _ = plain_ctx
    u = Field(np.exp(-ctx.grid.axis() ** 2 / (2 * width ** 2)), ctx.grid)
    t_lower = nehari_closed_form(u, ctx)
    outside = ~ctx.lambda_mask
    assert np.max(t_lower ** 2 * np.abs(u.values[outside]) ** 2) > ctx.pen.a
    calls = count_convolutions(monkeypatch)
    t = nehari_project(u, ctx).t
    assert 2 < len(calls) <= 15
    assert t >= t_lower
    w = Field(t * u.values, ctx.grid)
    assert abs(nehari_residual(w, ctx)) <= 1e-10 * ctx.norm_eps_sq(w.values)
    assert t == pytest.approx(literal_bisection(u, ctx, t_lower), rel=1e-11)


def literal_bisection(u, ctx, lo):
    """Root of the pairing over t^2 along the ray of u, bracketed by doubling
    from `lo` and halved 60 times."""
    density = np.abs(u.values) ** 2
    n2 = ctx.norm_eps_sq(u.values)

    def phi(t):
        w = t * t * density
        K = riesz_convolve(ctx.G_of(w), ctx.hartree)
        return n2 - np.sum(K * ctx.g_of(w) * density) * ctx.grid.cell_volume()
    hi = 2.0 * lo
    while phi(hi) > 0:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if phi(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_root_at_an_end_is_not_evaluated_again():
    # lo = 1 is the root to roundoff: the secant point rounds onto it, and is
    # moved half the stopping width inside instead of evaluated again
    from choquard.energy import ROOT_REL_TOL, root_decreasing
    points = []

    def fn(t):
        points.append(t)
        return 1e-17 if t <= 1.0 else 1.0 - t
    root = root_decreasing(fn, 1.0, 2.0, fn(2.0))
    assert len(set(points)) == len(points) <= 4
    assert 1.0 < root < 1.0 + ROOT_REL_TOL


@pytest.mark.parametrize("f_lo, f_hi, end", [(0.0, -1.0, "lo"), (-1.0, -1.0, "lo"),
                                              (1.0, 0.0, "hi"), (1.0, 2.0, "hi")])
def test_root_at_a_crossed_end_is_that_end(f_lo, f_hi, end):
    # fn(lo) <= 0 returns lo, and a given f_hi >= 0 returns hi, after one
    # evaluation, at lo
    from choquard.energy import root_decreasing
    points = []

    def fn(t):
        points.append(t)
        return f_lo
    assert root_decreasing(fn, 1.0, 2.0, f_hi) == {"lo": 1.0, "hi": 2.0}[end]
    assert points == [1.0]


def ray_field(ctx, u0, branch):
    """u0, the canonical bump (truncation inactive at its Nehari point), or a
    wide Gaussian that carries mass above the threshold outside the region."""
    if branch == "closed_form":
        u = u0
    else:
        u = Field(np.exp(-ctx.grid.axis() ** 2 / (2 * 5.0 ** 2)), ctx.grid)
    t_lower = nehari_closed_form(u, ctx)
    active = np.any(t_lower ** 2 * np.abs(u.values[~ctx.lambda_mask]) ** 2 > ctx.pen.a)
    assert active == (branch == "truncated")
    return u


@pytest.mark.parametrize("branch", ["closed_form", "truncated"])
@pytest.mark.parametrize("which", ["plain_ctx", "magnetic_ctx"])
def test_projection_returns_hartree_potential_of_projected_point(request, which, branch):
    ctx, _, u0 = request.getfixturevalue(which)
    u = ray_field(ctx, u0, branch)
    ray = nehari_project(u, ctx)
    w = Field(ray.t * u.values, ctx.grid)
    K = ctx.hartree_potential(np.abs(w.values) ** 2)
    assert np.max(np.abs(ray.K - K)) <= 1e-12 * np.max(np.abs(K))
    full, reused = energy_terms(w, ctx), energy_terms(w, ctx, K=ray.K)
    n2 = full.seminorm_sq + full.potential_sq
    assert reused.hartree == pytest.approx(full.hartree, rel=1e-12)
    assert reused.J == pytest.approx(full.J, rel=1e-12)
    assert abs(reused.nehari_residual - full.nehari_residual) <= 1e-12 * n2
    g_full, g_reused = gradient(w, ctx).values, gradient(w, ctx, K=ray.K).values
    assert np.max(np.abs(g_reused - g_full)) <= 1e-12 * np.max(np.abs(g_full))


@pytest.mark.parametrize("branch", ["closed_form", "truncated"])
@pytest.mark.parametrize("which", ["plain_ctx", "magnetic_ctx"])
def test_projection_returns_energy_of_projected_point(request, which, branch):
    # the projection's own sums give J(t u), with no operator pass and no
    # convolution beyond those of the projection
    ctx, _, u0 = request.getfixturevalue(which)
    u = ray_field(ctx, u0, branch)
    ray = nehari_project(u, ctx)
    J = energy_value(Field(ray.t * u.values, ctx.grid), ctx, K=ray.K)
    assert ray.J == pytest.approx(J, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_norm_rejected(plain_ctx, bad):
    ctx, _, u0 = plain_ctx
    Lu = ctx.apply_op(u0.values)
    Lu[u0.argmax_index()] = bad
    with pytest.raises(NehariError):
        nehari_project(u0, ctx, Lu=Lu)
