from dataclasses import replace
from random import Random

import numpy as np
import pytest

import choquard.energy as energy_mod
import choquard.operators as operators_mod
import choquard.sampling as sampling_mod
from choquard import (BallRegion, Field, GridSpec, PotentialSpec, ProblemConfig,
                      QuadratureOperator, SpectralOperator, build_limit_context,
                      build_penalized_context, clipped_quadratic_V, constant_A,
                      energy_terms, energy_value, gradient, nehari_project, sine_A)
from choquard.nonlinearity import PenalizationParams
from choquard.sampling import band_limited_field

import conftest
from conftest import central_diff_energy, mpg_shell_radius


def test_zero_field_all_pieces_zero(plain_ctx):
    ctx, _, _ = plain_ctx
    rep = energy_terms(Field(np.zeros(ctx.grid.shape), ctx.grid), ctx)
    assert rep.seminorm_sq == rep.potential_sq == rep.hartree == rep.J == 0.0
    assert rep.nehari_residual == 0.0


def test_energy_identity_decomposition(magnetic_ctx):
    ctx, _, u0 = magnetic_ctx
    rep = energy_terms(u0, ctx)
    assert rep.J == pytest.approx(
        0.5 * (rep.seminorm_sq + rep.potential_sq) - 0.25 * rep.hartree, rel=1e-14)
    assert rep.hartree >= 0.0


def test_hartree_term_nonnegative_on_random_fields(magnetic_ctx):
    # positive-definite kernel paired with G >= 0
    ctx, _, _ = magnetic_ctx
    rng = np.random.default_rng(31)
    for _ in range(10):
        u = band_limited_field(ctx.grid, rng, complex_valued=True)
        assert energy_terms(u, ctx).hartree >= 0.0


def test_penalized_equals_limit_when_region_covers(allcover_pot):
    # all-region, V == V0, A == 0: the two functionals coincide
    grid = GridSpec(L=12.0, M=128, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=1.0, V0=1.0)
    pot = allcover_pot(grid, 1.0)
    ctx_p = build_penalized_context(cfg, pot, grid)
    # every point except the single corner at -L (which cannot sit strictly
    # inside the box) is covered, and the field is tiny there
    assert ctx_p.lambda_mask.sum() >= grid.size - 1
    ctx_l = build_limit_context(cfg, grid)
    u = Field(np.exp(-grid.axis() ** 2 / 2), grid)
    assert energy_value(u, ctx_p) == pytest.approx(energy_value(u, ctx_l),
                                                   rel=1e-10)


def test_mountain_pass_ray_goes_negative(magnetic_ctx):
    ctx, _, u0 = magnetic_ctx
    t = 1.0
    values = []
    while t <= 64.0:
        values.append(energy_value(Field(t * u0.values, ctx.grid), ctx))
        t *= 2.0
    assert min(values) < 0.0


def test_ray_unimodal(magnetic_ctx):
    ctx, _, u0 = magnetic_ctx
    t_star = nehari_project(u0, ctx).t
    ts = np.logspace(np.log10(t_star / 8), np.log10(t_star * 8), 64)
    J = np.array([energy_value(Field(t * u0.values, ctx.grid), ctx) for t in ts])
    d = np.diff(J)
    # strictly increases then decreases: exactly one sign change
    switch = np.nonzero(d < 0)[0]
    assert len(switch) > 0
    k = switch[0]
    assert np.all(d[:k] > 0) and np.all(d[k:] < 0)


def test_gradient_zero_field(plain_ctx):
    ctx, _, _ = plain_ctx
    g = gradient(Field(np.zeros(ctx.grid.shape), ctx.grid), ctx)
    assert np.all(g.values == 0)


@pytest.mark.parametrize("which", ["magnetic", "plain"])
def test_gradient_matches_finite_differences(which, magnetic_ctx, plain_ctx, request):
    ctx, _, _ = magnetic_ctx if which == "magnetic" else plain_ctx
    rng = np.random.default_rng(17)
    for trial in range(3):
        u = band_limited_field(ctx.grid, rng, complex_valued=(which == "magnetic"))
        v = band_limited_field(ctx.grid, rng, complex_valued=(which == "magnetic"))
        g = gradient(u, ctx)
        lhs = float(np.real(np.sum(np.conj(g.values) * v.values))
                    * ctx.grid.cell_volume())
        rhs = central_diff_energy(ctx, u, v)
        assert lhs == pytest.approx(rhs, rel=1e-5)


@pytest.mark.parametrize("which", ["magnetic", "plain"])
def test_gradient_bits_match_the_formula(which, magnetic_ctx, plain_ctx):
    # Lu + V u - K g(|u|^2) u in that order, written into one output of the
    # result type: complex for a real u on the magnetic operator
    ctx, _, _ = magnetic_ctx if which == "magnetic" else plain_ctx
    rng = np.random.default_rng(23)
    for complex_valued in (False, True):
        u = band_limited_field(ctx.grid, rng, complex_valued=complex_valued)
        v = u.values
        density = np.abs(v) ** 2
        Lu, K = ctx.apply_op(v), ctx.hartree_potential(density)
        ref = Lu + ctx.V_eps * v - K * ctx.g_of(density) * v
        got = gradient(u, ctx).values
        assert got.dtype == ref.dtype
        assert np.iscomplexobj(got) == (complex_valued or which == "magnetic")
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(gradient(u, ctx, Lu, K=K).values, ref)


def test_small_shell_positivity(plain_ctx):
    ctx, _, _ = plain_ctx
    rho, C = mpg_shell_radius(ctx, n_samples=12, seed=5)
    # the crossover bound itself
    assert C * (rho ** 4 + rho ** (2 * ctx.cfg.q)) < 0.5 * rho ** 2
    rng = np.random.default_rng(99)
    for _ in range(20):
        f = band_limited_field(ctx.grid, rng, complex_valued=False)
        n2 = ctx.norm_eps_sq(f.values)
        u = Field(f.values * (rho / np.sqrt(n2)), ctx.grid)
        assert energy_value(u, ctx) > 0.0


def test_mpg_one_convolution_per_group_and_ray_parameter(plain_ctx, monkeypatch):
    # the 12 shell samples of a 128-point grid form one group, so the 15 ray
    # parameters take 15 stacked convolutions (180 one field at a time), and
    # C matches the estimate built one field a group
    ctx, _, _ = plain_ctx
    convolve, shapes = conftest.riesz_convolve, []

    def counted(h, cache):
        shapes.append(h.shape)
        return convolve(h, cache)
    monkeypatch.setattr(conftest, "riesz_convolve", counted)
    per_group = energy_mod.SAMPLE_GROUP_BYTES // (16 * ctx.grid.size)
    assert per_group >= 12
    rho, C = mpg_shell_radius(ctx, n_samples=12, seed=5)
    assert shapes == [(12,) + ctx.grid.shape] * 15
    monkeypatch.setattr(energy_mod, "SAMPLE_GROUP_BYTES", 16 * ctx.grid.size)
    assert mpg_shell_radius(ctx, n_samples=12, seed=5) == pytest.approx((rho, C), rel=1e-12)
    assert len(shapes) == 15 + 12 * 15


@pytest.mark.parametrize("A, op_type", [(constant_A([0.0]), SpectralOperator),
                                        (sine_A(0.5, 4.0, 1), QuadratureOperator)],
                         ids=["zero", "sine"])
def test_context_holds_one_operator_built_once(A, op_type):
    grid = GridSpec(L=12.0, M=64, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=A,
                        region=BallRegion((0.0,), 1.0))
    ctx = build_penalized_context(cfg, pot, grid)
    assert type(ctx.op) is op_type
    pen = PenalizationParams(ell0=8.0, a=0.125 ** 2, V0=1.0)
    assert replace(ctx, pen=pen).op is ctx.op
    assert replace(ctx, pen=None).op is ctx.op


def test_grouped_shell_samples_match_one_at_a_time(request, monkeypatch):
    # group budgets of 1, 3 and 50 fields: the modes of every sample are drawn
    # before the first group and each field is scaled by its own norm, so on
    # the spectral backend the samples and C0 are bit-identical to building
    # them one at a time; the quadrature's stacked pair pass (a matrix-matrix
    # product) rounds its norms differently, within the 1e-12 bar
    shell = 5.0
    for which, tol in [("plain_ctx", 0.0), ("magnetic_ctx", 1e-12)]:
        ctx, _, _ = request.getfixturevalue(which)
        runs = []
        for per_group in (1, 3, 50):
            monkeypatch.setattr(energy_mod, "SAMPLE_GROUP_BYTES", per_group * 16 * ctx.grid.size)
            samples = np.concatenate(list(energy_mod.shell_samples(ctx, shell, 50, seed=4)))
            runs.append((samples, energy_mod.calibrate_penalization(ctx, seed=4).C0))
        samples, C0 = runs[0]
        assert samples.shape == (50,) + ctx.grid.shape
        assert np.iscomplexobj(samples) == (which == "magnetic_ctx")
        assert np.all(np.abs(ctx.norm_eps_sq(samples) - shell) <= 1e-12 * shell)
        for other, other_C0 in runs[1:]:
            assert np.max(np.abs(other - samples)) <= tol * np.max(np.abs(samples))
            assert abs(other_C0 - C0) <= tol * C0


class _CountingGenerator:
    """A `random.Random` whose `random()` calls are logged in `events`; the
    calls numbered in `zero_at` return 0.0 instead of the stream's value
    (the stream still advances)."""

    def __init__(self, seed, events, zero_at=()):
        self._rng, self._events, self._zero_at = Random(seed), events, set(zero_at)

    def random(self):
        self._events.append("random")
        u = self._rng.random()
        return 0.0 if len(self._events) - 1 in self._zero_at else u


def _paper1d_ctx():
    grid = GridSpec(L=64.0, M=1024, dim=1)
    cfg = ProblemConfig(dim=1, s=0.75, mu=0.5, q=4.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0, coeff=1.0, cap=4.0),
                        A=constant_A([0.0]), region=BallRegion((0.0,), 1.0))
    return build_penalized_context(cfg, pot, grid)


def test_calibration_draws_every_uniform_before_the_first_build(monkeypatch):
    # paper1d's grid: the 50 samples' modes take 50 * 12 * 3 uniforms, all
    # drawn before the first field is built, and the 1024-point fields are
    # built in groups of 8
    ctx = _paper1d_ctx()
    events, builds = [], []
    monkeypatch.setattr(energy_mod, "Random", lambda seed: _CountingGenerator(seed, events))
    build = energy_mod.band_limited_field

    def counted(grid, draws, **kwargs):
        events.append("build")
        builds.append(len(draws[1]) if isinstance(draws, tuple) else 1)
        return build(grid, draws, **kwargs)
    monkeypatch.setattr(energy_mod, "band_limited_field", counted)
    cal = energy_mod.calibrate_penalization(ctx, seed=7)
    assert cal.samples_used == 50
    assert events == ["random"] * (50 * 12 * 3) + ["build"] * 7
    assert builds == [8] * 6 + [2]


def test_zero_draw_is_skipped_without_warning(monkeypatch):
    # sample 17 draws twelve zero coefficients (u1 = 0 in every mode, so the
    # Box-Muller radius is 0): its field is zero, so it is skipped, with no
    # division by its zero norm, and C0 is the supremum over the other 49,
    # which are the draws of the unstubbed generator
    ctx = _paper1d_ctx()
    ref = energy_mod.calibrate_penalization(ctx, seed=7)
    shell = 4.0 * (ref.pen.kappa + 1.0)
    base = replace(ctx, pen=None)
    full = [v for U in energy_mod.shell_samples(base, shell, 50, seed=7) for v in U]
    # a 1-D mode takes 3 uniforms: the wavenumber, u1 and u2
    zero_at = [17 * 12 * 3 + 3 * j + 1 for j in range(12)]
    monkeypatch.setattr(energy_mod, "Random",
                        lambda seed: _CountingGenerator(seed, [], zero_at))
    # every floating-point error raises but underflow (the bump's Gaussian tail)
    with np.errstate(all="raise", under="ignore"):
        cal = energy_mod.calibrate_penalization(ctx, seed=7)
        kept = [v for U in energy_mod.shell_samples(base, shell, 50, seed=7) for v in U]
    assert (cal.samples_used, cal.samples_skipped) == (49, 1)
    assert all(np.array_equal(a, b) for a, b in zip(kept, full[:17] + full[18:]))
    sups = [float(np.max(np.abs(base.hartree_potential(np.abs(v) ** 2)))) for v in kept]
    assert len(sups) == 49 and cal.C0 == max(sups)


@pytest.mark.parametrize("which", ["plain_ctx", "magnetic_ctx"])
def test_stacked_hartree_sup_matches_one_at_a_time(request, which, monkeypatch):
    # groups of four samples, each group convolved in one stacked call: C0
    # and the samples used are those of convolving the samples one at a time;
    # the largest sample is not the first of its group
    ctx, _, _ = request.getfixturevalue(which)
    monkeypatch.setattr(energy_mod, "SAMPLE_GROUP_BYTES", 4 * 16 * ctx.grid.size)
    cal = energy_mod.calibrate_penalization(ctx, n_samples=8, seed=4)
    base = replace(ctx, pen=None)
    sups = [float(np.max(np.abs(base.hartree_potential(np.abs(v) ** 2))))
            for U in energy_mod.shell_samples(base, 4.0 * (cal.pen.kappa + 1.0), 8, seed=4)
            for v in U]
    assert cal.C0 == max(sups) and int(np.argmax(sups)) % 4 != 0
    assert cal.samples_used == len(sups) == 8


def test_calibration_transform_count_3d_spectral(monkeypatch):
    # a 32^3 shell sample is drawn, normed and convolved alone: one 1-D
    # inverse transform batched over the last axis, one forward transform for
    # its norm (Parseval) and the two of its Riesz convolution; the kappa
    # projection of the bump takes one for its norm and two for its convolution
    grid = GridSpec(L=12.0, M=32, dim=3)
    cfg = ProblemConfig(dim=3, s=0.75, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=constant_A([0.0] * 3),
                        region=BallRegion((0.0,) * 3, 1.0))
    ctx = build_penalized_context(cfg, pot, grid)
    assert type(ctx.op) is SpectralOperator
    assert energy_mod.SAMPLE_GROUP_BYTES < 16 * grid.size  # one field a group
    calls, draw_axes = [], []

    def counted(mod, name):
        fn = getattr(mod, name)

        def wrapper(a, axes=None, *rest):
            calls.append(name)
            if mod is sampling_mod:
                draw_axes.append(a.ndim if axes is None else len(axes))
            return fn(a, axes, *rest)
        monkeypatch.setattr(mod, name, wrapper)
    for mod, name in [(operators_mod, "fftn"), (operators_mod, "ifftn"),
                      (sampling_mod, "ifftn")]:
        counted(mod, name)
    n = 4
    cal = energy_mod.calibrate_penalization(ctx, n_samples=n, seed=0)
    assert cal.samples_used == n
    assert len(calls) == 4 * n + 3
    assert draw_axes == [1] * n
