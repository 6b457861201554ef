from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choquard import (Field, GridSpec, PenalizationParams, PowerNonlinearity,
                      G_eval, build_hartree_cache, calibrate_penalization,
                      g_eval, riesz_convolve)
from choquard.energy import sampled_hartree_sup, shell_samples
from choquard.nonlinearity import threshold_for

from conftest import brute_force_riesz, riesz_kernel_table


def test_f_vanishes_at_zero_and_below():
    nl = PowerNonlinearity(3.0)
    assert nl.f(0.0) == 0.0
    assert nl.f(-1.0) == 0.0
    assert nl.F(-2.0) == 0.0


@pytest.mark.parametrize("q", [2.5, 3.0, 4.0, 6.0])
def test_power_model_bits_match_the_branch_form(q):
    # f, F = t^p for t > 0 and +0.0 otherwise, bit for bit; -0.0 included
    nl = PowerNonlinearity(q)
    t = np.concatenate([[-0.0, 0.0, -1.0, -1e-300, 5e-324, 1e30],
                        np.random.default_rng(0).normal(size=64) * 10.0])
    for got, p, scale in ((nl.f(t), (q - 2.0) / 2.0, 1.0), (nl.F(t), q / 2.0, 2.0 / q)):
        ref = scale * np.where(t > 0, np.where(t > 0, t, 0.0) ** p, 0.0)
        np.testing.assert_array_equal(got, ref)
        assert not np.any(np.signbit(got))
        # 0-d inputs, raised as numpy scalars, take the same values
        fn = nl.f if scale == 1.0 else nl.F
        for x, r in zip(t[:8], ref[:8]):
            for arg in (float(x), x, np.array(x)):
                assert np.shape(fn(arg)) == () and fn(arg) == r


@pytest.mark.parametrize("q", [2.5, 3.0, 4.0, 6.0])
def test_penalized_pair_bits_match_the_where_forms(q):
    # g capped and G continued in place on the points outside only: bit for
    # bit the np.where forms, on arrays, stacked fields and 0-d inputs, with
    # `inside` a mask or a bool (where `~True` would be -2, which is true)
    nl = PowerNonlinearity(q)
    pen = PenalizationParams(ell0=3.0, a=threshold_for(3.0, 1.0, q), V0=1.0)
    rng = np.random.default_rng(1)
    t = np.concatenate([[-1.0, -0.0, 0.0, pen.a, np.nextafter(pen.a, 0.0), 5e-324],
                        rng.uniform(-0.5, 3.0 * pen.a, size=58)])
    mask = rng.uniform(size=t.shape) < 0.5
    t0 = t.copy()
    for tt, inside in ((t, mask), (np.stack([t, t[::-1]]), mask), (t, True), (t, False),
                       (np.float64(2.0 * pen.a), False), (np.array(2.0 * pen.a), False),
                       (2.0 * pen.a, True), (0.5 * pen.a, np.False_)):
        f, F = nl.f(tt), nl.F(tt)
        x = np.asarray(tt, dtype=float)
        g_ref = np.where(inside, f, np.minimum(f, pen.cap))
        G_ref = np.where(inside | (x <= pen.a), F, nl.F(pen.a) + pen.cap * (x - pen.a))
        for got, ref in ((g_eval(tt, inside, nl, pen), g_ref),
                         (G_eval(tt, inside, nl, pen), G_ref)):
            assert np.shape(got) == np.shape(ref)
            np.testing.assert_array_equal(got, ref)
            assert not np.any(np.signbit(got))
    np.testing.assert_array_equal(t, t0)  # the argument is left as it was


def test_q4_hand_values():
    nl = PowerNonlinearity(4.0)
    # f(t) = t, F(t) = t^2/2
    assert nl.f(2.0) == pytest.approx(2.0)
    assert nl.F(2.0) == pytest.approx(2.0)


def test_penalized_pair_piecewise():
    nl = PowerNonlinearity(3.0)
    pen = PenalizationParams(ell0=4.0, a=threshold_for(4.0, 1.0, 3.0), V0=1.0)
    inside = np.array([True, False, False])
    t = np.array([0.5, pen.a / 2, 2 * pen.a])
    g = g_eval(t, inside, nl, pen)
    assert g[0] == pytest.approx(nl.f(0.5))          # inside: untouched f
    assert g[1] == pytest.approx(nl.f(pen.a / 2))    # outside, below threshold
    assert g[2] == pytest.approx(pen.cap)            # outside, above: capped
    G = G_eval(t, inside, nl, pen)
    assert G[2] == pytest.approx(nl.F(pen.a) + pen.cap * (2 * pen.a - pen.a))
    assert g_eval(0.0, False, nl, pen) == 0.0
    assert G_eval(0.0, False, nl, pen) == 0.0


def test_g_continuous_at_threshold():
    nl = PowerNonlinearity(3.5)
    pen = PenalizationParams(ell0=5.0, a=threshold_for(5.0, 2.0, 3.5), V0=2.0)
    eps = 1e-9
    below = g_eval(pen.a - eps, False, nl, pen)
    above = g_eval(pen.a + eps, False, nl, pen)
    assert abs(below - above) < 1e-7
    assert g_eval(pen.a, False, nl, pen) == pytest.approx(pen.cap)


@settings(max_examples=80, deadline=None)
@given(q=st.floats(2.1, 6.0), t=st.floats(1e-6, 1e3))
def test_primitive_below_slope(q, t):
    # F(t) <= f(t) * t, from the monotonicity of f
    nl = PowerNonlinearity(q)
    assert nl.F(t) <= nl.f(t) * t * (1 + 1e-12)


@settings(max_examples=80, deadline=None)
@given(q=st.floats(2.1, 6.0), ell0=st.floats(0.5, 100.0), V0=st.floats(0.1, 10.0),
       t1=st.floats(1e-6, 1e3), t2=st.floats(1e-6, 1e3))
def test_outside_bounds_and_monotonicity(q, ell0, V0, t1, t2):
    # (g3)(ii): 0 < G <= g t <= cap * t outside; (g4): g and G/t nondecreasing
    nl = PowerNonlinearity(q)
    pen = PenalizationParams(ell0=ell0, a=threshold_for(ell0, V0, q), V0=V0)
    for t in (t1, t2):
        g = float(g_eval(t, False, nl, pen))
        G = float(G_eval(t, False, nl, pen))
        assert 0 < G <= g * t * (1 + 1e-12) <= pen.cap * t * (1 + 1e-12)
    lo, hi = sorted((t1, t2))
    if hi > lo:
        for inside in (True, False):
            g_lo = float(g_eval(lo, inside, nl, pen))
            g_hi = float(g_eval(hi, inside, nl, pen))
            assert g_hi >= g_lo - 1e-12 * max(1, g_hi)
            r_lo = float(G_eval(lo, inside, nl, pen)) / lo
            r_hi = float(G_eval(hi, inside, nl, pen)) / hi
            assert r_hi >= r_lo - 1e-10 * max(1, abs(r_hi))


def test_g4_finite_differences_on_log_grid():
    nl = PowerNonlinearity(3.0)
    pen = PenalizationParams(ell0=6.0, a=threshold_for(6.0, 1.0, 3.0), V0=1.0)
    ts = np.logspace(-4, 3, 200)
    for inside in (True, False):
        g = g_eval(ts, inside, nl, pen)
        Gt = G_eval(ts, inside, nl, pen) / ts
        assert np.all(np.diff(g) >= -1e-12)
        assert np.all(np.diff(Gt) >= -1e-12)


def test_calibrate_C0_matches_brute_force(plain_ctx):
    # single Gaussian bump, N=1, mu=0.5, q=3
    grid = GridSpec(L=10.0, M=128, dim=1)
    cache = build_hartree_cache(grid, 0.5)
    nl = PowerNonlinearity(3.0)
    u = Field(np.exp(-grid.axis() ** 2), grid)
    Fv = nl.F(np.abs(u.values) ** 2)
    fast = riesz_convolve(Fv, cache)
    direct = brute_force_riesz(Fv, riesz_kernel_table(grid, 0.5), grid.cell_volume())
    assert np.max(np.abs(fast - direct)) < 1e-6 * np.max(np.abs(direct))

    # the sampled supremum that sets C0, against direct sums on the same draws
    ctx = replace(plain_ctx[0], pen=None)
    shell = 5.0
    sup, used = sampled_hartree_sup(ctx, shell, 6, seed=3)
    table = riesz_kernel_table(ctx.grid, ctx.cfg.mu)
    sups = [np.max(np.abs(brute_force_riesz(ctx.nl.F(np.abs(f) ** 2),
                                            table, ctx.grid.cell_volume())))
            for U in shell_samples(ctx, shell, 6, seed=3) for f in U]
    assert used == len(sups) == 6
    assert sup == pytest.approx(max(sups), rel=1e-6)


def test_empty_sampler_errors(plain_ctx):
    with pytest.raises(ValueError, match="no nonzero field"):
        calibrate_penalization(plain_ctx[0], n_samples=0)
