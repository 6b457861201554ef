import numpy as np
import pytest

from choquard import (Field, GridSpec, check_concentration,
                      check_decay, check_diamagnetic, constant_A)
from choquard.solver import SolveReport

from conftest import check_hartree_bound, random_smooth_A, traced_peak


@pytest.fixture(scope="module")
def g96():
    return GridSpec(L=12.0, M=96, dim=1)


def fake_report(eps, V_at_max, converged=True, x=0.0):
    return SolveReport(c_eps=1.0, x_eps=(x,), x_eps_index=(0,), V_at_max=V_at_max,
                       valid_penalization=True, decay_exponent=-2.0, Cfit=1.0,
                       iterations=10, residual=1e-9, converged=converged,
                       nehari_residual=0.0, sup_norm=1.0, boundary_ratio=1e-6,
                       eps=eps, seed=0, backend="spectral")


# ----------------------------------------------------------------- diamagnetic

def test_diamagnetic_equality_real_field(g96):
    u = Field(np.exp(-g96.axis() ** 2 / 4), g96)
    res = check_diamagnetic(u, None, 0.6)
    assert res.passed
    assert res.lhs == pytest.approx(res.rhs, rel=1e-12)


def test_diamagnetic_equality_plane_wave_gauge(g96):
    c = 0.9
    x = g96.axis()
    v = np.exp(-x ** 2 / 4)
    u = Field(np.exp(1j * c * x) * v, g96)
    res = check_diamagnetic(u, constant_A([c]), 0.6)
    assert res.passed
    assert res.lhs == pytest.approx(res.rhs, rel=1e-12)


def test_diamagnetic_strict_on_random_fields(g96):
    rng = np.random.default_rng(1)
    A = random_smooth_A(1, g96.L, 0.6, seed=2)
    for _ in range(5):
        vals = (rng.normal(size=96) + 1j * rng.normal(size=96)) \
            * np.exp(-g96.axis() ** 2 / 16)
        res = check_diamagnetic(Field(vals, g96), A, 0.55)
        assert res.passed
        assert res.lhs < res.rhs  # strict for genuinely complex fields


# ---------------------------------------------------------------------- Riesz

def test_hls_pairing_decreases_with_separation():
    from choquard import ProblemConfig, build_hartree_cache, riesz_convolve
    grid = GridSpec(L=16.0, M=256, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=1.0, V0=1.0)
    cache = build_hartree_cache(grid, cfg.mu)
    x = grid.axis()
    vals = []
    for d in (1.0, 2.0, 4.0):
        phi = np.exp(-(x - d / 2) ** 2 * 8) + np.exp(-(x + d / 2) ** 2 * 8)
        vals.append(float(np.sum(riesz_convolve(phi, cache) * phi) * grid.h))
    assert vals[0] > vals[1] > vals[2]


# -------------------------------------------------------------- hartree bound

def test_hartree_bound_fresh_samples(plain_ctx):
    ctx, _, _ = plain_ctx
    res = check_hartree_bound(ctx, n_samples=25, seed=777)
    assert res.passed
    assert res.lhs <= 0.25 + 0.1  # calibration ratio plus sampling slack


def test_hartree_bound_requires_calibration(plain_ctx):
    ctx, _, _ = plain_ctx
    from dataclasses import replace
    with pytest.raises(ValueError):
        check_hartree_bound(replace(ctx, pen=None))


# ----------------------------------------------------------------------- decay

def test_decay_synthetic_envelope_recovers_slope():
    grid = GridSpec(L=40.0, M=512, dim=1)
    s = 0.5
    power = 1 + 2 * s
    r = np.abs(grid.axis())
    u = Field(1.0 / (1.0 + r ** power), grid)
    res = check_decay(u, 1.0, u.argmax_index(), s)
    assert res.passed
    assert res.context["slope"] == pytest.approx(-power, abs=0.1)
    assert res.context["slope_ok"]


def test_decay_gaussian_steeper_flag():
    grid = GridSpec(L=40.0, M=512, dim=1)
    u = Field(np.exp(-grid.axis() ** 2 / 2), grid)
    res = check_decay(u, 1.0, u.argmax_index(), 0.5)
    assert res.passed
    assert res.context["steeper"] and not res.context["slope_ok"]


def test_decay_inconclusive_without_tail():
    grid = GridSpec(L=20.0, M=128, dim=1)
    u = Field(np.full(128, 0.5) + 0.5 * np.cos(grid.axis()), grid)
    res = check_decay(u, 1.0, u.argmax_index(), 0.5)
    assert not res.passed
    assert res.context["status"] == "inconclusive"


def test_decay_of_a_zero_field_is_inconclusive():
    grid = GridSpec(L=20.0, M=128, dim=1)
    res = check_decay(Field(np.zeros(128), grid), 1.0, (64,), 0.5)
    assert res.passed is False
    assert res.context["status"] == "inconclusive"


def test_tail_underflowing_on_the_slope_shell_is_steeper():
    # exp(-50 r^2) is positive up to r = 3.75 and underflows to 0 from r = 4,
    # which is L/4: the envelope is fitted on [L/8, L/4), and the slope shell
    # holds no nonzero sample
    grid = GridSpec(L=16.0, M=128, dim=1)
    u = Field(np.exp(-50.0 * grid.axis() ** 2), grid)
    r = np.abs(grid.axis())
    assert np.all(u.values[r >= 4.0] == 0) and np.all(u.values[r < 4.0] > 0)
    res = check_decay(u, 1.0, u.argmax_index(), 0.5)
    assert res.context["status"] == "ok"
    assert res.context["slope"] == -np.inf
    assert res.context["steeper"] and not res.context["slope_ok"]


def test_check_decay_fits_once(monkeypatch):
    from choquard import diagnostics
    calls = {"_tail_radii": 0, "_periodized_envelope": 0}
    for name in calls:
        def counted(*args, _inner=getattr(diagnostics, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(diagnostics, name, counted)
    grid = GridSpec(L=40.0, M=256, dim=1)
    u = Field(1.0 / (1.0 + np.abs(grid.axis()) ** 2), grid)
    res = check_decay(u, 1.0, u.argmax_index(), 0.5)
    assert res.passed
    assert calls == {"_tail_radii": 1, "_periodized_envelope": 1}


# -------------------------------------------------------------- concentration

def make_conc_inputs():
    from choquard import BallRegion, PotentialSpec, ProblemConfig, clipped_quadratic_V
    grid = GridSpec(L=32.0, M=128, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.125, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                        region=BallRegion((0.0,), 1.0))
    return grid, cfg, pot


def literal_periodized_envelope(u, x_max_index, power):
    """The decay envelope summed over the 3^N box images, one image at a
    time, each from the full mesh of distances."""
    g = u.grid
    mesh = g.mesh()
    x0 = g.index_to_point(tuple(x_max_index))
    offs = np.stack(np.meshgrid(*([np.array([-1.0, 0.0, 1.0]) * 2 * g.L] * g.dim),
                                indexing="ij"), axis=-1).reshape(-1, g.dim)
    env = np.zeros(g.shape)
    for off in offs:
        r = np.linalg.norm(mesh - x0 + off, axis=-1)
        env += 1.0 / (1.0 + r ** power)
    return env


@pytest.mark.parametrize("dim, M, index", [(1, 64, (29,)), (2, 24, (9, 8)),
                                           (3, 16, (5, 11, 7))], ids=["1d", "2d", "3d"])
def test_periodized_envelope_matches_image_loop(dim, M, index):
    from choquard.diagnostics import _periodized_envelope
    grid = GridSpec(L=6.0, M=M, dim=dim)
    u = Field(np.zeros(grid.shape), grid)
    power = dim + 1.2
    np.testing.assert_allclose(_periodized_envelope(u, index, power),
                               literal_periodized_envelope(u, index, power),
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("dim, M, index", [(1, 64, (29,)), (2, 24, (9, 8)),
                                           (3, 16, (5, 11, 7))], ids=["1d", "2d", "3d"])
def test_tail_radii_match_mesh_norm(dim, M, index):
    from choquard.diagnostics import _tail_radii
    grid = GridSpec(L=6.0, M=M, dim=dim)
    u = Field(np.zeros(grid.shape), grid)
    x0 = grid.index_to_point(index)
    np.testing.assert_array_equal(_tail_radii(u, index),
                                  np.linalg.norm(grid.mesh() - x0, axis=-1))


@pytest.mark.parametrize("dim, M, index", [(1, 64, (5,)), (2, 24, (3, 20)),
                                           (3, 16, (2, 9, 15))], ids=["1d", "2d", "3d"])
def test_periodized_envelope_bits_match_the_image_formula(dim, M, index):
    # oracle: each image's 1 / (1 + |x - x0 - 2L k|^p) on the coordinate mesh,
    # summed in the same image order; the in-place steps keep every bit
    from itertools import product
    from choquard.diagnostics import _periodized_envelope
    grid = GridSpec(L=6.0, M=M, dim=dim)
    u = Field(np.zeros(grid.shape), grid)
    x0 = grid.index_to_point(index)
    for power in (dim + 1.5, 2.0):
        ref = np.zeros(grid.shape)
        for image in product((-1.0, 0.0, 1.0), repeat=dim):
            r2 = np.sum((grid.mesh() - x0 + 2 * grid.L * np.array(image)) ** 2, axis=-1)
            ref += 1.0 / (1.0 + np.sqrt(r2) ** power)
        np.testing.assert_array_equal(_periodized_envelope(u, index, power), ref)


def _tail_field(grid, power, seed):
    """A decaying field with a rough tail: 1/(1 + r^power) times noise."""
    r2 = np.sum(grid.mesh() ** 2, axis=-1)
    noise = 1.0 + 0.2 * np.random.default_rng(seed).uniform(size=grid.shape)
    return Field(noise / (1.0 + r2 ** (power / 2)), grid)


@pytest.mark.parametrize("dim, M", [(1, 256), (2, 48), (3, 24)], ids=["1d", "2d", "3d"])
def test_tail_slope_is_the_least_squares_slope(dim, M, monkeypatch):
    # oracle: np.polyfit on the fit's own shell; the fit itself builds no
    # coordinate mesh and makes no LAPACK call
    from choquard import diagnostics
    grid = GridSpec(L=20.0, M=M, dim=dim)
    for seed in range(3):
        u = _tail_field(grid, dim + 1.5, seed)
        idx = u.argmax_index()
        with monkeypatch.context() as m:
            def refused(*args, **kwargs):
                raise AssertionError("fit_decay called a refused function")
            m.setattr(GridSpec, "mesh", refused)
            m.setattr(np.linalg, "lstsq", refused)
            slope, _, status = diagnostics.fit_decay(u, 0.75, idx)
        assert status == "ok"
        r = diagnostics._tail_radii(u, idx)
        absu = np.abs(u.values)
        shell = (r >= grid.L / 4) & (r <= grid.L / 2) & (absu > 0)
        ref = np.polyfit(np.log(r[shell]), np.log(absu[shell]), 1)[0]
        assert abs(slope - ref) <= 1e-12 * abs(ref)


def test_fit_decay_peak_memory_is_a_few_fields():
    # measured: 3.6 field sizes (the radii, the envelope and one image's term,
    # then |u|), 6.0 with the envelope's per-image temporaries, 12.0 with the
    # mesh and np.polyfit
    from choquard.diagnostics import fit_decay
    grid = GridSpec(L=12.0, M=32, dim=3)
    u = _tail_field(grid, 3 + 1.5, 0)
    idx = u.argmax_index()
    assert traced_peak(lambda: fit_decay(u, 0.75, idx), u.values.nbytes) < 4


def test_concentration_monotone_gaps_pass():
    grid, cfg, pot = make_conc_inputs()
    reports = [fake_report(0.5, 1.05), fake_report(0.25, 1.01),
               fake_report(0.125, 1.001)]
    res = check_concentration(reports, pot, cfg, grid)
    assert res.passed
    assert res.context["monotone"]


def test_concentration_degenerate_constant_gaps():
    grid, cfg, pot = make_conc_inputs()
    reports = [fake_report(e, 1.0) for e in (0.5, 0.25, 0.125)]
    res = check_concentration(reports, pot, cfg, grid)
    assert res.passed


def test_concentration_skips_diverged_with_flag():
    grid, cfg, pot = make_conc_inputs()
    reports = [fake_report(0.5, 1.05), fake_report(0.25, float("nan"), converged=False),
               fake_report(0.125, 1.001)]
    res = check_concentration(reports, pot, cfg, grid)
    assert res.context["partial_coverage"]


def test_concentration_needs_three_entries():
    grid, cfg, pot = make_conc_inputs()
    with pytest.raises(ValueError):
        check_concentration([fake_report(0.5, 1.0)], pot, cfg, grid)


def test_concentration_fails_when_argmax_outside():
    grid, cfg, pot = make_conc_inputs()
    reports = [fake_report(0.5, 1.05), fake_report(0.25, 1.01),
               fake_report(0.125, 1.001, x=30.0)]  # eps*x = 3.75 outside ball
    res = check_concentration(reports, pot, cfg, grid)
    assert not res.passed
