"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.
"""

import time
from dataclasses import replace

import numpy as np

from choquard import (BallRegion, Field, GridSpec, PotentialSpec,
                      ProblemConfig, QuadratureOperator, SolverOptions,
                      build_hartree_cache, check_concentration, check_diamagnetic,
                      clipped_quadratic_V, energy_value, gradient, load_field,
                      nehari_project, parse_config, riesz_convolve, save_field,
                      solve_limit, solve_penalized, sweep_epsilon)
from choquard.io import config_hash
from choquard.sampling import band_limited_field, bump_in_region

from conftest import (brute_force_riesz, central_diff_energy, check_hartree_bound,
                      gaussian_frac_lap, mpg_shell_radius, nehari_closed_form,
                      random_smooth_A, riesz_kernel_table)


def report(num, name, detail, t0):
    print(f"\nACCEPTANCE {num:2d} {name}: PASS  {detail}  ({time.time() - t0:.1f}s)",
          flush=True)


def test_criterion_01_operator_vs_spectral():
    # the production quadrature against the whole-space closed form at the
    # centre of e^{-x^2/4}, where every pair inside the cutoff lies in the box
    t0 = time.time()
    L = 20.0
    worst = {}
    for s in (0.3, 0.5, 0.7):
        exact = gaussian_frac_lap(1, s, 0.0)
        errs = []
        for M in (256, 512):
            grid = GridSpec(L=L, M=M, dim=1)
            u = np.exp(-grid.axis() ** 2 / 4)
            quad = QuadratureOperator(grid, s, None).apply(u)[M // 2]
            errs.append(abs(quad - exact) / exact)
        assert errs[0] < 1e-3, f"s={s}: rel error {errs[0]:.2e} >= 1e-3"
        assert errs[1] < errs[0], f"s={s}: error did not decrease under M->2M"
        worst[s] = errs[0]
    assert time.time() - t0 < 10.0
    report(1, "operator correctness",
           "rel error at the centre, M=256: "
           + ", ".join(f"s={s}:{e:.1e}" for s, e in worst.items()), t0)


def test_criterion_02_gauge_covariance():
    t0 = time.time()
    grid = GridSpec(L=10.0, M=128, dim=1)
    A = random_smooth_A(1, grid.L, 0.5, seed=21)
    rng = np.random.default_rng(22)
    x = grid.axis()
    worst = 0.0
    op = QuadratureOperator(grid, 0.6, A)
    for k in range(20):
        u = rng.normal(size=128) + 1j * rng.normal(size=128)
        c = float(rng.normal())
        base = op.seminorm_sq(u)
        moved = QuadratureOperator(grid, 0.6, lambda p, A=A, c=c: A(p) + np.array([c])
                                   ).seminorm_sq(np.exp(1j * c * x) * u)
        worst = max(worst, abs(moved - base) / base)
    assert worst <= 1e-12
    assert time.time() - t0 < 5.0
    report(2, "gauge covariance", f"worst rel deviation {worst:.2e} over 20 fields", t0)


def test_criterion_03_diamagnetic():
    t0 = time.time()
    grid = GridSpec(L=12.0, M=96, dim=1)
    rng = np.random.default_rng(33)
    failures = 0
    for k in range(100):
        A = random_smooth_A(1, grid.L, float(rng.uniform(0.1, 0.8)), seed=1000 + k)
        vals = (rng.normal(size=96) + 1j * rng.normal(size=96)) \
            * np.exp(-grid.axis() ** 2 / 20)
        res = check_diamagnetic(Field(vals, grid), A, 0.55)
        failures += 0 if res.passed else 1
    assert failures == 0
    assert time.time() - t0 < 30.0
    report(3, "diamagnetic inequality", "0 failures over 100 fields", t0)


def test_criterion_04_riesz_fast_vs_direct():
    t0 = time.time()
    worst = 0.0
    for dim, M in ((1, 256), (2, 64)):
        grid = GridSpec(L=10.0, M=M, dim=dim)
        mesh = grid.mesh()
        f = np.exp(-np.sum(mesh ** 2, axis=-1))
        for mu in (0.3, 0.8):
            cache = build_hartree_cache(grid, mu)
            fast = riesz_convolve(f, cache)
            direct = brute_force_riesz(f, riesz_kernel_table(grid, mu), grid.cell_volume())
            rel = np.max(np.abs(fast - direct)) / np.max(np.abs(direct))
            worst = max(worst, rel)
            assert rel < 1e-8, f"dim={dim} mu={mu}: rel {rel:.2e}"
    assert time.time() - t0 < 20.0
    report(4, "Riesz convolution", f"worst rel Linf vs direct sum {worst:.1e}", t0)


def test_criterion_05_gradient_consistency(magnetic_ctx):
    t0 = time.time()
    ctx, _, _ = magnetic_ctx
    rng = np.random.default_rng(55)
    worst = 0.0
    for k in range(20):
        u = band_limited_field(ctx.grid, rng, complex_valued=True)
        v = band_limited_field(ctx.grid, rng, complex_valued=True)
        g = gradient(u, ctx)
        lhs = float(np.real(np.sum(np.conj(g.values) * v.values))
                    * ctx.grid.cell_volume())
        rhs = central_diff_energy(ctx, u, v, delta=1e-6)
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-30)
        worst = max(worst, rel)
        assert rel < 1e-5
    assert time.time() - t0 < 30.0
    report(5, "gradient consistency", f"worst rel error {worst:.1e} over 20 pairs", t0)


def test_criterion_06_nehari_closed_form(plain_ctx):
    t0 = time.time()
    ctx, _, _ = plain_ctx
    rng = np.random.default_rng(66)
    bump = bump_in_region(ctx.grid, ctx.lambda_mask)
    worst = 0.0
    for k in range(20):
        noise = band_limited_field(ctx.grid, rng, complex_valued=False)
        vals = np.where(ctx.lambda_mask, bump.values * (1 + 0.4 * noise.values), 0.0)
        u = Field(vals, ctx.grid)
        t_b = nehari_project(u, ctx).t
        t_a = nehari_closed_form(u, ctx)
        rel = abs(t_b - t_a) / t_a
        worst = max(worst, rel)
        assert rel < 1e-10
    assert time.time() - t0 < 20.0
    report(6, "Nehari closed form", f"worst rel mismatch {worst:.1e} over 20 rays", t0)


def test_criterion_07_mountain_pass_geometry(plain_ctx):
    t0 = time.time()
    ctx, pot, u0 = plain_ctx
    rho, C = mpg_shell_radius(ctx, n_samples=20, seed=71)
    assert C * (rho ** 4 + rho ** (2 * ctx.cfg.q)) < 0.5 * rho ** 2
    rng = np.random.default_rng(72)
    for k in range(50):
        f = band_limited_field(ctx.grid, rng, complex_valued=False)
        n2 = ctx.norm_eps_sq(f.values)
        u = Field(f.values * (rho / np.sqrt(n2)), ctx.grid)
        assert energy_value(u, ctx) > 0.0, f"shell field {k} has J <= 0"
    # the canonical bump ray goes negative under doubling
    ray = [energy_value(Field(t * u0.values, ctx.grid), ctx)
           for t in (1, 2, 4, 8, 16, 32, 64)]
    assert min(ray) < 0.0
    # converged solution sits at the unique ray maximum of its own energy
    u_star, rep = solve_penalized(ctx.cfg, pot, ctx.grid,
                                  SolverOptions(grad_tol=1e-7, seed=73))
    ctx_star = replace(ctx, pen=rep.calibration.pen)
    ts = np.logspace(-0.9, 0.9, 64)
    J = [energy_value(Field(t * u_star.values, ctx.grid), ctx_star) for t in ts]
    d = np.diff(J)
    k = int(np.nonzero(d < 0)[0][0])
    assert np.all(d[:k] > 0) and np.all(d[k:] < 0)
    assert time.time() - t0 < 30.0
    report(7, "mountain-pass geometry",
           f"rho={rho:.3f}, 50 shell fields positive, ray unimodal", t0)


def test_criterion_08_penalization_bound(plain_ctx):
    t0 = time.time()
    ctx, _, _ = plain_ctx
    res = check_hartree_bound(ctx, n_samples=50, seed=2024)
    assert res.passed and res.lhs < 0.5
    assert time.time() - t0 < 30.0
    report(8, "penalization bound", f"fresh-sample ratio {res.lhs:.3f} < 1/2", t0)


def test_criterion_09_limit_decay():
    t0 = time.time()
    cfg = ProblemConfig(dim=1, s=0.5, mu=0.4, q=3.0, eps=1.0, V0=4.0)
    grid = GridSpec(L=40.0, M=512, dim=1)
    u, rep = solve_limit(cfg, grid, SolverOptions(grad_tol=1e-8, seed=9))
    target = -(cfg.dim + 2 * cfg.s)
    assert rep.decay_status == "ok"
    assert abs(rep.decay_exponent - target) <= 0.3, rep.decay_exponent
    assert time.time() - t0 < 180.0
    report(9, "limit-problem decay",
           f"fitted slope {rep.decay_exponent:.3f} vs {target:+.1f} +- 0.3", t0)


SWEEP_EPS = (0.5, 0.25, 0.125)


def test_criterion_10_concentration_sweep():
    t0 = time.time()
    cfg = ProblemConfig(dim=1, s=0.75, mu=0.5, q=4.0, eps=0.5, V0=1.0)
    grid = GridSpec(L=64.0, M=1024, dim=1)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0, coeff=1.0, cap=4.0), A=None,
                        region=BallRegion((0.0,), 1.0))
    opts = SolverOptions(grad_tol=1e-8, seed=10)
    fields = {}
    reports = sweep_epsilon(cfg, pot, grid, SWEEP_EPS, opts,
                            on_solution=lambda e, u, r: fields.update({e: u}))
    assert all(r.converged for r in reports)
    conc = check_concentration(reports, pot, cfg, grid)
    assert conc.passed, conc
    assert reports[-1].valid_penalization
    _, rep_lim = solve_limit(cfg, grid, opts)
    ratio = reports[-1].c_eps / rep_lim.c_eps
    assert ratio <= 1.05
    # solver-module invariants over the sweep
    sups = [r.sup_norm for r in reports]
    assert max(sups) / min(sups) < 10.0
    assert all(r.boundary_ratio < 1e-4 for r in reports)
    from choquard import check_decay
    for rep in reports:
        dec = check_decay(fields[rep.eps], rep.eps, rep.x_eps_index, cfg.s)
        assert dec.passed and dec.lhs <= 1.5, (rep.eps, dec)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(10, "concentration sweep",
           f"V gaps {[round(r.V_at_max - cfg.V0, 6) for r in reports]}, "
           f"c_eps/c_V0 = {ratio:.4f}, penalization valid", t0)


def test_criterion_10b_sweep_3d_coarse():
    t0 = time.time()
    cfg = ProblemConfig(dim=3, s=0.75, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    grid = GridSpec(L=12.0, M=32, dim=3)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0, coeff=1.0, cap=4.0), A=None,
                        region=BallRegion((0.0, 0.0, 0.0), 1.0))
    opts = SolverOptions(grad_tol=1e-6, seed=10)
    reports = sweep_epsilon(cfg, pot, grid, SWEEP_EPS, opts)
    assert all(r.converged for r in reports)
    conc = check_concentration(reports, pot, cfg, grid)
    assert conc.passed, conc
    assert reports[-1].valid_penalization
    _, rep_lim = solve_limit(cfg, grid, opts)
    assert reports[-1].c_eps / rep_lim.c_eps <= 1.2  # coarse-grid slack
    assert time.time() - t0 < 1800.0
    report(10, "concentration sweep (3-D coarse)",
           f"c_eps/c_V0 = {reports[-1].c_eps / rep_lim.c_eps:.3f}", t0)


def test_criterion_11_persistence(tmp_path):
    t0 = time.time()
    grid = GridSpec(L=8.0, M=32, dim=2)
    rng = np.random.default_rng(11)
    u = Field(rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape), grid)
    path = tmp_path / "u.f64"
    save_field(path, u, s=0.6, mu=0.5, eps=0.25)
    back, _ = load_field(path)
    assert np.array_equal(back.values, u.values)

    doc = {"problem": {"N": 1, "s": 0.6, "mu": 0.5, "q": 3.0, "eps": 0.5, "V0": 1.0},
           "grid": {"L": 12.0, "M": 96},
           "potential": {"V": {"kind": "clipped_quadratic"},
                         "Lambda": {"kind": "ball", "radius": 1.0}}}
    import json
    raw1 = json.dumps(doc, sort_keys=True).encode()
    raw2 = json.dumps(json.loads(raw1), sort_keys=True).encode()
    assert config_hash(raw1) == config_hash(raw2)
    parse_config(raw1)  # resolvable
    assert time.time() - t0 < 5.0
    report(11, "persistence", "round-trip bitwise, config hash stable", t0)
