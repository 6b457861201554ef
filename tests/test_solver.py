import numpy as np
import pytest

import choquard.energy as energy_mod
import choquard.solver as solver_mod
from choquard import (BallRegion, ConfigError, Field, GridSpec, PotentialSpec,
                      ProblemConfig, SolverError, SolverOptions, build_limit_context,
                      check_problem, clipped_quadratic_V, constant_A, constant_V,
                      energy_value, rescale_field, solve_limit, solve_penalized,
                      sweep_epsilon)

from choquard.nonlinearity import threshold_for
from choquard.solver import INCONCLUSIVE_DECAY_WARNING

from conftest import align_phase, traced_peak


@pytest.fixture(scope="module")
def coincident_setup(request):
    """A == 0, V == V0, region covering the grid: penalized == limit problem."""
    grid = GridSpec(L=16.0, M=192, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=1.0, V0=1.0)
    pot = PotentialSpec(V=constant_V(1.0), A=None,
                        region=BallRegion((0.0,), grid.L - grid.h / 4))
    return grid, cfg, pot


@pytest.fixture
def unvalidated(monkeypatch):
    """solve_penalized gated by `check_problem` alone: coincident_setup's
    constant V fails the well condition, though its functional is well defined."""
    monkeypatch.setattr(solver_mod, "validate_config",
                        lambda cfg, pot, grid: check_problem(cfg, grid))


def test_penalized_reproduces_limit(coincident_setup, unvalidated):
    grid, cfg, pot = coincident_setup
    opts = SolverOptions(grad_tol=1e-8, seed=1)
    u_p, rep_p = solve_penalized(cfg, pot, grid, opts)
    u_l, rep_l = solve_limit(cfg, grid, opts)
    assert rep_p.converged and rep_l.converged
    assert rep_p.c_eps == pytest.approx(rep_l.c_eps, rel=1e-6)


@pytest.mark.parametrize("limit", [False, True], ids=["penalized", "limit"])
def test_spectral_solve_builds_the_symbol_once(coincident_setup, unvalidated, monkeypatch,
                                                limit):
    # the preconditioner reads |xi|^(2s) from the spectral operator
    grid, cfg, pot = coincident_setup
    mesh_sq, calls = GridSpec.wavenumber_mesh_sq, []

    def counted(self):
        calls.append(1)
        return mesh_sq(self)
    monkeypatch.setattr(GridSpec, "wavenumber_mesh_sq", counted)
    opts = SolverOptions(grad_tol=1e-6, seed=1)
    if limit:
        _, rep = solve_limit(cfg, grid, opts)
    else:
        _, rep = solve_penalized(cfg, pot, grid, opts)
    assert rep.converged
    assert len(calls) == 1


def test_converged_report_consistency(magnetic_ctx, request):
    ctx, pot, _ = magnetic_ctx
    opts = SolverOptions(grad_tol=1e-6, seed=2, max_iters=4000)
    u, rep = solve_penalized(ctx.cfg, pot, ctx.grid, opts)
    assert rep.converged
    assert rep.residual < opts.grad_tol
    n2 = ctx.norm_eps_sq(u.values)
    assert abs(rep.nehari_residual) < 1e-8 * n2
    # phase gauge: value at the argmax is real positive
    peak = u.values[rep.x_eps_index]
    assert abs(np.imag(peak)) <= 1e-12 * abs(peak) and np.real(peak) > 0
    # energy decreases monotonically along accepted steps
    hist = np.array(rep.energy_history)
    assert np.all(np.diff(hist) <= 1e-12)


def test_mountain_pass_ray_consistency(coincident_setup, unvalidated):
    grid, cfg, pot = coincident_setup
    opts = SolverOptions(grad_tol=1e-8, seed=3)
    u, rep = solve_penalized(cfg, pot, grid, opts)
    from choquard import build_penalized_context
    ctx = build_penalized_context(cfg, pot, grid)
    ts = np.logspace(-1, 1, 129)
    ray = [energy_value(Field(t * u.values, grid), ctx) for t in ts]
    assert rep.c_eps == pytest.approx(max(ray), rel=1e-6)


def test_limit_solution_real_up_to_phase(coincident_setup, unvalidated):
    grid, cfg, pot = coincident_setup
    # at 1e-7 the imaginary part is converged, not wherever the descent
    # happened to stop (at 1e-5 it spans 5.5e-7 to 7.7e-6 along plain BB's iterates)
    opts = SolverOptions(grad_tol=1e-7, seed=4, max_iters=6000)
    u_real, _ = solve_limit(cfg, grid, opts)
    rng = np.random.default_rng(7)
    pert = 0.05 * (rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)) \
        * np.exp(-grid.axis() ** 2 / 8)
    start = Field(u_real.values * np.exp(0.3j) + pert, grid)
    u_c, rep_c = solve_penalized(cfg, pot, grid, opts, initial=start)
    aligned = align_phase(u_c.values, u_real.values.astype(complex))
    assert np.max(np.abs(np.imag(aligned))) < 1e-6 * np.max(np.abs(aligned))


@pytest.mark.parametrize("eps, x0", [(0.5, 1.0), (0.25, 2.0)])
def test_off_centre_start_ends_at_the_well(eps, x0):
    # paper1d's problem from a bump halfway to the edge of Lambda/eps: the
    # descent moves the peak to the minimizer of V and reaches the centred level
    grid = GridSpec(L=64.0, M=1024, dim=1)
    cfg = ProblemConfig(dim=1, s=0.75, mu=0.5, q=4.0, eps=eps, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                        region=BallRegion((0.0,), 1.0))
    opts = SolverOptions(grad_tol=1e-8)
    _, centred = solve_penalized(cfg, pot, grid, opts)
    start = Field(np.exp(-(grid.axis() - x0) ** 2 / 2), grid)
    _, moved = solve_penalized(cfg, pot, grid, opts, initial=start)
    assert abs(moved.x_eps[0]) <= grid.h
    assert abs(moved.c_eps - centred.c_eps) < 1e-9


def test_bb_step_hand_values():
    from choquard.solver import BB_SHORT_RATIO, bb_step
    # s = (1, 0), y = (1, 1): cos^2 = 1/2, at or above the ratio: BB1 = ss/sy
    assert bb_step(1.0, 1.0, 2.0, 0.3) == (1.0, False)
    # s = (1, 0), y = (1, 3): cos^2 = 1/10, below it: BB2 = sy/yy
    assert bb_step(1.0, 1.0, 10.0, 0.3) == (0.1, True)
    # cos^2 exactly at the ratio takes the long step
    assert bb_step(1.0, 1.0, 1.0 / BB_SHORT_RATIO, 0.3) == (1.0, False)
    # no positive curvature: the previous step is kept
    assert bb_step(1.0, 0.0, 1.0, 0.3) == (0.3, False)
    assert bb_step(1.0, -0.5, 1.0, 0.3) == (0.3, False)
    assert bb_step(1.0, float("nan"), 1.0, 0.3) == (0.3, False)


@pytest.mark.parametrize("seed", range(4))
def test_magnetic1d_cold_solve_takes_short_steps(seed):
    # the magnetic1d workload's eps = 0.125 problem from a cold start: plain
    # BB1 took 219-408 iterations at seeds 0-5, the adaptive step 54-76
    from choquard import sine_A
    grid = GridSpec(L=16.0, M=256, dim=1)
    cfg = ProblemConfig(dim=1, s=0.75, mu=0.5, q=4.0, eps=0.125, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=sine_A(0.5, 4.0, 1),
                        region=BallRegion((0.0,), 1.0))
    _, rep = solve_penalized(cfg, pot, grid, SolverOptions(grad_tol=1e-8, seed=seed))
    assert rep.converged and rep.valid_penalization
    assert rep.iterations <= 120
    assert sum(step.short for step in rep.steps) > 0
    assert len(rep.steps) == rep.iterations
    assert len(rep.energy_history) == rep.iterations + 1
    assert min(step.grad_norm for step in rep.steps) >= 1e-8 > rep.residual


def test_limit_translation_invariance(coincident_setup):
    grid, cfg, _ = coincident_setup
    u, rep = solve_limit(cfg, grid, SolverOptions(grad_tol=1e-8, seed=5))
    ctx = build_limit_context(cfg, grid)
    rolled = Field(np.roll(u.values, 1), grid)
    assert energy_value(rolled, ctx) == pytest.approx(rep.c_eps, rel=1e-8)


def test_limit_decay_exponent():
    # tail asymptotics need room: shells [L/4, L/2] must sit well past the core
    grid = GridSpec(L=40.0, M=384, dim=1)
    cfg = ProblemConfig(dim=1, s=0.5, mu=0.4, q=3.0, eps=1.0, V0=4.0)
    _, rep = solve_limit(cfg, grid, SolverOptions(grad_tol=1e-8, seed=6))
    target = -(cfg.dim + 2 * cfg.s)
    assert rep.decay_status == "ok"
    assert abs(rep.decay_exponent - target) <= 0.3


@pytest.mark.parametrize("L, M, status", [(16.0, 256, "inconclusive"), (64.0, 1024, "ok")],
                         ids=["magnetic1d-grid", "paper1d-grid"])
def test_inconclusive_decay_fit_warns(L, M, status):
    # the limit problem on magnetic1d's grid keeps |u| at about 1.6e-3 of its
    # maximum on the boundary, so the fit cannot read the tail and the report
    # says so; on paper1d's wider box the tail is fitted and nothing is added
    cfg = ProblemConfig(dim=1, s=0.75, mu=0.5, q=4.0, eps=1.0, V0=1.0)
    _, rep = solve_limit(cfg, GridSpec(L=L, M=M, dim=1), SolverOptions(grad_tol=1e-8, seed=7))
    assert rep.converged and rep.decay_status == status
    assert (INCONCLUSIVE_DECAY_WARNING in rep.warnings) == (status == "inconclusive")


def test_constant_A_is_gauge_equivalent(coincident_setup, unvalidated):
    grid, cfg, pot = coincident_setup
    potA = PotentialSpec(V=pot.V, A=constant_A([0.6]), region=pot.region)
    opts = SolverOptions(grad_tol=1e-6, seed=8)
    _, rep0 = solve_penalized(cfg, pot, grid, opts)
    _, repA = solve_penalized(cfg, potA, grid, opts)
    # same mountain-pass level: the two problems differ by a plane-wave gauge;
    # the tolerance covers the free-quadrature vs spectral backend difference
    assert repA.c_eps == pytest.approx(rep0.c_eps, rel=2e-3)


def test_nonconvergence_carries_iterate(coincident_setup, unvalidated):
    grid, cfg, pot = coincident_setup
    with pytest.raises(SolverError) as exc:
        solve_penalized(cfg, pot, grid,
                        SolverOptions(grad_tol=1e-14, max_iters=2, seed=9))
    assert exc.value.field is not None
    assert exc.value.field.values.shape == grid.shape


def test_invalid_config_refused():
    grid = GridSpec(L=8.0, M=64, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=1.2, q=3.0, eps=0.5, V0=1.0)  # mu >= 2s
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                        region=BallRegion((0.0,), 1.0))
    with pytest.raises(ConfigError, match="mu must lie in"):
        solve_penalized(cfg, pot, grid)


def test_rescale_identity_and_shrink():
    grid = GridSpec(L=8.0, M=64, dim=1)
    u = Field(np.exp(-grid.axis() ** 2), grid)
    same = rescale_field(u, 1.0)
    assert np.allclose(same.values, u.values, atol=1e-12)
    half = rescale_field(u, 0.5)
    # u(x * 0.5) widens the bump
    x = grid.axis()
    ref = np.exp(-(0.5 * x) ** 2)
    assert np.max(np.abs(half.values - ref)) < 5e-3


@pytest.mark.parametrize("dim, M", [(1, 64), (2, 16), (3, 12)])
def test_rescale_ratio_one_is_bit_exact(dim, M):
    grid = GridSpec(L=5.0, M=M, dim=dim)
    rng = np.random.default_rng(M)
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    for u in (vals.real, vals):
        assert np.array_equal(rescale_field(Field(u, grid), 1.0).values, u)


@pytest.mark.parametrize("dim, M", [(1, 64), (2, 16), (3, 12)])
@pytest.mark.parametrize("ratio", [0.5, 0.7])
def test_rescale_reproduces_quadratics(dim, M, ratio):
    # Keys' cubic (a = -1/2) is exact on quadratics; these ratios keep every
    # read of the four-sample stencil inside the box
    grid = GridSpec(L=5.0, M=M, dim=dim)
    rng = np.random.default_rng(dim)
    b, Q = rng.normal(size=dim), rng.normal(size=(dim, dim))

    def quad(x):
        return 1.5 + x @ b + np.einsum("...i,ij,...j->...", x, Q, x)
    mesh = grid.mesh()
    got = rescale_field(Field(quad(mesh), grid), ratio).values
    want = quad(ratio * mesh)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("ratio", [0.5, 0.7])
def test_rescale_converges_at_third_order(ratio):
    errs = []
    for M in (32, 64, 128, 256):
        grid = GridSpec(L=8.0, M=M, dim=1)
        x = grid.axis()
        got = rescale_field(Field(np.exp(-x ** 2), grid), ratio).values
        errs.append(np.max(np.abs(got - np.exp(-(ratio * x) ** 2))))
    # h^3 would give 8 per halving
    assert all(e0 / e1 >= 7.0 for e0, e1 in zip(errs, errs[1:])), errs


@pytest.mark.parametrize("dim, M", [(1, 64), (2, 16), (3, 12)])
@pytest.mark.parametrize("ratio", [2.0, 2.3])
def test_rescale_outside_the_box_takes_the_edge_value(dim, M, ratio):
    # at ratio 2 every point sits on a sample; at 2.3 most fall between two
    grid = GridSpec(L=5.0, M=M, dim=dim)
    vals = np.random.default_rng(M).normal(size=grid.shape)
    got = rescale_field(Field(vals, grid), ratio).values
    # sample index of x * ratio; the box holds the indices 0 .. M-1
    pos = np.arange(M) * ratio + (1 - ratio) * M / 2
    low, high = pos < 0, pos > M - 1
    assert low.any() and high.any()
    for corner in np.ndindex(*([2] * dim)):
        sel = np.ix_(*[high if c else low for c in corner])
        edge = vals[tuple(M - 1 if c else 0 for c in corner)]
        assert np.all(got[sel] == edge)


@pytest.mark.parametrize("ratio", [0.7, 1.3, 2.3])
def test_rescale_reads_the_four_nearest_samples(ratio):
    # column k of the map's matrix is the image of the k-th unit sample: a
    # point at index position p reads only samples k with |k - p| < 2,
    # p clipped to the box (a stencil wrapping round the period would not)
    M = 16
    grid = GridSpec(L=5.0, M=M, dim=1)
    R = np.stack([rescale_field(Field(e, grid), ratio).values for e in np.eye(M)], axis=1)
    pos = np.clip(np.arange(M) * ratio + (1 - ratio) * M / 2, 0, M - 1)
    far = np.abs(np.arange(M)[None, :] - pos[:, None]) >= 2
    assert np.all(R[far] == 0)
    assert np.allclose(R.sum(axis=1), 1.0, rtol=0, atol=1e-15)


def test_sweep_warm_starts_each_entry_by_rescaling(monkeypatch):
    # every entry after the first starts from the last solution rescaled by
    # eps_new/eps_old, a failed entry's included; a cold start costs
    # magnetic1d about 10% more iterations
    import choquard.solver as solver
    grid = GridSpec(L=10.0, M=96, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                        region=BallRegion((0.0,), 1.0))
    rescales, starts, solutions = [], [], []

    def counted(u, ratio):
        rescales.append((u, ratio, rescale_field(u, ratio)))
        return rescales[-1][2]

    def recorded(*args, initial=None, **kwargs):
        starts.append(initial)
        return solve_penalized(*args, initial=initial, **kwargs)
    monkeypatch.setattr(solver, "rescale_field", counted)
    monkeypatch.setattr(solver, "solve_penalized", recorded)
    # 0.05 and 0.025 blow the region out of the box: both fail
    reports = sweep_epsilon(cfg, pot, grid, [0.5, 0.25, 0.05, 0.025],
                            SolverOptions(grad_tol=1e-5, seed=10),
                            on_solution=lambda eps, u, rep: solutions.append(u))
    assert [r.converged for r in reports] == [True, True, False, False]
    assert [ratio for _, ratio, _ in rescales] == [0.25 / 0.5, 0.05 / 0.25, 0.025 / 0.25]
    assert all(u is prev for (u, _, _), prev in
               zip(rescales, [solutions[0], solutions[1], solutions[1]]))
    assert len(starts) == 4 and starts[0] is None
    assert all(s is out for s, (_, _, out) in zip(starts[1:], rescales))


def test_sweep_hands_a_failed_iterate_on(monkeypatch):
    # a failed entry's last iterate, phase-gauged, goes to on_solution with
    # its report; the next entry still starts from the last converged field
    grid = GridSpec(L=10.0, M=96, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                        region=BallRegion((0.0,), 1.0))
    iterate = Field(-np.exp(-grid.axis() ** 2), grid)
    starts, handed = [], []

    def stalled_at_a_quarter(cfg, *args, initial=None, **kwargs):
        starts.append(initial)
        if cfg.eps == 0.25:
            raise SolverError("line search stalled", iterate)
        return solve_penalized(cfg, *args, initial=initial, **kwargs)
    monkeypatch.setattr(solver_mod, "solve_penalized", stalled_at_a_quarter)
    reports = sweep_epsilon(cfg, pot, grid, [0.5, 0.25, 0.2],
                            SolverOptions(grad_tol=1e-5, seed=10),
                            on_solution=lambda *entry: handed.append(entry))
    assert [r.converged for r in reports] == [True, False, True]
    assert [eps for eps, _, _ in handed] == [0.5, 0.25, 0.2]
    assert [rep for _, _, rep in handed] == reports
    assert reports[1].error == "line search stalled"
    assert np.array_equal(handed[1][1].values, -iterate.values)
    assert np.array_equal(starts[2].values,
                          rescale_field(handed[0][1], 0.2 / 0.5).values)


def test_solve_penalized_2d():
    grid = GridSpec(L=10.0, M=48, dim=2)
    cfg = ProblemConfig(dim=2, s=0.6, mu=0.8, q=2.5, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                        region=BallRegion((0.0, 0.0), 1.0))
    opts = SolverOptions(grad_tol=1e-6, seed=12)
    u, rep = solve_penalized(cfg, pot, grid, opts)
    assert rep.converged and rep.residual < opts.grad_tol
    assert rep.V_at_max == pytest.approx(cfg.V0, abs=0.2)
    from choquard import build_penalized_context
    ctx = build_penalized_context(cfg, pot, grid)
    assert abs(rep.nehari_residual) < 1e-8 * ctx.norm_eps_sq(u.values)


def test_sweep_argument_validation():
    grid = GridSpec(L=8.0, M=64, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                        region=BallRegion((0.0,), 1.0))
    with pytest.raises(ValueError):
        sweep_epsilon(cfg, pot, grid, [0.5])
    with pytest.raises(ValueError):
        sweep_epsilon(cfg, pot, grid, [0.25, 0.5])


def test_sweep_with_magnetic_potential():
    # exercises the quadrature backend and complex warm-starts end to end
    from conftest import random_smooth_A
    grid = GridSpec(L=10.0, M=96, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0),
                        A=random_smooth_A(1, grid.L * 0.5, 0.3, seed=20),
                        region=BallRegion((0.0,), 1.0))
    reports = sweep_epsilon(cfg, pot, grid, [0.5, 0.25],
                            SolverOptions(grad_tol=1e-5, seed=21))
    assert all(r.converged for r in reports)
    assert all(r.backend == "quadrature" for r in reports)
    assert reports[1].V_at_max <= reports[0].V_at_max + 1e-2


def test_solver_deterministic_under_seed():
    grid = GridSpec(L=10.0, M=96, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                        region=BallRegion((0.0,), 1.0))
    opts = SolverOptions(grad_tol=1e-6, seed=31)
    u1, r1 = solve_penalized(cfg, pot, grid, opts)
    u2, r2 = solve_penalized(cfg, pot, grid, opts)
    assert np.array_equal(u1.values, u2.values)
    assert r1.c_eps == r2.c_eps and r1.calibration.pen.ell0 == r2.calibration.pen.ell0


def test_sweep_records_failures_and_continues():
    grid = GridSpec(L=10.0, M=96, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                        region=BallRegion((0.0,), 1.0))
    # the middle eps blows the region out of the box: per-entry failure
    reports = sweep_epsilon(cfg, pot, grid, [0.5, 0.05, 0.025],
                            SolverOptions(grad_tol=1e-5, seed=10))
    assert reports[0].converged
    assert not reports[1].converged and reports[1].error
    assert len(reports) == 3

    assert np.isnan(reports[1].c_eps) and reports[1].eps == 0.05
    assert reports[1].iterations == 0 and not reports[1].valid_penalization


@pytest.mark.parametrize("which", ["limit", "magnetic"])
def test_descent_one_convolution_per_trial(plain_ctx, magnetic_ctx, monkeypatch, which):
    # the projection hands its Hartree potential to the energy of the trial
    # and to the next gradient, so a descent whose projections all take the
    # closed form (the limit problem has no truncation; the magnetic descent
    # never reaches it) convolves once per trial and once for the start
    from choquard.solver import minimize_on_nehari
    if which == "limit":
        ctx, _, u0 = plain_ctx
        ctx = build_limit_context(ctx.cfg, ctx.grid)
    else:
        ctx, _, u0 = magnetic_ctx
    convolutions, roots = [], []
    convolve, root = energy_mod.riesz_convolve, energy_mod.root_decreasing

    def counted_convolve(h, cache, out=None):
        convolutions.append(h.shape)
        return convolve(h, cache, out)

    def counted_root(fn, lo, hi, f_hi):
        roots.append((lo, hi))
        return root(fn, lo, hi, f_hi)
    monkeypatch.setattr(energy_mod, "riesz_convolve", counted_convolve)
    monkeypatch.setattr(energy_mod, "root_decreasing", counted_root)
    run = minimize_on_nehari(ctx, u0, SolverOptions(grad_tol=1e-6, seed=0))
    assert run.iterations > 3 and roots == []
    assert len(convolutions) == sum(b + 1 for _, _, b, _, _ in run.progress["steps"]) + 1


@pytest.mark.parametrize("verb", ["penalized", "limit"])
def test_spectral_solve_builds_one_operator(plain_ctx, monkeypatch, verb):
    # the preconditioner reads |xi|^2s from the grid, so the context's
    # operator is the only SpectralOperator a spectral solve builds
    from choquard import SpectralOperator
    build, built = SpectralOperator.__post_init__, []

    def counted(self):
        built.append(self.grid)
        build(self)
    monkeypatch.setattr(SpectralOperator, "__post_init__", counted)
    ctx, pot, _ = plain_ctx
    opts = SolverOptions(grad_tol=1e-6, seed=0)
    if verb == "penalized":
        _, rep = solve_penalized(ctx.cfg, pot, ctx.grid, opts)
    else:
        _, rep = solve_limit(ctx.cfg, ctx.grid, opts)
    assert rep.converged and rep.backend == "spectral"
    assert built == [ctx.grid]


def test_midpoint_backtracks_keep_the_image_of_the_iterate(magnetic_ctx, monkeypatch):
    # a backtrack takes the midpoint of two images instead of a pass; after
    # a descent that backtracked, the carried image and energy are still
    # those of the iterate
    from choquard.solver import minimize_on_nehari
    ctx, _, u0 = magnetic_ctx
    passes = []
    apply = type(ctx.op).apply

    def counted(self, u):
        passes.append(u.shape)
        return apply(self, u)
    monkeypatch.setattr(type(ctx.op), "apply", counted)
    run = minimize_on_nehari(ctx, u0, SolverOptions(grad_tol=1e-6, seed=0))
    monkeypatch.undo()
    assert sum(b + 1 for _, _, b, _, _ in run.progress["steps"]) > run.iterations > 3
    assert len(passes) == run.iterations + 1
    Lu = ctx.apply_op(run.u.values)
    assert np.max(np.abs(run.Lu - Lu)) <= 1e-12 * np.max(np.abs(Lu))
    assert run.J == pytest.approx(energy_value(run.u, ctx), rel=1e-12)


def test_magnetic_2d_one_pair_pass_per_line_search(monkeypatch):
    # the operator image of each line search's first trial serves every
    # backtrack (as midpoints), the projections, the energies and the next
    # gradient, and the last one the final Nehari residual; set-up: the
    # calibration bump, one stacked pass per group of shell samples and the
    # start
    from choquard import QuadratureOperator, sine_A
    from choquard.energy import SAMPLE_GROUP_BYTES
    grid = GridSpec(L=6.0, M=16, dim=2)
    cfg = ProblemConfig(dim=2, s=0.75, mu=0.5, q=4.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=sine_A(0.5, 4.0, 2),
                        region=BallRegion((0.0, 0.0), 1.0))
    passes = []
    pair_data = QuadratureOperator._pair_data

    def counted(self, u):
        passes.append(u.shape)
        return pair_data(self, u)
    monkeypatch.setattr(QuadratureOperator, "_pair_data", counted)
    _, rep = solve_penalized(cfg, pot, grid, SolverOptions(grad_tol=1e-6, seed=0))
    assert rep.converged and rep.backend == "quadrature"
    assert sum(step.backtracks + 1 for step in rep.steps) >= rep.iterations
    per_group = SAMPLE_GROUP_BYTES // (16 * grid.size)
    groups = -(-50 // per_group)
    assert 1 < per_group < 50
    assert len(passes) == rep.iterations + 2 + groups
    assert passes.count((per_group,) + grid.shape) == 50 // per_group


def test_report_keeps_calibration_inputs():
    grid = GridSpec(L=10.0, M=96, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                        region=BallRegion((0.0,), 1.0))
    _, rep = solve_penalized(cfg, pot, grid, SolverOptions(grad_tol=1e-6, seed=31))
    cal = rep.calibration
    assert cal.C0 > 0 and cal.pen.ell0 == pytest.approx(4 * cal.C0, rel=1e-15)
    assert cal.pen.a == threshold_for(cal.pen.ell0, cfg.V0, cfg.q)
    assert cal.samples_used + cal.samples_skipped == 50
    assert cal.samples_used > 0
    assert rep.spectrum_clip == 0.0
    trials = sum(step.backtracks + 1 for step in rep.steps)
    assert trials >= rep.iterations
    assert rep.nehari_projections <= trials + 1


@pytest.mark.parametrize("verb", ["penalized", "limit"])
def test_report_times_each_phase(verb):
    from time import perf_counter
    from choquard.solver import PHASES
    grid = GridSpec(L=10.0, M=96, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                        region=BallRegion((0.0,), 1.0))
    opts = SolverOptions(grad_tol=1e-6, seed=31)
    t0 = perf_counter()
    if verb == "penalized":
        _, rep = solve_penalized(cfg, pot, grid, opts)
    else:
        _, rep = solve_limit(cfg, grid, opts)
    wall = perf_counter() - t0
    assert tuple(rep.timings) == PHASES
    assert all(t >= 0 for t in rep.timings.values())
    assert sum(rep.timings.values()) <= wall
    assert (rep.timings["calibrate_s"] > 0) == (verb == "penalized")


@pytest.mark.parametrize("verb", ["penalized", "limit"])
def test_V_at_max_is_V_at_the_maximum(verb):
    # the well sits off the origin and off the grid, so V(eps x_eps) > V0
    def V(points):
        return 1.0 + np.minimum(np.sum((np.asarray(points) - 0.3) ** 2, axis=-1), 4.0)
    grid = GridSpec(L=10.0, M=96, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=V, A=None, region=BallRegion((0.0,), 1.0))
    opts = SolverOptions(grad_tol=1e-6, seed=5)
    if verb == "limit":
        _, rep = solve_limit(cfg, grid, opts)
        assert rep.V_at_max == cfg.V0
        return
    _, rep = solve_penalized(cfg, pot, grid, opts)
    assert rep.V_at_max == float(V(cfg.eps * np.array([rep.x_eps]))[0]) > cfg.V0


def test_default_start_carries_the_phase_of_A_at_the_origin():
    from choquard import build_penalized_context
    from choquard.solver import _default_start
    grid = GridSpec(L=8.0, M=64, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=constant_A([0.7]),
                        region=BallRegion((0.0,), 1.0))
    start = _default_start(build_penalized_context(cfg, pot, grid), SolverOptions(seed=3))
    plane = np.exp(0.7j * grid.axis())
    assert np.allclose(start.values, np.abs(start.values) * plane, rtol=0, atol=1e-15)


@pytest.mark.parametrize("q", [3.0, 4.0])
def test_penalization_margin_decides_validity(q):
    # sine A on a small 1-D config: q = 3 ends with |u| outside the region
    # above the threshold (margin ~4), q = 4 below it (margin ~0.36)
    from choquard import sine_A
    grid = GridSpec(L=12.0, M=96, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=q, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0, coeff=1.0, cap=4.0),
                        A=sine_A(0.5, 4.0, 1), region=BallRegion((0.0,), 1.0))
    u, rep = solve_penalized(cfg, pot, grid, SolverOptions(seed=7))
    outside = ~pot.region.contains(cfg.eps * grid.points()).reshape(grid.shape)
    a = rep.calibration.pen.a
    want = np.max(np.abs(u.values[outside])) / min(a, np.sqrt(a))
    assert rep.penalization_margin == pytest.approx(want, rel=1e-12)
    assert (rep.penalization_margin < 1) == rep.valid_penalization
    assert rep.valid_penalization == (q == 4.0)
    _, rep_lim = solve_limit(cfg, grid)
    assert rep_lim.penalization_margin is None and rep_lim.valid_penalization


def test_sweep_propagates_other_errors(monkeypatch):
    # only solver and config failures become failed entries; anything else
    # is a fault of the program and leaves the sweep
    import choquard.solver as solver_mod
    grid = GridSpec(L=10.0, M=96, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                        region=BallRegion((0.0,), 1.0))
    for exc_type in (ValueError, TypeError):
        def broken(*args, **kwargs):
            raise exc_type("fault inside one solve")
        monkeypatch.setattr(solver_mod, "solve_penalized", broken)
        with pytest.raises(exc_type, match="fault inside one solve"):
            sweep_epsilon(cfg, pot, grid, [0.5, 0.25])


class BlowUpOperator:
    """The context's operator, with an inf in its image from pass
    `finite_passes + 1` on."""

    backend = "blow-up"

    def __init__(self, op, finite_passes):
        self.op, self.finite_passes, self.passes = op, finite_passes, 0

    def apply(self, u):
        self.passes += 1
        out = self.op.apply(u)
        if self.passes > self.finite_passes:
            out[np.unravel_index(np.argmax(np.abs(u)), u.shape)] = np.inf
        return out


@pytest.mark.parametrize("finite_passes", [0, 1])
def test_operator_blow_up_is_solver_error(plain_ctx, finite_passes):
    from dataclasses import replace
    from choquard.solver import minimize_on_nehari
    ctx, _, u0 = plain_ctx
    ctx = replace(ctx, op=BlowUpOperator(ctx.op, finite_passes))
    with pytest.raises(SolverError) as exc:
        minimize_on_nehari(ctx, u0, SolverOptions())
    assert exc.value.field is not None


def test_non_finite_gradient_is_solver_error(plain_ctx, monkeypatch):
    import choquard.solver as solver_mod
    from choquard.solver import minimize_on_nehari
    ctx, _, u0 = plain_ctx

    def blown(u, ctx, Lu=None, K=None):
        return Field(np.full(u.grid.shape, np.inf), u.grid)
    monkeypatch.setattr(solver_mod, "gradient", blown)
    with pytest.raises(SolverError, match="quadrature blow-up") as exc:
        minimize_on_nehari(ctx, u0, SolverOptions())
    assert exc.value.field is not None


def test_cli_imports_no_scipy():
    # scipy's fft, special and ndimage cost a CLI process ~0.5 s of imports
    import os
    import subprocess
    import sys
    code = ("import sys, choquard.cli; "
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
            "assert not loaded, loaded")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_imports_no_scipy_optimize():
    # scipy.optimize would add ~21 MB of RSS and 0.3-0.5 s to every CLI process
    import os
    import subprocess
    import sys
    code = "import sys, choquard.cli; assert 'scipy.optimize' not in sys.modules"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_commands_load_no_scipy_numpy_random_or_openssl(tmp_path):
    # a fresh interpreter runs every command (solve, limit, sweep, both
    # checks and export) on a small 1-D config through choquard.cli.main,
    # then no scipy module, no numpy.random module and, where the interpreter
    # has its own SHA-256 (_sha2 or _sha256), no hashlib, _hashlib or _ssl is
    # loaded: scipy's fft, special and ndimage cost a CLI process ~0.5 s of
    # imports and scipy.optimize ~21 MB of RSS more; numpy.random costs ~14 ms
    # and ~2.7 MB of peak RSS, against 0.2 ms for the 3000 uniforms of a 3-D
    # calibration drawn with random.Random; _hashlib maps OpenSSL's libcrypto,
    # ~3.5 MB of peak RSS for the digests of a few fields
    import importlib.util
    import json
    import os
    import subprocess
    import sys
    doc = {"problem": {"N": 1, "s": 0.6, "mu": 0.5, "q": 3.0, "eps": 0.5, "V0": 1.0},
           "grid": {"L": 12.0, "M": 64},
           "potential": {"V": {"kind": "clipped_quadratic", "coeff": 1.0, "cap": 4.0},
                         "A": {"kind": "zero"}, "Lambda": {"kind": "ball", "radius": 1.0}},
           "solver": {"max_iters": 3000, "grad_tol": 1e-6, "seed": 7},
           "sweep": {"eps_list": [0.5, 0.25]}}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    code = """if True:
        import json, sys
        from choquard.cli import main
        for argv in (["solve", "--config", "cfg.json", "--out", "solve"],
                     ["limit", "--config", "cfg.json", "--out", "limit"],
                     ["sweep", "--config", "cfg.json", "--out", "sweep"],
                     ["check", "--field", "solve/u.f64", "--name", "decay"],
                     ["check", "--field", "solve/u.f64", "--name", "diamagnetic"],
                     ["export", "--field", "sweep/u_eps_0.25.f64", "--out", "u.csv"]):
            assert main(argv) == 0, argv
        print(json.dumps(sorted(sys.modules)))
    """
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.abspath(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sweep" / "sweep.json").is_file() and (tmp_path / "u.csv").is_file()
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert not [m for m in loaded
                if m.split(".")[0] == "scipy" or m.startswith("numpy.random")]
    if not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no built-in SHA-256 module")
    assert not {"hashlib", "_hashlib", "_ssl"} & set(loaded)


def test_library_source_imports_no_scipy():
    # every import statement in src/choquard, inside functions too: scipy is
    # a test dependency only (the spline, 1F1 and Gamma oracles); and neither
    # an import of numpy.random nor an attribute np.random / numpy.random:
    # seeded draws come from random.Random
    import ast
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src" / "choquard"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {n}" for n in names
                      if n.split(".")[0] == "scipy"
                      or n.split(".")[:2] in (["numpy", "random"], ["np", "random"])]
    assert not found, found


def test_descent_peaks_below_its_line_search_fields():
    # solve3d's grid: the line search holds u, Lu, d, the trial and its image,
    # and a projection adds |u|^2, F, its spectrum and the convolution. Measured
    # 9.6 field sizes above the entry, 12.6 with g, K, s, y, a failed trial's
    # potential and the previous iterate alive into the line search
    from dataclasses import replace
    from choquard import build_penalized_context, calibrate_penalization
    from choquard.solver import _default_start, minimize_on_nehari
    grid = GridSpec(L=12.0, M=32, dim=3)
    cfg = ProblemConfig(dim=3, s=0.75, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                        region=BallRegion((0.0, 0.0, 0.0), 1.0))
    ctx = build_penalized_context(cfg, pot, grid)
    ctx = replace(ctx, pen=calibrate_penalization(ctx, seed=7).pen)
    opts = SolverOptions(grad_tol=1e-6, seed=7)
    start = _default_start(ctx, opts)
    runs = []
    peak = traced_peak(lambda: runs.append(minimize_on_nehari(ctx, start, opts)),
                       8 * grid.size)
    assert runs[-1].iterations > 10 and any(s.backtracks for s in runs[-1].progress["steps"])
    assert peak < 10


def _solve3d_problem():
    cfg = ProblemConfig(dim=3, s=0.75, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                        region=BallRegion((0.0, 0.0, 0.0), 1.0))
    return cfg, pot


def test_whole_solve_peaks_at_its_descent():
    # solve3d's grid at seed 7: set-up, calibration, start and report all
    # peak below the line search, and no grid-sized array outlives its last
    # reader (the start, seminorm weights, a projection's t^2 |u|^2, the
    # closed form's F(|u|^2), which takes the convolution). Measured 11.3
    # field sizes; 11.8 with F held, 13.4 with all of them held. CPython 3.10
    # keeps a call's arguments on the caller's stack until the call returns,
    # so there the start handed to the descent stays one field longer (12.8
    # with F held)
    import sys
    grid = GridSpec(L=12.0, M=32, dim=3)
    cfg, pot = _solve3d_problem()
    opts = SolverOptions(grad_tol=1e-6, seed=7)
    bound = 11.6 if sys.version_info >= (3, 11) else 13.0
    assert traced_peak(lambda: solve_penalized(cfg, pot, grid, opts), 8 * grid.size) < bound


def test_solve_leaves_no_grid_array_behind():
    # a grid no other test solves on, so nothing of it is cached before the
    # solve; once its field and report are dropped, traced memory is back
    import gc
    import tracemalloc
    grid = GridSpec(L=12.0, M=26, dim=3)
    cfg, pot = _solve3d_problem()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        u, report = solve_penalized(cfg, pot, grid, SolverOptions(grad_tol=1e-5, seed=7))
        assert report.converged
        del u, report
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 0.5 * 8 * grid.size
