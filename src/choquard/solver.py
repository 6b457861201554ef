"""Mountain-pass critical points via projected gradient descent on the Nehari
manifold, and the epsilon-sweep concentration experiment."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from random import Random
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .config import (ConfigError, ProblemConfig, PotentialSpec, check_problem,
                     validate_config)
from .diagnostics import fit_decay, outer_layer_max
from .energy import (Calibration, EnergyContext, NehariError, build_limit_context,
                     build_penalized_context, calibrate_penalization, gradient,
                     nehari_project, nehari_residual)
from .grids import Field, GridSpec, NonFiniteFieldError, axis_sum
from .operators import fourier_multiply
from .sampling import _gaussian, band_limited_field, gaussian_bump

ARMIJO_C1 = 1e-4
# absolute slack keeping steps acceptable at the floating-point floor of J
ARMIJO_SLACK = 1e-12
BB_TAU_MIN = 1e-6
BB_TAU_MAX = 1e6
# cos^2 of the angle between s and y below which the step is the short one
BB_SHORT_RATIO = 0.2
MAX_BACKTRACKS = 40

INVALID_PENALIZATION_WARNING = (
    "invalid penalization: |u| outside the region reaches the truncation "
    "threshold, so u solves the truncated problem, not the original equation"
)
INCONCLUSIVE_DECAY_WARNING = (
    "inconclusive decay fit: the field does not decay inside the box (|u| on "
    "its boundary exceeds 1e-3 of the maximum), so the decay exponent is not measured"
)


class SolverError(RuntimeError):
    """Solver failure; carries the last iterate in `.field` when available,
    and in `.progress` the `SolveReport` fields of what the descent did (none
    for a failure before its first iterate)."""

    def __init__(self, message: str, field_: Field | None = None, **progress):
        super().__init__(message)
        self.field = field_
        self.progress = progress


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 2000
    grad_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.grad_tol < np.inf:
            raise ValueError("grad_tol must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(kw_only=True)
class SolveReport:
    """A solve's record. A failed solve's gives only eps, seed, error and the
    descent's progress (`SolverError.progress`), and its other measured
    fields keep these defaults: NaN, empty, 0 or False."""

    c_eps: float = np.nan
    x_eps: tuple[float, ...] = ()
    x_eps_index: tuple[int, ...] = ()
    V_at_max: float = np.nan
    valid_penalization: bool = False
    decay_exponent: float = np.nan
    Cfit: float = np.nan
    iterations: int = 0
    residual: float = np.nan
    converged: bool = False
    nehari_residual: float = np.nan
    sup_norm: float = np.nan
    boundary_ratio: float = np.nan  # largest |u| on the outermost grid layer over sup |u|
    eps: float
    seed: int
    backend: str = ""
    # the calibrated penalization and its inputs; None for the limit problem
    calibration: Calibration | None = None
    # sup |u| outside the region over min(a, sqrt(a)); the solve is a valid
    # penalization exactly when it is below 1 (None without a penalization)
    penalization_margin: float | None = None
    spectrum_clip: float = 0.0  # clip applied to the Riesz kernel spectrum
    pair_weights_mb: float = 0.0  # stored magnetic pair weights of the operator
    nehari_projections: int = 0  # projections that found a ray parameter, the start's included
    warnings: tuple[str, ...] = ()
    error: str | None = None
    decay_status: str = "inconclusive"  # "ok" once a finished solve's tail is fitted
    # seconds per phase of the solve, keys `PHASES` (empty for a failed solve)
    timings: dict[str, float] = field(default_factory=dict)
    energy_history: tuple[float, ...] = field(default=(), repr=False)
    steps: tuple[Step, ...] = field(default=(), repr=False)


def failed_solve(exc: SolverError | ConfigError, eps: float,
                 seed: int) -> tuple[Field | None, SolveReport]:
    """The record of a solve at eps that raised `exc`: its last iterate,
    phase-gauged (None when `exc` carries none), and a report of no result
    with the descent's progress when `exc` carries it."""
    u = getattr(exc, "field", None)
    return (None if u is None else phase_gauge(u),
            SolveReport(eps=eps, seed=seed, error=str(exc),
                        **getattr(exc, "progress", {})))


# the phases of a solve timed in `SolveReport.timings`: building the energy
# context, calibrating the penalization (0 for the limit problem), the descent
# from the start (built here) and the finishing report
PHASES = ("context_s", "calibrate_s", "descent_s", "finish_s")


class Step(NamedTuple):
    """One descent step, read at the iterate it leaves: ||Pg|| there, the
    accepted step tau, its backtracks, the ray parameter t* of the new
    iterate and whether tau was the short step (`bb_step`). A step costs one
    operator pass and backtracks + 1 line-search trials."""

    grad_norm: float
    tau: float
    backtracks: int
    t: float
    short: bool


class Descent(NamedTuple):
    """Result of `minimize_on_nehari`; `Lu` is the operator image of u, `K`
    its Hartree potential and `progress` the `SolveReport` fields of what the
    descent did, as in `SolverError.progress`. The benchmark's trace reads
    `iterations` by position, as index 2."""

    u: Field
    J: float
    iterations: int
    grad_norm: float
    Lu: np.ndarray
    K: np.ndarray
    progress: dict


def phase_gauge(u: Field) -> Field:
    """Rotate the global phase so the value at the argmax is real positive."""
    idx = u.argmax_index()
    val = u.values[idx]
    if np.abs(val) == 0:
        return u
    if not np.iscomplexobj(u.values):
        return u if val > 0 else Field(-u.values, u.grid)
    return Field(u.values * (np.abs(val) / val), u.grid)


def bb_step(ss: float, sy: float, yy: float, tau: float) -> tuple[float, bool]:
    """Adaptive Barzilai-Borwein step (Zhou, Gao & Dai, Comput. Optim. Appl.
    35, 2006) from ss = <s, s>, sy = <s, y> and yy = <y, y>, where s and y are
    the changes of the iterate and of its preconditioned gradient. It is the
    short step BB2 = sy/yy when cos^2(s, y) = sy^2/(ss yy) is below
    `BB_SHORT_RATIO`, the long step BB1 = ss/sy otherwise, and `tau` unchanged
    when sy <= 0. Returns the step and whether it is the short one."""
    if not sy > 0:
        return tau, False
    if sy * sy < BB_SHORT_RATIO * ss * yy:
        return sy / yy, True
    return ss / sy, False


def minimize_on_nehari(ctx: EnergyContext, start: Field, opts: SolverOptions) -> Descent:
    """Barzilai-Borwein projected gradient descent restricted to the Nehari
    manifold, with Armijo backtracking on the restricted energy.

    The step is the adaptive one of `bb_step`: the long step BB1 = <s,s>/<s,y>
    unless s and y are nearly orthogonal (cos^2 below `BB_SHORT_RATIO` = 0.2),
    where the short step BB2 = <s,y>/<y,y> is taken, inner products being
    Re<.,.> h^N. Where the short step never fires, the iterates are those of
    plain BB1.

    A line search takes one operator pass, for its first trial w: a backtrack
    halves the step, so its trial and image are the midpoints of u and w and of
    Lu and Lw. A trial takes one Riesz convolution (about a dozen where the
    truncation is active): the projection reads ||w||_eps from Lw and returns
    the Hartree potential K and energy of t w; the next gradient uses t Lw, K."""
    integrate = ctx.grid.integrate
    Lu = ctx.apply_op(start.values)
    try:
        t0, K, J = nehari_project(start, ctx, Lu=Lu)
    except NehariError as exc:
        raise SolverError(f"start: {exc}", start) from None
    u = Field(t0 * start.values, ctx.grid)
    del start  # a start built where the descent takes it is freed here
    Lu *= t0
    pmult = ctx.precond_multiplier()
    history = [J]
    tau = 1.0 / (1.0 + ctx.cfg.V0)
    u_prev = d_prev = None
    gn = np.inf
    projections, steps = 1, []

    def progress() -> dict:  # the SolveReport fields of what was done
        return {"iterations": len(steps), "steps": tuple(steps),
                "energy_history": tuple(history), "nehari_projections": projections}

    def failed(message: str) -> SolverError:  # stopped at u
        return SolverError(message, u, **progress())

    if not np.isfinite(J):
        raise failed("quadrature blow-up")
    for it in range(opts.max_iters):
        try:
            g = gradient(u, ctx, Lu, K=K)
        except NonFiniteFieldError:
            raise failed("quadrature blow-up") from None
        d = Field(fourier_multiply(pmult, g.values), ctx.grid)
        gn = d.l2_norm()
        if gn < opts.grad_tol:
            return Descent(u, J, it, gn, Lu, K, progress())
        # each field is dropped at its last use, so that the line search holds
        # only u, Lu, d and the trial (`conj` of a real array is the array)
        del K
        slope = float(np.real(integrate(g.values.conj() * d.values)))
        del g
        short = False
        if u_prev is not None:
            sv = u.values - u_prev.values
            u_prev = None
            yv = d.values - d_prev.values
            d_prev = None
            tau, short = bb_step(float(integrate(np.abs(sv) ** 2)),
                                 float(np.real(integrate(sv.conj() * yv))),
                                 float(integrate(np.abs(yv) ** 2)), tau)
            tau = min(max(tau, BB_TAU_MIN), BB_TAU_MAX)
            del sv, yv
        u_prev, d_prev = u, d
        w = u.values - tau * d.values
        Lw = ctx.apply_op(w)
        for halvings in range(MAX_BACKTRACKS):
            try:
                t, K, J_new = nehari_project(Field(w, ctx.grid), ctx, Lu=Lw)
            except NehariError:
                J_new = np.nan
            else:
                projections += 1
            if np.isfinite(J_new) and J_new <= J - ARMIJO_C1 * tau * slope + ARMIJO_SLACK:
                break
            # half the step: the failed trial's potential goes, and the
            # unscaled w and Lw move, in place, to midpoints
            K = None
            tau *= 0.5
            w += u.values
            w *= 0.5
            Lw += Lu
            Lw *= 0.5
        else:
            raise failed("line search stalled before reaching tolerance")
        w *= t  # in place: the accepted trial and its image become u and Lu
        Lw *= t
        u, J, Lu = Field(w, ctx.grid), J_new, Lw
        history.append(J)
        steps.append(Step(gn, tau, halvings, float(t), short))
    raise failed(f"no convergence in {opts.max_iters} iterations (grad norm {gn:.3e})")


def _seeded_perturbation(grid: GridSpec, seed: int) -> np.ndarray:
    """Factor 1 + 0.01 * p for a seeded band-limited p, symmetrized about the
    origin (index reflection on the periodic grid) so a degenerate
    translation-invariant well keeps its flat mode unexcited."""
    pert = band_limited_field(grid, Random(seed), complex_valued=False).values
    for a in range(grid.dim):
        pert = 0.5 * (pert + np.roll(np.flip(pert, axis=a), 1, axis=a))
    return 1.0 + 0.01 * pert


def _default_start(ctx: EnergyContext, opts: SolverOptions) -> Field:
    """Gaussian bump at the potential minimizer inside the blown-up region,
    carrying the plane-wave phase of A(0), plus a small seeded perturbation."""
    g = ctx.grid
    V_masked = np.where(ctx.lambda_mask, ctx.V_eps, np.inf)
    vmin = float(np.min(V_masked))
    at_min = V_masked <= vmin + 1e-12 * max(1.0, abs(vmin))
    # tie-break toward the origin (the natural normalization of the well)
    r2 = np.where(at_min, axis_sum([g.axis() ** 2] * g.dim), np.inf)
    center = g.index_to_point(np.unravel_index(int(np.argmin(r2)), g.shape))
    vals = _gaussian(g, center, ctx.lambda_mask)
    return Field(ctx.a0_plane_wave(vals * _seeded_perturbation(g, opts.seed)), g)


def _limit_start(grid: GridSpec, opts: SolverOptions) -> Field:
    """Unit Gaussian at the origin times the seeded perturbation."""
    base = gaussian_bump(grid).values
    return Field(base * _seeded_perturbation(grid, opts.seed), grid)


def _descend(ctx: EnergyContext, start, opts: SolverOptions, marks: list,
             warnings: tuple[str, ...], cal: Calibration | None = None
             ) -> tuple[Field, SolveReport]:
    """The descent from `start()` and its report, timed by phase: `marks`
    holds the clock readings that open the context, calibration and descent
    phases. A built start is made where the descent takes it, so no caller
    holds it through the descent."""
    run = minimize_on_nehari(ctx, start(), opts)
    marks.append(perf_counter())
    u = phase_gauge(run.u)
    idx, sup = u.argmax_index(), u.sup_norm()
    pen = ctx.pen
    valid, margin = True, None
    if pen is not None:
        sup_out = float(np.max(np.abs(u.values[~ctx.lambda_mask]), initial=0.0))
        thresh = min(pen.a, np.sqrt(pen.a))
        valid = bool(sup_out < thresh)
        margin = sup_out / thresh
    if not valid:
        warnings = warnings + (INVALID_PENALIZATION_WARNING,)
    slope, Cfit, status = fit_decay(u, ctx.cfg.s, idx)
    if status == "inconclusive":
        warnings = warnings + (INCONCLUSIVE_DECAY_WARNING,)
    report = SolveReport(
        c_eps=run.J, x_eps=tuple(float(x) for x in u.grid.index_to_point(idx)),
        x_eps_index=idx, V_at_max=float(ctx.V_eps[idx]), valid_penalization=valid,
        decay_exponent=slope, Cfit=Cfit, residual=run.grad_norm, converged=True,
        nehari_residual=nehari_residual(run.u, ctx, run.Lu, K=run.K),
        sup_norm=sup, boundary_ratio=outer_layer_max(u) / sup if sup > 0 else 0.0,
        eps=ctx.cfg.eps, seed=opts.seed, backend=ctx.op.backend,
        calibration=cal, penalization_margin=margin,
        spectrum_clip=ctx.hartree.spectrum_clip,
        pair_weights_mb=ctx.op.pair_weights_mb, warnings=warnings,
        decay_status=status, **run.progress)
    report.timings = dict(zip(PHASES, np.diff(marks + [perf_counter()]).tolist()))
    return u, report


def solve_penalized(cfg: ProblemConfig, pot: PotentialSpec, grid: GridSpec,
                    opts: SolverOptions | None = None, *,
                    initial: Field | None = None) -> tuple[Field, SolveReport]:
    """Ground state of the penalized rescaled problem at cfg.eps, with the
    penalization calibrated for it; ConfigError, one violation per line, when
    `validate_config` refuses the problem."""
    opts = opts or SolverOptions()
    report = validate_config(cfg, pot, grid).raise_violations()
    marks = [perf_counter()]
    ctx = build_penalized_context(cfg, pot, grid)
    marks.append(perf_counter())
    try:
        cal = calibrate_penalization(ctx, seed=opts.seed)
    except NehariError as exc:
        raise SolverError(f"calibration: {exc}") from None
    ctx = replace(ctx, pen=cal.pen)
    marks.append(perf_counter())
    return _descend(ctx, lambda: _default_start(ctx, opts) if initial is None else initial,
                    opts, marks, report.warnings, cal)


def solve_limit(cfg: ProblemConfig, grid: GridSpec,
                opts: SolverOptions | None = None) -> tuple[Field, SolveReport]:
    """Ground state of the limit problem (V == V0, A == 0, un-truncated f);
    c_eps in the report is the limit level. ConfigError when `check_problem`
    refuses the problem; V, A and the region are not read."""
    opts = opts or SolverOptions()
    warnings = check_problem(cfg, grid).raise_violations().warnings
    marks = [perf_counter()]
    ctx = build_limit_context(cfg, grid)
    marks += [perf_counter()] * 2  # no calibration phase
    return _descend(ctx, lambda: _limit_start(grid, opts), opts, marks, warnings)


def rescale_field(u: Field, ratio: float) -> Field:
    """Warm-start map u(x) -> u(x * ratio) by Keys' cubic convolution, a = -1/2
    (IEEE Trans. ASSP 29(6), 1981), one axis at a time. A point reads samples
    base-1 .. base+2, indices clipped to the box: outside it, the edge value."""
    g = u.grid
    pos = np.clip(np.arange(g.M) * ratio + (1 - ratio) * (g.L / g.h), 0, g.M - 1)
    base = np.floor(pos).astype(int)
    t = (pos - base).reshape((-1,) + (1,) * (g.dim - 1))
    weights = ((-t ** 3 + 2 * t ** 2 - t) / 2, (3 * t ** 3 - 5 * t ** 2 + 2) / 2,
               (-3 * t ** 3 + 4 * t ** 2 + t) / 2, (t ** 3 - t ** 2) / 2)
    vals = u.values
    for a in range(g.dim):
        v = np.moveaxis(vals, a, 0)
        vals = np.moveaxis(sum(w * v[np.clip(base + j - 1, 0, g.M - 1)]
                               for j, w in enumerate(weights)), 0, a)
    return Field(vals, g)


def sweep_epsilon(cfg: ProblemConfig, pot: PotentialSpec, grid: GridSpec,
                  eps_list, opts: SolverOptions | None = None,
                  on_solution=None) -> list[SolveReport]:
    """Solve the penalized problem along a descending eps list, warm-starting
    each solve from the previous solution rescaled by eps_new/eps_old.

    An eps list that is not descending, or a problem that `check_problem`
    refuses, raises ConfigError before the first solve. A solve that fails
    (SolverError, or ConfigError when `validate_config` refuses its eps) is
    recorded by `failed_solve`, its iterate passed to `on_solution` when it
    has one, and the sweep continues from the last converged field; any other
    exception propagates.
    """
    opts = opts or SolverOptions()
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 2:
        raise ConfigError("sweep needs at least two eps values")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("eps list must be strictly descending")
    check_problem(cfg, grid).raise_violations()
    reports: list[SolveReport] = []
    prev_field: Field | None = None
    prev_eps: float | None = None
    for eps in eps_list:
        initial = None
        if prev_field is not None:
            initial = rescale_field(prev_field, eps / prev_eps)
        try:
            u, rep = solve_penalized(replace(cfg, eps=eps), pot, grid, opts, initial=initial)
            prev_field, prev_eps = u, eps
        except (SolverError, ConfigError) as exc:
            u, rep = failed_solve(exc, eps, opts.seed)
        reports.append(rep)
        if on_solution is not None and u is not None:
            on_solution(eps, u, rep)
    return reports
