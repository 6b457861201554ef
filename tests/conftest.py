"""Shared fixtures and independent oracles for the test suite."""

import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from choquard import (BallRegion, CheckResult, ConfigError, GridSpec, Field, PotentialSpec,
                      ProblemConfig, build_penalized_context, calibrate_penalization,
                      clipped_quadratic_V, constant_V, riesz_convolve)
from choquard.config import REGION_LEAVES_DOMAIN, region_leaves_domain, sampled_well
from choquard.energy import root_decreasing, sampled_hartree_sup, shell_of_B, shell_samples


# ------------------------------------------------------------ test inputs

def random_smooth_A(dim: int, L: float, amplitude: float, seed: int):
    """Band-limited random vector potential (three modes per component),
    periodic over [-L, L]^dim."""
    n_modes = 3
    rng = np.random.default_rng(seed)
    ks = rng.integers(1, 4, size=(dim, n_modes, dim))
    phases = rng.uniform(0, 2 * np.pi, size=(dim, n_modes))
    amps = rng.normal(size=(dim, n_modes)) * amplitude / np.sqrt(n_modes)

    def A(points):
        p = np.asarray(points)
        out = np.zeros(p.shape[:-1] + (dim,))
        for a in range(dim):
            for m in range(n_modes):
                arg = np.sum(p * ks[a, m] * (np.pi / L), axis=-1) + phases[a, m]
                out[..., a] += amps[a, m] * np.sin(arg)
        return out
    return A


def region_mask(cfg: ProblemConfig, grid: GridSpec, pot: PotentialSpec) -> np.ndarray:
    """The blown-up region Lambda/eps of the rescaled equation x -> eps*x,
    as a mask on the grid.

    Raises ConfigError when the blown-up region does not fit the box.
    """
    if region_leaves_domain(cfg, grid, pot):
        raise ConfigError(REGION_LEAVES_DOMAIN)
    return sampled_well(pot, cfg.eps, grid)[1]


# ----------------------------------------------------------------- oracles

def brute_force_riesz(vals: np.ndarray, kernel: np.ndarray, hV: float) -> np.ndarray:
    """Direct O(n^2) circular summation against the sampled kernel table:
    out[i] = sum_j kernel[(i - j) mod M, ...] * vals[j] * h^N."""
    shape = vals.shape
    M = shape[0]
    dim = vals.ndim
    idx = np.indices(shape).reshape(dim, -1)
    flat = vals.reshape(-1)
    out = np.zeros(len(flat))
    for a in range(len(flat)):
        ia = idx[:, a]
        delta = tuple((ia[d] - idx[d]) % M for d in range(dim))
        out[a] = np.sum(kernel[delta] * flat)
    return (out * hV).reshape(shape)


def riesz_kernel_table(grid: GridSpec, mu: float) -> np.ndarray:
    """|x|^-mu at the nearest periodic image of every grid displacement, the
    zero cell holding the kernel's mean over the ball of volume h^N:
    |S^{N-1}| r^{N-mu} / ((N - mu) h^N) with |B_1| r^N = h^N."""
    from math import gamma, pi
    N, M, h = grid.dim, grid.M, grid.h
    d2 = (np.minimum(np.arange(M), M - np.arange(M)) * h) ** 2
    r2 = sum(np.meshgrid(*([d2] * N), indexing="ij"))
    table = np.zeros(grid.shape)
    table[r2 > 0] = r2[r2 > 0] ** (-mu / 2)
    r = h * (gamma(N / 2 + 1) / pi ** (N / 2)) ** (1 / N)
    table[(0,) * N] = 2 * pi ** (N / 2) / gamma(N / 2) * r ** (N - mu) / ((N - mu) * h ** N)
    return table


def reference_band_limited_field(grid: GridSpec, rng: random.Random,
                                 complex_valued: bool = True, n: int = 1) -> np.ndarray:
    """The n draws of `band_limited_field` by their definition, stacked:
    field after field and mode after mode, N uniforms `rng.random()` give
    the wavenumbers floor(u (2 top + 1)) - top, top = max(2, M/8), and two
    more u1, u2 the coefficient sqrt(-2 log(1 - u1)) e^(2 pi i u2); each
    field's coefficients scattered onto the full spectrum, one full inverse
    transform (np.fft.ifftn) times M^N, then the window by its mesh formula
    (`mesh_window`) and the normalization."""
    top = max(2, grid.M // 8)
    coeffs = np.zeros((n,) + grid.shape, dtype=complex)
    for i in range(n):
        for _ in range(12):
            k = tuple((math.floor(rng.random() * (2 * top + 1)) - top) % grid.M
                      for _ in range(grid.dim))
            u1, u2 = rng.random(), rng.random()
            coeffs[(i,) + k] += np.sqrt(-2.0 * np.log1p(-u1)) * np.exp(2j * np.pi * u2)
    axes = tuple(range(1, grid.dim + 1))
    vals = np.fft.ifftn(coeffs, axes=axes) * grid.size
    if not complex_valued:
        vals = vals.real
    vals = vals * mesh_window(grid)
    return vals / np.max(np.abs(vals), axis=axes, keepdims=True)


def mesh_window(grid: GridSpec) -> np.ndarray:
    """The sample window exp(-sum (x/0.6L)^8) on the whole coordinate mesh,
    zero on the grid's outermost layer."""
    w = np.exp(-np.sum((grid.mesh() / (0.6 * grid.L)) ** 8, axis=-1))
    for a in range(grid.dim):
        np.moveaxis(w, a, 0)[[0, -1]] = 0.0
    return w


def weighted_seminorm_sq(op, u: np.ndarray):
    """The spectral seminorm h^N / M^N sum |xi|^(2s) |u^|^2 with the half
    spectrum weighted by a table: 2 |xi|^(2s), halved at columns 0 and M/2,
    times |u^|^2; a complex u is the sum of its two parts' values."""
    if np.iscomplexobj(u):
        return weighted_seminorm_sq(op, u.real) + weighted_seminorm_sq(op, u.imag)
    g = op.grid
    weights = 2.0 * op.mult
    weights[..., [0, g.M // 2]] *= 0.5
    uh = np.fft.rfftn(u, axes=tuple(range(-g.dim, 0)))
    return g.integrate(weights * (uh.real ** 2 + uh.imag ** 2)) / g.size


def nehari_closed_form(u: Field, ctx) -> float:
    """Analytic ray parameter for the pure power model on fields supported in
    the region: the pairing is t^2 ||u||^2 - (2/q) t^(2q) D with
    D = sum (|x|^-mu * |u|^q) |u|^q h^N, so t* = (q ||u||^2 / (2D))^(1/(2q-2))."""
    q = ctx.cfg.q
    n2 = ctx.norm_eps_sq(u.values)
    p = np.abs(u.values) ** q
    D = float(np.sum(riesz_convolve(p, ctx.hartree) * p) * ctx.grid.cell_volume())
    return (q * n2 / (2.0 * D)) ** (1.0 / (2.0 * q - 2.0))


def check_hartree_bound(ctx, *, n_samples: int = 50, seed: int = 1234) -> CheckResult:
    """Fresh-sample estimate of sup ||K(u)||_inf / ell0 over the bounded set B;
    the calibration keeps it at 1/4, the requirement is < 1/2."""
    pen = ctx.pen
    if pen is None or pen.kappa is None:
        raise ValueError("check_hartree_bound needs a calibrated context")
    shell = shell_of_B(pen.kappa)
    sup, used = sampled_hartree_sup(ctx, shell, n_samples, seed)
    ratio = sup / pen.ell0
    return CheckResult("hartree_bound", ratio < 0.5, ratio, 0.5, 0.0,
                       {"samples": used, "seed": seed, "shell": shell})


def mpg_shell_radius(ctx, *, n_samples: int = 30, seed: int = 7):
    """Shell radius rho from the quadratic-vs-superquadratic crossover.

    Estimates the constant C in  quarter-Hartree(u) <= C(||u||^4 + ||u||^2q)
    by sampled suprema over normalized rays (inflated fivefold, since a
    sampled sup underestimates the true one), then solves
    C(rho^4 + rho^(2q)) = rho^2/4, so the energy on the shell ||u|| = rho is
    at least rho^2/4 > 0.  Returns (rho, C)."""
    q = ctx.cfg.q
    ts = np.logspace(-2, 1.5, 15)
    C_emp = 0.0
    for U in shell_samples(ctx, 1.0, n_samples, seed):
        absU = np.abs(U)
        for t in ts:  # one stacked convolution per group and ray parameter
            Gv = ctx.G_of((t * absU) ** 2)
            har = ctx.grid.integrate(riesz_convolve(Gv, ctx.hartree) * Gv)
            C_emp = max(C_emp, 0.25 * float(np.max(har)) / (t ** 4 + t ** (2 * q)))
    if C_emp == 0:
        raise ValueError("could not estimate the superquadratic constant")
    C_emp *= 5.0

    # rho solves C (rho^2 + rho^(2q-2)) = 1/4; it lies below the first rho at
    # which either term reaches 1/4, and above the first at which one reaches 1/8
    def bound(quarter):
        return min((quarter / C_emp) ** 0.5, (quarter / C_emp) ** (1.0 / (2 * q - 2)))

    def gap(r):
        return 0.25 - C_emp * (r ** 2 + r ** (2 * q - 2))
    hi = bound(0.25)
    rho = root_decreasing(gap, bound(0.125), hi, gap(hi))
    return rho, C_emp


def gaussian_frac_lap(N: int, s: float, r2) -> np.ndarray:
    """(-Delta)^s e^{-|x|^2/4} on R^N at |x|^2 = r2, from the Gaussian's
    transform (4 pi)^{N/2} e^{-|xi|^2}:
    Gamma(N/2 + s) / Gamma(N/2) 1F1(N/2 + s; N/2; -|x|^2/4)."""
    from scipy.special import gamma, hyp1f1
    return gamma(N / 2 + s) / gamma(N / 2) * hyp1f1(N / 2 + s, N / 2, -np.asarray(r2) / 4)


def gaussian_seminorm_sq(N: int, s: float) -> float:
    """[e^{-|x|^2/4}]^2 = int |xi|^{2s} |u^(xi)|^2 dxi / (2 pi)^N on R^N,
    = 2^N |S^{N-1}| Gamma(s + N/2) / 2^{s + N/2 + 1}."""
    from scipy.special import gamma
    sphere = 2 * np.pi ** (N / 2) / gamma(N / 2)
    return float(2 ** N * sphere * gamma(s + N / 2) / 2 ** (s + N / 2 + 1))


def central_diff_energy(ctx, u: Field, v: Field, delta: float = 1e-6) -> float:
    from choquard import energy_value
    up = Field(u.values + delta * v.values, u.grid)
    um = Field(u.values - delta * v.values, u.grid)
    return (energy_value(up, ctx) - energy_value(um, ctx)) / (2 * delta)


def mesh_sampled_well(pot: PotentialSpec, eps: float, grid: GridSpec):
    """`config.sampled_well` by its formula on the whole coordinate mesh: V
    and the region at eps x, the cells outside with an axis neighbour inside,
    and the least V on them (None when there are none)."""
    pts = eps * grid.mesh()
    vvals = np.asarray(pot.V(pts))
    inside = pot.region.contains(pts)
    bnd = np.zeros_like(inside)
    for a in range(grid.dim):
        bnd |= ~inside & (np.roll(inside, -1, axis=a) | np.roll(inside, 1, axis=a))
    return vvals, inside, float(np.min(vvals[bnd])) if bnd.any() else None


def mesh_magnetic_on(A, grid: GridSpec) -> bool:
    """`operators.magnetic_on` by its formula on the flat list of all grid points."""
    return A is not None and bool(np.max(np.abs(np.asarray(A(grid.points())))) > 0)


def traced_peak(call, field_bytes: int) -> float:
    """The peak of the memory traced by tracemalloc while `call()` runs, above
    what is traced when it starts, in units of `field_bytes`. The call is made
    once untraced first, so that caches it fills are not counted."""
    call()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - start) / field_bytes
    finally:
        tracemalloc.stop()


def align_phase(u: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rotate u by the global phase best matching ref."""
    inner = np.sum(np.conj(ref) * u)
    if np.abs(inner) == 0:
        return u
    return u * (np.abs(inner) / inner)


# ---------------------------------------------------------------- fixtures

def _calibrated(ctx):
    """The context with its penalization calibrated (20 samples, seed 3), and
    the canonical bump the calibration reads kappa from: the region's bump
    carrying the plane-wave phase of A(0)."""
    from choquard.sampling import bump_in_region
    cal = calibrate_penalization(ctx, n_samples=20, seed=3)
    u0 = bump_in_region(ctx.grid, ctx.lambda_mask)
    return replace(ctx, pen=cal.pen), Field(ctx.a0_plane_wave(u0.values), ctx.grid)


@pytest.fixture(scope="session")
def grid1d() -> GridSpec:
    return GridSpec(L=16.0, M=128, dim=1)


@pytest.fixture(scope="session")
def magnetic_ctx(grid1d):
    """Calibrated penalized context with a genuine magnetic potential (1D)."""
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0, coeff=1.0, cap=4.0),
                        A=random_smooth_A(1, grid1d.L * cfg.eps, 0.4, seed=11),
                        region=BallRegion((0.0,), 1.0))
    ctx, u0 = _calibrated(build_penalized_context(cfg, pot, grid1d))
    return ctx, pot, u0


@pytest.fixture(scope="session")
def plain_ctx(grid1d):
    """Calibrated penalized context with A == 0 (spectral backend)."""
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    pot = PotentialSpec(V=clipped_quadratic_V(1.0, coeff=1.0, cap=4.0),
                        A=None, region=BallRegion((0.0,), 1.0))
    ctx, u0 = _calibrated(build_penalized_context(cfg, pot, grid1d))
    return ctx, pot, u0


@pytest.fixture(scope="session")
def allcover_pot():
    """Region covering every grid point of a 1D grid while fitting the box."""
    def make(grid: GridSpec, eps: float) -> PotentialSpec:
        radius = eps * (grid.L - grid.h / 4)
        return PotentialSpec(V=constant_V(1.0), A=None,
                             region=BallRegion((0.0,) * grid.dim, radius))
    return make
