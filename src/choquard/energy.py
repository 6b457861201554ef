"""Penalized energy functional, its gradient, Nehari projection, and the
calibration of the penalization parameters."""

from __future__ import annotations

from dataclasses import dataclass, replace, field
from random import Random
from typing import NamedTuple

import numpy as np

from .config import (REGION_LEAVES_DOMAIN, ConfigError, ProblemConfig, PotentialSpec,
                     region_leaves_domain, sampled_well)
from .grids import Field, GridSpec, axis_sum
from .nonlinearity import (PenalizationParams, PowerNonlinearity, G_eval, g_eval,
                           threshold_for)
from .operators import (HartreeCache, QuadratureOperator, SpectralOperator,
                        build_hartree_cache, magnetic_on, quadratic_form,
                        riesz_convolve)
from .sampling import band_limited_field, bump_in_region, draw_modes


class NehariError(RuntimeError):
    pass


@dataclass
class EnergyContext:
    """Everything needed to evaluate the energy of one problem instance.

    Treated as immutable after construction; shared read-only by the solver.
    `pen is None` means the un-truncated nonlinearity (g = f everywhere),
    which is both the pre-calibration state and the limit functional.
    `op` is the fractional (magnetic) Laplacian of the problem, built once.
    """

    cfg: ProblemConfig
    grid: GridSpec
    V_eps: np.ndarray = field(repr=False)
    lambda_mask: np.ndarray = field(repr=False)
    nl: PowerNonlinearity = field(repr=False)
    hartree: HartreeCache = field(repr=False)
    op: SpectralOperator | QuadratureOperator = field(repr=False)
    pen: PenalizationParams | None = None

    # ------------- operator pieces

    def apply_op(self, u: np.ndarray) -> np.ndarray:
        """The operator on u; leading axes of u stack fields (one pass)."""
        return self.op.apply(u)

    def seminorm_sq(self, u: np.ndarray, Lu: np.ndarray | None = None):
        """[u]^2 = Re<Lu, u> h^N from the image Lu = apply_op(u) when it is
        given; without it, the operator's own `seminorm_sq` (on the spectral
        backend one forward transform, by Parseval, in place of an operator
        pass). Leading axes of u stack fields."""
        if Lu is None:
            return self.op.seminorm_sq(u)
        return quadratic_form(self.grid, u, Lu)

    def potential_sq(self, u: np.ndarray):
        return self.grid.integrate(self.V_eps * np.abs(u) ** 2)

    def norm_eps_sq(self, u: np.ndarray, Lu: np.ndarray | None = None):
        return self.seminorm_sq(u, Lu) + self.potential_sq(u)

    def precond_multiplier(self) -> np.ndarray:
        """The descent's preconditioner P = 1/(1 + |xi|^(2s) + V0), a Fourier
        multiplier on the half spectrum; |xi|^(2s) is the spectral operator's
        own symbol when it has one. The 1 is load-bearing: without it the
        benchmark solves take more iterations (seeds 7000-7003: solve3d
        18-21 -> 28-31, paper1d 23-24 -> 28-32 per eps of the sweep,
        magnetic2d 19 -> 26-27, magnetic1d sweep totals 137-148 -> 151-174);
        only paper1d's limit solve takes fewer, 15 -> 13."""
        symbol = (self.op.mult if isinstance(self.op, SpectralOperator)
                  else self.grid.wavenumber_mesh_sq() ** self.cfg.s)
        return 1.0 / (1.0 + symbol + self.cfg.V0)

    def a0_plane_wave(self, vals: np.ndarray) -> np.ndarray:
        """`vals` times the plane wave e^{i A(0).x}, the gauge of the operator's
        A at the origin; the phase A(0).x is a sum of per-axis terms."""
        if self.op.A is not None:
            A0 = np.asarray(self.op.A(np.zeros((1, self.grid.dim))))[0]
            if np.any(A0 != 0):
                ax = self.grid.axis()
                vals = vals * np.exp(1j * axis_sum([ax * a for a in A0]))
        return vals

    # ------------- nonlinear pieces

    def G_of(self, density: np.ndarray) -> np.ndarray:
        return G_eval(density, self.lambda_mask, self.nl, self.pen)

    def g_of(self, density: np.ndarray) -> np.ndarray:
        return g_eval(density, self.lambda_mask, self.nl, self.pen)

    def hartree_potential(self, density: np.ndarray) -> np.ndarray:
        """K(u) = |x|^(-mu) * G(eps x, |u|^2)."""
        return riesz_convolve(self.G_of(density), self.hartree)


def build_penalized_context(cfg: ProblemConfig, pot: PotentialSpec,
                            grid: GridSpec) -> EnergyContext:
    """Context for the rescaled penalized problem on `grid`, without a
    penalization (`pen` None).

    The operator is the singular-integral quadrature when the magnetic
    potential A(eps x) is nonzero on the grid, else the faster spectral operator.
    """
    if region_leaves_domain(cfg, grid, pot):
        raise ConfigError(REGION_LEAVES_DOMAIN)
    V_eps, lambda_mask, _ = sampled_well(pot, cfg.eps, grid)
    A = pot.A_eps(cfg.eps)
    if magnetic_on(A, grid):
        op = QuadratureOperator(grid, cfg.s, A)
    else:
        op = SpectralOperator(grid, cfg.s)
    return EnergyContext(
        cfg=cfg, grid=grid, V_eps=V_eps, lambda_mask=lambda_mask,
        nl=PowerNonlinearity(cfg.q), hartree=build_hartree_cache(grid, cfg.mu),
        op=op)


def build_limit_context(cfg: ProblemConfig, grid: GridSpec) -> EnergyContext:
    """Context for the limit problem: V == V0, A == 0, un-truncated f."""
    V = np.full(grid.shape, float(cfg.V0))
    return EnergyContext(
        cfg=replace(cfg, eps=1.0), grid=grid, V_eps=V,
        lambda_mask=np.ones(grid.shape, dtype=bool),
        nl=PowerNonlinearity(cfg.q), hartree=build_hartree_cache(grid, cfg.mu),
        op=SpectralOperator(grid, cfg.s), pen=None)


# ------------------------------------------------------------------ energy

@dataclass(frozen=True)
class EnergyReport:
    seminorm_sq: float
    potential_sq: float
    hartree: float
    J: float
    nehari_residual: float


def energy_terms(u: Field, ctx: EnergyContext, Lu: np.ndarray | None = None,
                 K: np.ndarray | None = None) -> EnergyReport:
    """All energy pieces of one field from shared quadratures. `Lu`, the
    operator image of u, and `K`, its Hartree potential, save the operator
    pass and the convolution when they are already known."""
    v = u.values
    sem = ctx.seminorm_sq(v, Lu)
    potq = ctx.potential_sq(v)
    density = np.abs(v) ** 2
    Gv = ctx.G_of(density)
    if K is None:
        K = riesz_convolve(Gv, ctx.hartree)
    har = float(ctx.grid.integrate(K * Gv))
    J = 0.5 * (sem + potq) - 0.25 * har
    resid = sem + potq - float(ctx.grid.integrate(K * ctx.g_of(density) * density))
    return EnergyReport(sem, potq, har, J, resid)


def energy_value(u: Field, ctx: EnergyContext, Lu: np.ndarray | None = None,
                 K: np.ndarray | None = None) -> float:
    return energy_terms(u, ctx, Lu, K).J


def gradient(u: Field, ctx: EnergyContext, Lu: np.ndarray | None = None,
             K: np.ndarray | None = None) -> Field:
    """L2 gradient: (-Delta)^s_A u + V_eps u - (K u) g(eps x, |u|^2) u.

    This is the exact discrete gradient of the discrete energy, so central
    finite differences of `energy_value` reproduce it to truncation error.
    `Lu`, the operator image of u, and `K`, its Hartree potential, save the
    pass and the convolution when they are already known.
    """
    v = u.values
    density = np.abs(v) ** 2
    if K is None:
        K = ctx.hartree_potential(density)
    if Lu is None:
        Lu = ctx.apply_op(v)
    # one output of the result's type (Lu is complex for a real u on a
    # magnetic operator), the terms added into it in the order of the formula
    out = np.multiply(ctx.V_eps, v, out=np.empty(v.shape, np.result_type(Lu, v)))
    out += Lu
    Kg = ctx.g_of(density)
    Kg *= K
    out -= np.multiply(Kg, v, out=None if np.iscomplexobj(v) else Kg)
    return Field(out, u.grid)


def nehari_residual(u: Field, ctx: EnergyContext, Lu: np.ndarray | None = None,
                    K: np.ndarray | None = None) -> float:
    return energy_terms(u, ctx, Lu, K).nehari_residual


# ------------------------------------------------------------------ Nehari

# Relative bracket width at which a root search stops.
ROOT_REL_TOL = 1e-12
# Doublings of t a truncated Nehari projection tries for an upper bracket,
# before it reports that the ray has no root.
NEHARI_BRACKET_DOUBLINGS = 64


def root_decreasing(fn, lo: float, hi: float, f_hi: float) -> float:
    """Root of a decreasing `fn` between bounds lo < hi, given f_hi = fn(hi),
    by the Illinois variant of regula falsi (Dowell & Jarratt, BIT 11, 1971):
    the secant point of the bracket, with the value kept at an end halved
    whenever the other end moves twice in a row. A secant point outside the
    bracket falls back to the midpoint, and one closer to an end than half
    the stopping width (roundoff puts it on an end that is at the root) is
    moved to that distance, so that the next step closes the bracket. An end
    where fn has already crossed zero (roundoff at a bound that is the root)
    is returned."""
    f_lo = fn(lo)
    if f_lo <= 0:
        return lo
    if f_hi >= 0:
        return hi
    side = 0  # +1: lo moved last, -1: hi moved last
    while hi - lo > ROOT_REL_TOL * hi:
        t = lo + f_lo * (hi - lo) / (f_lo - f_hi)
        if not lo <= t <= hi:
            t = 0.5 * (lo + hi)
        step = 0.5 * ROOT_REL_TOL * hi
        t = min(max(t, lo + step), hi - step)
        f = fn(t)
        if f > 0:
            lo, f_lo = t, f
            if side > 0:
                f_hi *= 0.5
            side = 1
        elif f < 0:
            hi, f_hi = t, f
            if side < 0:
                f_lo *= 0.5
            side = -1
        else:
            return t
    return 0.5 * (lo + hi)


class Ray(NamedTuple):
    """A Nehari projection: the ray parameter t, the Hartree potential
    K = |x|^-mu * G(|t u|^2) of the projected point t u, and its energy
    J = J(t u), made from sums the projection already holds."""

    t: float
    K: np.ndarray
    J: float


def nehari_project(u: Field, ctx: EnergyContext, *, Lu: np.ndarray | None = None) -> Ray:
    """The unique t > 0 with <J'(t u), t u> = 0, the Hartree potential of
    t u, which the energy and gradient of t u take as `K=`, and J(t u).

    Where the truncation is inactive, the power model makes the pairing over
    t^2 equal ||u||_eps^2 - t^(2q-2) X with X = sum K1 f(|u|^2) |u|^2 h^N and
    K1 = |x|^-mu * F(|u|^2), so t = (||u||_eps^2 / X)^(1/(2q-2)) and, as
    F(t^2 r) = t^q F(r), the potential is t^q K1; as f(r) r = q F(r) / 2,
    the Hartree term is 2/q times the pairing, so J(t u) is
    (1/2 - 1/(2q)) t^2 ||u||_eps^2: one convolution in all. That is the
    answer when `ctx.pen` is None or t^2 |u|^2 <= a outside the region.
    Otherwise it is a lower bound (the truncation only lowers G and g); the
    truncated G grows linearly past a, so t doubled from it until the pairing
    turns negative, at most `NEHARI_BRACKET_DOUBLINGS` times, is an upper
    bound, and the root between them is found by `root_decreasing`, plus one
    convolution for the potential at the root, whose G also gives J. `Lu`,
    the operator image of u when it is already known, saves the operator pass.
    """
    v = u.values
    n2 = float(ctx.norm_eps_sq(v, Lu))
    if not 0 < n2 < np.inf:
        raise NehariError(f"cannot project a field of norm^2 {n2}")
    density = np.abs(v) ** 2
    integrate, q = ctx.grid.integrate, ctx.cfg.q

    F = ctx.nl.F(density)
    K1 = riesz_convolve(F, ctx.hartree, out=F)  # the forward transform reads F last
    del F
    Kfr = ctx.nl.f(density)  # K1 f(|u|^2) |u|^2, in place
    Kfr *= K1
    Kfr *= density
    X = float(integrate(Kfr))
    del Kfr
    t_lo = (n2 / X) ** (1.0 / (2.0 * q - 2.0)) if X > 0 else np.inf
    if not 0 < t_lo < np.inf:
        raise NehariError("ray has no Nehari point")
    # t^2 max |u|^2 is the largest t^2 |u|^2 (rounding is monotone)
    if ctx.pen is None or not t_lo * t_lo * np.max(
            density, where=np.logical_not(ctx.lambda_mask), initial=0.0) > ctx.pen.a:
        K1 *= t_lo ** q
        return Ray(t_lo, K1, (0.5 - 0.5 / q) * t_lo * t_lo * n2)
    del K1

    def phi_over_t2(t: float) -> float:
        # t^2 |u|^2 is formed where G and g read it, so that it is not held
        # across the convolution
        K = riesz_convolve(ctx.G_of((t * t) * density), ctx.hartree)
        Kgr = ctx.g_of((t * t) * density)  # K g(t^2 |u|^2) |u|^2, in place
        Kgr *= K
        Kgr *= density
        val = n2 - float(integrate(Kgr))
        if not np.isfinite(val):
            raise NehariError(f"ray has no Nehari point: non-finite pairing at t={t:g}")
        return val

    t_hi = t_lo
    for _ in range(NEHARI_BRACKET_DOUBLINGS):
        t_hi *= 2.0
        f_hi = phi_over_t2(t_hi)
        if f_hi < 0:
            break
    else:
        raise NehariError("ray has no Nehari point")
    t = root_decreasing(phi_over_t2, t_lo, t_hi, f_hi)
    G = ctx.G_of((t * t) * density)
    K = riesz_convolve(G, ctx.hartree)
    return Ray(t, K, 0.5 * t * t * n2 - 0.25 * float(integrate(K * G)))


# ------------------------------------------------------------- calibration

# Shell samples are built in groups of at most this many bytes, counted as
# complex values (at least one field per group), each group in one stacked
# build and one stacked norm evaluation (one forward transform on the spectral
# backend, one operator pass on the quadrature); the fields do not depend on
# it. A 32^3 field (512 KiB) is built alone, a 784-point field (12 KiB) in
# groups of 10; larger groups raise small 1-D runs' peak memory (+1.3 MB at 512 KiB).
SAMPLE_GROUP_BYTES = 1 << 17


def shell_of_B(kappa: float) -> float:
    """The extreme shell ||u||_eps^2 = 4(kappa + 1) of the bounded set B of the
    penalization, for the mountain-pass cap kappa."""
    return 4.0 * (kappa + 1.0)


def shell_samples(ctx: EnergyContext, shell: float, n: int, seed: int):
    """Random band-limited fields projected to ||u||_eps^2 = shell (at
    `shell_of_B`, the extreme shell of the bounded set B), yielded in stacked
    groups of shape (fields,) + grid shape; zero-norm draws are skipped.
    Complex draws when the operator is magnetic.

    The modes of all n fields are drawn at once (`sampling.draw_modes`), so
    neither the fields nor their order depend on the group size."""
    k, c = draw_modes(ctx.grid, Random(seed), n)
    complex_valued = ctx.op.A is not None
    per_group = max(1, SAMPLE_GROUP_BYTES // (16 * ctx.grid.size))
    for lo in range(0, n, per_group):
        g = slice(lo, lo + per_group)
        U = band_limited_field(ctx.grid, (k[g], c[g]), complex_valued=complex_valued)
        n2 = ctx.norm_eps_sq(U)
        keep = n2 > 0
        if np.any(keep):
            yield U[keep] * np.sqrt(shell / n2[keep]).reshape((-1,) + (1,) * ctx.grid.dim)


def sampled_hartree_sup(ctx: EnergyContext, shell: float, n: int, seed: int
                        ) -> tuple[float, int]:
    """The largest sup |K(u)| over the shell samples of `shell_samples`, and
    how many samples entered it; each group takes one stacked convolution."""
    sup, used = 0.0, 0
    for U in shell_samples(ctx, shell, n, seed):
        sup = max(sup, float(np.max(np.abs(ctx.hartree_potential(np.abs(U) ** 2)))))
        used += len(U)
    return sup, used


@dataclass(frozen=True)
class Calibration:
    """The calibrated penalization and the inputs a report keeps: the sampled
    bound C0, how many shell samples entered the supremum (`samples_used`) and
    how many did not (`samples_skipped`: zero-norm draws)."""

    pen: PenalizationParams
    C0: float
    samples_used: int
    samples_skipped: int


def calibrate_penalization(ctx: EnergyContext, *, n_samples: int = 50,
                           seed: int = 0) -> Calibration:
    """Fix the mountain-pass cap, the convolution bound, and the truncation.

    kappa is twice the ray maximum of the energy of the canonical bump
    supported in the blown-up region (where the truncation is inactive, so the
    value does not depend on it); C0 is the sampled supremum of the Hartree
    sup norm over the shell of B (`shell_of_B`), taken with the un-truncated
    F; ell0 = 4*C0 keeps the bound ratio at 1/4; the threshold
    a = (V0/ell0)^(2/(q-2)) is closed form.
    """
    base = replace(ctx, pen=None)
    u0 = bump_in_region(ctx.grid, ctx.lambda_mask)
    u0 = Field(ctx.a0_plane_wave(u0.values), ctx.grid)
    kappa = 2.0 * nehari_project(u0, base).J
    C0, used = sampled_hartree_sup(base, shell_of_B(kappa), n_samples, seed)
    if not C0 > 0:
        raise ValueError("calibration drew no nonzero field on the shell of B")
    ell0, V0 = 4.0 * C0, ctx.cfg.V0
    pen = PenalizationParams(ell0, threshold_for(ell0, V0, ctx.cfg.q), V0, kappa)
    return Calibration(pen, C0, used, n_samples - used)
