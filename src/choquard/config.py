"""Problem data and validation of the standing admissibility assumptions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec
from .operators import magnetic_on
from .potentials import Region

OUTSIDE_THEORY_WARNING = (
    "outside theory hypotheses: the existence/concentration theory requires "
    "N >= 3 and N > 2s; results at this desk scale are numerical only"
)


# largest bound 16 n(n+1)/2 bytes (the Hermitian upper triangle) on the
# stored magnetic pair weights of an n-point grid that a config may ask for
PAIR_STORAGE_LIMIT_BYTES = 1 << 30


class ConfigError(ValueError):
    """Raised when a configuration cannot be used at all (vs. reported violations)."""


@dataclass(frozen=True)
class ProblemConfig:
    """Scalar problem data; the penalization lives in `EnergyContext.pen`."""

    dim: int
    s: float
    mu: float
    q: float
    eps: float
    V0: float

    @property
    def q_upper_bound(self) -> float:
        """2(N-mu)/(N-2s), the admissible growth ceiling when N > 2s."""
        if self.dim <= 2 * self.s:
            return float("inf")
        return 2.0 * (self.dim - self.mu) / (self.dim - 2.0 * self.s)


@dataclass(frozen=True)
class PotentialSpec:
    """Evaluators for the electric potential V, magnetic potential A, and the
    penalization region."""

    V: object  # callable points(...,dim) -> (...)
    A: object | None  # callable points(...,dim) -> (...,dim), or None for A == 0
    region: Region

    def A_eps(self, eps: float):
        """x -> A(eps x), the magnetic potential of the problem rescaled by
        eps, or None for A == 0."""
        if self.A is None:
            return None
        return lambda points: np.asarray(self.A(eps * np.asarray(points)))


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_violations(self) -> "ValidationReport":
        """This report, or ConfigError with one violation per line."""
        if self.violations:
            raise ConfigError("\n".join(self.violations))
        return self


def sampled_well(pot: PotentialSpec, eps: float, grid: GridSpec):
    """V(eps x) on the grid, the mask of the blown-up region Lambda/eps, and
    the least V on the mask's sampled boundary (None when the grid resolves
    no boundary), which the well condition of hypothesis (V2) asks to exceed
    the least V inside. The sampled boundary is the cells outside the region
    with an axis neighbour inside it. V and the region are evaluated on the
    grid's chunks (`GridSpec.chunks`), so no coordinate mesh is built."""
    vvals = np.empty(grid.shape)
    inside = np.empty(grid.shape, dtype=bool)
    for rows, x in grid.chunks():
        x *= eps
        vvals[rows] = pot.V(x)
        inside[rows] = pot.region.contains(x)
    bnd = np.zeros_like(inside)
    for a in range(grid.dim):
        bnd |= ~inside & (np.roll(inside, -1, axis=a) | np.roll(inside, 1, axis=a))
    return vvals, inside, float(np.min(vvals[bnd])) if bnd.any() else None


def pair_storage_refusal(A, grid: GridSpec) -> str | None:
    """Why a magnetic operator for A on `grid` is refused (its pair weights could
    pass the limit), or None; A is evaluated only on a grid past the limit."""
    pair_bytes = 8 * grid.size * (grid.size + 1)
    if pair_bytes <= PAIR_STORAGE_LIMIT_BYTES or not magnetic_on(A, grid):
        return None
    return (f"magnetic pair weights need up to {pair_bytes / 2 ** 20:.0f} MB, over "
            f"the {PAIR_STORAGE_LIMIT_BYTES / 2 ** 20:.0f} MB limit")


REGION_LEAVES_DOMAIN = "penalization region leaves domain"


def region_leaves_domain(cfg: ProblemConfig, grid: GridSpec, pot: PotentialSpec) -> bool:
    """True unless the blown-up region Lambda/eps fits strictly inside the box."""
    return pot.region.bounding_radius() / cfg.eps >= grid.L


def check_problem(cfg: ProblemConfig, grid: GridSpec) -> ValidationReport:
    """The hypotheses on the scalars of the problem and the grid dimension,
    with the theory warnings; reads no potential and no region."""
    bad: list[str] = []
    warn: list[str] = []

    if not (0.0 < cfg.s < 1.0):
        bad.append("s must lie in (0, 1)")
    if not (0.0 < cfg.mu < 2.0 * cfg.s):
        bad.append("mu must lie in (0, 2s)")
    if cfg.mu >= cfg.dim:
        bad.append("mu must be below the dimension N for kernel integrability")
    if not cfg.eps > 0:
        bad.append("eps must be positive")
    if not cfg.V0 > 0:
        bad.append("V0 must be positive")
    if grid.dim != cfg.dim:
        bad.append("grid dimension does not match problem dimension")

    # HLS enters here only: this q range gives 2 < tq < 2*_s with t = 2N/(2N - mu)
    if not cfg.q > 2.0:
        bad.append("q must exceed 2")
    elif cfg.dim > 2 * cfg.s:
        if cfg.q >= cfg.q_upper_bound:
            bad.append(f"q must lie in (2, 2(N-mu)/(N-2s)) = (2, {cfg.q_upper_bound:.6g})")
    else:
        warn.append("q upper bound skipped (N <= 2s)")

    if cfg.dim < 3:
        warn.append(OUTSIDE_THEORY_WARNING)
    return ValidationReport(tuple(bad), tuple(warn))


def validate_config(cfg: ProblemConfig, pot: PotentialSpec, grid: GridSpec) -> ValidationReport:
    """Check every standing assumption, those of `check_problem` first;
    violations are reported, never raised."""
    scalar = check_problem(cfg, grid)
    bad = list(scalar.violations)
    if refusal := pair_storage_refusal(pot.A_eps(cfg.eps), grid):
        bad.append(refusal)

    # potential floor and well structure on the rescaled grid
    vvals, inside, v_bnd = sampled_well(pot, cfg.eps, grid)
    slack = 1e-12 * max(1.0, abs(cfg.V0))
    at = np.unravel_index(np.argmin(vvals), grid.shape)
    v_min = float(vvals[at])
    # a well between samples leaves its least sample above V0 by less than
    # the largest rise from that sample to an axis neighbour
    rise = max(float(vvals[at[:a] + ((at[a] + d) % grid.M,) + at[a + 1:]]) - v_min
               for a in range(grid.dim) for d in (-1, 1))
    if v_min < cfg.V0 - slack:
        bad.append("V falls below the stated floor V0 on the grid")
    elif v_min > cfg.V0 + rise + slack:
        bad.append("V stays above the stated floor V0 on the grid")

    if not inside.any():
        bad.append("penalization region contains no grid point")
    else:
        v_in = float(np.min(vvals[inside]))
        if not bool(pot.region.contains(np.zeros((1, grid.dim)))[0]):
            bad.append("penalization region must contain the origin")
        # the concentration point is in the region, so the limit level and
        # the c_eps / c_V0 check need the floor to be attained there: the
        # region holds the least sample (a well between samples has no
        # sample at V0, wherever it is)
        if v_in > v_min + slack:
            bad.append("V is lower outside the penalization region than inside it, "
                       "so the floor V0 is not attained in the region")
        if v_bnd is None:
            bad.append("penalization region boundary is not resolved by the grid")
        elif not v_bnd > v_in:
            bad.append("V must attain a strictly lower minimum inside the region "
                       "than on its sampled boundary")

    if region_leaves_domain(cfg, grid, pot):
        bad.append(REGION_LEAVES_DOMAIN)

    return ValidationReport(tuple(bad), scalar.warnings)

