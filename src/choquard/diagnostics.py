"""Named checks for the testable inequalities and limit claims: diamagnetic
monotonicity, tail decay, and concentration trends."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .config import ProblemConfig, PotentialSpec, sampled_well
from .grids import Field, GridSpec, axis_sum
from .operators import QuadratureOperator


# check_decay: the largest |u| / (fitted envelope) beyond L/8, and how far the
# tail's log-log slope may sit from -(N+2s)
DECAY_ENVELOPE_FACTOR = 1.5
DECAY_SLOPE_TOL = 0.3
# check_concentration: allowed rise of V(x_eps) - V0 between sweep steps, and
# the final gap's allowed fraction of the boundary barrier
CONCENTRATION_STEP_SLACK = 1e-2
CONCENTRATION_GAP_FACTOR = 0.1


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    lhs: float
    rhs: float
    tolerance: float
    context: dict = field(default_factory=dict)


# ------------------------------------------------------------- decay fitting

def outer_layer_max(u: Field) -> float:
    """Largest |u| over the outermost layer of grid cells."""
    return max(float(np.max(np.abs(np.take(u.values, [0, u.grid.M - 1], axis=a))))
               for a in range(u.grid.dim))


def _tail_radii(u: Field, x_max_index) -> np.ndarray:
    """Euclidean distance from the argmax, zero-extension view (no wrap): the
    squared offsets along each axis summed by broadcasting."""
    g = u.grid
    x0 = g.index_to_point(tuple(x_max_index))
    r2 = axis_sum([(g.axis() - x0[a]) ** 2 for a in range(g.dim)])
    return np.sqrt(r2, out=r2)


def _periodized_envelope(u: Field, x_max_index, power: float) -> np.ndarray:
    """Shape 1/(1 + r^power) summed over the 3^N neighbor box images, which is
    what the truncated periodic grid actually resolves of the decay bound.
    An image's r^2 is the outer sum of the squared offsets along each axis,
    and its term is formed in place in that one buffer."""
    g = u.grid
    x0 = g.index_to_point(tuple(x_max_index))
    # sq[a][k]: squared offsets along axis a to image k (shift -2L, 0, +2L)
    sq = [((g.axis() - x0[a])[None, :] + np.array([-1.0, 0.0, 1.0])[:, None] * 2 * g.L) ** 2
          for a in range(g.dim)]
    env = np.zeros(g.shape)
    for image in product(range(3), repeat=g.dim):
        term = axis_sum([sq[a][k] for a, k in enumerate(image)])
        np.sqrt(term, out=term)
        term **= power
        term += 1.0
        env += np.reciprocal(term, out=term)
        del term  # one image's buffer at a time
    return env


def fit_decay(u: Field, s: float, x_max_index) -> tuple[float, float, str]:
    """Fit the tail: log-log slope on radii [L/4, L/2] and the envelope
    constant (least squares of |u| against the envelope shape on [L/8, L/2]).

    Returns (slope, C_fit, status); status is "inconclusive" when the field
    has no decaying tail (boundary value above 1e-3 of the max). Tails that
    underflow to exact zero on the slope shell report slope -inf (decay
    steeper than any power).
    """
    return _fit_tail(u, s, x_max_index)[:3]


def _fit_tail(u: Field, s: float, x_max_index):
    """fit_decay's result, then the radii and envelope it fitted (None if u = 0)."""
    g = u.grid
    power = g.dim + 2 * s
    sup = u.sup_norm()
    if sup == 0:
        return float("nan"), float("nan"), "inconclusive", None, None
    status = "inconclusive" if outer_layer_max(u) > 1e-3 * sup else "ok"
    r = _tail_radii(u, x_max_index)
    envp = _periodized_envelope(u, x_max_index, power)
    absu = np.abs(u.values)
    m_fit = (r >= g.L / 8) & (r <= g.L / 2)
    if np.count_nonzero(m_fit) < 4 or not np.any(absu[m_fit] > 0):
        return float("nan"), float("nan"), "inconclusive", r, envp
    # least squares on the shells where the envelope binds (within 2x of the
    # worst ratio); anchoring there makes the fitted envelope reflect the
    # tail shape rather than the shell volume, so steeper-than-envelope
    # fields still end up dominated
    ratio = absu[m_fit] / envp[m_fit]
    binding = ratio >= 0.5 * np.max(ratio)
    uu, ee = absu[m_fit][binding], envp[m_fit][binding]
    C = float(np.sum(uu * ee) / np.sum(ee ** 2))
    m_slope = (r >= g.L / 4) & (r <= g.L / 2) & (absu > 0)
    if np.count_nonzero(m_slope) < 4:
        return float("-inf"), C, status, r, envp
    # least-squares slope in closed form: sum(x~ y) / sum(x~^2), x~ = x - mean(x)
    x = np.log(r[m_slope])
    x -= x.mean()
    slope = float(np.sum(x * np.log(absu[m_slope])) / np.sum(x * x))
    return slope, C, status, r, envp


def check_decay(u: Field, eps: float, x_max_index, s: float) -> CheckResult:
    """Verify the polynomial decay envelope and its exponent on a converged
    field (rescaled coordinates, where the bound reads C/(1 + r^(N+2s)))."""
    slope, C, status, r, envp = _fit_tail(u, s, x_max_index)
    if status == "inconclusive" or np.isnan(slope) or C <= 0:
        return CheckResult("decay", False, float("nan"), DECAY_ENVELOPE_FACTOR, 0.0,
                           {"status": "inconclusive", "eps": eps})
    region = r >= u.grid.L / 8
    max_ratio = float(np.max(np.abs(u.values[region]) / (C * envp[region])))
    envelope_ok = max_ratio <= DECAY_ENVELOPE_FACTOR
    target = -(u.grid.dim + 2 * s)
    slope_ok = abs(slope - target) <= DECAY_SLOPE_TOL
    steeper = slope < target - DECAY_SLOPE_TOL
    passed = envelope_ok and (slope_ok or steeper)
    return CheckResult("decay", passed, max_ratio, DECAY_ENVELOPE_FACTOR, 0.0,
                       {"status": status, "slope": slope, "slope_target": target,
                        "slope_ok": slope_ok, "steeper": steeper, "C_fit": C,
                        "eps": eps})


# --------------------------------------------------------------- diamagnetic

def check_diamagnetic(u: Field, A, s: float) -> CheckResult:
    """Seminorm diamagnetic inequality [|u|]^2 <= [u]_A^2 between the
    quadrature with A and the one with A == 0."""
    sem_A = QuadratureOperator(u.grid, s, A).seminorm_sq(u.values)
    sem_mod = QuadratureOperator(u.grid, s, None).seminorm_sq(np.abs(u.values))
    slack = 1e-12 * max(1.0, sem_A)
    return CheckResult("diamagnetic", bool(sem_mod <= sem_A + slack), sem_mod, sem_A,
                       slack)


# -------------------------------------------------------------- concentration

def check_concentration(reports, pot: PotentialSpec, cfg: ProblemConfig,
                        grid: GridSpec) -> CheckResult:
    """Trends over a sweep: V at the maxima drifts down to the floor, the final
    gap closes relative to the boundary barrier, and the smallest-eps maximum
    sits inside the region. Diverged entries are skipped and flagged."""
    if len(reports) < 3:
        raise ValueError("concentration check needs at least 3 sweep entries")
    good = [r for r in reports if r.converged]
    partial = len(good) < len(reports)
    if len(good) < 2:
        return CheckResult("concentration", False, float("nan"), float("nan"), 0.0,
                           {"partial_coverage": True, "converged": len(good)})
    gaps = [r.V_at_max - cfg.V0 for r in good]
    monotone = all(b <= a + CONCENTRATION_STEP_SLACK for a, b in zip(gaps, gaps[1:]))

    smallest = good[-1]
    v_bnd = sampled_well(pot, smallest.eps, grid)[2]
    barrier = v_bnd - cfg.V0 if v_bnd is not None else float("nan")
    final_gap = gaps[-1]
    gap_ok = final_gap < CONCENTRATION_GAP_FACTOR * barrier
    x_in = bool(pot.region.contains(
        (smallest.eps * np.asarray(smallest.x_eps))[None, :])[0])
    passed = monotone and gap_ok and x_in and not any(np.isnan(gaps))
    return CheckResult("concentration", passed, final_gap,
                       CONCENTRATION_GAP_FACTOR * barrier, CONCENTRATION_STEP_SLACK,
                       {"gaps": gaps, "monotone": monotone, "argmax_inside": x_in,
                        "partial_coverage": partial, "barrier": barrier})
