"""Power-model nonlinearity, its primitive, and the penalized pair.

The model is f(t) = t^((q-2)/2) for t >= 0 (zero for t < 0), so that
F(t) = (2/q) t^(q/2), and the truncation threshold a solving f(a) = V0/ell0
has the closed form a = (V0/ell0)^(2/(q-2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np


@dataclass(frozen=True)
class PowerNonlinearity:
    q: float

    def __post_init__(self):
        if not self.q > 2:
            raise ValueError("growth exponent q must exceed 2")

    def f(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0, np.maximum(t, 0.0) ** ((self.q - 2.0) / 2.0), 0.0)

    def F(self, t):
        t = np.asarray(t, dtype=float)
        return (2.0 / self.q) * np.where(t > 0, np.maximum(t, 0.0) ** (self.q / 2.0), 0.0)


@dataclass(frozen=True)
class PenalizationParams:
    """Calibrated truncation data: cap value f(a) = V0/ell0 at threshold a."""

    ell0: float
    a: float
    V0: float

    @property
    def cap(self) -> float:
        return self.V0 / self.ell0


def f_truncated(t, nl: PowerNonlinearity, pen: PenalizationParams):
    return np.minimum(nl.f(t), pen.cap)


def F_truncated(t, nl: PowerNonlinearity, pen: PenalizationParams):
    t = np.asarray(t, dtype=float)
    return np.where(t <= pen.a, nl.F(t), nl.F(pen.a) + pen.cap * (t - pen.a))


def g_eval(t, inside, nl: PowerNonlinearity, pen: PenalizationParams | None):
    """g(x, t): f inside the region, truncated f outside."""
    if pen is None:
        return nl.f(t)
    return np.where(inside, nl.f(t), f_truncated(t, nl, pen))


def G_eval(t, inside, nl: PowerNonlinearity, pen: PenalizationParams | None):
    """G(x, t) = integral of g(x, .) from 0 to t."""
    if pen is None:
        return nl.F(t)
    return np.where(inside, nl.F(t), F_truncated(t, nl, pen))


def threshold_for(ell0: float, V0: float, q: float) -> float:
    return (V0 / ell0) ** (2.0 / (q - 2.0))


def calibrate_ell0(samples: Iterable, hartree_sup: Callable[[object], float], *,
                   V0: float, q: float, shell: float | None = None
                   ) -> tuple[PenalizationParams, float]:
    """Estimate the convolution bound C0 over sampled fields and fix ell0 = 4*C0.

    `samples` yields fields inside the bounded set B (norm^2 <= shell when a
    shell is given; others are skipped); `hartree_sup` maps a field to the
    sup norm of its Riesz-convolved Hartree factor. Returns the calibrated
    params together with the estimated C0.
    """
    C0 = 0.0
    used = 0
    for item in samples:
        u, norm_sq = item if isinstance(item, tuple) else (item, None)
        if shell is not None and norm_sq is not None and norm_sq > shell * (1 + 1e-9):
            continue
        C0 = max(C0, float(hartree_sup(u)))
        used += 1
    if used == 0:
        raise ValueError("calibration sampler produced no field inside B")
    if C0 <= 0:
        raise ValueError("calibration sampler produced only zero fields")
    ell0 = 4.0 * C0
    return PenalizationParams(ell0=ell0, a=threshold_for(ell0, V0, q), V0=V0), C0
