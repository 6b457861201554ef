"""Power-model nonlinearity, its primitive, and the penalized pair.

The model is f(t) = t^((q-2)/2) for t >= 0 (zero for t < 0), so that
F(t) = (2/q) t^(q/2), and the truncation threshold a solving f(a) = V0/ell0
has the closed form a = (V0/ell0)^(2/(q-2)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PowerNonlinearity:
    q: float

    def __post_init__(self):
        if not self.q > 2:
            raise ValueError("growth exponent q must exceed 2")

    def f(self, t):
        t = np.asarray(t, dtype=float)
        return np.maximum(t, 0.0) ** ((self.q - 2.0) / 2.0)

    def F(self, t):
        t = np.asarray(t, dtype=float)
        return (2.0 / self.q) * np.maximum(t, 0.0) ** (self.q / 2.0)


@dataclass(frozen=True)
class PenalizationParams:
    """Truncation data: cap value f(a) = V0/ell0 at threshold a, and the
    mountain-pass cap kappa that sets the bounded set B. `calibrate_penalization`
    always sets kappa; it is None only for params built directly, which
    `check_hartree_bound` refuses."""

    ell0: float
    a: float
    V0: float
    kappa: float | None = None

    @property
    def cap(self) -> float:
        return self.V0 / self.ell0


def g_eval(t, inside, nl: PowerNonlinearity, pen: PenalizationParams | None):
    """g(x, t): f inside the region, f capped at f(a) outside."""
    f = nl.f(t)
    if pen is None:
        return f
    return np.where(inside, f, np.minimum(f, pen.cap))


def G_eval(t, inside, nl: PowerNonlinearity, pen: PenalizationParams | None):
    """G(x, t) = integral of g(x, .) from 0 to t: F inside the region and up
    to the threshold a, continued linearly with slope f(a) past it."""
    t = np.asarray(t, dtype=float)
    F = nl.F(t)
    if pen is None:
        return F
    return np.where(inside | (t <= pen.a), F, nl.F(pen.a) + pen.cap * (t - pen.a))


def threshold_for(ell0: float, V0: float, q: float) -> float:
    return (V0 / ell0) ** (2.0 / (q - 2.0))
