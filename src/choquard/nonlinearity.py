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

    # Both raise the array np.maximum returns in place; `**=` takes numpy's
    # sqrt and square paths as `**` does, so the values are the same.

    def f(self, t):
        out = np.maximum(np.asarray(t, dtype=float), 0.0)
        out **= (self.q - 2.0) / 2.0
        return out

    def F(self, t):
        out = np.maximum(np.asarray(t, dtype=float), 0.0)
        out **= self.q / 2.0
        out *= 2.0 / self.q
        return out


@dataclass(frozen=True)
class PenalizationParams:
    """Truncation data: cap value f(a) = V0/ell0 at threshold a, and the
    mountain-pass cap kappa that sets the bounded set B. `calibrate_penalization`
    always sets kappa; it is None only for params built directly, which
    name no bounded set B."""

    ell0: float
    a: float
    V0: float
    kappa: float | None = None

    @property
    def cap(self) -> float:
        return self.V0 / self.ell0


def g_eval(t, inside, nl: PowerNonlinearity, pen: PenalizationParams | None):
    """g(x, t): f inside the region, f capped at f(a) outside; the cap is
    applied in place, to the points outside only."""
    f = nl.f(t)
    if pen is None:
        return f
    f = np.asarray(f)
    return np.minimum(f, pen.cap, out=f, where=np.logical_not(inside))


def G_eval(t, inside, nl: PowerNonlinearity, pen: PenalizationParams | None):
    """G(x, t) = integral of g(x, .) from 0 to t: F inside the region and up
    to the threshold a, continued linearly with slope f(a) past it."""
    t = np.asarray(t, dtype=float)
    G = nl.F(t)
    if pen is None:
        return G
    # in place, on the points outside the region past the threshold only
    G, past = np.asarray(G), np.logical_not(inside | (t <= pen.a))
    np.subtract(t, pen.a, out=G, where=past)
    np.multiply(G, pen.cap, out=G, where=past)
    return np.add(G, nl.F(pen.a), out=G, where=past)


def threshold_for(ell0: float, V0: float, q: float) -> float:
    return (V0 / ell0) ** (2.0 / (q - 2.0))
