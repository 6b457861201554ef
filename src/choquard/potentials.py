"""Electric/magnetic potential evaluators and penalization regions.

All evaluators are numpy-vectorized over point arrays of shape (..., dim);
V maps to shape (...,), A maps to shape (..., dim).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------- regions

@dataclass(frozen=True)
class BallRegion:
    center: tuple[float, ...]
    radius: float

    def contains(self, points: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center)
        return np.linalg.norm(points - c, axis=-1) < self.radius

    def bounding_radius(self) -> float:
        return float(np.linalg.norm(self.center) + self.radius)


@dataclass(frozen=True)
class BoxRegion:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def contains(self, points: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((points > lo) & (points < hi), axis=-1)

    def bounding_radius(self) -> float:
        corners = np.abs(np.array([self.lo, self.hi]))
        return float(np.linalg.norm(np.max(corners, axis=0)))


Region = BallRegion | BoxRegion


# ---------------------------------------------------------------- electric V

def constant_V(V0: float):
    def V(points):
        return np.full(np.asarray(points).shape[:-1], float(V0))
    return V


def clipped_quadratic_V(V0: float, coeff: float = 1.0, cap: float = 4.0):
    """V(x) = V0 + min(coeff*|x|^2, cap); minimum V0 attained at the origin."""
    def V(points):
        r2 = np.sum(np.asarray(points) ** 2, axis=-1)
        return V0 + np.minimum(coeff * r2, cap)
    return V


# ---------------------------------------------------------------- magnetic A

def constant_A(vec):
    v = np.asarray(vec, dtype=float)

    def A(points):
        return np.broadcast_to(v, np.asarray(points).shape[:-1] + v.shape).copy()
    return A


def sine_A(amplitude: float, wavelength: float, dim: int):
    """Smooth bounded field: component a oscillates along axis (a+1) mod dim."""
    def A(points):
        p = np.asarray(points)
        comps = [amplitude * np.sin(2 * np.pi * p[..., (a + 1) % dim] / wavelength)
                 for a in range(dim)]
        return np.stack(comps, axis=-1)
    return A

