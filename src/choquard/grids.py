"""Uniform periodic grids on the truncated box [-L, L]^N."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# points per chunk when a callable of the coordinates is evaluated on a grid
# (`GridSpec.chunks`): whole first-axis rows, so a 1-D grid of up to this many
# points is one chunk
CHUNK_POINTS = 4096


def axis_sum(terms) -> np.ndarray:
    """sum_a terms[a][i_a] on the grid of indices (i_0, ..., i_{N-1}), one 1-D
    term per axis, added in axis order by broadcasting: each value is the same
    sum, bit for bit, as the sum over the last axis of a coordinate mesh."""
    n = len(terms)
    total = 0.0
    for a, t in enumerate(terms):
        total = total + np.reshape(t, (-1,) + (1,) * (n - 1 - a))
    return total


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with M samples per axis on [-L, L]^N, spacing h = 2L/M.

    Index i on an axis maps to coordinate -L + i*h; the grid is periodic,
    so the point +L is identified with -L and not stored.
    """

    L: float
    M: int
    dim: int = 1

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError("grid extent L must be positive")
        if self.M < 8 or self.M % 2 != 0:
            raise ValueError("grid points M must be even and >= 8")
        if self.dim not in (1, 2, 3):
            raise ValueError("only dimensions 1, 2, 3 are supported")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.M

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.M,) * self.dim

    @property
    def size(self) -> int:
        return self.M ** self.dim

    def axis(self) -> np.ndarray:
        """Coordinates along one axis."""
        return -self.L + self.h * np.arange(self.M)

    def mesh(self) -> np.ndarray:
        """Coordinates of every grid point, shape (M, ..., M, dim)."""
        ax = self.axis()
        return np.stack(np.meshgrid(*([ax] * self.dim), indexing="ij"), axis=-1)

    def points(self) -> np.ndarray:
        """Flat list of grid points, shape (M^dim, dim)."""
        return self.mesh().reshape(-1, self.dim)

    def chunks(self):
        """The coordinates `mesh()[rows]` of consecutive first-axis rows, at
        most `CHUNK_POINTS` points at a time (one row where a row holds more),
        as pairs (rows, coordinates); the rows cover the grid in order."""
        ax = self.axis()
        step = max(1, CHUNK_POINTS // self.M ** (self.dim - 1))
        for lo in range(0, self.M, step):
            rows = slice(lo, min(lo + step, self.M))
            yield rows, np.stack(np.meshgrid(ax[rows], *([ax] * (self.dim - 1)),
                                             indexing="ij"), axis=-1)

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers along one axis for the period-2L torus."""
        return 2.0 * np.pi * np.fft.fftfreq(self.M, d=self.h)

    def wavenumber_mesh_sq(self) -> np.ndarray:
        """|xi|^2 on the half spectrum of a real transform, shape
        (M, ..., M, M//2 + 1): the last axis keeps wavenumbers 0 to M/2."""
        xi2 = self.wavenumbers() ** 2
        return axis_sum([xi2] * (self.dim - 1) + [xi2[:self.M // 2 + 1]])

    def index_to_point(self, index: int | tuple[int, ...]) -> np.ndarray:
        idx = np.atleast_1d(np.array(np.unravel_index(index, self.shape)
                                     if np.isscalar(index) else index))
        return -self.L + self.h * idx.astype(float)

    def cell_volume(self) -> float:
        return self.h ** self.dim

    def integrate(self, a: np.ndarray):
        """h^N times the sum over the grid axes; leading axes are kept."""
        return np.sum(a, axis=tuple(range(-self.dim, 0))) * self.cell_volume()


class NonFiniteFieldError(ValueError):
    """A field was built from values that are not all finite."""


@dataclass(frozen=True)
class Field:
    """Complex- or real-valued function sampled on a GridSpec."""

    values: np.ndarray
    grid: GridSpec = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise ValueError(f"field shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteFieldError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    def l2_norm(self) -> float:
        return float(np.sqrt(self.grid.integrate(np.abs(self.values) ** 2)))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def argmax_index(self) -> tuple[int, ...]:
        """Grid index of the global maximum of |u|, first index on ties."""
        flat = int(np.argmax(np.abs(self.values)))
        return tuple(int(i) for i in np.unravel_index(flat, self.grid.shape))
