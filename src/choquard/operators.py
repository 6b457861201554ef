"""Nonlocal operators: fractional (magnetic) Laplacian, its quadratic form,
and the Riesz-potential convolution.

Normalization: the singular-integral constant is fixed so the A == 0 operator
has Fourier symbol |xi|^(2s). Both operators have one primitive, `apply`; the
discrete [u]^2 = Re<Lu, u> h^N (`quadratic_form`) then approximates the
squared L2 norm of (-Delta)^(s/2) u.

The quadrature approximates the whole-space operator on R^N: true
displacements inside the box, the kernel cut at a ball of radius R_cut, and
the far tail approximated under zero extension of the field by
c_{N,s} * u(x) * |S^{N-1}| / (2s * R_cut^{2s}).  Every pair carries the
midpoint phase e^{i A((x_i+x_j)/2).(x_i - x_j)}, with the literal arithmetic
midpoint, which makes gauge covariance under constant shifts exact in
floating point.  The singular cell is excluded from the pair sum and accuracy
restored with the analytic integral of the second-order Taylor model over a
near zone of `NEAR_RADIUS` cells: the correction -c (W2/2N) Lap_h u, a
discrete Laplacian that is part of the kernel table, with weight
w = W2 / (2N h^(N+2)) at the 2N unit displacements and -2N w at 0.  On the
pair i, i +- e_a the stencil takes the pair phase e^{-+i h A_a(x_i +- (h/2) e_a)},
so it is a covariant second difference and the correction is also exactly
gauge covariant.  Every constant part is assembled once, so `apply` is one
pair sum,

    Lu = diag u - c h^N W u,    diag = c (h^N rowsums + tail),

with W_ij = k(x_i - x_j) e^{i A((x_i+x_j)/2).(x_i - x_j)} over the box (the
field is zero outside it) and rowsums = sum_j k(x_i - x_j) over the box of
the kernel without the stencil (the stencil sums to zero).

The kernel is evaluated once, on the displacements [-M, M-1]^N.  The row
sums do not depend on A and come from one FFT convolution of the kernel with
the box indicator zero-extended to the doubled box; with the stencil added,
that convolution is the whole pair sum when A == 0.  With A, the pair weights
are gathered from two tables built once per operator: the kernel with the
stencil on every displacement d in [-(M-1), M-1]^N, and A on the half-step
lattice -L + m h/2, m in [0, 2M-2]^N, which holds every pair midpoint.  With
flat multi-indices S of stride 2M-1, a pair reads the kernel at S_i - S_j and
A at S_i + S_j.  The weight matrix is Hermitian (the phase is odd under
i <-> j), so only row blocks on and above the diagonal are generated, once
per operator, each of about `PAIR_BLOCK_PAIRS` pairs and cut at its last
column inside the kernel cutoff (the columns past it are exact zeros).  A
pair pass is two products per stored block: the block on its own rows, and
its transpose on the conjugated field for the rows below, conjugated once at
the end.  A pass acts on a stack of fields at once (leading axes), so one
pass serves a whole group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gamma

import numpy as np

from ._fft import fftn, ifftn
from .grids import GridSpec, axis_sum


def frac_lap_constant(N: int, s: float) -> float:
    """c_{N,s} = 4^s Gamma(N/2+s) / (pi^{N/2} |Gamma(-s)|)."""
    return 4.0 ** s * gamma(N / 2 + s) / (np.pi ** (N / 2) * abs(gamma(-s)))


def sphere_area(N: int) -> float:
    return 2.0 * np.pi ** (N / 2) / gamma(N / 2)


def magnetic_on(A, grid: GridSpec) -> bool:
    """True when the vector potential A is given and not zero at every grid
    point, the points where an operator on `grid` evaluates it; A is read on
    the grid's chunks, up to the first that holds a nonzero value."""
    return A is not None and any(np.any(np.abs(A(x.reshape(-1, grid.dim))) > 0)
                                 for _, x in grid.chunks())


# ------------------------------------------------------------------ helpers

def fourier_multiply(mult: np.ndarray, u: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """ifft(mult * fft(u)) over the trailing `mult.ndim` axes of u (leading
    axes stack fields), for a real multiplier that is even in each axis,
    stored on the half spectrum of the real transform (M//2 + 1 last-axis
    columns). The product is taken in place on u's spectrum. Real in gives
    real out; a complex u goes through as its real and imaginary parts,
    stacked so that each transform is one call. The result is written into
    `out` when it is given, an array of u's shape and type that may be u
    itself, since the forward transform is u's last reader."""
    if np.iscomplexobj(u):
        re, im = fourier_multiply(mult, np.stack((u.real, u.imag)))
        return np.add(re, 1j * im, out=out)
    axes = tuple(range(-mult.ndim, 0))
    uh = fftn(u, axes)
    uh *= mult
    return ifftn(uh, axes, u.shape[-1], out)


def quadratic_form(grid: GridSpec, u: np.ndarray, Lu: np.ndarray):
    """[u]^2 = Re<Lu, u> h^N from the image Lu of u under a self-adjoint
    operator, the one form of both operators; leading axes of u stack
    fields, each getting its own value."""
    return grid.integrate(np.real(u.conj() * Lu))


def even_spectrum(k: np.ndarray) -> np.ndarray:
    """The half spectrum of a real kernel that is even in each axis: real,
    and a multiplier for `fourier_multiply`."""
    return fftn(k).real.copy()


def offset_radii(offsets: np.ndarray, h: float, N: int) -> np.ndarray:
    """|h d| on the N-dimensional mesh of integer displacements d with
    components in `offsets`."""
    return np.sqrt(axis_sum([(offsets * h) ** 2] * N))


def near_zone_weight(N: int, s: float, h: float, r0: int) -> float:
    """Second-moment discrepancy of the kernel over the near ball |z| <= (r0+1/2)h.

    W = int_{|z|<=R0} |z|^2 k(z) dz - h^N * sum_{0<|z_m|<=R0} |z_m|^2 k(z_m),
    with k(z) = |z|^(-N-2s); the correction term -c*(W/2N)*Lap restores the
    accuracy the midpoint pair sum loses near the singularity.
    """
    R0 = (r0 + 0.5) * h
    w_int = sphere_area(N) * R0 ** (2 - 2 * s) / (2 - 2 * s)
    rr = offset_radii(np.arange(-r0 - 1, r0 + 2), h, N)
    mask = (rr > 0) & (rr <= R0)
    w_sum = float(np.sum(rr[mask] ** (2 - N - 2 * s))) * h ** N
    return w_int - w_sum


def _free_kernel(grid: GridSpec, s: float, cutoff: float, offsets: np.ndarray) -> np.ndarray:
    """k(h d) = |h d|^(-N-2s) on the mesh of integer displacements d with
    components in `offsets`; zero at d = 0 and beyond the cutoff."""
    rr = offset_radii(offsets, grid.h, grid.dim)
    k = np.zeros_like(rr)
    mask = (rr > 0) & (rr <= cutoff)
    k[mask] = rr[mask] ** (-grid.dim - 2 * s)
    return k


# ----------------------------------------------------------- the quadrature

# cells in the near zone of the second-order correction, by dimension
NEAR_RADIUS = {1: 8, 2: 2, 3: 2}
# pairs per stored row block of the magnetic weights: rows = budget // points
PAIR_BLOCK_PAIRS = 1 << 14


@dataclass
class QuadratureOperator:
    """Assembled singular-integral quadrature of the fractional magnetic
    Laplacian on one grid; every constant part of `apply` is built here."""

    backend = "quadrature"

    grid: GridSpec
    s: float
    A: object | None = None  # vector potential callable, or None for A == 0

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ValueError("fractional order s must lie in (0, 1)")
        g = self.grid
        N, M = g.dim, g.M
        self.c = frac_lap_constant(N, self.s)
        if not magnetic_on(self.A, g):
            self.A = None  # a zero A stores no pair weights
        self.blocks = []
        self.cutoff = g.L - g.h / 2
        tail = sphere_area(N) / (2 * self.s * self.cutoff ** (2 * self.s))
        # the kernel on offsets -M..M-1, centred (|offset| M is unused)
        k = _free_kernel(g, self.s, self.cutoff, np.arange(-M, M))
        self.kernel_fft = even_spectrum(np.fft.ifftshift(k))
        self.rowsums = self._box_convolve(np.ones(g.shape)).copy()
        # the near-zone correction -c (W2/2N) Lap_h as kernel weights: w at the
        # 2N unit displacements, -2N w at 0; it sums to zero
        w = near_zone_weight(N, self.s, g.h, NEAR_RADIUS[N]) / (2 * N * g.h ** (N + 2))
        d = offset_radii(np.arange(-1, 2), 1.0, N)
        k[(slice(M - 1, M + 2),) * N] += w * np.where(d == 0, -2 * N, d == 1)
        if self.A is None:
            self.kernel_fft = even_spectrum(np.fft.ifftshift(k))
        else:
            self.kernel_fft = None  # the pair blocks hold the pair sum
            self.blocks = self._pair_blocks(k[(slice(1, None),) * N].reshape(-1))
        self.pair_weights_mb = sum(B.nbytes for _, B in self.blocks) / 2 ** 20
        self.diag = self.c * (g.cell_volume() * self.rowsums + tail)

    # ---------------- magnetic pair blocks

    def _pair_blocks(self, ktab: np.ndarray) -> list[tuple[slice, np.ndarray]]:
        """The stored row blocks of the pair weights W_ij (module docstring),
        from `ktab`, the kernel with the near-zone stencil by displacement
        (flat); each block's columns run from its first row to the last one
        where the kernel is nonzero."""
        g = self.grid
        M, N = g.M, g.dim
        n = 2 * M - 1
        half = -g.L + 0.5 * g.h * np.arange(n)
        lattice = np.stack(np.meshgrid(*([half] * N), indexing="ij"), axis=-1)
        Atab = np.asarray(self.A(lattice.reshape(-1, N))).T.copy()
        del lattice
        strides = n ** np.arange(N - 1, -1, -1)
        S = strides @ np.indices(g.shape).reshape(N, -1)
        S_off = int((M - 1) * strides.sum())
        xT = g.points().T.copy()
        step = max(1, PAIR_BLOCK_PAIRS // g.size)
        blocks = []
        for lo in range(0, g.size, step):
            rows = slice(lo, min(lo + step, g.size))
            Si = S[rows, None]
            K = ktab[Si - S[lo:] + S_off]
            # k = 0 past the cutoff: drop the trailing zero columns before the phases
            K = K[:, :K.shape[1] - np.argmax(K[:, ::-1].any(axis=0))]
            cols = slice(lo, lo + K.shape[1])
            th = np.einsum("aij,aij->ij", Atab[:, Si + S[cols]],
                           xT[:, rows, None] - xT[:, None, cols])
            blocks.append((rows, K * np.exp(1j * th)))
        return blocks

    # ---------------- the pair sum of apply

    def _box_convolve(self, u: np.ndarray) -> np.ndarray:
        """sum_j k(x_i - x_j) u_j, by one FFT convolution on the doubled box (a
        view into it); leading axes of u stack fields."""
        g = self.grid
        box = (Ellipsis,) + (slice(0, g.M),) * g.dim
        pad = np.zeros(u.shape[:u.ndim - g.dim] + (2 * g.M,) * g.dim,
                       dtype=complex if np.iscomplexobj(u) else float)
        pad[box] = u
        return fourier_multiply(self.kernel_fft, pad)[box]

    def _pair_data(self, u: np.ndarray) -> np.ndarray:
        """W u for the pair quadrature; leading axes of u stack fields, all
        served by one pass over the pair weights."""
        g = self.grid
        if self.A is None:
            return self._box_convolve(u)
        flat = u.reshape(-1, g.size).T
        conj = flat.conj()
        Wu = np.empty(flat.shape, dtype=complex)
        below = np.zeros(flat.shape, dtype=complex)  # conj of the lower part
        for rows, B in self.blocks:
            stop = rows.start + B.shape[1]
            Wu[rows] = B @ flat[rows.start:stop]
            # the rows below the block take its conjugate transpose
            below[rows.stop:stop] += B[:, rows.stop - rows.start:].T @ conj[rows]
        Wu += np.conjugate(below, out=below)
        return Wu.T.reshape(u.shape)

    # ---------------- public evaluations

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The operator on u; leading axes of u stack fields, one pair pass,
        scaled in place and taken from diag u (in place when the types agree)."""
        Wu = self._pair_data(u)
        Wu *= self.c * self.grid.cell_volume()
        Lu = self.diag * u
        return np.subtract(Lu, Wu, out=Lu if Lu.dtype == Wu.dtype else None)

    def seminorm_sq(self, u: np.ndarray):
        """[u]^2 = Re<apply(u), u> h^N; leading axes of u stack fields."""
        return quadratic_form(self.grid, u, self.apply(u))


@dataclass
class SpectralOperator:
    """Fourier-multiplier fractional Laplacian |xi|^(2s) on the periodic grid,
    with the same `apply` and `seminorm_sq` as `QuadratureOperator`; its `A`
    is None (no magnetic potential).

    Accepts s in (0, 1]; s = 1 reproduces the (spectral) Laplacian.
    """

    backend = "spectral"
    pair_weights_mb = 0.0
    A = None

    grid: GridSpec
    s: float
    # |xi|^(2s) on the half spectrum of the real transform
    mult: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.s <= 1.0):
            raise ValueError("spectral path requires s in (0, 1]")
        self.mult = self.grid.wavenumber_mesh_sq() ** self.s

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The multiplier on u; leading axes of u stack fields."""
        return fourier_multiply(self.mult, u)

    def seminorm_sq(self, u: np.ndarray):
        """[u]^2 = Re<apply(u), u> h^N by Parseval, h^N / M^N sum |xi|^(2s)
        |u^|^2: one forward transform, the sum over the half spectrum with
        each column counted as often as it occurs in the full spectrum (once
        at columns 0 and M/2, twice elsewhere: doubled in place, which is
        exact); a complex u is the sum of its real and imaginary parts'
        values. Leading axes of u stack fields."""
        if np.iscomplexobj(u):
            return self.seminorm_sq(u.real) + self.seminorm_sq(u.imag)
        g = self.grid
        uh = fftn(u, tuple(range(-g.dim, 0)))
        power = uh.real ** 2 + uh.imag ** 2
        power[..., 1:g.M // 2] *= 2.0
        power *= self.mult
        return g.integrate(power) / g.size


# ------------------------------------------------------------ Riesz potential

@dataclass(frozen=True)
class HartreeCache:
    """Transform of the Riesz kernel |x|^(-mu) sampled on the box, on the
    half spectrum of the real transform."""

    kernel_spectrum: np.ndarray = field(repr=False)
    spectrum_clip: float = 0.0


def build_hartree_cache(grid: GridSpec, mu: float) -> HartreeCache:
    """Sample the kernel on nearest-image displacements; the singular cell is
    replaced by the cell mean over the equal-volume ball (exact in 1D)."""
    if not (0.0 < mu < grid.dim):
        raise ValueError("kernel not locally integrable: mu must lie in (0, N)")
    M, h, N = grid.M, grid.h, grid.dim
    rr = offset_radii(((np.arange(M) + M // 2) % M) - M // 2, h, N)
    k = np.zeros(grid.shape)
    nz = rr > 0
    k[nz] = rr[nz] ** (-mu)
    omega = np.pi ** (N / 2) / gamma(N / 2 + 1)  # unit-ball volume
    r_eq = h / omega ** (1.0 / N)
    k[(0,) * N] = sphere_area(N) * r_eq ** (N - mu) / ((N - mu) * h ** N)
    spec = even_spectrum(k) * grid.cell_volume()
    clip = float(max(0.0, -spec.min()))
    if clip > 1e-2 * spec.max():
        raise ValueError("Riesz kernel spectrum is grossly indefinite on this grid")
    if clip > 0:
        spec = np.maximum(spec, 0.0)
    return HartreeCache(spec, clip)


def riesz_convolve(h: np.ndarray, cache: HartreeCache,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Circular convolution |x|^(-mu) * h on the grid (real in, real out),
    written into `out` when it is given (h itself, say)."""
    return fourier_multiply(cache.kernel_spectrum, h, out)
