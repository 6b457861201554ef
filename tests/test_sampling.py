from random import Random

import numpy as np
import pytest

from choquard import Field, GridSpec
from choquard.sampling import band_limited_field, draw_modes

from conftest import reference_band_limited_field, traced_peak


@pytest.mark.parametrize("complex_valued", [True, False], ids=["complex", "real"])
@pytest.mark.parametrize("dim, M, tol", [(1, 256, 0.0), (1, 1024, 0.0),
                                         (2, 28, 1e-14), (3, 32, 1e-14)],
                         ids=["1d-256", "1d-1024", "2d", "3d"])
def test_band_limited_field_matches_full_inverse_transform(dim, M, tol, complex_valued):
    # the same seeded draws in the same order, single (a Field) and stacked:
    # bit-identical in 1-D, where the batched last-axis transform is the full
    # one, and within roundoff of the full transform elsewhere; the generator
    # is left in the same state
    grid = GridSpec(L=8.0, M=M, dim=dim)
    rng, rng_ref = Random(5), Random(5)
    for n in (1, 1, 3):
        if n == 1:
            u = band_limited_field(grid, rng, complex_valued=complex_valued)
            assert isinstance(u, Field)
            got = u.values[None]
        else:
            got = band_limited_field(grid, draw_modes(grid, rng, n),
                                     complex_valued=complex_valued)
        ref = reference_band_limited_field(grid, rng_ref, complex_valued, n)
        assert got.shape == ref.shape == (n,) + grid.shape
        assert np.iscomplexobj(got) == complex_valued
        assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))
    assert rng.random() == rng_ref.random()


@pytest.mark.parametrize("dim, M, n", [(1, 256, 32), (2, 28, 10)], ids=["1d", "2d"])
def test_stacked_build_peaks_below_three_group_arrays(dim, M, n):
    # the build holds the spectrum columns and their transform, then works in
    # place: its peak stays within 3x the complex bytes of the group
    grid = GridSpec(L=8.0, M=M, dim=dim)
    modes = draw_modes(grid, Random(0), n)
    # the untraced first call builds the cached window and roots
    assert traced_peak(lambda: band_limited_field(grid, modes), 16 * n * grid.size) <= 3


@pytest.mark.parametrize("dim, M", [(1, 32), (2, 16), (3, 8)], ids=["1d", "2d", "3d"])
def test_draws_follow_their_law(dim, M):
    # 1000 fields of 12 modes: every wavenumber in [-top, top] occurs within
    # 5 binomial standard deviations of its expected count and no other
    # occurs; the coefficients' real and imaginary parts have mean 0, variance
    # 1 and no correlation, each within 5 standard errors (measured: at most
    # 2.2 for the counts, 1.4 for the moments)
    grid = GridSpec(L=8.0, M=M, dim=dim)
    top, n = max(2, M // 8), 1000
    k, c = draw_modes(grid, Random(1), n)
    assert k.shape == (n, 12, dim) and c.shape == (n, 12)
    signed = (k + top) % M - top
    assert signed.min() == -top and signed.max() == top
    counts = np.bincount((signed + top).ravel(), minlength=2 * top + 1)
    p = 1.0 / (2 * top + 1)
    assert np.all(np.abs(counts - signed.size * p) <= 5 * np.sqrt(signed.size * p * (1 - p)))
    m = c.size
    for part in (c.real, c.imag):
        assert abs(part.mean()) <= 5 / np.sqrt(m)
        assert abs(part.var() - 1.0) <= 5 * np.sqrt(2.0 / m)
    assert abs(np.mean(c.real * c.imag)) <= 5 / np.sqrt(m)


def test_first_draw_of_seed_zero_is_pinned():
    # the wavenumbers of the first field drawn from random.Random(0) on a
    # 64^2 grid (top = 8, as indices mod 64): a change of the stream or of
    # the draw protocol fails here
    k, c = draw_modes(GridSpec(L=8.0, M=64, dim=2), Random(0), 1)
    assert k.tolist() == [[[6, 4], [0, 62], [0, 1], [60, 4], [7, 8], [61, 4],
                           [0, 57], [7, 8], [60, 5], [4, 62], [56, 0], [61, 6]]]
    assert np.all(np.isfinite(c)) and np.all(c != 0)
