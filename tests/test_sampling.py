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
    rng, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
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
    assert rng.normal() == rng_ref.normal()


@pytest.mark.parametrize("dim, M, n", [(1, 256, 32), (2, 28, 10)], ids=["1d", "2d"])
def test_stacked_build_peaks_below_three_group_arrays(dim, M, n):
    # the build holds the spectrum columns and their transform, then works in
    # place: its peak stays within 3x the complex bytes of the group
    grid = GridSpec(L=8.0, M=M, dim=dim)
    modes = draw_modes(grid, np.random.default_rng(0), n)
    # the untraced first call builds the cached window and roots
    assert traced_peak(lambda: band_limited_field(grid, modes), 16 * n * grid.size) <= 3
