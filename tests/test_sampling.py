import numpy as np
import pytest

from choquard import GridSpec
from choquard.sampling import band_limited_field

from conftest import reference_band_limited_field


@pytest.mark.parametrize("complex_valued", [True, False], ids=["complex", "real"])
@pytest.mark.parametrize("dim, M, tol", [(1, 256, 0.0), (1, 1024, 0.0),
                                         (2, 28, 1e-14), (3, 32, 1e-14)],
                         ids=["1d-256", "1d-1024", "2d", "3d"])
def test_band_limited_field_matches_full_inverse_transform(dim, M, tol, complex_valued):
    # the same seeded draws in the same order: bit-identical in 1-D, where the
    # batched last-axis transform is the full one, and within roundoff of the
    # full transform elsewhere; the generator is left in the same state
    grid = GridSpec(L=8.0, M=M, dim=dim)
    rng, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(3):
        got = band_limited_field(grid, rng, complex_valued=complex_valued).values
        ref = reference_band_limited_field(grid, rng_ref, complex_valued)
        assert np.iscomplexobj(got) == complex_valued
        assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))
    assert rng.normal() == rng_ref.normal()
