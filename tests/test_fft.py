import numpy as np
import pytest

from choquard._fft import fftn, ifftn

# (signal shape, transformed axes): 1-D, 2-D and 3-D, alone and stacked
CASES = [((64,), None), ((3, 64), (-1,)),
         ((16, 12), None), ((3, 16, 12), (-2, -1)),
         ((8, 6, 10), None), ((2, 8, 6, 10), (-3, -2, -1))]
IDS = ["1d", "1d-stacked", "2d", "2d-stacked", "3d", "3d-stacked"]


@pytest.mark.parametrize("shape, axes", CASES, ids=IDS)
def test_forward_is_numpy_rfftn_bit_for_bit(shape, axes):
    a = np.random.default_rng(len(shape)).normal(size=shape)
    before = a.copy()
    np.testing.assert_array_equal(fftn(a, axes), np.fft.rfftn(a, axes=axes))
    np.testing.assert_array_equal(a, before)


@pytest.mark.parametrize("shape, axes", CASES, ids=IDS)
def test_inverse_is_numpy_irfftn_bit_for_bit(shape, axes):
    a = np.random.default_rng(len(shape)).normal(size=shape)
    spec = np.fft.rfftn(a, axes=axes)
    every = tuple(range(-len(shape), 0)) if axes is None else axes
    ref = np.fft.irfftn(spec, [shape[ax] for ax in every], axes=every)
    np.testing.assert_array_equal(ifftn(spec.copy(), axes, shape[-1]), ref)


@pytest.mark.parametrize("shape, axes", CASES, ids=IDS)
def test_complex_inverse_is_numpy_ifftn_in_place(shape, axes):
    rng = np.random.default_rng(len(shape))
    spec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ref = np.fft.ifftn(spec, axes=axes)
    out = ifftn(spec, axes)
    assert out is spec
    np.testing.assert_array_equal(out, ref)
