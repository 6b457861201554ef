"""FFT entry points on numpy.fft: real transforms, one axis at a time, in place.

Every transform of the package goes through `fftn` and `ifftn`. `fftn` takes
a real array to its half spectrum (the last transformed axis keeps M//2 + 1
entries): `rfft` on the last axis, then `fft` on the others in reverse order,
each written into the spectrum it transforms. `ifftn` with the signal length
`n` of the last axis inverts a half spectrum to a real array, written into
`out` when one is given; without `n` it is the complex inverse. Either way
its `ifft` steps are written into the array it is given, which the caller
gives up. The axis order is numpy's, so the results are those of `rfftn`,
`irfftn` and `ifftn` bit for bit, without their temporaries (`out=` needs
numpy >= 2.0).
"""

from __future__ import annotations

import numpy as np


def _axes(a: np.ndarray, axes) -> tuple[int, ...]:
    return tuple(range(-a.ndim, 0)) if axes is None else tuple(axes)


def fftn(a: np.ndarray, axes=None) -> np.ndarray:
    """Half spectrum of the real array `a` over `axes` (all by default); `a`
    is left as it was."""
    axes = _axes(a, axes)
    y = np.fft.rfft(a, axis=axes[-1])
    for ax in reversed(axes[:-1]):
        np.fft.fft(y, axis=ax, out=y)
    return y


def ifftn(a: np.ndarray, axes=None, n: int | None = None,
          out: np.ndarray | None = None) -> np.ndarray:
    """Inverse transform over `axes` (all by default) of the complex array
    `a`, which is overwritten. Given `n`, the length of the last transformed
    axis of the signal, `a` is a half spectrum and the result is real, in
    `out` when it is given (a real array of the signal's shape); without `n`
    the result is `a` itself."""
    axes = _axes(a, axes)
    if n is None:
        for ax in reversed(axes):
            np.fft.ifft(a, axis=ax, out=a)
        return a
    for ax in axes[:-1]:
        np.fft.ifft(a, axis=ax, out=a)
    return np.fft.irfft(a, n, axis=axes[-1], out=out)
