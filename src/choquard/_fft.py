"""FFT entry points on numpy.fft: a real array takes the real transforms.

Every transform of the package goes through `fftn` and `ifftn`. A real input
to `fftn` returns the half spectrum (the last transformed axis keeps M//2 + 1
entries); `ifftn` with the signal length `n` of that axis inverts a half
spectrum to a real array. One axis calls the 1-D transform, which skips the
n-D wrapper's per-call overhead.
"""

from __future__ import annotations

import numpy as np


def _axes(a: np.ndarray, axes) -> tuple[int, ...]:
    return tuple(range(-a.ndim, 0)) if axes is None else tuple(axes)


def fftn(a: np.ndarray, axes=None) -> np.ndarray:
    """Forward transform over `axes` (all by default); half spectrum for a
    real `a`."""
    axes = _axes(a, axes)
    if np.iscomplexobj(a):
        if len(axes) == 1:
            return np.fft.fft(a, axis=axes[0])
        return np.fft.fftn(a, axes=axes)
    if len(axes) == 1:
        return np.fft.rfft(a, axis=axes[0])
    return np.fft.rfftn(a, axes=axes)


def ifftn(a: np.ndarray, axes=None, n: int | None = None) -> np.ndarray:
    """Inverse transform over `axes` (all by default). Given `n`, the length
    of the last transformed axis of the signal, `a` is a half spectrum and
    the result is real."""
    axes = _axes(a, axes)
    if n is None:
        if len(axes) == 1:
            return np.fft.ifft(a, axis=axes[0])
        return np.fft.ifftn(a, axes=axes)
    if len(axes) == 1:
        return np.fft.irfft(a, n, axis=axes[0])
    return np.fft.irfftn(a, [a.shape[ax] for ax in axes[:-1]] + [n], axes=axes)
