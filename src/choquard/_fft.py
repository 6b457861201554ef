"""FFT entry points honoring the CHOQUARD_THREADS parallelism cap."""

from __future__ import annotations

import os

import scipy.fft as _sf


def fft_workers() -> int:
    raw = os.environ.get("CHOQUARD_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return max(1, min(n, os.cpu_count() or 1))


def fftn(a, axes=None):
    return _sf.fftn(a, axes=axes, workers=fft_workers())


def ifftn(a, axes=None):
    return _sf.ifftn(a, axes=axes, workers=fft_workers())
