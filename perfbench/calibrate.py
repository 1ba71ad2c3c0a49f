"""Machine-speed probe used to calibrate the end-to-end times.

The shared 2-vCPU sandboxes this benchmark runs on change speed by up to
half for seconds to minutes at a time.  That shifts raw times by more than
the bounds in BENCHMARK.json.  ``kernel_s`` times a fixed mix of work that
does not touch the package: small-array numpy calls, memory-bound
vectorised numpy, pure-Python dict updates and a small ``eigh``.  The
driver runs it between measurements and reports times scaled by
``REFERENCE_S / kernel_s()``.  That is the time the measurement would have
taken on a machine where the kernel takes ``REFERENCE_S``; raw times are
printed beside the calibrated ones.
"""

from __future__ import annotations

import time

import numpy as np

#: kernel time that defines "reference speed"; calibrated = raw * REFERENCE_S / kernel
REFERENCE_S = 0.07

_rng = np.random.default_rng(20071)
_A64 = np.linspace(-5.0, 0.0, 64)
_PH64 = np.linspace(0.0, 1.0, 64)
_BIG = _rng.normal(size=200_000)
_H = _rng.normal(size=(160, 160))
_H = _H + _H.T


def kernel_s() -> float:
    """Seconds taken by the fixed calibration kernel.

    About 0.07 s on an undisturbed 2-vCPU Xeon sandbox.
    """
    start = time.perf_counter()
    for _ in range(600):
        m = _A64.max()
        float(np.log(abs(np.sum(np.exp(_A64 - m) * np.exp(1j * _PH64)))))
    for _ in range(10):
        float(np.sum(np.exp(_BIG - _BIG.max()) * np.cos(_BIG)))
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(3):
        np.linalg.eigh(_H)
    return time.perf_counter() - start
