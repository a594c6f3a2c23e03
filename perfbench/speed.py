"""A fixed reference computation that measures the machine's current speed.

Machines shared with other tenants change speed by a quarter within a
minute while CPU time stays equal to wall time, so no clock of this process
sees it.  Timing this kernel between operations does: it mixes the work the
workloads do (small complex `eigh` and matrix products, index gathers with
segmented sums, short convolutions in a Python loop, interpreter
arithmetic), and it never touches corrlift, so a change to the program
cannot move it.  Times quoted at the reference speed are scaled by
NOMINAL_S over the mean duration of the kernel runs taken alongside them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's duration at the reference speed.
NOMINAL_S = 0.01

_rng = np.random.default_rng(0)
_G = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_H = _G + _G.conj().T
_GATHER = _rng.permutation(36)
_BOUNDS = np.arange(0, 36, 3)
_SMALL = [_rng.standard_normal(4) + 1j * _rng.standard_normal(4) for _ in range(8)]
# Bound now, so that the traced run's wrapper of numpy.linalg.eigh never
# sees the kernel.
_eigh = np.linalg.eigh


def kernel() -> float:
    acc = 0.0
    for _ in range(120):
        w, v = _eigh(_H)
        acc += float(((v * w) @ v.conj().T)[0, 0].real)
        acc += float(np.add.reduceat(_H.ravel()[_GATHER], _BOUNDS)[0].real)
    s = _SMALL[0]
    for i in range(600):
        s = np.convolve(_SMALL[i % 8], s)[:4]
        s = s / np.abs(s).max()
    for i in range(16000):
        acc += (i * i) % 7
    return acc + float(s[0].real)


def timed_kernel() -> float:
    """Seconds one run of `kernel` takes now."""
    started = perf_counter()
    kernel()
    return perf_counter() - started


def to_reference(kernel_seconds: list) -> float:
    """Factor that turns times measured alongside these kernel runs into
    times at the reference speed."""
    return NOMINAL_S * len(kernel_seconds) / sum(kernel_seconds)
