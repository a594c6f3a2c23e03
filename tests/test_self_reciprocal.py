"""Random self-reciprocal test signals, shared by the poly, sylvester and
acceptance tests, and the generator's own contract test."""

from __future__ import annotations

import numpy as np

from corrlift.poly import Signal, conj_time_reverse


def random_self_reciprocal(degree: int, rng: np.random.Generator) -> Signal:
    """Random self-reciprocal coefficients of exact degree `degree`.

    Free complex draws in the lower half are mirrored conjugately into the
    upper half; an even degree gets a real middle coefficient.  The first
    coefficient is redrawn until it is safely nonzero so the degree is exact.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n = degree + 1
    out = np.zeros(n, dtype=complex)
    for k in range(n // 2):
        out[k] = rng.standard_normal() + 1j * rng.standard_normal()
        out[degree - k] = np.conj(out[k])
    if n % 2:
        out[degree // 2] = rng.standard_normal()
    while abs(out[0]) < 0.1:
        if degree == 0:
            out[0] = rng.standard_normal()
        else:
            out[0] = rng.standard_normal() + 1j * rng.standard_normal()
            out[degree] = np.conj(out[0])
    return out


def test_random_self_reciprocal():
    rng = np.random.default_rng(10)
    for degree in [0, 1, 2, 5, 6]:
        s = random_self_reciprocal(degree, rng)
        assert s.shape == (degree + 1,)
        assert abs(s[0]) >= 0.1
        assert np.linalg.norm(s - conj_time_reverse(s)) <= 1e-12 * np.linalg.norm(s)
