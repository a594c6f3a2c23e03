"""Correctness gates for the benchmark's workloads.

Every check here recomputes what it needs with NumPy alone: correlations,
convolutions, phase alignment, zeros and class counts.  Nothing is taken
from corrlift except the output under test, so a wrong answer from the
program cannot also corrupt the reference it is checked against.  A failed
check raises `GateError` naming the property that broke.
"""

from __future__ import annotations

import math

import numpy as np

EXACT_MSE_MAX = 1e-5
RECONVOLVE_RTOL = 1e-7
# Zeros of x1 closer than this to the unit circle, or to the reflection of
# another zero, make the autocorrelation family smaller than 2^(L1-1).
GENERIC_ZERO_MARGIN = 1e-4


class GateError(AssertionError):
    """An output of the program violates a property the method must have."""


def correlate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-correlation a * conj(reverse(b)) by direct convolution."""
    return np.convolve(a, np.conj(b[::-1]))


def stacked_correlations(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """(a11, a22, a12, a21) of a pair, in the solver's stacked order."""
    return np.concatenate(
        [correlate(x1, x1), correlate(x2, x2), correlate(x1, x2), correlate(x2, x1)]
    )


def aligned_mse(x_true: np.ndarray, x_est: np.ndarray) -> float:
    """min over phi of ||x - e^{i phi} x_est||^2 / ||x||^2, in closed form."""
    nt = float(np.vdot(x_true, x_true).real)
    ne = float(np.vdot(x_est, x_est).real)
    return max(nt + ne - 2.0 * abs(np.vdot(x_est, x_true)), 0.0) / nt


def check_exact(x1, x2, est1, est2) -> float:
    """Noiseless recovery must match the planted pair up to a global phase."""
    mse = aligned_mse(np.concatenate([x1, x2]), np.concatenate([est1, est2]))
    if not mse <= EXACT_MSE_MAX:
        raise GateError(f"noiseless aligned MSE {mse:.3e} exceeds {EXACT_MSE_MAX:g}")
    return mse


def check_noisy_fit(x1, x2, b_noisy: np.ndarray, reported_fit: float) -> float:
    """The fit ||A(X) - b|| may not exceed the planted pair's misfit.

    The lift of the planted pair is feasible with objective ||b - b_clean||,
    so a minimizer over the PSD cone cannot do worse.  Returns the ratio.
    """
    misfit = float(np.linalg.norm(b_noisy - stacked_correlations(x1, x2)))
    if not reported_fit <= misfit:
        raise GateError(
            f"reported fit {reported_fit:.6e} exceeds the planted misfit {misfit:.6e}"
        )
    return reported_fit / misfit


def check_noise_trend(mse_by_snr: dict) -> float:
    """Aligned MSE must fall as the SNR rises.

    The least-squares slope of log MSE against SNR in dB, over every trial
    of the round, must be negative.  A run holds only a few trials per SNR
    point and the MSE of single trials spreads over orders of magnitude, so
    comparing per-point medians would fail on correct code; the slope uses
    every trial.  Returns the slope.
    """
    snr = np.concatenate([np.full(len(v), s, dtype=float) for s, v in mse_by_snr.items()])
    log_mse = np.log(np.concatenate([np.asarray(v, dtype=float) for v in mse_by_snr.values()]))
    x = snr - snr.mean()
    slope = float(x @ (log_mse - log_mse.mean()) / (x @ x))
    if not slope < 0.0:
        raise GateError(f"log MSE does not fall with SNR: slope {slope:.3e} per dB")
    return slope


def split_count(l1: int, l2: int, common: int) -> int:
    """Number of zero splits of x1*x2 when `common` zeros are shared.

    The product has l1+l2-2-2c simple zeros and c double ones; the left
    factor takes l1-1 of them, taking 0, 1 or 2 copies of each double zero:
    the coefficient of t^(l1-1) in (1+t)^(D-2c) (1+t+t^2)^c.
    """
    poly = np.array([1], dtype=object)
    for _ in range(l1 + l2 - 2 - 2 * common):
        poly = np.convolve(poly, np.array([1, 1], dtype=object))
    for _ in range(common):
        poly = np.convolve(poly, np.array([1, 1, 1], dtype=object))
    return int(poly[l1 - 1])


def is_generic(x: np.ndarray) -> bool:
    """No zero of x on the unit circle or mirrored by another zero."""
    z = np.roots(x)
    if np.any(np.abs(np.abs(z) - 1.0) <= GENERIC_ZERO_MARGIN):
        return False
    mirror = 1.0 / np.conj(z)
    gap = np.abs(z[:, None] - mirror[None, :])
    np.fill_diagonal(gap, np.inf)
    return bool(gap.min(initial=np.inf) > GENERIC_ZERO_MARGIN)


def check_certify(x1, x2, common: int, gcd_deg: int, cert_rank: int, classes, autos) -> None:
    """Algebraic facts about a pair sharing exactly `common` planted zeros."""
    l1, l2 = x1.size, x2.size
    n = l1 + l2
    if gcd_deg != 1 + common:
        raise GateError(f"gcd_degree {gcd_deg} != 1 + planted common degree {common}")
    if common == 0 and cert_rank != n - 1:
        raise GateError(f"certificate rank {cert_rank} != N-1 = {n - 1} for a coprime pair")
    expected = split_count(l1, l2, common)
    if len(classes) != expected:
        raise GateError(f"{len(classes)} ambiguity classes, expected {expected}")
    product = np.convolve(x1, x2)
    scale = float(np.linalg.norm(product))
    for c1, c2 in classes:
        if c1.size != l1 or c2.size != l2:
            raise GateError(f"class has lengths {(c1.size, c2.size)}, expected {(l1, l2)}")
        err = float(np.linalg.norm(np.convolve(c1, c2) - product))
        if not err <= RECONVOLVE_RTOL * scale:
            raise GateError(f"class reconvolves with relative error {err / scale:.3e}")
    acf = correlate(x1, x1)
    acf_scale = float(np.linalg.norm(acf))
    for y in autos:
        err = float(np.linalg.norm(correlate(y, y) - acf)) if y.size == l1 else math.inf
        if not err <= RECONVOLVE_RTOL * acf_scale:
            raise GateError(f"autocorrelation output misses the autocorrelation by {err:.3e}")
    if is_generic(x1) and len(autos) != 2 ** (l1 - 1):
        raise GateError(f"{len(autos)} autocorrelation outputs, expected {2 ** (l1 - 1)}")
