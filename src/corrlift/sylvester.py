"""Sylvester matrices, numeric GCD degree, and dual certificates.

For a pair (x1, x2) of lengths (L1, L2), the padded square Sylvester matrix
S stacks down-shifted copies of b = (x2; 0) in its first L1 columns and of
a = (-x1; 0) in its last L2 columns, so that S applied to any stacked pair
(v1, v2) computes the convolution difference x2*v1 - x1*v2 (and a zero
bottom row).  The stacked signal itself is therefore always in the null
space, the rank deficiency counts the common zeros, and the Gram matrix
W = S^H S is the PSD dual certificate: W x = 0, rank N-1 exactly when the
pair is coprime.

W also lies in the range of the measurement adjoint: its multiplier vector
has a closed form in the correlation data — each segment is half of a
plain-reversed (zero-extended) correlation window,

    lam11_k = +a22[N-2-k]/2     lam22_k = +a11[N-2-k]/2
    lam12_k = -a21[N-2-k]/2     lam21_k = -a12[N-2-k]/2

which `certificate_multipliers` builds from the data alone and
`lambda_decomposition` verifies entrywise against S^H S.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import numeric_rank
from .poly import Signal, as_signal, require_c00
from .sensing import Measurements, adjoint, build_sensing, forward_stacked, measure

# Largest entrywise deviation of adjoint(lam) from W = S^H S, relative to the
# largest entry of W, that `lambda_decomposition` accepts.
MULTIPLIER_TOL = 1e-10


def build_padded(x1: Signal, x2: Signal) -> np.ndarray:
    """Square N x N Sylvester matrix of the zero-padded pair.

    Columns are down-shifts of (x2; 0) and of (-x1; 0); the product with the
    stacked pair (v1; v2) is the convolution difference x2*v1 - x1*v2 on the
    first N-1 rows and zero on the last.  Requires both signals to have
    nonzero first and last coefficients.
    """
    x1 = require_c00(x1)
    x2 = require_c00(x2)
    l1, l2 = x1.size, x2.size
    n = l1 + l2
    a = np.concatenate([-x1, np.zeros(l2, dtype=complex)])
    b = np.concatenate([x2, np.zeros(l1, dtype=complex)])
    s = np.zeros((n, n), dtype=complex)
    for j in range(l1):
        s[j:, j] = b[: n - j]
    for j in range(l2):
        s[j:, l1 + j] = a[: n - j]
    return s


def gcd_degree(x1: Signal, x2: Signal) -> int:
    """Rank deficiency of the padded Sylvester matrix.

    Equals 1 + deg gcd(X1, X2): the minimum value 1 certifies a coprime
    pair (only the stacked pair itself spans the null space).
    """
    s = build_padded(x1, x2)
    return s.shape[0] - numeric_rank(s)


@dataclass
class CertificateReport:
    """Numeric summary of the dual certificate W = S^H S for one pair.

    null_residual is ||W x|| / (||W||_F ||x||); min_eig the smallest
    eigenvalue of W; rank its numeric rank; in_range whether the multiplier
    vector `lam` reproduces W through the measurement adjoint.
    """

    null_residual: float
    min_eig: float
    rank: int
    in_range: bool
    lam: np.ndarray = field(repr=False)


def _reversed_window(seg: np.ndarray, out_len: int, n: int) -> np.ndarray:
    # out[k] = seg[n-2-k], reading zero where the index leaves the segment.
    out = np.zeros(out_len, dtype=complex)
    k = np.arange(out_len)
    j = n - 2 - k
    ok = (j >= 0) & (j < seg.size)
    out[ok] = seg[j[ok]]
    return out


def certificate_multipliers(m: Measurements) -> np.ndarray:
    """Multiplier vector lam of the certificate W = S^H S, from the data alone.

    Every segment of lam is half a plain-reversed correlation window: the
    diagonal segments draw on the *other* signal's autocorrelation (zero
    padded where the window overhangs), the cross segments on the mirrored
    cross-correlations with a sign flip.  No signal is needed, so
    adjoint(lam) is the certificate of whatever pair produced `m`.
    """
    n = m.l1 + m.l2
    return np.concatenate(
        [
            0.5 * _reversed_window(m.a22, 2 * m.l1 - 1, n),
            0.5 * _reversed_window(m.a11, 2 * m.l2 - 1, n),
            -0.5 * m.a21[::-1],
            -0.5 * m.a12[::-1],
        ]
    )


def lambda_decomposition(x1: Signal, x2: Signal) -> np.ndarray:
    """Multiplier vector lam with adjoint(lam) = S^H S, verified entrywise.

    lam is `certificate_multipliers` of the pair's correlations.  Raises if
    the reproduction error exceeds MULTIPLIER_TOL relative to the largest
    entry of W.
    """
    x1 = require_c00(x1)
    x2 = require_c00(x2)
    lam = certificate_multipliers(measure(x1, x2))
    w = dual_certificate(x1, x2)
    sensing = build_sensing(x1.size, x2.size)
    dev = float(np.abs(adjoint(sensing, lam) - w).max())
    scale = float(np.abs(w).max())
    if dev > MULTIPLIER_TOL * scale:
        raise RuntimeError(
            f"multiplier vector fails to reproduce the certificate: "
            f"max entry deviation {dev:.3e} (scale {scale:.3e})"
        )
    return lam


def dual_certificate(x1: Signal, x2: Signal) -> np.ndarray:
    """The Gram certificate W = S^H S of the padded difference matrix.

    W is Hermitian positive semidefinite by construction, annihilates the
    stacked pair, and has rank N-1 exactly when the pair's z-transforms are
    coprime.
    """
    s_mat = build_padded(x1, x2)
    return s_mat.conj().T @ s_mat


def _pow2_normalized(a: np.ndarray) -> np.ndarray:
    # `a` times the power of two that brings its largest magnitude into
    # [0.5, 1) (or as near as 2**1023, the largest finite power, gets a
    # subnormal `a`); the product is exact unless an entry falls subnormal.
    _, exponent = np.frexp(np.abs(a).max())
    return a * np.ldexp(1.0, min(-int(exponent), 1023))


def certificate_report(x1: Signal, x2: Signal) -> CertificateReport:
    """Evaluate the certificate conditions for a pair.

    Builds W = dual_certificate(x1, x2), measures how well the stacked pair
    annihilates it, its smallest eigenvalue and numeric rank, and whether W
    lies in the adjoint's range via the closed-form multiplier vector.
    Raises ValueError when W overflows.
    """
    x1 = require_c00(x1)
    x2 = require_c00(x2)
    with np.errstate(over="ignore", invalid="ignore"):
        w = dual_certificate(x1, x2)
    if not np.all(np.isfinite(w)):
        raise ValueError(
            "the certificate W = S^H S overflows the floating-point range "
            "for these coefficient magnitudes"
        )
    # The residual is a ratio of norms, so it is computed on copies rescaled
    # by powers of two (exact), where neither W x nor a norm can overflow.
    w_unit = _pow2_normalized(w)
    x_unit = _pow2_normalized(np.concatenate([x1, x2]))
    denom = float(np.linalg.norm(w_unit)) * float(np.linalg.norm(x_unit))
    null_residual = float(np.linalg.norm(w_unit @ x_unit)) / denom if denom > 0 else 0.0
    min_eig = float(np.linalg.eigvalsh(w)[0])
    rank = numeric_rank(w)
    try:
        lam = lambda_decomposition(x1, x2)
        in_range = True
    except RuntimeError:
        lam = np.zeros(4 * (x1.size + x2.size) - 4, dtype=complex)
        in_range = False
    return CertificateReport(
        null_residual=null_residual, min_eig=min_eig, rank=rank, in_range=in_range, lam=lam
    )


def tangent_injectivity(x1: Signal, x2: Signal) -> tuple[int, bool]:
    """Real rank of h -> A(x h* + h x*) on the lifted tangent space at x.

    Probes the real-linear map with the 2N directions e_j and i e_j,
    stacking real and imaginary parts of the measurements into a real
    matrix.  The kernel always contains the phase direction i x, so the
    rank is at most 2N-1; the pair is flagged injective exactly when that
    bound is met.  Coprime pairs are always injective.  The rank drops
    below 2N-1 when the shared factor's zero set is closed under
    zeta -> 1/conj(zeta) (a self-inversive common factor, e.g. a common
    zero on the unit circle); a generic common factor leaves the map
    injective even though global uniqueness still fails through discrete
    zero-flip alternatives.
    """
    x1 = as_signal(x1)
    x2 = as_signal(x2)
    x = np.concatenate([x1, x2])
    n = x.size
    s = build_sensing(x1.size, x2.size)
    cols = []
    for j in range(n):
        for direction in (1.0, 1.0j):
            h = np.zeros(n, dtype=complex)
            h[j] = direction
            t = np.outer(x, np.conj(h)) + np.outer(h, np.conj(x))
            v = forward_stacked(s, t)
            cols.append(np.concatenate([v.real, v.imag]))
    mat = np.column_stack(cols)
    rank = numeric_rank(mat)
    return rank, rank == 2 * n - 1
