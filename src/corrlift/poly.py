"""Signal/polynomial algebra over coefficient vectors of z^{-k}.

A Signal is a 1-D complex ndarray (c_0, ..., c_{L-1}) representing
X(z) = sum_k c_k z^{-k}.  Working in w = z^{-1} turns every question here
into ordinary ascending-order polynomial algebra: convolution is coefficient
multiplication, conjugate time reversal is the involution X*, and the zeros
zeta_k of X are the reciprocals of the roots of the w-polynomial.

Contents
--------
- convolve, conj_time_reverse, correlate     : ring operations
- roots, from_roots                          : root-domain codec; roots are
                                               companion-matrix eigenvalues
                                               polished by Aberth iteration
- poly_gcd                                   : numeric Euclid GCD
- is_self_reciprocal                         : symmetry test
- gsd                                        : greatest self-reciprocal divisor
- anti_solution                              : solutions of X H* + X* H = 0
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from .linalg import _eigvals

Signal = np.ndarray

# The relative tolerance of the GCD, symmetry and factorization checks.
DEFAULT_GCD_TOL = 1e-8
_TRIM_TOL = 1e-12
# `_aberth` stops once every update is below this, relative to the root.
_ABERTH_UPDATE_TOL = 1e-13


def as_signal(x) -> Signal:
    """Coerce to a 1-D complex coefficient vector of length >= 1."""
    arr = np.atleast_1d(np.asarray(x, dtype=complex))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"a signal must be a nonempty 1-D sequence, got shape {arr.shape}")
    return arr


def require_c00(x: Signal) -> Signal:
    """Reject signals whose first or last coefficient vanishes."""
    x = as_signal(x)
    if x[0] == 0 or x[-1] == 0:
        raise ValueError("signal must have nonzero first and last coefficients")
    return x


def convolve(x1: Signal, x2: Signal) -> Signal:
    """Full linear convolution; the coefficient product X1(z) X2(z)."""
    return np.convolve(as_signal(x1), as_signal(x2))


def conj_time_reverse(x: Signal) -> Signal:
    """Entries conj(x_{L-1-k}); the involution X* at ambient length L."""
    return np.conj(as_signal(x)[::-1])


def correlate(x1: Signal, x2: Signal) -> Signal:
    """Cross-correlation x1 * conj-time-reversed x2, length L1 + L2 - 1."""
    return convolve(x1, conj_time_reverse(x2))


def _horner(c: list, z: np.ndarray) -> np.ndarray:
    # npoly.polyval(z, c) in its own operation order, from a list of
    # Python complex coefficients: c[-1] + z*0, then c[-i] + acc*z.
    # (In-place products round differently on short arrays.)
    acc = c[-1] + z * 0
    for ci in c[-2::-1]:
        acc = ci + acc * z
    return acc


def _aberth(coeffs: np.ndarray, max_iter: int = 200) -> np.ndarray:
    """All roots of an ascending-order w-polynomial with c_0, c_m != 0.

    The start is the eigenvalues of the companion matrix of c / max|c|
    (ones below the diagonal, last column -c[:m] / c[m]), from one LAPACK
    call through `linalg._eigvals`: backward-stable root estimates (Edelman
    and Murakami, Math. Comp. 1995).  Aberth-Ehrlich simultaneous iteration
    then polishes them, each step applying the coupled Newton correction;
    from this start it usually stops after one step (Bini, Numer.
    Algorithms 1996).  It stops when every update is below
    _ABERTH_UPDATE_TOL (1e-13) relative to the root magnitude; after the
    iteration cap the roots are accepted only if every relative residual is
    small (multiple roots stall their updates at the usual sqrt-eps cluster
    radius while their residuals stay tiny).  A residual that is not
    finite, as when p overflows near a huge root, fails too, and without
    NumPy's overflow warnings.

    p and p' are evaluated by Horner loops over coefficient lists made once
    per call, in `npoly.polyval`'s operation order, so every iterate is bit
    for bit what `npoly.polyval` gives.
    """
    m = len(coeffs) - 1
    if m == 0:
        return np.zeros(0, dtype=complex)
    c = coeffs / np.abs(coeffs).max()
    c_list = c.tolist()
    dc_list = (c[1:] * np.arange(1, m + 1)).tolist()  # npoly.polyder(c)'s bytes
    companion = np.eye(m, k=-1, dtype=complex)
    companion[:, -1] -= c[:-1] / c[m]
    z = _eigvals(companion)
    # p can overflow near a huge root; the NaNs that follow fail the
    # residual check, which reports them, so NumPy's warnings are muted.
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            p = _horner(c_list, z)
            dp = _horner(dc_list, z)
            # Newton correction with a guard against a vanishing derivative.
            if not dp.all():
                dp[dp == 0] = 1e-300
            newton = p / dp
            diff = z[:, None] - z
            diff.flat[:: m + 1] = 1.0
            inv = 1.0 / diff
            inv.flat[:: m + 1] = 0.0
            denom = 1.0 - newton * inv.sum(axis=1)
            if not denom.all():
                denom[denom == 0] = 1e-300
            delta = newton / denom
            z = z - delta
            if (np.abs(delta) <= _ABERTH_UPDATE_TOL * np.maximum(1.0, np.abs(z))).all():
                break
        res = np.abs(_horner(c_list, z)) / (
            np.abs(c).sum() * np.maximum(1.0, np.abs(z)) ** m
        )
    worst = float(res.max())
    if not math.isfinite(worst):
        raise RuntimeError("root finding did not converge: a residual is not finite")
    if worst > 1e-10:
        raise RuntimeError(f"root finding did not converge: worst relative residual {worst:.3e}")
    return z


def roots(x: Signal, name: str = "x") -> np.ndarray:
    """The L-1 zeros of a length-L signal, sorted by (re, im).

    The zeros are the reciprocals of the roots of the w-polynomial, counted
    with multiplicity.  An end coefficient within _TRIM_TOL = 1e-12 of the
    largest magnitude takes a zero out of reach; then a ValueError names the
    signal by `name`, as it does for a non-finite coefficient, and the
    RuntimeError of a failed root polish does too.  The zero signal raises
    ValueError as well.
    """
    x = as_signal(x)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} has a non-finite coefficient")
    mags = np.abs(x)
    scale = float(mags.max())
    if scale == 0.0:
        raise ValueError("the zero signal has no root representation")
    keep = np.flatnonzero(mags > _TRIM_TOL * scale)
    resolvable = int(keep[-1] - keep[0])
    if resolvable < x.size - 1:
        raise ValueError(
            f"{name} has {resolvable} resolvable zeros instead of "
            f"{x.size - 1}: an end coefficient is negligible next to the largest"
        )
    try:
        z = 1.0 / _aberth(x)
    except RuntimeError as err:
        raise RuntimeError(f"{name}: {err}") from None
    return z[np.lexsort((z.imag, z.real))]


def from_roots(unit: complex, zeros) -> np.ndarray:
    """Coefficients of unit * prod_j (1 - zeros[k, j] z^{-1}), one signal per column k.

    `zeros` of shape (K, m) gives a C-contiguous (m+1, K) table.  The product
    is built in one pass over the m zero columns, for all K signals at once.
    """
    zeros = np.asarray(zeros, dtype=complex)
    if np.any(zeros == 0):
        raise ValueError("zeros at the origin are not representable")
    cols = zeros.T
    m = cols.shape[0]
    out = np.zeros((m + 1, cols.shape[1]), dtype=complex)
    out[0] = unit
    for j in range(m):
        # A (1, K) slice, not a 1-D row: NumPy's complex product can round
        # the last bit differently on other broadcast layouts (K = 1 with a
        # 1-D row is one), and this one matches a row-major loop's.
        out[1 : j + 2] -= cols[j : j + 1] * out[: j + 1]
    return out


def _polydiv(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Ascending-order long division; den's last entry is its true leading
    # coefficient (callers trim first).
    q, r = npoly.polydiv(num, den)
    return np.atleast_1d(q.astype(complex)), np.atleast_1d(r.astype(complex))


def poly_gcd(x1: Signal, x2: Signal) -> Signal:
    """Numeric GCD by the Euclidean algorithm, monic in w.

    Remainders are declared zero once their norm drops below DEFAULT_GCD_TOL
    times the larger input norm; each remainder is also trimmed of
    leading-coefficient dust at the same scale before it becomes the next
    divisor (the pivoting that keeps the division stable).
    """
    a = as_signal(x1)
    b = as_signal(x2)
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    if scale == 0.0:
        raise ValueError("gcd of two zero signals is undefined")

    def trimmed(p: np.ndarray) -> np.ndarray:
        mags = np.abs(p)
        keep = np.nonzero(mags > DEFAULT_GCD_TOL * scale)[0]
        if keep.size == 0:
            return np.zeros(0, dtype=complex)
        return p[: keep[-1] + 1]

    a, b = trimmed(a), trimmed(b)
    if b.size > a.size:
        a, b = b, a
    while b.size:
        _, r = _polydiv(a, b)
        a, b = b, trimmed(r)
    if a.size == 0:
        raise ValueError("gcd of two (numerically) zero signals is undefined")
    return a / a[-1]


def is_self_reciprocal(x: Signal) -> bool:
    """Whether conj-time-reversal fixes the vector, within DEFAULT_GCD_TOL relative."""
    x = as_signal(x)
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:
        return True
    return float(np.linalg.norm(x - conj_time_reverse(x))) <= DEFAULT_GCD_TOL * nrm


def _deconvolve(x: Signal, g: Signal) -> Signal:
    q, r = _polydiv(as_signal(x), as_signal(g))
    scale = float(np.linalg.norm(x))
    if float(np.linalg.norm(r)) > DEFAULT_GCD_TOL * max(scale, 1e-300):
        raise ValueError("deconvolution left a non-negligible remainder")
    want = len(x) - len(g) + 1
    out = np.zeros(want, dtype=complex)
    out[: min(want, q.size)] = q[:want]
    return out


def gsd(x: Signal) -> tuple[Signal, Signal]:
    """Greatest self-reciprocal divisor g and co-factor r with g * r = x.

    g is the monic g0 = gcd(X, X*) rescaled to be exactly canonical.  g0 is
    self-inversive, G0* = e^{i alpha} G0, with alpha read off its
    largest-magnitude coefficient; the phase e^{i alpha/2} makes it
    self-reciprocal (checked by `is_self_reciprocal`), and the sign is fixed
    by a nonnegative real part at the middle coefficient.  Verifies
    convolve(g, r) = x within DEFAULT_GCD_TOL relative.
    """
    x = require_c00(x)
    g0 = poly_gcd(x, conj_time_reverse(x))
    k = int(np.argmax(np.abs(g0)))
    alpha = float(np.angle(np.conj(g0[-1 - k]) / g0[k]) % (2.0 * np.pi))
    g = np.exp(0.5j * alpha) * g0
    if not is_self_reciprocal(g):
        raise RuntimeError("gcd with the involution is unexpectedly not self-inversive")
    mid = (g.size - 1) // 2
    anchor = g[mid]
    if anchor.real < 0 or (anchor.real == 0 and anchor.imag < 0):
        g = -g
    r = _deconvolve(x, g)
    err = float(np.linalg.norm(convolve(g, r) - x))
    if err > DEFAULT_GCD_TOL * float(np.linalg.norm(x)):
        raise RuntimeError(f"self-reciprocal factorization failed to reproduce the signal ({err:.3e})")
    return g, r


def anti_solution(x: Signal, s: Signal) -> Signal:
    """A vector H (same length as x) with X H* + X* H = 0.

    Writes x = g * r with g the greatest self-reciprocal divisor, embeds the
    given self-reciprocal s centrally into the length of g (symmetric zero
    padding, which keeps it self-reciprocal — an odd degree gap admits no
    solution), and returns H = i * convolve(r, embedded s).  The identity is
    verified before returning.
    """
    x = require_c00(x)
    s = as_signal(s)
    if not is_self_reciprocal(s):
        raise ValueError("s must be self-reciprocal")
    g, r = gsd(x)
    gap = g.size - s.size
    if gap < 0:
        raise ValueError("degree of s exceeds the degree of the greatest self-reciprocal divisor")
    if gap % 2:
        raise ValueError(
            "degree gap between s and the self-reciprocal divisor must be even; "
            "no centered embedding exists otherwise"
        )
    embedded = np.concatenate(
        [np.zeros(gap // 2, dtype=complex), s, np.zeros(gap // 2, dtype=complex)]
    )
    h = 1j * convolve(r, embedded)
    lhs = convolve(x, conj_time_reverse(h)) + convolve(conj_time_reverse(x), h)
    scale = float(np.linalg.norm(x)) * float(np.linalg.norm(h))
    if scale > 0 and float(np.linalg.norm(lhs)) > DEFAULT_GCD_TOL * scale:
        raise RuntimeError("constructed vector does not solve the anti-symmetry equation")
    return h

