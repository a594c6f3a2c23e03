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
`certificate_report` checks entrywise against S^H S.

Everything that depends only on the shape (l1, l2) is an index table,
built once per shape and cached for the 32 most recent, read-only as
`build_sensing`'s: the multipliers' gather, the positions of S's entries,
and the gather and scatter that build the tangent Jacobian.  S is one
scatter of (x2, -x1) and the Jacobian one gather and one scatter, so a
call pays no per-shape index work.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import _eigvalsh, numeric_rank
from .poly import Signal, as_signal, require_c00
from .sensing import Measurements, adjoint, build_sensing, measure

# Largest entrywise deviation of adjoint(lam) from W = S^H S, relative to the
# largest entry of W, that `certificate_report` accepts as in range.
MULTIPLIER_TOL = 1e-10


@functools.lru_cache(maxsize=32)
def _padded_scatter(l1: int, l2: int) -> tuple[np.ndarray, np.ndarray]:
    # Flat positions in the n x n S of its l1*l2 + l2*l1 structural entries
    # and, for each, its entry of (x2, -x1): column j < l1 holds x2 from row
    # j down, column l1 + j holds -x1 from row j down.
    n = l1 + l2
    i2, j2 = np.indices((l2, l1))
    i1, j1 = np.indices((l1, l2))
    flat = np.concatenate([((i2 + j2) * n + j2).ravel(), ((i1 + j1) * n + l1 + j1).ravel()])
    src = np.concatenate([i2.ravel(), l2 + i1.ravel()])
    flat.flags.writeable = src.flags.writeable = False
    return flat, src


def build_padded(x1: Signal, x2: Signal) -> np.ndarray:
    """Square N x N Sylvester matrix of the zero-padded pair.

    Columns are down-shifts of (x2; 0) and of (-x1; 0); the product with the
    stacked pair (v1; v2) is the convolution difference x2*v1 - x1*v2 on the
    first N-1 rows and zero on the last.  The entries are one scatter of
    (x2, -x1) through position tables that depend only on the shape and are
    cached for the 32 most recent shapes.  Requires both signals to have
    nonzero first and last coefficients.
    """
    x1 = require_c00(x1)
    x2 = require_c00(x2)
    n = x1.size + x2.size
    flat, src = _padded_scatter(x1.size, x2.size)
    s = np.zeros(n * n, dtype=complex)
    s[flat] = np.concatenate([x2, -x1])[src]
    return s.reshape(n, n)


def gcd_degree(x1: Signal, x2: Signal) -> int:
    """Rank deficiency of the padded Sylvester matrix.

    Equals 1 + deg gcd(X1, X2): the minimum value 1 certifies a coprime
    pair (only the stacked pair itself spans the null space).  The rank is
    `_balanced_rank`'s, so the verdict does not depend on the relative
    scale of x1 and x2.
    """
    x1 = require_c00(x1)
    x2 = require_c00(x2)
    return x1.size + x2.size - _balanced_rank(build_padded(x1, x2), x1, x2)


@dataclass
class CertificateReport:
    """Numeric summary of the dual certificate W = S^H S for one pair.

    null_residual is ||W x|| / (||W||_F ||x||); min_eig the smallest
    eigenvalue of W; rank the numeric rank of S (that of W in exact
    arithmetic) with x1 and x2 each rescaled by a power of two, so
    N - rank is `gcd_degree`; lam the closed-form multiplier
    vector `certificate_multipliers` of the pair's correlations; in_range
    whether adjoint(lam) reproduces W within MULTIPLIER_TOL.
    """

    null_residual: float
    min_eig: float
    rank: int
    in_range: bool
    lam: np.ndarray = field(repr=False)


@functools.lru_cache(maxsize=32)
def _multiplier_gather(l1: int, l2: int) -> tuple[np.ndarray, np.ndarray]:
    # The module docstring's windows and signs as one gather from the data
    # stacked as (a11, a22, a12, a21, 0): an overhanging window reads the 0.
    n = l1 + l2
    sizes = (2 * l1 - 1, 2 * l2 - 1, n - 1, n - 1)
    starts = np.cumsum((0,) + sizes[:3])
    parts = []
    for out_len, seg in zip(sizes, (1, 0, 3, 2)):
        j = n - 2 - np.arange(out_len)
        parts.append(np.where((j >= 0) & (j < sizes[seg]), starts[seg] + j, 4 * n - 4))
    index = np.concatenate(parts)
    scale = np.repeat([0.5, -0.5], [sizes[0] + sizes[1], 2 * n - 2])
    index.flags.writeable = scale.flags.writeable = False
    return index, scale


def certificate_multipliers(m: Measurements) -> np.ndarray:
    """Multiplier vector lam of the certificate W = S^H S, from the data alone.

    Every segment of lam is half a plain-reversed correlation window: the
    diagonal segments draw on the *other* signal's autocorrelation (zero
    padded where the window overhangs), the cross segments on the mirrored
    cross-correlations with a sign flip.  No signal is needed, so
    adjoint(lam) is the certificate of whatever pair produced `m`.
    """
    index, scale = _multiplier_gather(m.l1, m.l2)
    return scale * np.concatenate([m.a11, m.a22, m.a12, m.a21, [0.0]])[index]


def _pow2_scale(a: np.ndarray) -> float:
    # The power of two that brings the largest magnitude of `a` into
    # [0.5, 1) (or as near as 2**1023, the largest finite power, gets a
    # subnormal `a`); multiplying by it is exact unless an entry falls
    # subnormal.
    _, exponent = math.frexp(np.abs(a).max())
    return math.ldexp(1.0, min(-exponent, 1023))


def _balanced_rank(s: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> int:
    # Numeric rank of the pair's S (from `build_padded`) with its x2 columns
    # and its x1 columns each rescaled by the power of two that brings that
    # signal to unit-order magnitude.  Scaling a block of columns cannot
    # change the exact rank, and the rescaling cannot overflow; the
    # tolerance relative to the largest singular value then no longer
    # tracks the ratio of the two scales.  An entry that underflows only
    # becomes a zero of S.
    scales = np.repeat([_pow2_scale(x2), _pow2_scale(x1)], [x1.size, x2.size])
    return numeric_rank(s * scales)


def certificate_report(x1: Signal, x2: Signal) -> CertificateReport:
    """Evaluate the certificate conditions for a pair.

    Builds S and W = S^H S from it, measures how well the stacked pair
    annihilates W, its smallest eigenvalue, the numeric rank of S, and
    whether W lies in the adjoint's range via the closed-form multiplier
    vector.  Raises ValueError when W overflows.
    """
    x1 = require_c00(x1)
    x2 = require_c00(x2)
    s = build_padded(x1, x2)
    with np.errstate(over="ignore", invalid="ignore"):
        w = s.conj().T @ s
    if not np.all(np.isfinite(w)):
        raise ValueError(
            "the certificate W = S^H S overflows the floating-point range "
            "for these coefficient magnitudes"
        )
    # The residual is a ratio of norms, so it is computed on copies rescaled
    # by powers of two (exact), where neither W x nor a norm can overflow.
    w_unit = w * _pow2_scale(w)
    x = np.concatenate([x1, x2])
    x_unit = x * _pow2_scale(x)
    denom = float(np.linalg.norm(w_unit)) * float(np.linalg.norm(x_unit))
    null_residual = float(np.linalg.norm(w_unit @ x_unit)) / denom if denom > 0 else 0.0
    lam = certificate_multipliers(measure(x1, x2))
    dev = float(np.abs(adjoint(build_sensing(x1.size, x2.size), lam) - w).max())
    return CertificateReport(
        null_residual=null_residual,
        min_eig=float(_eigvalsh(w)[0]),
        rank=_balanced_rank(s, x1, x2),
        in_range=dev <= MULTIPLIER_TOL * float(np.abs(w).max()),
        lam=lam,
    )


@functools.lru_cache(maxsize=32)
def _tangent_scatter(l1: int, l2: int) -> tuple[np.ndarray, np.ndarray]:
    # Tables of `_tangent_jacobian` for one shape.  The trace against A_m
    # reads x h* at its band entries (r, c) as x[c] conj(h[r]) and h x* as
    # h[c] conj(x[r]), so the image of h = e_j is p[:, j] + q[:, j] and that
    # of i e_j is i (q[:, j] - p[:, j]), with p[m, r] = x[c] and
    # q[m, c] = conj(x[r]) over the band entries (r, c) of A_m, zero
    # elsewhere.  `pick` indexes (x, conj x, 0) for the p and then the q
    # values of every entry (m, j) where either is structurally nonzero;
    # `dest` places the (re, im) pairs of p + q and then of i (q - p) in the
    # flat real (8n-8) x 2n matrix: re in row m, im in row 4n-4+m, column 2j
    # for e_j and 2j+1 for i e_j.
    n = l1 + l2
    m = 4 * n - 4
    lab = build_sensing(l1, l2).label.reshape(n, n)
    r, c = np.indices((n, n))
    p = np.full((m, n), 2 * n)
    q = np.full((m, n), 2 * n)
    p[lab, r] = c
    q[lab, c] = n + r
    row, col = np.divmod(np.flatnonzero((p < 2 * n) | (q < 2 * n)), n)
    pick = np.concatenate([p[row, col], q[row, col]])
    re = row * 2 * n + 2 * col
    dest = np.stack([re, re + 2 * n * m, re + 1, re + 1 + 2 * n * m]).reshape(2, 2, -1)
    dest = dest.transpose(0, 2, 1).ravel()
    pick.flags.writeable = dest.flags.writeable = False
    return pick, dest


def _tangent_jacobian(x1: Signal, x2: Signal) -> np.ndarray:
    # Real matrix of h -> A(x h* + h x*): columns 2j and 2j+1 are the real
    # and imaginary parts, stacked, of the images of h = e_j and h = i e_j.
    # One gather and one scatter through `_tangent_scatter`'s tables.
    x = np.concatenate([x1, x2])
    n = x.size
    pick, dest = _tangent_scatter(x1.size, x2.size)
    p, q = np.concatenate([x, x.conj(), [0j]])[pick].reshape(2, -1)
    jac = np.zeros(16 * (n - 1) * n)
    jac[dest] = np.concatenate([p + q, 1j * (q - p)]).view(float)
    return jac.reshape(8 * n - 8, 2 * n)


def tangent_injectivity(x1: Signal, x2: Signal) -> tuple[int, bool]:
    """Real rank of h -> A(x h* + h x*) on the lifted tangent space at x.

    Builds the real-linear map's matrix on the 2N directions e_j and i e_j,
    stacking real and imaginary parts of the measurements, by one gather and
    one scatter through per-shape tables derived from the band label.  The
    kernel always contains the phase direction i x, so the rank is at most
    2N-1; the pair is flagged injective exactly when that bound is met.
    Coprime pairs are always injective.  The rank drops below 2N-1 when the
    shared factor's zero set is closed under zeta -> 1/conj(zeta) (a
    self-inversive common factor, e.g. a common zero on the unit circle); a
    generic common factor leaves the map injective even though global
    uniqueness still fails through discrete zero-flip alternatives.
    """
    x1 = as_signal(x1)
    x2 = as_signal(x2)
    rank = numeric_rank(_tangent_jacobian(x1, x2))
    return rank, rank == 2 * (x1.size + x2.size) - 1
