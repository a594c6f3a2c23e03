"""Correlation sensing operators: the band label, forward/adjoint maps, noise.

The lifted variable is X = x x* for the stacked pair x = (x1, x2) of length
n = l1 + l2.  Each correlation sample is a trace tr(A_m X) against a 0/1
matrix supported on one antidiagonal band of one block of X:

    a11_k = tr(A_{1,1,k} X)   band k of the top-left     l1 x l1 block
    a22_k = tr(A_{2,2,k} X)   band k of the bottom-right l2 x l2 block
    a12_k = tr(A_{1,2,k} X)   band k of the top-right    l1 x l2 block
    a21_k = tr(A_{2,1,k} X)   band k of the bottom-left  l2 x l1 block

(the sensing matrix itself lives in the transposed block, since the trace
pairs A against X transposed).  Stacking (a11, a22, a12, a21) gives the
4n-4 measurements; the reduced mode drops the mirrored a21 block for 3n-3.

The bands tile the n x n matrix, so the whole family is one integer label
per entry: entry (r, c) of the sensing matrices belongs to A_m with m an
affine function of c - r in each block (`build_sensing`).  The forward map is
a gather of the n^2 entries of X in label order plus segmented sums, and
the adjoint is lam[label] plus its conjugate transpose; both are O(n^2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import ComplexMatrix, HermitianMatrix
from .poly import Signal, as_signal, conj_time_reverse, correlate


@dataclass
class Measurements:
    """Correlation data with labeled segments and a stacked view.

    a11/a22 have lengths 2*l1-1 and 2*l2-1; a12/a21 both l1+l2-1.  With
    `reduced` set, the stacked vector omits a21 (which carries no
    independent information) for 3n-3 entries instead of 4n-4.
    """

    a11: Signal
    a22: Signal
    a12: Signal
    a21: Signal
    reduced: bool = False

    def __post_init__(self) -> None:
        self.a11 = as_signal(self.a11)
        self.a22 = as_signal(self.a22)
        self.a12 = as_signal(self.a12)
        self.a21 = as_signal(self.a21)
        if self.a11.size % 2 == 0 or self.a22.size % 2 == 0:
            raise ValueError("autocorrelation segments must have odd length")
        cross = (self.a11.size + self.a22.size) // 2
        if self.a12.size != cross or self.a21.size != cross:
            raise ValueError("cross-correlation segments have inconsistent length")

    @property
    def l1(self) -> int:
        return (self.a11.size + 1) // 2

    @property
    def l2(self) -> int:
        return (self.a22.size + 1) // 2

    @property
    def stacked(self) -> np.ndarray:
        parts = [self.a11, self.a22, self.a12]
        if not self.reduced:
            parts.append(self.a21)
        return np.concatenate(parts)


@dataclass
class NoiseModel:
    """Per-component complex noise level and the seed that realizes it."""

    sigma: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise ValueError("sigma must be finite and nonnegative")


@dataclass(frozen=True)
class SensingSet:
    """The indexed family A_m for a pair of lengths (l1, l2).

    `label` holds, for each entry of an n x n sensing matrix in row-major
    order, the stacked index m of the one A_m covering it (a11 bands, a22
    bands, a12 bands, a21 bands).  `_tr_flat` lists the entries of X that
    tr(A_m X) sums, grouped by m, and `_tr_bounds` where each group starts.
    """

    l1: int
    l2: int
    n: int
    label: np.ndarray = field(repr=False)
    _tr_flat: np.ndarray = field(repr=False)
    _tr_bounds: np.ndarray = field(repr=False)


@functools.lru_cache(maxsize=32)
def build_sensing(l1: int, l2: int) -> SensingSet:
    """The 4(l1+l2)-4 sensing matrices as one band label and its trace tables.

    With d = c - r, each block's bands are consecutive in d, so the label m
    of entry (r, c) is affine in d: the a11 bands start at 0, the a22 bands
    at 2*l1-1, and the two cross blocks follow both autocorrelation blocks.
    Cached for the 32 most recent shapes: a repeated shape returns the same
    object, whose three index arrays are read-only.
    """
    if l1 < 1 or l2 < 1:
        raise ValueError("signal lengths must be at least 1")
    n = l1 + l2
    n11, n22 = 2 * l1 - 1, 2 * l2 - 1
    r = np.arange(n)[:, None]
    c = np.arange(n)[None, :]
    d = c - r
    left = c < l1
    label = np.where(
        r < l1,
        np.where(left, d + l1 - 1, n11 + n22 + d + n - 2),  # a11 | a21
        np.where(left, n11 + n22 + d + n - 1, n11 + d + l2 - 1),  # a12 | a22
    ).ravel()
    order = np.argsort(label, kind="stable")
    counts = np.bincount(label)
    tr_flat = (order % n) * n + order // n  # tr(A X) sums X[col, row]
    tr_bounds = np.concatenate([[0], np.cumsum(counts[:-1])])
    for table in (label, tr_flat, tr_bounds):
        table.flags.writeable = False
    return SensingSet(l1=l1, l2=l2, n=n, label=label, _tr_flat=tr_flat, _tr_bounds=tr_bounds)


def forward_stacked(s: SensingSet, x_mat: ComplexMatrix) -> np.ndarray:
    """All 4n-4 traces tr(A_m X) as one vector (banded gather fast path)."""
    x_mat = np.asarray(x_mat, dtype=complex)
    if x_mat.shape != (s.n, s.n):
        raise ValueError(f"expected a {s.n} x {s.n} matrix, got {x_mat.shape}")
    return np.add.reduceat(x_mat.ravel()[s._tr_flat], s._tr_bounds)


def adjoint(s: SensingSet, lam) -> HermitianMatrix:
    """The Hermitian matrix sum_m (lam_m A_m + conj(lam_m) A_m^H).

    For a one-hot lam this is A_m + A_m^H; for arbitrary lam it pairs with
    the forward map through tr(adjoint(lam) X) = 2 Re sum_m lam_m tr(A_m X)
    on Hermitian X.
    """
    lam = np.asarray(lam, dtype=complex).ravel()
    if lam.size != 4 * s.n - 4:
        raise ValueError(f"expected {4 * s.n - 4} multipliers, got {lam.size}")
    m = lam[s.label].reshape(s.n, s.n)  # the bands tile the matrix
    return m + m.conj().T


def measure(x1: Signal, x2: Signal, reduced: bool = False) -> Measurements:
    """Correlation measurements straight from the signals (fast path)."""
    x1 = as_signal(x1)
    x2 = as_signal(x2)
    a12 = correlate(x1, x2)
    return Measurements(
        a11=correlate(x1, x1),
        a22=correlate(x2, x2),
        a12=a12,
        a21=conj_time_reverse(a12),
        reduced=reduced,
    )


def add_noise(m: Measurements, model: NoiseModel) -> Measurements:
    """Add circular complex Gaussian noise, mirroring a12's draw onto a21.

    Each component of a11, a22, a12 receives independent noise of variance
    sigma^2 (split evenly between real and imaginary parts); a21's noise is
    the conjugate time reversal of a12's, preserving the measurement
    symmetry exactly.
    """
    if model.sigma == 0.0:
        return Measurements(m.a11, m.a22, m.a12, m.a21, reduced=m.reduced)
    rng = np.random.default_rng(model.seed)
    scale = model.sigma / math.sqrt(2.0)

    def draw(size: int) -> np.ndarray:
        return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))

    n12 = draw(m.a12.size)
    return Measurements(
        a11=m.a11 + draw(m.a11.size),
        a22=m.a22 + draw(m.a22.size),
        a12=m.a12 + n12,
        a21=m.a21 + conj_time_reverse(n12),
        reduced=m.reduced,
    )

