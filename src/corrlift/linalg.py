"""Dense Hermitian eigen-toolbox for the lifting solver and certificates.

Contents
--------
- hermitian_part             : symmetrization (A + A^H) / 2
- EigDecomposition, herm_eig : full Hermitian eigendecomposition with a
                               deterministic ordering and phase convention
- psd_project                : Frobenius-nearest PSD matrix
- numeric_rank               : eigenvalue-threshold rank of a dense matrix

All routines operate on dense ndarrays; matrices here stay small (N of order
tens), so no sparsity or blocking is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ComplexMatrix = np.ndarray
HermitianMatrix = np.ndarray

DEFAULT_RANK_TOL = 1e-8


def hermitian_part(a: ComplexMatrix) -> HermitianMatrix:
    """Return (A + A^H) / 2."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + a.conj().T)


@dataclass
class EigDecomposition:
    """Eigenvalues (real, ascending) and matching unitary eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        self.eigenvectors = np.asarray(self.eigenvectors, dtype=complex)
        if self.eigenvectors.shape != (self.eigenvalues.size, self.eigenvalues.size):
            raise ValueError("eigenvector matrix shape does not match eigenvalue count")
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be sorted ascending")

    def reconstruct(self) -> HermitianMatrix:
        """Rebuild V diag(w) V^H."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _canonical_column(v: np.ndarray) -> np.ndarray:
    # Rotate so the largest-magnitude entry is real and positive; this pins
    # the free global phase of each eigenvector.
    pivot = v[int(np.argmax(np.abs(v)))]
    mag = abs(pivot)
    if mag == 0.0:
        return v
    return v * (np.conj(pivot) / mag)


def herm_eig(a: HermitianMatrix) -> EigDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    The input is symmetrized first, eigenvalues come back ascending, and each
    eigenvector's phase is pinned by `_canonical_column`.  Exactly equal
    eigenvalues are ordered by lexicographic comparison of the canonical
    eigenvectors on (Re, Im) pairs, which makes the output deterministic even
    for degenerate spectra.
    """
    a = hermitian_part(a)
    w, v = np.linalg.eigh(a)
    cols = [_canonical_column(v[:, i]) for i in range(v.shape[1])]

    def sort_key(i: int):
        vec = cols[i]
        return (w[i],) + tuple(p for c in vec for p in (c.real, c.imag))

    order = sorted(range(w.size), key=sort_key)
    values = np.array([w[i] for i in order], dtype=float)
    vectors = np.column_stack([cols[i] for i in order]) if order else v
    return EigDecomposition(eigenvalues=values, eigenvectors=vectors)


def psd_project(a: HermitianMatrix) -> HermitianMatrix:
    """Frobenius-nearest positive semidefinite matrix.

    Clips negative eigenvalues to zero and rebuilds; the result is exactly
    Hermitian and the operation is idempotent and 1-Lipschitz in Frobenius
    norm.
    """
    dec = herm_eig(a)
    clipped = np.maximum(dec.eigenvalues, 0.0)
    v = dec.eigenvectors
    return hermitian_part((v * clipped) @ v.conj().T)


def numeric_rank(a: ComplexMatrix, tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank of a dense matrix by eigenvalue thresholding of A^H A.

    Counts eigenvalues of the Gram matrix exceeding ``tol**2`` times its
    largest eigenvalue; the zero matrix has rank 0.  The Gram eigenvalues
    are obtained as squared singular values of A rather than by forming
    A^H A, which would push the analytically-zero eigenvalues up to the
    rounding floor of the squared scale.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    sing = np.linalg.svd(a, compute_uv=False)
    top = float(sing[0] ** 2) if sing.size else 0.0
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(sing**2 > (tol * tol) * top))

