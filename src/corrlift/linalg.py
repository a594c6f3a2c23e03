"""Dense Hermitian eigen-toolbox for the lifting solver and certificates.

Contents
--------
- hermitian_part             : symmetrization (A + A^H) / 2
- EigDecomposition, herm_eig : full Hermitian eigendecomposition with a
                               deterministic ordering and phase convention
- psd_project                : Frobenius-nearest PSD matrix; the solver's
                               projection, run once per iteration
- numeric_rank               : singular-value-threshold rank of a dense matrix

All routines operate on dense ndarrays; matrices here stay small (N of order
tens), so no sparsity or blocking is attempted.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

ComplexMatrix = np.ndarray
HermitianMatrix = np.ndarray

DEFAULT_RANK_TOL = 1e-8


def hermitian_part(a: ComplexMatrix) -> HermitianMatrix:
    """Return (A + A^H) / 2."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + a.conj().T)


class EigDecomposition(NamedTuple):
    """Eigenvalues (real, ascending) and matching unitary eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(a: HermitianMatrix) -> EigDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    The input is symmetrized first and eigenvalues come back ascending.  Each
    eigenvector is rotated so that its largest-magnitude entry (the first
    one on a tie) is real and positive, which pins its free global phase.
    Exactly equal eigenvalues are ordered by lexicographic comparison of the
    rotated eigenvectors on (Re, Im) pairs, which makes the output
    deterministic even for degenerate spectra.
    """
    w, v = np.linalg.eigh(hermitian_part(a))
    v = _pin_phase(v)
    # lexsort's primary key is the last row: w, then Re v0, Im v0, Re v1, ...
    parts = np.stack([v.real, v.imag], axis=1).reshape(2 * w.size, w.size)
    order = np.lexsort(np.vstack([w, parts])[::-1])
    return EigDecomposition(eigenvalues=w[order], eigenvectors=v[:, order])


def _pin_phase(v: np.ndarray) -> np.ndarray:
    # `herm_eig`'s phase rule.  Phase factors as NumPy scalars, one per column:
    # the vectorized abs and complex division differ in the last bit, which
    # would move the digits of every estimate read from these eigenvectors.
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return v * np.array([np.conj(p) / abs(p) for p in pivots])


def psd_project(a: HermitianMatrix) -> HermitianMatrix:
    """Frobenius-nearest positive semidefinite matrix.

    Symmetrizes, then clips negative eigenvalues to zero and rebuilds; an
    input whose symmetrized part is already PSD comes back as that part.
    The result is exactly Hermitian and the operation is idempotent and
    1-Lipschitz in Frobenius norm.  The rebuild is invariant to eigenvector
    phase and order, so plain `eigh` suffices.
    """
    a = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(a)
    if w[0] >= 0.0:
        return a
    np.clip(w, 0.0, None, out=w)
    out = (v * w) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def numeric_rank(a: ComplexMatrix) -> int:
    """Rank of a dense matrix by singular-value thresholding.

    Counts singular values exceeding DEFAULT_RANK_TOL times the largest,
    that is the eigenvalues of A^H A exceeding DEFAULT_RANK_TOL**2 times the
    largest; the zero matrix has rank 0.  The singular values are compared
    unsquared, so neither a huge nor a tiny scale overflows or underflows
    the test.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    sing = np.linalg.svd(a, compute_uv=False)
    top = float(sing[0]) if sing.size else 0.0
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(sing > DEFAULT_RANK_TOL * top))
