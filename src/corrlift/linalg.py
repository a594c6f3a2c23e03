"""Dense Hermitian eigen-toolbox for the lifting solver and certificates.

Contents
--------
- _eigh, _eigvalsh           : `np.linalg.eigh` and `np.linalg.eigvalsh` (lower
                               triangle) without NumPy's per-call wrapper;
                               every eigendecomposition in corrlift runs here
- _eigvals                   : `np.linalg.eigvals` of a general complex matrix,
                               likewise; the start of `poly`'s root finder
- hermitian_part             : symmetrization (A + A^H) / 2
- EigDecomposition, herm_eig : full Hermitian eigendecomposition with a
                               deterministic ordering and phase convention;
                               no library caller, acceptance criterion 09
                               tests it
- psd_project                : Frobenius-nearest PSD matrix of a Hermitian
                               input and its eigenpairs; the solver's
                               projection, run once per iteration, whose
                               last eigenpairs give the solver's estimate
- numeric_rank               : singular-value-threshold rank of a dense matrix

All routines operate on dense ndarrays; matrices here stay small (N of order
tens), so no sparsity or blocking is attempted.

`_eigh` and `_eigvalsh` call the gufuncs `np.linalg.eigh` and
`np.linalg.eigvalsh` run, `numpy.linalg._umath_linalg.eigh_lo` and
`eigvalsh_lo`, which pick the same LAPACK loop (`d->dd` or `D->dD`) for
float64 or complex128 input, so their output is the same bytes; `_eigvals`
calls `eigvals`, whose `D->D` loop `np.linalg.eigvals` runs on complex128
input.  At the solver's N = 6 NumPy's wrapper (an `errstate` context, dtype
dispatch and result wrapping) costs about a third of the call, and `solve`
runs one `_eigh` per projection.  The gufunc signals a failed LAPACK call by NaN
eigenvalues and NumPy's "invalid value" RuntimeWarning; the helpers turn a
NaN first eigenvalue into the LinAlgError "Eigenvalues did not converge"
that NumPy raises.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

ComplexMatrix = np.ndarray
HermitianMatrix = np.ndarray

DEFAULT_RANK_TOL = 1e-8


def _eigh(a: HermitianMatrix) -> tuple[np.ndarray, np.ndarray]:
    """`np.linalg.eigh(a)` of a float64 or complex128 matrix, bit for bit.

    Reads the lower triangle.  A NaN first eigenvalue, the gufunc's mark of
    a failed LAPACK call, raises LinAlgError.
    """
    w, v = _umath_linalg.eigh_lo(a)
    if math.isnan(w[0]):
        raise LinAlgError("Eigenvalues did not converge")
    return w, v


def _eigvalsh(a: HermitianMatrix) -> np.ndarray:
    """`np.linalg.eigvalsh(a)` of a float64 or complex128 matrix, bit for bit.

    Reads the lower triangle and fails as `_eigh` does.
    """
    w = _umath_linalg.eigvalsh_lo(a)
    if math.isnan(w[0]):
        raise LinAlgError("Eigenvalues did not converge")
    return w


def _eigvals(a: ComplexMatrix) -> np.ndarray:
    """`np.linalg.eigvals(a)` of a finite complex128 matrix, bit for bit.

    Fails as `_eigh` does.
    """
    w = _umath_linalg.eigvals(a)
    if math.isnan(w[0].real):
        raise LinAlgError("Eigenvalues did not converge")
    return w


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
    w, v = _eigh(hermitian_part(a))
    v = np.stack([_pin_phase(column) for column in v.T], axis=1)
    # lexsort's primary key is the last row: w, then Re v0, Im v0, Re v1, ...
    parts = np.stack([v.real, v.imag], axis=1).reshape(2 * w.size, w.size)
    order = np.lexsort(np.vstack([w, parts])[::-1])
    return EigDecomposition(eigenvalues=w[order], eigenvectors=v[:, order])


def _pin_phase(v: np.ndarray) -> np.ndarray:
    # `herm_eig`'s phase rule on one eigenvector.  The phase factor is a NumPy
    # scalar: the vectorized abs and complex division differ in the last
    # bit, which would move the digits of every estimate read from it.
    pivot = v[np.abs(v).argmax()]
    return v * (pivot.conjugate() / abs(pivot))


def psd_project(a: HermitianMatrix) -> tuple[HermitianMatrix, np.ndarray, np.ndarray]:
    """Frobenius-nearest positive semidefinite matrix, with its eigenpairs.

    `a` must be a Hermitian float64 or complex128 matrix: it is not
    symmetrized (`_eigh` reads its lower triangle only), so a caller whose
    matrix is Hermitian only up to rounding passes `hermitian_part(a)`.
    Clips negative eigenvalues to zero and rebuilds; an input that is
    already PSD comes back as itself.  The result is exactly Hermitian and
    the operation is idempotent and 1-Lipschitz in Frobenius norm.  The
    rebuild is invariant to eigenvector phase and order, so plain `_eigh`
    suffices.

    Returns ``(p, w, v)``: the projection p, the clipped eigenvalues w
    (ascending, nonnegative) and `_eigh`'s eigenvector columns v.  When
    nothing was clipped they are `_eigh`'s decomposition of p itself (p is
    then `a`); otherwise p is v diag(w) v^H up to the rounding of the
    rebuild.  Either way callers read p's spectrum without decomposing it
    again.
    """
    w, v = _eigh(a)
    if w[0] >= 0.0:
        return a, w, v
    np.maximum(w, 0.0, out=w)
    out = (v * w) @ v.conj().T
    out += out.conj().T  # conj() copies, so the sum reads no updated entry
    out *= 0.5
    return out, w, v


def numeric_rank(a: ComplexMatrix) -> int:
    """Rank of a dense matrix by singular-value thresholding.

    Counts singular values exceeding DEFAULT_RANK_TOL times the largest,
    that is the eigenvalues of A^H A exceeding DEFAULT_RANK_TOL**2 times the
    largest; the zero matrix has rank 0.  The singular values are compared
    unsquared, so neither a huge nor a tiny scale overflows or underflows
    the test.  A real matrix, such as the tangent Jacobian, keeps its real
    SVD.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    sing = np.linalg.svd(a, compute_uv=False)
    top = float(sing[0]) if sing.size else 0.0
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(sing > DEFAULT_RANK_TOL * top))
