"""Contract tests for the dense Hermitian eigen-toolbox."""

from __future__ import annotations

import numpy as np
import pytest

from corrlift.linalg import (
    _eigvals,
    _eigvalsh,
    herm_eig,
    hermitian_part,
    numeric_rank,
    psd_project,
)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(a)


def herm_eig_oracle(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column reference for `herm_eig`: rotate, then sort by tuples."""
    w, v = np.linalg.eigh(hermitian_part(a))
    cols = []
    for i in range(w.size):
        col = v[:, i]
        pivot = col[int(np.argmax(np.abs(col)))]
        cols.append(col * (np.conj(pivot) / abs(pivot)))

    def sort_key(i):
        return (w[i],) + tuple(p for c in cols[i] for p in (c.real, c.imag))

    order = sorted(range(w.size), key=sort_key)
    return np.array([w[i] for i in order]), np.column_stack([cols[i] for i in order])


def test_herm_eig_diagonal_example():
    dec = herm_eig(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(dec.eigenvalues, [1.0, 3.0])
    # ascending order puts the eigenvector of 1 first
    assert abs(abs(dec.eigenvectors[1, 0]) - 1.0) < 1e-12
    assert abs(abs(dec.eigenvectors[0, 1]) - 1.0) < 1e-12


def test_herm_eig_swap_example():
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    dec = herm_eig(a)
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
    r = np.sqrt(0.5)
    assert np.allclose(np.abs(dec.eigenvectors), [[r, r], [r, r]], atol=1e-12)


def test_herm_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(101)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        a = random_hermitian(rng, n)
        dec = herm_eig(a)
        v = dec.eigenvectors
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-10
        err = np.linalg.norm((v * dec.eigenvalues) @ v.conj().T - a)
        assert err <= 1e-9 * max(np.linalg.norm(a), 1e-30)


def test_herm_eig_deterministic_on_degenerate_spectrum():
    a = np.eye(3, dtype=complex)
    d1 = herm_eig(a)
    d2 = herm_eig(a.copy())
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_herm_eig_matches_per_column_oracle_bitwise():
    rng = np.random.default_rng(103)
    mats = []
    for n in range(2, 13):
        mats += [random_hermitian(rng, n) for _ in range(10)]
        mats.append(np.eye(n, dtype=complex))
        mats.append(np.diag(rng.integers(-1, 2, n)).astype(complex))
        mats.append(np.diag(np.repeat([2.0, -1.0], [n // 2, n - n // 2])).astype(complex))
        mats.append(np.eye(n, dtype=complex)[rng.permutation(n)])
    for a in mats:
        dec = herm_eig(a)
        w, v = herm_eig_oracle(a)
        assert dec.eigenvalues.tobytes() == w.tobytes()
        assert dec.eigenvectors.tobytes() == v.tobytes()


def test_herm_eig_phase_convention():
    rng = np.random.default_rng(5)
    a = random_hermitian(rng, 6)
    dec = herm_eig(a)
    for i in range(6):
        col = dec.eigenvectors[:, i]
        pivot = col[int(np.argmax(np.abs(col)))]
        assert pivot.real > 0
        assert abs(pivot.imag) <= 1e-12 * abs(pivot)


def test_psd_project_clips_negative_eigenvalues():
    a = np.diag([2.0, -3.0]).astype(complex)
    p = psd_project(a)[0]
    assert np.allclose(p, np.diag([2.0, 0.0]))


def test_psd_project_returns_the_eigenpairs_of_its_result():
    rng = np.random.default_rng(14)
    for _ in range(20):
        a = random_hermitian(rng, 6)
        p, w, v = psd_project(a)
        assert np.all(w >= 0.0) and np.all(np.diff(w) >= 0.0)
        assert np.linalg.norm((v * w) @ v.conj().T - p) <= 1e-12 * np.linalg.norm(p)
        # a PSD input comes back as itself, with its own decomposition
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        pd = g @ g.conj().T + np.eye(6)
        q, wq, vq = psd_project(pd)
        want_w, want_v = np.linalg.eigh(pd)
        assert q is pd
        assert (wq.tobytes(), vq.tobytes()) == (want_w.tobytes(), want_v.tobytes())


def test_psd_project_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_hermitian(rng, 7)
        p = psd_project(a)[0]
        again = psd_project(p)[0]
        assert np.linalg.norm(again - p) <= 1e-10 * max(np.linalg.norm(p), 1.0)


def test_psd_project_is_metric_projection():
    # Variational inequality of a convex projection: for any PSD candidate X,
    # Re <A - P, X - P> <= 0.
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = random_hermitian(rng, 5)
        p = psd_project(a)[0]
        w = np.linalg.eigvalsh(p)
        assert w.min() >= -1e-12 * max(1.0, np.linalg.norm(p))
        for _ in range(5):
            b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            x = b @ b.conj().T
            inner = np.real(np.trace((a - p).conj().T @ (x - p)))
            assert inner <= 1e-9 * np.linalg.norm(a - p) * np.linalg.norm(x - p) + 1e-12


def test_psd_project_nonexpansive():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = random_hermitian(rng, 6)
        b = random_hermitian(rng, 6)
        lhs = np.linalg.norm(psd_project(a)[0] - psd_project(b)[0])
        assert lhs <= np.linalg.norm(a - b) + 1e-12


@pytest.mark.parametrize("decompose", [psd_project, herm_eig, _eigvalsh, _eigvals])
def test_nan_matrix_raises_linalg_error(decompose):
    # The gufunc marks a failed LAPACK call by NaN eigenvalues and NumPy's
    # "invalid value" warning; the helpers turn it into NumPy's LinAlgError.
    a = np.full((4, 4), np.nan, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        with pytest.warns(RuntimeWarning, match="invalid value"):
            decompose(a)


def test_numeric_rank_planted():
    rng = np.random.default_rng(31)
    for r in range(0, 5):
        b = rng.standard_normal((9, r)) + 1j * rng.standard_normal((9, r))
        c = rng.standard_normal((r, 9)) + 1j * rng.standard_normal((r, 9))
        a = b @ c if r else np.zeros((9, 9), dtype=complex)
        assert numeric_rank(a) == r


def test_numeric_rank_matches_gram_rank():
    rng = np.random.default_rng(32)
    for _ in range(15):
        n = int(rng.integers(2, 13))
        r = int(rng.integers(1, n + 1))
        b = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        c = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        s = b @ c
        assert numeric_rank(s) == numeric_rank(s.conj().T @ s)
