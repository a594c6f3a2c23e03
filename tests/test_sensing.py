"""Contract tests for the sensing operators, measurements, and noise."""

from __future__ import annotations

import numpy as np
import pytest

from corrlift.linalg import hermitian_part
from corrlift.poly import conj_time_reverse, correlate
from corrlift.sensing import (
    NoiseModel,
    add_noise,
    adjoint,
    build_sensing,
    forward_stacked,
    measure,
)


def random_pair(rng, l1, l2):
    x1 = rng.standard_normal(l1) + 1j * rng.standard_normal(l1)
    x2 = rng.standard_normal(l2) + 1j * rng.standard_normal(l2)
    return x1, x2


def rect_shift(lj, li, k):
    """The lj x li band matrix with ones where (column - row) = k - lj + 1."""
    return np.eye(lj, li, k=k - lj + 1, dtype=complex)


def dense_sensing(l1, l2):
    """Dense oracle: the 4n-4 sensing matrices in stacked order.

    Bands of the top-left, bottom-right, bottom-left and top-right blocks
    give the a11, a22, a12 and a21 samples.
    """
    n = l1 + l2
    top, bottom = slice(0, l1), slice(l1, n)
    mats = []
    for rows, cols, lj, li in (
        (top, top, l1, l1),
        (bottom, bottom, l2, l2),
        (bottom, top, l2, l1),
        (top, bottom, l1, l2),
    ):
        for k in range(li + lj - 1):
            a = np.zeros((n, n), dtype=complex)
            a[rows, cols] = rect_shift(lj, li, k)
            mats.append(a)
    return mats


def forward_dense(mats, x):
    """Reference forward map by dense traces."""
    return np.array([np.trace(a @ x) for a in mats])


def lift(x1, x2):
    x = np.concatenate([x1, x2])
    return np.outer(x, np.conj(x))


def test_rect_shift_band_tiling():
    for lj, li in [(2, 3), (3, 2), (4, 4), (1, 5)]:
        total = sum(np.count_nonzero(rect_shift(lj, li, k)) for k in range(li + lj - 1))
        assert total == li * lj


def test_rect_shift_trace_oracle():
    rng = np.random.default_rng(50)
    for lj, li in [(2, 2), (2, 4), (3, 2), (4, 3)]:
        xi = rng.standard_normal(li) + 1j * rng.standard_normal(li)
        xj = rng.standard_normal(lj) + 1j * rng.standard_normal(lj)
        corr = correlate(xi, xj)
        outer = np.outer(xi, np.conj(xj))
        for k in range(li + lj - 1):
            val = np.trace(rect_shift(lj, li, k) @ outer)
            assert abs(val - corr[k]) <= 1e-12 * (1 + abs(corr[k]))


def test_rect_shift_embedding_identity():
    # (T^(k))^T = Pi_{N,li}^T T_N^(k-lj+1) Pi_{N,lj}, with T_N the down-shift,
    # Pi_{N,l} the embedding and negative powers read as transposed positive ones.
    for lj, li in [(2, 3), (3, 2), (3, 3)]:
        n = li + lj
        t_n = np.eye(n, k=-1)
        for k in range(li + lj - 1):
            power = k - lj + 1
            if power >= 0:
                tp = np.linalg.matrix_power(t_n, power)
            else:
                tp = np.linalg.matrix_power(t_n, -power).T
            rhs = np.eye(n, li).T @ tp @ np.eye(n, lj)
            assert np.array_equal(rect_shift(lj, li, k).T, rhs)


def test_band_label_matches_dense_oracle():
    for l1 in range(1, 9):
        for l2 in range(1, 9):
            s = build_sensing(l1, l2)
            labelled = sum(m * a for m, a in enumerate(dense_sensing(l1, l2)))
            assert np.array_equal(s.label.reshape(s.n, s.n), labelled.real)


def test_build_sensing_counts():
    assert np.unique(build_sensing(2, 2).label).size == 12
    for l1 in range(1, 9):
        for l2 in range(1, 9):
            s = build_sensing(l1, l2)
            assert np.unique(s.label).size == 4 * (l1 + l2) - 4


def test_build_sensing_is_cached_and_read_only():
    s = build_sensing(3, 4)
    assert build_sensing(3, 4) is s
    assert build_sensing(4, 3) is not s
    for table in (s.label, s._tr_flat, s._tr_bounds):
        with pytest.raises(ValueError):
            table[0] = 1
        with pytest.raises(ValueError):
            table.reshape(-1)[0] = 1


def test_build_sensing_block_sparsity():
    s = build_sensing(2, 3)
    n11, n22, nc = 3, 5, 4
    label = s.label.reshape(5, 5)
    for m in range(4 * 5 - 4):
        mask = np.zeros((5, 5), dtype=bool)
        if m < n11:
            mask[:2, :2] = True
        elif m < n11 + n22:
            mask[2:, 2:] = True
        elif m < n11 + n22 + nc:
            mask[2:, :2] = True
        else:
            mask[:2, 2:] = True
        assert np.all(label[~mask] != m)
        assert np.count_nonzero(label == m) >= 1


def test_build_sensing_transpose_identity():
    for l1, l2 in [(2, 2), (2, 3), (3, 2), (3, 4)]:
        s = build_sensing(l1, l2)
        n = l1 + l2
        label = s.label.reshape(n, n)
        cross = 2 * l1 - 1 + 2 * l2 - 1
        for k in range(n - 1):
            a12 = label == cross + n - 2 - k
            a21 = label == cross + n - 1 + k
            assert np.array_equal(a21.T, a12)


def test_forward_matches_correlations():
    rng = np.random.default_rng(51)
    for l1, l2 in [(2, 2), (2, 4), (3, 3), (4, 2)]:
        x1, x2 = random_pair(rng, l1, l2)
        s = build_sensing(l1, l2)
        flat = forward_stacked(s, lift(x1, x2))
        a11, a22, a12, a21 = np.split(flat, np.cumsum([2 * l1 - 1, 2 * l2 - 1, l1 + l2 - 1]))
        assert np.allclose(a11, correlate(x1, x1), atol=1e-12)
        assert np.allclose(a22, correlate(x2, x2), atol=1e-12)
        assert np.allclose(a12, correlate(x1, x2), atol=1e-12)
        assert np.allclose(a21, correlate(x2, x1), atol=1e-12)


def test_forward_zero_and_linearity():
    rng = np.random.default_rng(52)
    s = build_sensing(3, 2)
    assert np.count_nonzero(forward_stacked(s, np.zeros((5, 5)))) == 0
    x = hermitian_part(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    y = hermitian_part(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    lhs = forward_stacked(s, x + y)
    rhs = forward_stacked(s, x) + forward_stacked(s, y)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_forward_fast_path_matches_dense_reference():
    rng = np.random.default_rng(53)
    for l1, l2 in [(2, 2), (3, 4), (5, 2)]:
        s = build_sensing(l1, l2)
        mats = dense_sensing(l1, l2)
        n = l1 + l2
        for _ in range(5):
            x = hermitian_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            assert np.allclose(forward_stacked(s, x), forward_dense(mats, x), atol=1e-12)


def test_forward_dimension_mismatch():
    with pytest.raises(ValueError):
        forward_stacked(build_sensing(2, 2), np.zeros((3, 3)))


def test_adjoint_one_hot_and_zero():
    for l1, l2 in [(1, 1), (2, 3), (4, 2), (3, 5)]:
        s = build_sensing(l1, l2)
        m_count = 4 * s.n - 4
        for m, a in enumerate(dense_sensing(l1, l2)):
            lam = np.zeros(m_count)
            lam[m] = 1.0
            assert np.array_equal(adjoint(s, lam), a + a.conj().T)
    s = build_sensing(2, 3)
    m_count = 4 * 5 - 4
    assert np.count_nonzero(adjoint(s, np.zeros(m_count))) == 0
    with pytest.raises(ValueError):
        adjoint(s, np.zeros(m_count - 1))


def test_adjoint_pairing_identity():
    rng = np.random.default_rng(54)
    s = build_sensing(3, 3)
    for _ in range(20):
        lam = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        x = hermitian_part(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        w = adjoint(s, lam)
        assert np.linalg.norm(w - w.conj().T) <= 1e-14
        lhs = np.trace(w @ x)
        rhs = 2.0 * np.real(np.sum(lam * forward_stacked(s, x)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_measure_hand_example():
    out = measure([1, 1], [1, -1])
    assert np.allclose(out.a11, [1, 2, 1])
    assert np.allclose(out.a22, [-1, 2, -1])
    assert np.allclose(out.a12, [-1, 0, 1])
    assert np.allclose(out.a21, conj_time_reverse(out.a12))


def test_measure_matches_forward_on_lift():
    rng = np.random.default_rng(56)
    for l1, l2 in [(2, 2), (3, 5), (4, 3)]:
        x1, x2 = random_pair(rng, l1, l2)
        s = build_sensing(l1, l2)
        direct = measure(x1, x2)
        lifted = forward_stacked(s, lift(x1, x2))
        assert np.linalg.norm(direct.stacked - lifted) <= 1e-12 * np.linalg.norm(
            direct.stacked
        )


def test_measure_reduced_mode():
    out = measure([1, 1], [1, -1], reduced=True)
    assert out.stacked.size == 3 * 4 - 3
    full = measure([1, 1], [1, -1])
    assert full.stacked.size == 4 * 4 - 4
    assert np.array_equal(out.stacked, full.stacked[: 3 * 4 - 3])


def test_add_noise_zero_sigma_identity():
    m = measure([1, 1], [1, -1])
    out = add_noise(m, NoiseModel(sigma=0.0, seed=3))
    assert np.array_equal(out.stacked, m.stacked)


def test_add_noise_preserves_mirror_structure():
    rng = np.random.default_rng(57)
    x1, x2 = random_pair(rng, 3, 4)
    noisy = add_noise(measure(x1, x2), NoiseModel(sigma=0.5, seed=11))
    assert np.allclose(noisy.a21, conj_time_reverse(noisy.a12), atol=1e-15)


def test_add_noise_empirical_variance_and_rsnr():
    sigma = 0.7
    m = measure([1.0, 2.0, -1.0], [0.5, 1.5, 1.0])
    clean = m.stacked
    informative = m.a11.size + m.a22.size + m.a12.size
    draws = 10_000
    total = 0.0
    for seed in range(draws):
        noisy = add_noise(m, NoiseModel(sigma=sigma, seed=seed))
        diff = noisy.stacked - clean
        # count each independent component once (a21 mirrors a12)
        total += float(
            np.sum(np.abs(diff[:informative]) ** 2)
        )
    est = total / (draws * informative)
    assert abs(est - sigma**2) <= 0.05 * sigma**2

