"""Contract tests for Sylvester matrices, GCD degree, and certificates."""

from __future__ import annotations

import numpy as np
import pytest

from corrlift.poly import convolve, poly_gcd, random_self_reciprocal
from corrlift.sensing import adjoint, build_sensing, downshift, measure
from corrlift.sylvester import (
    build,
    build_padded,
    certificate_multipliers,
    certificate_report,
    dual_certificate,
    gcd_degree,
    lambda_decomposition,
    tangent_injectivity,
)


def random_signal(rng, n):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    while abs(x[0]) < 0.1 or abs(x[-1]) < 0.1:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x


def random_coprime_pair(rng, l1, l2):
    # random coefficients give coprime polynomials with probability one
    return random_signal(rng, l1), random_signal(rng, l2)


def test_build_example():
    s = build([1, 2], [3, 4])
    assert np.array_equal(s, np.array([[3, 1], [4, 2]], dtype=complex))


def test_build_determinant_is_resultant():
    rng = np.random.default_rng(60)
    for da, db in [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2)]:
        a = random_signal(rng, da + 1)
        b = random_signal(rng, db + 1)
        det = np.linalg.det(build(a, b))
        alpha = np.roots(a[::-1])
        beta = np.roots(b[::-1])
        res = a[-1] ** db * b[-1] ** da * np.prod(
            [ai - bj for ai in alpha for bj in beta]
        )
        assert abs(det - res) <= 1e-9 * abs(res)


def test_build_padded_null_vector_and_bottom_row():
    rng = np.random.default_rng(61)
    for l1, l2 in [(2, 2), (2, 4), (3, 2), (4, 3)]:
        x1, x2 = random_coprime_pair(rng, l1, l2)
        s = build_padded(x1, x2)
        n = l1 + l2
        assert s.shape == (n, n)
        assert np.count_nonzero(s[-1, :]) == 0
        x = np.concatenate([x1, x2])
        assert np.linalg.norm(s @ x) <= 1e-12 * np.linalg.norm(s) * np.linalg.norm(x)


def test_build_padded_computes_convolution_difference():
    rng = np.random.default_rng(62)
    l1, l2 = 3, 4
    x1, x2 = random_coprime_pair(rng, l1, l2)
    s = build_padded(x1, x2)
    v1 = random_signal(rng, l1)
    v2 = random_signal(rng, l2)
    out = s @ np.concatenate([v1, v2])
    expect = convolve(x2, v1) - convolve(x1, v2)
    assert np.allclose(out[:-1], expect, atol=1e-12 * np.linalg.norm(expect))
    assert abs(out[-1]) <= 1e-14


def test_build_padded_shift_column_structure():
    rng = np.random.default_rng(63)
    l1, l2 = 2, 3
    x1, x2 = random_coprime_pair(rng, l1, l2)
    s = build_padded(x1, x2)
    n = l1 + l2
    t = downshift(n)
    a = np.concatenate([-x1, np.zeros(l2)])
    b = np.concatenate([x2, np.zeros(l1)])
    for j in range(l1):
        assert np.allclose(s[:, j], np.linalg.matrix_power(t, j) @ b)
    for j in range(l2):
        assert np.allclose(s[:, l1 + j], np.linalg.matrix_power(t, j) @ a)


def test_build_padded_rejects_non_c00():
    with pytest.raises(ValueError):
        build_padded([0, 1], [1, 1])
    with pytest.raises(ValueError):
        build_padded([1, 1], [1, 0])


def test_gcd_degree_examples():
    import corrlift.linalg as la

    assert gcd_degree([1, -1], [1, -2]) == 1
    assert la.numeric_rank(build_padded([1, -1], [1, -2])) == 3
    assert gcd_degree([1, -1], [1, -1]) == 2
    assert la.numeric_rank(build_padded([1, -1], [1, -1])) == 2


def test_gcd_degree_cross_oracle():
    rng = np.random.default_rng(64)
    for trial in range(50):
        d = int(rng.integers(0, 4))
        u = random_signal(rng, int(rng.integers(1, 4)))
        v = random_signal(rng, int(rng.integers(1, 4)))
        if d:
            common = random_signal(rng, d + 1)
            x1 = convolve(common, u)
            x2 = convolve(common, v)
        else:
            x1, x2 = u, v
        got = gcd_degree(x1, x2)
        want = poly_gcd(x1, x2).size  # 1 + gcd degree
        assert got == want


def test_dual_certificate_matrix():
    rng = np.random.default_rng(64)
    x1, x2 = random_coprime_pair(rng, 2, 3)
    w = dual_certificate(x1, x2)
    s = build_padded(x1, x2)
    assert np.allclose(w, s.conj().T @ s)
    assert np.allclose(w, w.conj().T)
    assert np.linalg.eigvalsh(w)[0] >= -1e-12 * np.linalg.norm(w)


def test_certificate_report_coprime():
    rng = np.random.default_rng(65)
    for l1, l2 in [(2, 2), (2, 3), (3, 3), (4, 2), (3, 5)]:
        x1, x2 = random_coprime_pair(rng, l1, l2)
        n = l1 + l2
        rep = certificate_report(x1, x2)
        w_fro = np.linalg.norm(dual_certificate(x1, x2))
        assert rep.null_residual <= 1e-10
        assert rep.min_eig >= -1e-10 * w_fro
        assert rep.rank == n - 1
        assert rep.in_range
        assert rep.lam.shape == (4 * n - 4,)


def test_certificate_report_common_factor_drops_rank():
    x1 = convolve([1, -1], [1, 2])
    x2 = convolve([1, -1], [1, -3])
    rep = certificate_report(x1, x2)
    assert rep.rank < (len(x1) + len(x2)) - 1
    assert rep.null_residual <= 1e-10


def test_lambda_decomposition_reproduces_certificate():
    rng = np.random.default_rng(66)
    # same-length pairs reproduce essentially exactly
    for _ in range(5):
        x1, x2 = random_coprime_pair(rng, 2, 2)
        lam = lambda_decomposition(x1, x2)
        s = build_padded(x1, x2)
        w = s.conj().T @ s
        dev = np.abs(adjoint(build_sensing(2, 2), lam) - w).max()
        assert dev <= 1e-12 * np.abs(w).max()
    # mixed lengths, both orientations
    for l1, l2 in [(2, 4), (4, 2), (3, 4), (5, 2), (1, 3)]:
        x1, x2 = random_coprime_pair(rng, l1, l2)
        lam = lambda_decomposition(x1, x2)
        assert lam.shape == (4 * (l1 + l2) - 4,)
        s = build_padded(x1, x2)
        w = s.conj().T @ s
        dev = np.abs(adjoint(build_sensing(l1, l2), lam) - w).max()
        assert dev <= 1e-10 * np.abs(w).max()


def test_certificate_multipliers_from_data_alone():
    rng = np.random.default_rng(67)
    for l1, l2 in [(1, 1), (2, 3), (4, 2)]:
        x1, x2 = random_coprime_pair(rng, l1, l2)
        lam = certificate_multipliers(measure(x1, x2))
        assert np.array_equal(lam, lambda_decomposition(x1, x2))
        # reduced data still carry a21, so the certificate is the same
        assert np.array_equal(lam, certificate_multipliers(measure(x1, x2, reduced=True)))
        w = adjoint(build_sensing(l1, l2), lam)
        x = np.concatenate([x1, x2])
        assert np.linalg.norm(w @ x) <= 1e-12 * np.linalg.norm(w) * np.linalg.norm(x)


def test_lambda_segment_lengths():
    x1 = np.array([1.0, 2.0])
    x2 = np.array([1.0, -1.0, 0.5])
    lam = lambda_decomposition(x1, x2)
    l1, l2 = 2, 3
    n = 5
    sizes = (2 * l1 - 1, 2 * l2 - 1, n - 1, n - 1)
    assert lam.size == sum(sizes) == 4 * n - 4


def test_tangent_injectivity_coprime_vs_common():
    # Rank deficiency requires a shared factor whose zero set is closed
    # under zeta -> 1/conj(zeta); self-reciprocal factors are the canonical
    # family with that property, so those are what we plant.
    rng = np.random.default_rng(67)
    for l1, l2 in [(2, 2), (2, 3), (3, 3)]:
        x1, x2 = random_coprime_pair(rng, l1, l2)
        n = l1 + l2
        rank, injective = tangent_injectivity(x1, x2)
        assert injective and rank == 2 * n - 1

    for _ in range(5):
        common = random_self_reciprocal(1, rng)
        x1 = convolve(common, random_signal(rng, 2))
        x2 = convolve(common, random_signal(rng, 2))
        n = len(x1) + len(x2)
        rank, injective = tangent_injectivity(x1, x2)
        assert not injective and rank < 2 * n - 1


def test_tangent_injectivity_unit_circle_common_zero():
    # A single shared zero on the unit circle is self-inversive on its own
    # and already collapses the tangent rank by one.
    rng = np.random.default_rng(69)
    for _ in range(5):
        t = rng.uniform(0.0, 2.0 * np.pi)
        common = np.array([1.0, -np.exp(1j * t)])
        x1 = convolve(common, random_signal(rng, 2))
        x2 = convolve(common, random_signal(rng, 2))
        n = len(x1) + len(x2)
        rank, injective = tangent_injectivity(x1, x2)
        assert not injective and rank == 2 * n - 2


def test_tangent_injectivity_generic_common_factor_stays_injective():
    # A generic (non-self-inversive) common factor leaves the tangent map
    # injective: the pair is non-coprime, so global uniqueness fails through
    # discrete alternatives, yet no infinitesimal direction witnesses it.
    rng = np.random.default_rng(70)
    for _ in range(5):
        common = random_signal(rng, 2)
        x1 = convolve(common, random_signal(rng, 2))
        x2 = convolve(common, random_signal(rng, 2))
        n = len(x1) + len(x2)
        assert gcd_degree(x1, x2) == 2
        rank, injective = tangent_injectivity(x1, x2)
        assert injective and rank == 2 * n - 1


def test_tangent_injectivity_matches_gcd_degree():
    # On a corpus whose planted common factors are self-reciprocal, the
    # injectivity flag coincides with coprimality exactly.
    rng = np.random.default_rng(68)
    for trial in range(20):
        if trial % 2:
            x1, x2 = random_coprime_pair(rng, 3, 3)
        else:
            common = random_self_reciprocal(1, rng)
            x1 = convolve(common, random_signal(rng, 2))
            x2 = convolve(common, random_signal(rng, 2))
        _, injective = tangent_injectivity(x1, x2)
        assert injective == (gcd_degree(x1, x2) == 1)
