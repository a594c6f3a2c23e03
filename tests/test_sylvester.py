"""Contract tests for Sylvester matrices, GCD degree, and certificates."""

from __future__ import annotations

import numpy as np
import pytest

from corrlift.poly import convolve, gsd, poly_gcd
from corrlift.sensing import (
    NoiseModel,
    add_noise,
    adjoint,
    build_sensing,
    forward_stacked,
    measure,
)
from corrlift.sylvester import (
    _tangent_jacobian,
    build_padded,
    certificate_multipliers,
    certificate_report,
    gcd_degree,
    tangent_injectivity,
)
from test_self_reciprocal import random_self_reciprocal


def random_signal(rng, n):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    while abs(x[0]) < 0.1 or abs(x[-1]) < 0.1:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x


def random_coprime_pair(rng, l1, l2):
    # random coefficients give coprime polynomials with probability one
    return random_signal(rng, l1), random_signal(rng, l2)


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
    t = np.eye(n, k=-1)
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


def test_certificate_report_coprime():
    rng = np.random.default_rng(65)
    for l1, l2 in [(2, 2), (2, 3), (3, 3), (4, 2), (3, 5)]:
        x1, x2 = random_coprime_pair(rng, l1, l2)
        n = l1 + l2
        rep = certificate_report(x1, x2)
        s = build_padded(x1, x2)
        w_fro = np.linalg.norm(s.conj().T @ s)
        assert rep.null_residual <= 1e-10
        assert rep.min_eig >= -1e-10 * w_fro
        assert rep.rank == n - 1 == n - gcd_degree(x1, x2)
        assert rep.in_range
        assert rep.lam.shape == (4 * n - 4,)


def test_certificate_report_common_factor_drops_rank():
    x1 = convolve([1, -1], [1, 2])
    x2 = convolve([1, -1], [1, -3])
    rep = certificate_report(x1, x2)
    assert rep.rank < (len(x1) + len(x2)) - 1
    assert rep.rank == len(x1) + len(x2) - gcd_degree(x1, x2)
    assert rep.null_residual <= 1e-10


def test_certificate_report_rank_is_sylvester_rank():
    # W = S^H S squares S's singular values: judged on W, the coprime pair
    # [1e4, 1], [1, 1] read rank 2 (a shared factor) instead of 3
    for x1, x2, want in [([1e4, 1], [1, 1], 3), ([3e4, 1], [1, 2, 1], 4)]:
        rep = certificate_report(x1, x2)
        assert rep.rank == want == len(x1) + len(x2) - gcd_degree(x1, x2)
    rng = np.random.default_rng(71)
    for d in range(4):
        common = random_signal(rng, d + 1)
        x1 = convolve(common, random_signal(rng, 3))
        x2 = convolve(common, random_signal(rng, 2))
        n = len(x1) + len(x2)
        assert certificate_report(x1, x2).rank == n - gcd_degree(x1, x2) == n - 1 - d


def test_coprimality_verdict_ignores_relative_scale():
    # scaling x1 alone cannot create a shared zero; with the rank taken
    # relative to S's largest singular value, c >= 1e8 read a common factor
    x2 = [1.0, -1.0, 0.5]
    for c in (1e-8, 1.0, 1e4, 1e8, 1e9):
        x1 = [c, 2.0 * c]
        assert gcd_degree(x1, x2) == 1
        rank = certificate_report(x1, x2).rank
        assert rank == 4 == 5 - gcd_degree(x1, x2)
    # a dynamic range past the floating-point range: the rescaled 1e-100
    # underflows to a zero entry of S instead of failing the edge check
    assert gcd_degree([1e300, 1e-100], x2) == 1


def test_certificate_report_in_range_tolerance(monkeypatch):
    # in_range compares adjoint(lam) with W at MULTIPLIER_TOL of W's largest
    # entry; a perturbed multiplier vector above it is out of range
    import corrlift.sylvester as syl

    x1, x2 = np.array([1.0, 2.0]), np.array([1.0, -1.0, 0.5])
    exact = syl.certificate_multipliers(measure(x1, x2))
    scale = float(np.abs(exact).max())
    for bump, in_range in [(1e-12, True), (1e-8, False)]:
        monkeypatch.setattr(
            syl, "certificate_multipliers", lambda m, b=bump: exact + b * scale
        )
        assert syl.certificate_report(x1, x2).in_range is in_range


def scale_test_pairs():
    rng = np.random.default_rng(67)
    pairs = [
        (np.array([1.0, 2.0]), np.array([1.0, -1.0, 0.5])),
        (convolve([1, -1], [1, 2]), convolve([1, -1], [1, -3])),
    ]
    pairs += [random_coprime_pair(rng, l1, l2) for l1, l2 in [(2, 3), (3, 3), (4, 2)]]
    return pairs


@pytest.mark.filterwarnings("error")
def test_certificate_report_invariant_under_power_of_two_scaling():
    # W = S^H S reaches 2^1000 scale: its products and norms must not overflow
    for x1, x2 in scale_test_pairs():
        ref = certificate_report(x1, x2)
        deg = gcd_degree(x1, x2)
        for exponent in (500, -500):
            c = 2.0**exponent
            rep = certificate_report(c * x1, c * x2)
            assert gcd_degree(c * x1, c * x2) == deg
            assert rep.rank == ref.rank
            assert rep.in_range == ref.in_range
            assert rep.null_residual == ref.null_residual


@pytest.mark.filterwarnings("error")
def test_gcd_degree_beyond_squared_overflow():
    # singular values near 2^530 overflow once squared
    c = 2.0**530
    for x1, x2 in scale_test_pairs():
        assert gcd_degree(c * x1, c * x2) == gcd_degree(x1, x2)


def test_lambda_decomposition_reproduces_certificate():
    rng = np.random.default_rng(66)
    # same-length pairs reproduce essentially exactly
    for _ in range(5):
        x1, x2 = random_coprime_pair(rng, 2, 2)
        lam = certificate_multipliers(measure(x1, x2))
        s = build_padded(x1, x2)
        w = s.conj().T @ s
        dev = np.abs(adjoint(build_sensing(2, 2), lam) - w).max()
        assert dev <= 1e-12 * np.abs(w).max()
    # mixed lengths, both orientations
    for l1, l2 in [(2, 4), (4, 2), (3, 4), (5, 2), (1, 3)]:
        x1, x2 = random_coprime_pair(rng, l1, l2)
        lam = certificate_multipliers(measure(x1, x2))
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
        # reduced data still carry a21, so the certificate is the same
        assert np.array_equal(lam, certificate_multipliers(measure(x1, x2, reduced=True)))
        w = adjoint(build_sensing(l1, l2), lam)
        x = np.concatenate([x1, x2])
        assert np.linalg.norm(w @ x) <= 1e-12 * np.linalg.norm(w) * np.linalg.norm(x)


def _reversed_window(seg, out_len, n):
    # out[k] = seg[n-2-k], reading zero where the index leaves the segment.
    out = np.zeros(out_len, dtype=complex)
    k = np.arange(out_len)
    j = n - 2 - k
    ok = (j >= 0) & (j < seg.size)
    out[ok] = seg[j[ok]]
    return out


def multipliers_by_windows(m):
    """Reference for `certificate_multipliers`: one reversed window per segment."""
    n = m.l1 + m.l2
    return np.concatenate(
        [
            0.5 * _reversed_window(m.a22, 2 * m.l1 - 1, n),
            0.5 * _reversed_window(m.a11, 2 * m.l2 - 1, n),
            -0.5 * m.a21[::-1],
            -0.5 * m.a12[::-1],
        ]
    )


def test_certificate_multipliers_match_window_oracle_bytewise():
    rng = np.random.default_rng(68)
    for l1 in range(1, 9):
        for l2 in range(1, 9):
            x1, x2 = random_coprime_pair(rng, l1, l2)
            clean = measure(x1, x2)
            for m in (
                clean,
                add_noise(clean, NoiseModel(sigma=0.1, seed=l1 * 10 + l2)),
                measure(x1, x2, reduced=True),
                measure(x1.real, x2.real),
            ):
                got = certificate_multipliers(m)
                want = multipliers_by_windows(m)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_lambda_segment_lengths():
    x1 = np.array([1.0, 2.0])
    x2 = np.array([1.0, -1.0, 0.5])
    lam = certificate_multipliers(measure(x1, x2))
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


def probe_tangent_jacobian(x1, x2):
    # Reference: the image of each direction e_j, i e_j by one outer product
    # and one forward map, real and imaginary parts stacked.
    x = np.concatenate([x1, x2])
    n = x.size
    s = build_sensing(len(x1), len(x2))
    cols = []
    for j in range(n):
        for direction in (1.0, 1.0j):
            h = np.zeros(n, dtype=complex)
            h[j] = direction
            v = forward_stacked(s, np.outer(x, np.conj(h)) + np.outer(h, np.conj(x)))
            cols.append(np.concatenate([v.real, v.imag]))
    return np.column_stack(cols)


def test_tangent_jacobian_matches_probe_oracle():
    rng = np.random.default_rng(72)
    for l1 in range(1, 7):
        for l2 in range(1, 7):
            x1, x2 = random_coprime_pair(rng, l1, l2)
            common = random_self_reciprocal(1, rng)
            for pair in [(x1, x2), (convolve(common, x1), convolve(common, x2))]:
                got = _tangent_jacobian(*pair)
                want = probe_tangent_jacobian(*pair)
                assert got.shape == want.shape
                assert np.all(got == want)


def test_tangent_deficiency_is_self_reciprocal_gcd_degree():
    # 2N-1-rank counts the self-reciprocal part of the common factor: planted
    # self-reciprocal factors of degree 2-3, alone and times a generic factor
    rng = np.random.default_rng(73)
    plants = [(2, 0), (3, 0), (1, 1), (2, 1), (1, 2)]  # (self-reciprocal, generic) degrees
    for sr_degree, generic_degree in plants:
        for _ in range(3):
            common = convolve(
                random_self_reciprocal(sr_degree, rng), random_signal(rng, generic_degree + 1)
            )
            x1 = convolve(common, random_signal(rng, 2))
            x2 = convolve(common, random_signal(rng, 3))
            n = len(x1) + len(x2)
            rank, injective = tangent_injectivity(x1, x2)
            g, _ = gsd(poly_gcd(x1, x2))
            assert 2 * n - 1 - rank == g.size - 1 == sr_degree
            assert not injective
