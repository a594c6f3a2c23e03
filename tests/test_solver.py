"""Contract tests for the projected-gradient solver and recovery helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from corrlift.linalg import herm_eig
from corrlift.sensing import (
    Measurements,
    NoiseModel,
    add_noise,
    adjoint,
    build_sensing,
    forward_stacked,
    measure,
)
from corrlift.solver import (
    STALL_RTOL,
    STALL_WINDOW,
    RecoveryDiagnostics,
    SolverOptions,
    SolverResult,
    aligned_mse,
    extract_rank1,
    recover,
    solve,
)


def random_signal(rng, n):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    while abs(x[0]) < 0.1 or abs(x[-1]) < 0.1:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x


def noisy_pair(rng, l1, l2, snr_db):
    """A random pair, its clean correlations and a noisy copy at `snr_db`."""
    x1 = random_signal(rng, l1)
    x2 = random_signal(rng, l2)
    clean = measure(x1, x2)
    power = float(np.linalg.norm(clean.stacked) ** 2)
    sigma = np.sqrt(power / (clean.stacked.size * 10.0 ** (snr_db / 10.0)))
    return clean, add_noise(clean, NoiseModel(sigma=sigma, seed=int(rng.integers(2**31))))


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g + g.conj().T


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iters=0)
    with pytest.raises(ValueError):
        SolverOptions(rel_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(rel_tol=1.0)


def test_zero_measurements_give_zero_solution():
    zeros3 = np.zeros(3)
    b = Measurements(a11=zeros3, a22=zeros3, a12=zeros3, a21=zeros3)
    s = build_sensing(2, 2)
    result = solve(s, b)
    assert result.iters == 0
    assert result.residual == 0.0
    assert result.rank1_gap == 0.0
    assert (result.stop_reason, result.restarts) == ("converged", 0)
    assert np.array_equal(result.x_mat, np.zeros((4, 4), dtype=complex))


def test_noiseless_solve_small():
    rng = np.random.default_rng(81)
    x1 = random_signal(rng, 2)
    x2 = random_signal(rng, 2)
    s = build_sensing(2, 2)
    result = solve(s, measure(x1, x2))
    assert result.residual <= 1e-8
    assert result.rank1_gap <= 1e-6
    x = np.concatenate([x1, x2])
    assert np.abs(result.x_mat - np.outer(x, x.conj())).max() <= 1e-6


def test_solve_length_mismatch():
    rng = np.random.default_rng(82)
    b = measure(random_signal(rng, 2), random_signal(rng, 3))
    with pytest.raises(ValueError):
        solve(build_sensing(2, 2), b)


def test_homogeneity_under_measurement_scaling():
    rng = np.random.default_rng(83)
    b = measure(random_signal(rng, 2), random_signal(rng, 3))
    scaled = Measurements(a11=4.0 * b.a11, a22=4.0 * b.a22, a12=4.0 * b.a12, a21=4.0 * b.a21)
    s = build_sensing(2, 3)
    r1 = solve(s, b)
    r4 = solve(s, scaled)
    assert r4.iters == r1.iters
    scale = np.abs(4.0 * r1.x_mat).max()
    assert np.abs(r4.x_mat - 4.0 * r1.x_mat).max() <= 1e-12 * scale
    # the stall rule is relative, so a noisy solve stops at the same place
    _, noisy = noisy_pair(rng, 2, 3, 20.0)
    r1 = solve(s, noisy)
    r4 = solve(s, Measurements(*(4.0 * seg for seg in (noisy.a11, noisy.a22, noisy.a12, noisy.a21))))
    assert r1.stop_reason == r4.stop_reason == "stalled"
    assert abs(r4.iters - r1.iters) <= 1


def test_objective_monotone_along_iteration_ladder():
    rng = np.random.default_rng(84)
    b = measure(random_signal(rng, 2), random_signal(rng, 3))
    s = build_sensing(2, 3)
    residuals = [solve(s, b, SolverOptions(max_iters=k)).residual for k in range(10, 90, 10)]
    for earlier, later in zip(residuals, residuals[1:]):
        assert later <= earlier * (1.0 + 1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(85)
    for reduced in (False, True):
        x1 = random_signal(rng, 2)
        x2 = random_signal(rng, 3)
        b = measure(x1, x2, reduced=reduced)
        b_vec = b.stacked
        s = build_sensing(2, 3)
        m_count = b_vec.size
        x_mat = random_hermitian(rng, 5)

        def objective(mat):
            return float(np.linalg.norm(forward_stacked(s, mat)[:m_count] - b_vec) ** 2)

        lam = np.zeros(4 * 5 - 4, dtype=complex)
        lam[:m_count] = np.conj(forward_stacked(s, x_mat)[:m_count] - b_vec)
        grad = adjoint(s, lam)
        eps = 1e-6
        for _ in range(10):
            h = random_hermitian(rng, 5)
            h /= np.linalg.norm(h)
            fd = (objective(x_mat + eps * h) - objective(x_mat - eps * h)) / (2.0 * eps)
            analytic = float(np.real(np.vdot(grad, h)))
            assert abs(fd - analytic) <= 1e-5 * max(abs(fd), 1.0)


def test_extract_rank1_exact_outer_product():
    rng = np.random.default_rng(86)
    x = random_signal(rng, 4)
    result = SolverResult(
        x_mat=np.outer(x, x.conj()), iters=1, residual=0.0, rank1_gap=0.0
    )
    est = extract_rank1(result)
    mse, _ = aligned_mse(x, est)
    assert mse <= 1e-24


def test_extract_rank1_identity_perturbation():
    rng = np.random.default_rng(87)
    x = random_signal(rng, 4)
    for eps in (1e-6, 1e-4, 1e-2):
        result = SolverResult(
            x_mat=np.outer(x, x.conj()) + eps * np.eye(4),
            iters=1,
            residual=0.0,
            rank1_gap=0.0,
        )
        est = extract_rank1(result)
        mse, phi = aligned_mse(x, est)
        assert np.linalg.norm(np.exp(1j * phi) * est - x) <= eps


def test_extract_rank1_zero_and_negative():
    zero = SolverResult(
        x_mat=np.zeros((3, 3), dtype=complex), iters=0, residual=0.0, rank1_gap=0.0
    )
    assert np.array_equal(extract_rank1(zero), np.zeros(3, dtype=complex))

    negdef = SolverResult(
        x_mat=-np.eye(3, dtype=complex), iters=0, residual=0.0, rank1_gap=0.0
    )
    with pytest.warns(RuntimeWarning):
        est = extract_rank1(negdef)
    assert np.array_equal(est, np.zeros(3, dtype=complex))


def test_extract_rank1_degenerate_top_warns():
    tie = SolverResult(x_mat=np.eye(3, dtype=complex), iters=0, residual=0.0, rank1_gap=1.0)
    with pytest.warns(RuntimeWarning):
        est = extract_rank1(tie)
    assert np.linalg.norm(est) == pytest.approx(1.0)


def _as_result(x_mat):
    return SolverResult(x_mat=x_mat, iters=0, residual=0.0, rank1_gap=0.0)


def _herm_eig_top(x_mat):
    eig = herm_eig(x_mat)
    return math.sqrt(float(eig.eigenvalues[-1])) * eig.eigenvectors[:, -1]


def test_extract_rank1_matches_herm_eig_top_column_bytewise():
    rng = np.random.default_rng(89)
    for trial in range(300):
        n = int(rng.integers(2, 13))
        g = rng.standard_normal((n, 1 + trial % n)) + 1j * rng.standard_normal((n, 1 + trial % n))
        x_mat = g @ g.conj().T
        if trial % 2:
            # not exactly Hermitian: both read its Hermitian part
            x_mat = x_mat + 1e-3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        got = extract_rank1(_as_result(x_mat))
        assert got.tobytes() == _herm_eig_top(x_mat).tobytes()


def test_extract_rank1_exact_top_tie_falls_back_to_herm_eig():
    # eigh returns the tied eigenvalue 3 exactly; its columns e0 and e2
    # come back in index order, and herm_eig's lexicographic order puts e0
    # last, so the top column of a plain eigh would be e2.
    x_mat = np.diag([3.0, 1.0, 3.0]).astype(complex)
    w, v = np.linalg.eigh(x_mat)
    assert w[-1] == w[-2] and np.array_equal(np.abs(v[:, -1]), [0.0, 0.0, 1.0])
    with pytest.warns(RuntimeWarning, match="numerically degenerate"):
        got = extract_rank1(_as_result(x_mat))
    assert got.tobytes() == _herm_eig_top(x_mat).tobytes()
    assert np.array_equal(got, [math.sqrt(3.0), 0.0, 0.0])


def test_aligned_mse_examples():
    rng = np.random.default_rng(88)
    x = random_signal(rng, 5)
    mse, phi = aligned_mse(x, np.exp(1j * np.pi / 3) * x)
    assert mse <= 1e-15
    assert np.linalg.norm(np.exp(1j * phi) * np.exp(1j * np.pi / 3) * x - x) <= 1e-7

    mse_zero, _ = aligned_mse(x, np.zeros(5))
    assert mse_zero == pytest.approx(1.0)

    with pytest.raises(ValueError):
        aligned_mse(x, np.zeros(4))
    with pytest.raises(ValueError):
        aligned_mse(np.zeros(5), x)


def test_aligned_mse_matches_grid_search():
    rng = np.random.default_rng(89)
    for _ in range(5):
        x = random_signal(rng, 4)
        y = random_signal(rng, 4)
        mse, _ = aligned_mse(x, y)
        grid = 2.0 * np.pi * np.arange(720) / 720.0
        best = min(
            float(np.linalg.norm(x - np.exp(1j * phi) * y) ** 2) for phi in grid
        ) / float(np.linalg.norm(x) ** 2)
        assert mse <= best + 1e-9
        assert best - mse <= 1e-4  # grid resolution, not formula error


def test_recover_end_to_end_noiseless():
    rng = np.random.default_rng(90)
    x1 = random_signal(rng, 2)
    x2 = random_signal(rng, 3)
    e1, e2, diag = recover(2, 3, measure(x1, x2))
    mse, _ = aligned_mse(np.concatenate([x1, x2]), np.concatenate([e1, e2]))
    assert mse <= 1e-5
    assert not diag.degenerate
    assert not diag.non_unique
    assert isinstance(diag, RecoveryDiagnostics)


def test_recover_length_mismatch():
    rng = np.random.default_rng(91)
    b = measure(random_signal(rng, 2), random_signal(rng, 3))
    with pytest.raises(ValueError):
        recover(3, 2, b)


def test_recover_common_factor_flags_non_uniqueness():
    from corrlift.poly import convolve

    rng = np.random.default_rng(92)
    common = np.array([1.0, -2.0], dtype=complex)
    x1 = convolve(common, random_signal(rng, 2))
    x2 = convolve(common, random_signal(rng, 2))
    # the program has several rank-1 minimizers (zero-flip alternatives of
    # the shared factor), so the solve lands on a blend: a fitted residual
    # but a solution matrix that is far from rank-1
    _, _, diag = recover(3, 3, measure(x1, x2))
    assert diag.residual <= 1e-6
    assert diag.non_unique
    assert diag.rank1_gap > 1e-3


def test_noiseless_coprime_recovery_needs_one_iteration():
    # the spectral start is already the pair; one step confirms it
    rng = np.random.default_rng(96)
    for l1, l2 in [(1, 1), (2, 2), (3, 4), (5, 2)]:
        x1 = random_signal(rng, l1)
        x2 = random_signal(rng, l2)
        e1, e2, diag = recover(l1, l2, measure(x1, x2))
        assert diag.iters == 1
        assert (diag.stop_reason, diag.restarts) == ("converged", 0)
        mse, _ = aligned_mse(np.concatenate([x1, x2]), np.concatenate([e1, e2]))
        assert mse <= 1e-14


def test_noisy_solve_stops_when_the_objective_stalls():
    rng = np.random.default_rng(98)
    s = build_sensing(3, 3)
    for snr_db in (10.0, 40.0):
        clean, noisy = noisy_pair(rng, 3, 3, snr_db)
        result = solve(s, noisy)
        assert result.stop_reason == "stalled"
        assert result.iters < 2000
        # the planted lift is feasible, so the fit cannot be worse than its misfit
        norm_b = np.linalg.norm(noisy.stacked)
        assert result.residual * norm_b <= np.linalg.norm(noisy.stacked - clean.stacked)


def test_stall_stop_fires_at_the_first_iteration_the_rule_allows():
    # Capped solves replay the same iterates, so the objective after j
    # iterations is (residual * ||b||)^2 of the solve capped at j.
    rng = np.random.default_rng(99)
    s = build_sensing(3, 3)
    _, noisy = noisy_pair(rng, 3, 3, 30.0)
    k = solve(s, noisy).iters
    norm_b = np.linalg.norm(noisy.stacked)

    def obj(j):
        return (solve(s, noisy, SolverOptions(max_iters=j)).residual * norm_b) ** 2

    assert obj(k - STALL_WINDOW) - obj(k) <= STALL_RTOL * obj(k)
    assert obj(k - 1 - STALL_WINDOW) - obj(k - 1) > STALL_RTOL * obj(k - 1)
    assert solve(s, noisy, SolverOptions(max_iters=k - 1)).stop_reason == "max_iters"


def test_max_iters_stop_and_restart_count(monkeypatch):
    rng = np.random.default_rng(100)
    _, noisy = noisy_pair(rng, 3, 3, 20.0)
    result = solve(build_sensing(3, 3), noisy, SolverOptions(max_iters=5))
    assert (result.stop_reason, result.iters) == ("max_iters", 5)
    # one forward transform for the start, one per iteration, one per restart
    calls = []

    def counting(s, x):
        calls.append(1)
        return forward_stacked(s, x)

    monkeypatch.setattr("corrlift.solver.forward_stacked", counting)
    result = solve(build_sensing(3, 3), noisy)
    assert result.restarts > 0
    assert len(calls) == 1 + result.iters + result.restarts


def test_margin_separates_coprime_from_common_factor():
    from corrlift.poly import convolve

    rng = np.random.default_rng(97)
    a1, a2 = random_signal(rng, 2), random_signal(rng, 2)
    _, _, coprime = recover(2, 2, measure(a1, a2))
    common = np.array([1.0, -2.0], dtype=complex)
    _, _, shared = recover(3, 3, measure(convolve(common, a1), convolve(common, a2)))
    assert coprime.margin > 1e-4
    assert abs(shared.margin) <= 1e-12
    zeros3 = np.zeros(3)
    b0 = Measurements(a11=zeros3, a22=zeros3, a12=zeros3, a21=zeros3)
    assert solve(build_sensing(2, 2), b0).margin == 0.0


def test_recover_reduced_matches_full():
    rng = np.random.default_rng(93)
    x1 = random_signal(rng, 2)
    x2 = random_signal(rng, 3)
    truth = np.concatenate([x1, x2])
    for reduced in (False, True):
        e1, e2, _ = recover(2, 3, measure(x1, x2, reduced=reduced))
        mse, _ = aligned_mse(truth, np.concatenate([e1, e2]))
        assert mse <= 1e-5


def test_recover_phase_invariance():
    rng = np.random.default_rng(94)
    x1 = random_signal(rng, 2)
    x2 = random_signal(rng, 3)
    theta = 0.7
    b_plain = measure(x1, x2)
    b_rot = measure(np.exp(1j * theta) * x1, np.exp(1j * theta) * x2)
    # the measurements themselves are phase-blind, so the solves coincide
    assert np.abs(b_plain.stacked - b_rot.stacked).max() <= 1e-12
    truth = np.concatenate([x1, x2])
    e_plain = np.concatenate(recover(2, 3, b_plain)[:2])
    e_rot = np.concatenate(recover(2, 3, b_rot)[:2])
    mse_plain, _ = aligned_mse(truth, e_plain)
    mse_rot, _ = aligned_mse(truth, e_rot)
    assert abs(mse_plain - mse_rot) <= 1e-10


def test_noiseless_recovery_batch():
    rng = np.random.default_rng(95)
    for _ in range(10):
        l1 = int(rng.integers(2, 5))
        l2 = int(rng.integers(2, 5))
        x1 = random_signal(rng, l1)
        x2 = random_signal(rng, l2)
        e1, e2, _ = recover(l1, l2, measure(x1, x2))
        mse, _ = aligned_mse(np.concatenate([x1, x2]), np.concatenate([e1, e2]))
        assert mse <= 1e-5
