"""Contract tests for the projected-gradient solver and recovery helpers."""

from __future__ import annotations

import math
import re
import warnings
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

from corrlift.linalg import herm_eig, hermitian_part, psd_project
from corrlift.poly import convolve
from corrlift.sensing import (
    Measurements,
    NoiseModel,
    add_noise,
    adjoint,
    build_sensing,
    forward_stacked,
    measure,
)
from corrlift.cli import _sigma_for, gen_signal
from corrlift.solver import (
    GAP_EVERY,
    GAP_RTOL,
    STALL_RTOL,
    STALL_WINDOW,
    STEP_SAFETY,
    SolverOptions,
    SolverResult,
    _FRAME_WINDOW,
    _spectral_start,
    aligned_mse,
    measurement_frame,
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


def test_zero_measurements_give_zero_solution():
    zeros3 = np.zeros(3)
    b = Measurements(a11=zeros3, a22=zeros3, a12=zeros3, a21=zeros3)
    result = solve(b)
    assert result.iters == 0
    assert result.residual == 0.0
    assert result.rank1_gap == 0.0
    assert (result.margin, result.stop_reason, result.restarts) == (0.0, "converged", 0)
    assert np.array_equal(result.x_mat, np.zeros((4, 4), dtype=complex))


def test_zero_fit_gives_the_zero_estimate_without_warning():
    # Negative autocorrelations at shape (1, 1): the nearest PSD fit is the
    # zero matrix, whose top eigenvalue is 0, so the estimate is the zero
    # signal and the gap 0; no warning accompanies it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve(Measurements([-1], [-1], [0], [0]))
    assert np.array_equal(result.x_mat, np.zeros((2, 2), dtype=complex))
    assert result.x_est.tobytes() == np.zeros(2, dtype=complex).tobytes()
    assert result.rank1_gap == 0.0
    assert not result.non_unique


def test_noiseless_solve_small():
    rng = np.random.default_rng(81)
    x1 = random_signal(rng, 2)
    x2 = random_signal(rng, 2)
    result = solve(measure(x1, x2))
    assert result.residual <= 1e-8
    assert result.rank1_gap <= 1e-6
    x = np.concatenate([x1, x2])
    assert np.abs(result.x_mat - np.outer(x, x.conj())).max() <= 1e-6


def test_homogeneity_under_measurement_scaling():
    rng = np.random.default_rng(83)
    b = measure(random_signal(rng, 2), random_signal(rng, 3))
    scaled = Measurements(a11=4.0 * b.a11, a22=4.0 * b.a22, a12=4.0 * b.a12, a21=4.0 * b.a21)
    r1 = solve(b)
    r4 = solve(scaled)
    assert r4.iters == r1.iters
    scale = np.abs(4.0 * r1.x_mat).max()
    assert np.abs(r4.x_mat - 4.0 * r1.x_mat).max() <= 1e-12 * scale
    # The gap and stall rules are relative, so a noisy solve stops at the
    # same iterate for the same reason under power-of-two scalings of b that
    # neither overflow nor underflow: on the gap at 20 dB, on the stall at
    # 80 dB.
    for snr_db, reason in ((20.0, "gap"), (80.0, "stalled")):
        _, noisy = noisy_pair(rng, 2, 3, snr_db)
        r1 = solve(noisy)
        assert r1.stop_reason == reason
        segments = (noisy.a11, noisy.a22, noisy.a12, noisy.a21)
        for k in (-60, -20, 20, 60):
            rk = solve(Measurements(*(2.0**k * seg for seg in segments)))
            assert (rk.stop_reason, rk.iters) == (reason, r1.iters)
            assert rk.gap == pytest.approx(r1.gap, rel=1e-12)
            scale = np.abs(2.0**k * r1.x_mat).max()
            assert np.abs(rk.x_mat - 2.0**k * r1.x_mat).max() <= 1e-12 * scale


def test_objective_monotone_along_iteration_ladder():
    rng = np.random.default_rng(84)
    b = measure(random_signal(rng, 2), random_signal(rng, 3))
    residuals = [solve(b, SolverOptions(max_iters=k)).residual for k in range(10, 90, 10)]
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


def _unscaled_aligned_mse(x_true, x_est):
    # `aligned_mse` before it rescaled its inputs by a power of two.
    nt = float(np.linalg.norm(x_true) ** 2)
    ne = float(np.linalg.norm(x_est) ** 2)
    inner = complex(np.vdot(x_est, x_true))
    return max(nt + ne - 2.0 * abs(inner), 0.0) / nt, float(np.angle(inner))


def test_aligned_mse_rescaling_is_exact():
    rng = np.random.default_rng(90)
    for trial in range(2000):
        n = int(rng.integers(1, 9))
        x = random_signal(rng, n) * 10.0 ** rng.uniform(-30, 30)
        y = x * (1.0 + 10.0 ** rng.uniform(-12, 0) * random_signal(rng, n))
        if trial % 3 == 0:
            y = random_signal(rng, n) * 10.0 ** rng.uniform(-30, 30)
        got = aligned_mse(x, y)
        want = _unscaled_aligned_mse(x, y)
        assert (got[0].hex(), got[1].hex()) == (want[0].hex(), want[1].hex())


def test_aligned_mse_tiny_reference():
    # ||x||^2 of the reference underflows to 0; the rescaled norms do not
    x = np.array([1e-170, 2e-170j])
    assert float(np.linalg.norm(x) ** 2) == 0.0
    mse, phi = aligned_mse(x, 1j * x)
    assert mse <= 1e-15
    assert phi == pytest.approx(-np.pi / 2)
    assert aligned_mse(x, np.zeros(2)) == (1.0, 0.0)


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
    assert not diag.non_unique
    assert isinstance(diag, SolverResult)


def test_recover_length_mismatch():
    rng = np.random.default_rng(91)
    b = measure(random_signal(rng, 2), random_signal(rng, 3))
    with pytest.raises(ValueError):
        recover(3, 2, b)


def test_recover_common_factor_flags_non_uniqueness():
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


def duality_gap_terms(b: Measurements, x_mat: np.ndarray) -> tuple[float, float, float]:
    """f(X), g(mu) and the cancellation-free gap at the dual point mu = r + t e.

    r = A(X) - b, e is 1/2 at the centre lags a11[l1-1] and a22[l2-1] and
    t = max(0, -lam_min(adjoint(conj r))); f and g are evaluated as
    defined, f = ||r||^2 and g = -||mu||^2 - 2 Re<mu, b>, and the gap as
    2 Re<r, A(X)> + t tr X + t^2 / 2.
    """
    s = build_sensing(b.l1, b.l2)
    b_vec = b.stacked
    v = forward_stacked(s, x_mat)[: b_vec.size]
    r = v - b_vec
    lam = np.zeros(4 * s.n - 4, dtype=complex)
    lam[: b_vec.size] = r.conj()
    t = max(0.0, -np.linalg.eigvalsh(adjoint(s, lam))[0])
    mu = r.copy()
    mu[[b.l1 - 1, 2 * b.l1 + b.l2 - 2]] += 0.5 * t
    f = np.vdot(r, r).real
    g = -np.vdot(mu, mu).real - 2.0 * np.vdot(mu, b_vec).real
    gap = 2.0 * np.vdot(r, v).real + t * np.trace(x_mat).real + 0.5 * t * t
    return float(f), float(g), float(gap)


def _relative_gap_from_the_definition(b: Measurements, x_mat: np.ndarray) -> float:
    f, g, _ = duality_gap_terms(b, x_mat)
    return (f - g) / f


def test_noisy_solve_stops_on_a_certified_gap():
    rng = np.random.default_rng(98)
    for snr_db in (10.0, 40.0):
        for reduced in (False, True):
            clean, noisy = noisy_pair(rng, 3, 3, snr_db)
            clean.reduced = noisy.reduced = reduced
            result = solve(noisy)
            assert result.stop_reason == "gap"
            assert result.iters % GAP_EVERY == 0
            assert result.iters < 2000
            assert 0.0 <= result.gap <= GAP_RTOL
            assert result.gap == pytest.approx(
                _relative_gap_from_the_definition(noisy, result.x_mat), rel=1e-6
            )
            # the planted lift is feasible, so the fit cannot be worse than its misfit
            norm_b = np.linalg.norm(noisy.stacked)
            assert result.residual * norm_b <= np.linalg.norm(noisy.stacked - clean.stacked)


def test_gap_stop_fires_at_the_first_check_that_passes():
    # Capped solves replay the same iterates, and a capped solve checks the
    # gap at its last iterate, so a solve capped one check earlier reads a
    # gap above the tolerance.
    rng = np.random.default_rng(99)
    _, noisy = noisy_pair(rng, 3, 3, 30.0)
    result = solve(noisy)
    assert result.stop_reason == "gap"
    earlier = solve(noisy, SolverOptions(max_iters=result.iters - GAP_EVERY))
    assert earlier.stop_reason == "max_iters"
    assert earlier.gap > GAP_RTOL
    capped = solve(noisy, SolverOptions(max_iters=result.iters))
    assert (capped.stop_reason, capped.gap) == ("gap", result.gap)


def _high_snr_pair(length: int, s: int, snr_db: float) -> Measurements:
    # Pair (length, s) of ROADMAP's probes: both signals from
    # default_rng([length, s]), noise seed s + 100, as the sweep draws noise.
    rng = np.random.default_rng([length, s])
    x1, x2 = gen_signal(length, rng), gen_signal(length, rng)
    clean = measure(x1, x2)
    sigma = _sigma_for(snr_db, float(np.linalg.norm(clean.stacked) ** 2), clean.stacked.size)
    return add_noise(clean, NoiseModel(sigma=sigma, seed=s + 100))


# The stall stop's iterations at 80 and 120 dB on pairs (3, 0-3) and
# (6, 0-3), as the solve without a gap stop took them.
HIGH_SNR_STALLS = {
    80.0: {3: (629, 232, 133, 109), 6: (676, 460, 679, 506)},
    120.0: {3: (711, 209, 144, 100), 6: (689, 456, 573, 468)},
}


def test_stall_stop_still_ends_high_snr_solves_at_the_same_iteration():
    # Above about 60 dB the objective flattens long before the gap is
    # certified, so the stall rule is the stop, at the iteration it fired
    # at before the gap rule existed.
    for snr_db, by_length in HIGH_SNR_STALLS.items():
        for length, counts in by_length.items():
            for s, count in enumerate(counts):
                result = solve(_high_snr_pair(length, s, snr_db))
                assert (result.stop_reason, result.iters) == ("stalled", count)
                assert result.gap > GAP_RTOL


def test_stall_stop_fires_at_the_first_iteration_the_rule_allows():
    # Capped solves replay the same iterates, so the objective after j
    # iterations is (residual * ||b||)^2 of the solve capped at j.
    noisy = _high_snr_pair(3, 3, 80.0)
    k = solve(noisy).iters
    norm_b = np.linalg.norm(noisy.stacked)

    def obj(j):
        return (solve(noisy, SolverOptions(max_iters=j)).residual * norm_b) ** 2

    assert obj(k - STALL_WINDOW) - obj(k) <= STALL_RTOL * obj(k)
    assert obj(k - 1 - STALL_WINDOW) - obj(k - 1) > STALL_RTOL * obj(k - 1)
    assert solve(noisy, SolverOptions(max_iters=k - 1)).stop_reason == "max_iters"


def test_gap_stopped_objective_is_certified_against_a_tightly_converged_solve(monkeypatch):
    # The gap stop ends a noisy solve early, not at a worse fit: f(X) - f* is
    # at most the gap, so f(X) exceeds the objective of a solve run with
    # neither stop (a 2000-iteration, 1e-14 stall look-back) by at most
    # GAP_RTOL f(X), and the fit stays below the planted pair's misfit.
    rng = np.random.default_rng(101)
    cases = [noisy_pair(rng, 3, 3, snr_db) for snr_db in (10.0, 40.0) for _ in range(3)]
    stopped = [solve(noisy) for _, noisy in cases]
    monkeypatch.setattr("corrlift.solver.GAP_RTOL", -1.0)
    monkeypatch.setattr("corrlift.solver.STALL_WINDOW", 2000)
    monkeypatch.setattr("corrlift.solver.STALL_RTOL", 1e-14)
    for (clean, noisy), result in zip(cases, stopped):
        tight = solve(noisy)
        assert (result.stop_reason, tight.stop_reason) == ("gap", "stalled")
        norm_b = np.linalg.norm(noisy.stacked)
        obj, tight_obj = ((r.residual * norm_b) ** 2 for r in (result, tight))
        assert tight_obj <= obj
        assert obj - tight_obj <= result.gap * obj <= GAP_RTOL * obj
        assert result.residual * norm_b <= np.linalg.norm(noisy.stacked - clean.stacked)


def test_max_iters_stop_and_restart_count(monkeypatch):
    rng = np.random.default_rng(100)
    _, noisy = noisy_pair(rng, 3, 3, 20.0)
    result = solve(noisy, SolverOptions(max_iters=5))
    assert (result.stop_reason, result.iters) == ("max_iters", 5)
    # one forward transform for the start, one per iteration, one per restart
    calls = []

    def counting(s, x):
        calls.append(1)
        return forward_stacked(s, x)

    monkeypatch.setattr("corrlift.solver.forward_stacked", counting)
    result = solve(noisy)
    assert result.restarts > 0
    assert len(calls) == 1 + result.iters + result.restarts


def _doubling_psd_project(a):
    # A projection that doubles its output overshoots the fit, so every
    # accepted objective, restart and all, rises.
    p, w, v = psd_project(a)
    return 2.0 * p, 2.0 * w, v


def test_solve_stops_diverged_when_the_objective_keeps_rising(monkeypatch):
    monkeypatch.setattr("corrlift.solver.psd_project", _doubling_psd_project)
    _, noisy = noisy_pair(np.random.default_rng(100), 3, 3, 20.0)
    result = solve(noisy)
    assert (result.stop_reason, result.iters) == ("diverged", 10)
    # The result describes the last accepted iterate, as for any other stop.
    b_vec = noisy.stacked
    s = build_sensing(noisy.l1, noisy.l2)
    misfit = np.linalg.norm(forward_stacked(s, result.x_mat)[: b_vec.size] - b_vec)
    assert result.residual == pytest.approx(misfit / np.linalg.norm(b_vec), rel=1e-12)
    top = np.linalg.eigvalsh(result.x_mat)[-1]
    assert np.linalg.norm(result.x_est) ** 2 == pytest.approx(top, rel=1e-12)


def _symmetrizing_psd_project(a):
    # The projection as it was before `psd_project` took its input as
    # Hermitian: symmetrize every input, clip with np.clip.  It returns the
    # eigenpairs with the projection, as `psd_project` does.
    a = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(a)
    if w[0] >= 0.0:
        return a, w, v
    np.clip(w, 0.0, None, out=w)
    out = (v * w) @ v.conj().T
    return 0.5 * (out + out.conj().T), w, v


def _oracle_cases():
    # Noisy pairs at 10-40 dB, noiseless coprime pairs, and a noiseless pair
    # with a common zero (capped: it would spend the whole budget).
    rng = np.random.default_rng(101)
    for l1, l2 in [(3, 3), (2, 4), (4, 1)]:
        for snr_db in (10.0, 20.0, 30.0, 40.0):
            yield l1, l2, noisy_pair(rng, l1, l2, snr_db)[1], None
        yield l1, l2, measure(random_signal(rng, l1), random_signal(rng, l2)), None
    common = np.array([1.0, -2.0], dtype=complex)
    x1 = convolve(common, random_signal(rng, 2))
    x2 = convolve(common, random_signal(rng, 2))
    yield 3, 3, measure(x1, x2), SolverOptions(max_iters=1500)


def _assert_same_solve(got, want):
    assert got.x_mat.tobytes() == want.x_mat.tobytes()
    assert got.x_est.tobytes() == want.x_est.tobytes()
    assert (got.iters, got.restarts, got.stop_reason) == (
        want.iters, want.restarts, want.stop_reason
    )
    assert got.residual.hex() == want.residual.hex()
    assert got.rank1_gap.hex() == want.rank1_gap.hex()
    assert got.margin.hex() == want.margin.hex()


def test_solve_matches_the_symmetrizing_projection_bitwise(monkeypatch):
    # Only the first projection input needs symmetrizing: every later one is
    # exactly Hermitian, so the solve is bit for bit the one that
    # symmetrized every input.
    for l1, l2, b, opts in _oracle_cases():
        got = solve(b, opts)
        with monkeypatch.context() as m:
            m.setattr("corrlift.solver.psd_project", _symmetrizing_psd_project)
            want = solve(b, opts)
        _assert_same_solve(got, want)


def test_solve_matches_numpy_eigh_bitwise(monkeypatch):
    # `linalg._eigh` calls NumPy's gufunc without its wrapper; every
    # decomposition of a solve, and so its estimate, is bit for bit the one
    # np.linalg.eigh gives.
    for l1, l2, b, opts in _oracle_cases():
        got = solve(b, opts)
        with monkeypatch.context() as m:
            m.setattr("corrlift.linalg._eigh", np.linalg.eigh)
            m.setattr("corrlift.solver._eigh", np.linalg.eigh)
            want = solve(b, opts)
        _assert_same_solve(got, want)


def test_estimate_is_the_top_herm_eig_column_of_the_last_projection_input(monkeypatch):
    # `solve` reads x_est from the last projection's eigenpairs: bit for bit
    # sqrt(lam1) times the top column of `herm_eig` of that projection's
    # input, the decomposition with a deterministic phase and order.
    inputs = []

    def recording(a):
        inputs.append(a)
        return psd_project(a)

    monkeypatch.setattr("corrlift.solver.psd_project", recording)
    for l1, l2, b, opts in _oracle_cases():
        result = solve(b, opts)
        eig = herm_eig(inputs[-1])
        lam1 = float(eig.eigenvalues[-1])
        assert lam1 > 0.0
        want = math.sqrt(lam1) * eig.eigenvectors[:, -1]
        # the projections run in the frame 4^-q, and x_est is mapped back by 2^q
        scale, _, _ = measurement_frame(b.stacked)
        assert result.x_est.tobytes() == (math.sqrt(1.0 / scale) * want).tobytes()


def _count_decompositions(monkeypatch):
    # Every Hermitian decomposition of a solve or a recovery: `_eigh` as
    # `solver` (the spectral start) and `linalg` (`psd_project`) call it,
    # and `_eigvalsh` wherever it is bound.
    calls = []

    def counting(fn):
        def wrapper(a):
            calls.append(fn.__name__)
            return fn(a)

        return wrapper

    for module in ("corrlift.solver", "corrlift.linalg"):
        for name in ("_eigh", "_eigvalsh"):
            # a module that binds no `_eigvalsh` has none to count
            original = getattr(import_module(module), name, None)
            if original is not None:
                monkeypatch.setattr(f"{module}.{name}", counting(original))
    return calls


def test_noiseless_recover_decomposes_twice(monkeypatch):
    # The spectral start and the one projection: the estimate and the
    # rank-1 gap are read from that projection's eigenpairs.
    calls = _count_decompositions(monkeypatch)
    rng = np.random.default_rng(102)
    for l1, l2 in [(1, 1), (2, 3), (3, 3), (4, 2)]:
        x1, x2 = random_signal(rng, l1), random_signal(rng, l2)
        del calls[:]
        _, _, result = recover(l1, l2, measure(x1, x2))
        assert (result.iters, result.restarts) == (1, 0)
        assert len(calls) == 2


def test_noisy_solve_decomposes_once_per_projection(monkeypatch):
    # The start, then one `_eigh` per iteration and one per restart; one
    # `_eigvalsh` per gap check: every GAP_EVERY iterates, and at a stop on
    # the stall rule or the cap unless the stopping iterate was checked.
    calls = _count_decompositions(monkeypatch)
    rng = np.random.default_rng(103)
    cases = [(noisy_pair(rng, 3, 3, snr_db)[1], None) for snr_db in (10.0, 40.0)]
    cases += [(_high_snr_pair(3, 1, 80.0), None), (cases[0][0], SolverOptions(max_iters=25))]
    reasons = []
    for noisy, opts in cases:
        del calls[:]
        result = solve(noisy, opts)
        reasons.append(result.stop_reason)
        assert result.restarts > 0
        checks = result.iters // GAP_EVERY + (
            result.stop_reason != "gap" and result.iters % GAP_EVERY != 0
        )
        assert calls.count("_eigh") == 1 + result.iters + result.restarts
        assert calls.count("_eigvalsh") == checks
    assert reasons == ["gap", "gap", "stalled", "max_iters"]


def test_projection_inputs_after_the_first_are_hermitian(monkeypatch):
    inputs = []

    def recording(a):
        inputs.append(a.copy())
        return psd_project(a)

    monkeypatch.setattr("corrlift.solver.psd_project", recording)
    for l1, l2, b, opts in _oracle_cases():
        start = len(inputs)
        result = solve(b, opts)
        assert len(inputs) - start == result.iters + result.restarts
        # the first input is symmetrized in `solve`, so it is Hermitian too
        assert all(np.array_equal(a, a.conj().T) for a in inputs[start:])


def _boundary_stacks():
    # seeded full and reduced measurement stacks at a few shapes
    rng = np.random.default_rng(113)
    for reduced in (False, True):
        for l1, l2 in [(1, 1), (3, 4), (6, 2)]:
            yield measure(random_signal(rng, l1), random_signal(rng, l2), reduced=reduced).stacked


def test_measurement_norm_is_numpy_norm_bitwise_across_scales():
    # Inside the window the frame is the identity: b_vec itself, no copy,
    # and np.linalg.norm's norm.  Outside it the frame's norm, mapped back by
    # 4^q, is np.linalg.norm's wherever that is finite, and the frame still
    # holds the data past that.  No scale warns.
    lo, hi = _FRAME_WINDOW
    sides = set()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for stacked in _boundary_stacks():
            for k in range(-500, 501):
                scaled = stacked * 2.0**k
                with np.errstate(over="ignore"):
                    want = float(np.linalg.norm(scaled))
                scale, framed, norm = measurement_frame(scaled)
                if lo <= want <= hi:
                    sides.add("inside")
                    assert scale == 1.0 and framed is scaled
                    assert norm.hex() == want.hex()
                    continue
                sides.add("below" if want < lo else "above")
                assert framed.tobytes() == (scale * scaled).tobytes()
                assert 0.5 <= np.abs(framed.view(np.float64)).max() < 2.0
                if math.isfinite(want):
                    assert (norm * (1.0 / scale)).hex() == want.hex()
        # q is clamped to [-511, 511], so 4^q stays finite at either end
        for peak, q in [(1.5e308, 511), (5e-324, -511), (0.0, 0)]:
            scale, _, norm = measurement_frame(np.array([peak, 1j * peak]))
            assert scale == 4.0**-q
            assert math.isclose(norm, math.sqrt(2.0) * (peak * scale), rel_tol=1e-15)
    assert caught == []
    assert sides == {"below", "inside", "above"}


def _scaled(b: Measurements, k: int) -> Measurements:
    # b times 4^k, segment by segment; exact where no entry leaves the normal range
    f = 4.0**k
    return Measurements(f * b.a11, f * b.a22, f * b.a12, f * b.a21, reduced=b.reduced)


def test_solve_keeps_its_bits_across_the_frame_window_edges():
    # ||4^k b|| just inside and just outside each edge of the window, and far
    # past the top, where ||4^k b||^2 overflows: the identity frame and the
    # peak frame give every field the same bits, X scaled by 4^k and x by
    # 2^k, and deciding the frame warns nowhere.
    rng = np.random.default_rng(131)
    shapes = ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4))  # criterion 01's
    cases = [measure(random_signal(rng, l1), random_signal(rng, l2)) for l1, l2 in shapes]
    cases += [noisy_pair(rng, 3, 3, snr_db)[1] for snr_db in (10.0, 20.0, 30.0, 40.0)]
    # A 20 dB pair whose last objective libm's pow(dist, 2), which misrounds
    # about one square in 1100, rounds differently in the two frames: its
    # gap moved a bit while `solve` squared by pow.  The product dist * dist
    # is correctly rounded, so it scales exactly.
    cases.append(noisy_pair(np.random.default_rng(1350), 3, 3, 20.0)[1])
    lo, hi = _FRAME_WINDOW
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for b in cases:
            base = solve(b)
            norm = float(np.linalg.norm(b.stacked))
            assert lo <= norm <= hi
            top = bottom = 0  # the largest and smallest k with 4^k ||b|| inside
            while 4.0 ** (top + 1) * norm <= hi:
                top += 1
            while 4.0 ** (bottom - 1) * norm >= lo:
                bottom -= 1
            edges = [(top, True), (top + 1, False), (bottom, True), (bottom - 1, False)]
            for k, inside in edges + [(top + 260, False)]:
                b_k = _scaled(b, k)
                assert np.array_equal(4.0**-k * b_k.stacked, b.stacked)
                assert (measurement_frame(b_k.stacked)[0] == 1.0) == inside
                got = solve(b_k)
                for name in ("iters", "stop_reason", "restarts"):
                    assert getattr(got, name) == getattr(base, name)
                for name in ("residual", "rank1_gap", "margin", "gap"):
                    assert getattr(got, name).hex() == getattr(base, name).hex()
                assert got.x_mat.tobytes() == (4.0**k * base.x_mat).tobytes()
                assert got.x_est.tobytes() == (2.0**k * base.x_est).tobytes()
    assert caught == []


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(1.0, -math.inf)]
)
def test_measurement_norm_rejects_non_finite_entries_before_the_energy(bad):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for stacked in _boundary_stacks():
            b_vec = stacked.copy()
            b_vec[-1] = bad
            with pytest.raises(ValueError, match="^measurements must be finite$"):
                measurement_frame(b_vec)
            # an entry whose energy alone overflows does not change the message
            b_vec[0] = 1e200
            with pytest.raises(ValueError, match="^measurements must be finite$"):
                measurement_frame(b_vec)
            # finite entries are framed, however large their energy
            b_vec[-1] = 1.0
            scale, _, norm = measurement_frame(b_vec)
            assert scale == 2.0**-664  # 1e200 = m 2^665
            assert math.isfinite(norm)
    assert caught == []


def test_first_iterate_is_the_plain_projected_gradient_step():
    # At k = 1 beta is 0, so the first step is taken from the spectral start
    # X0 itself: psd_project(hermitian_part(X0 - step * adjoint(conj r0))).
    rng = np.random.default_rng(127)
    cases = [measure(random_signal(rng, 3), random_signal(rng, 4))]
    cases.append(measure(random_signal(rng, 2), random_signal(rng, 5), reduced=True))
    cases += [noisy_pair(rng, 3, 3, snr_db)[1] for snr_db in (10.0, 20.0, 30.0, 40.0)]
    for b in cases:
        s = build_sensing(b.l1, b.l2)
        scale, b_vec, _ = measurement_frame(b.stacked)
        x0, _ = _spectral_start(s, b, scale, b_vec)
        r0 = forward_stacked(s, x0)[: b_vec.size] - b_vec
        lam = np.zeros(4 * s.n - 4, dtype=complex)
        lam[: r0.size] = np.conj(r0)
        step = STEP_SAFETY / (2.0 * max(b.l1, b.l2))
        want, _, _ = psd_project(hermitian_part(x0 - step * adjoint(s, lam)))
        got = solve(b, SolverOptions(max_iters=1))
        # the step is taken in the frame and mapped back by 4^q
        assert got.x_mat.tobytes() == ((1.0 / scale) * want).tobytes()


def test_margin_separates_coprime_from_common_factor():
    rng = np.random.default_rng(97)
    a1, a2 = random_signal(rng, 2), random_signal(rng, 2)
    _, _, coprime = recover(2, 2, measure(a1, a2))
    common = np.array([1.0, -2.0], dtype=complex)
    _, _, shared = recover(3, 3, measure(convolve(common, a1), convolve(common, a2)))
    assert coprime.margin > 1e-4
    assert abs(shared.margin) <= 1e-12
    zeros3 = np.zeros(3)
    b0 = Measurements(a11=zeros3, a22=zeros3, a12=zeros3, a21=zeros3)
    assert solve(b0).margin == 0.0


def test_noiseless_recovery_holds_at_any_scale_ratio():
    # x1 scaled by 2^u against a unit-scale x2: the unbalanced certificate
    # loses the pair's null vector to rounding from about |log2(e1/e2)| = 36
    # on, and the solve then reported a wrong pair as converged.
    rng = np.random.default_rng(13)
    for _ in range(200):
        l1, l2 = (int(v) for v in rng.integers(1, 6, 2))
        u = int(rng.integers(-120, 121))
        x1 = np.ldexp(1.0, u) * gen_signal(l1, rng)
        x2 = gen_signal(l2, rng)
        e1, e2, diag = recover(l1, l2, measure(x1, x2))
        mse, _ = aligned_mse(np.concatenate([x1, x2]), np.concatenate([e1, e2]))
        assert mse <= 1e-10, (l1, l2, u)
        assert diag.stop_reason == "converged", (l1, l2, u)


@pytest.mark.parametrize("x1", [[1e10, 1.0], [1e8, 1.0], [5e76, 1.0]])
def test_skewed_pairs_recover_exactly(x1):
    x1 = np.array(x1, dtype=complex)
    x2 = np.ones(2, dtype=complex)
    e1, e2, diag = recover(2, 2, measure(x1, x2))
    mse, _ = aligned_mse(np.concatenate([x1, x2]), np.concatenate([e1, e2]))
    assert mse <= 1e-15
    assert diag.stop_reason == "converged"
    assert not diag.non_unique
    assert diag.margin > 1e-2


def test_solve_takes_measurements_spanning_the_whole_range():
    # A (5, 1) draw of a fuzz whose every real and imaginary part is
    # +-[1, 10) 10^e, e in [-300, 150], rounded to two digits.  Solved in its
    # own scale, W and the iterates held entries near 1e147 whose squares
    # overflow inside LAPACK, and `eigh` raised "Eigenvalues did not
    # converge"; in the frame every entry is at most 2.
    b = Measurements(
        a11=[-4.3e27 + 6.5e146j, 3.8e139 - 1.0e65j, 6.5e-258 - 4.3e-206j, 2.6e-152 + 6.2e92j,
             -7.8e-188 - 1.5e-140j, -3.8e-46 + 1.8e-297j, 9.0e31 - 6.3e11j, 1.4e123 - 5.6e-94j,
             4.5e-79 - 3.5e-53j],
        a22=[4.1e-264 - 8.6e17j],
        a12=[7.8e-229 - 6.1e110j, -2.1e10 + 9.6e20j, 1.6e-103 - 5.2e-193j, 7.2e18 + 3.7e-216j,
             -7.0e-265 - 4.8e-150j],
        a21=[9.8e-281 + 9.7e47j, 4.5e-73 - 1.7e-253j, -4.6e-279 - 2.4e-39j, 9.0e15 + 8.5e-298j,
             -9.7e-33 + 8.2e92j],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve(b, SolverOptions(max_iters=200))
    assert np.all(np.isfinite(result.x_mat)) and np.all(np.isfinite(result.x_est))
    assert 0.0 <= result.residual <= 1.0


def test_balanced_margin_is_invariant_under_scaling_x1():
    # Past BALANCE_RATIO the margin is read from E W E, which is the same
    # matrix for x1 and 2^u x1: the margin keeps its bits.
    rng = np.random.default_rng(14)
    for l1, l2 in [(1, 1), (2, 3), (4, 4), (5, 2)]:
        x1 = gen_signal(l1, rng)
        x2 = gen_signal(l2, rng)
        margins = {solve(measure(np.ldexp(1.0, u) * x1, x2)).margin for u in (-90, -40, 40, 90)}
        assert len(margins) == 1
        assert margins.pop() > 1e-6


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


def test_readme_round_trip_runs(capsys):
    # README's fenced Python example documents the diagnostics `recover`
    # returns; it must keep running and print what it says it prints
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(example, "README.md", "exec"), {})
    mse, iters, stop_reason, non_unique, margin = capsys.readouterr().out.split()
    assert float(mse) <= 1e-20
    assert int(iters) >= 1
    assert stop_reason == "converged"
    assert non_unique == "False"
    assert 0.0 < float(margin) <= 1.0
