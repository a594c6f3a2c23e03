"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every criterion re-derives its check from first
principles (explicit norms and tolerances) rather than trusting module
internals, and all randomness is seeded so the suite is deterministic.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from corrlift.ambiguity import enumerate_autocorr_ambiguities, enumerate_convolution_ambiguities
from corrlift.cli import ExperimentConfig, gen_signal, main, run_sweep
from corrlift.linalg import herm_eig, hermitian_part, numeric_rank, psd_project
from corrlift.poly import (
    anti_solution,
    as_signal,
    conj_time_reverse,
    convolve,
    correlate,
    poly_gcd,
    roots,
)
from corrlift.sensing import adjoint, build_sensing, forward_stacked, measure
from corrlift.solver import SolverOptions, aligned_mse, recover
from corrlift.sylvester import (
    build_padded,
    certificate_multipliers,
    certificate_report,
    gcd_degree,
    tangent_injectivity,
)
from test_self_reciprocal import random_self_reciprocal

RECOVERY_SHAPES = ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4))
PAIRS_PER_SHAPE = 100
SWAPPED_SHAPES = ((3, 2), (4, 2), (4, 3), (5, 3))
SWAPPED_PER_SHAPE = 6


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _coprime_pair(l1, l2, rng):
    """Draw a C00 pair and reject the measure-zero non-coprime draws."""
    while True:
        x1 = gen_signal(l1, rng)
        x2 = gen_signal(l2, rng)
        if poly_gcd(x1, x2).size == 1:
            return x1, x2


@pytest.fixture(scope="module")
def recovery_corpus():
    """The shared coprime-pair corpus for criteria 1 and 3."""
    rng = np.random.default_rng(20240809)
    corpus = {
        shape: [_coprime_pair(*shape, rng) for _ in range(PAIRS_PER_SHAPE)]
        for shape in RECOVERY_SHAPES
    }
    return corpus


def test_criterion_01_noiseless_recovery(recovery_corpus):
    started = time.perf_counter()
    worst = 0.0
    failures = 0
    total = 0
    # Well-conditioned pairs stop early on the residual tolerance; the high
    # iteration cap only matters for rare near-common-factor draws, whose
    # flat-valley convergence needs a few hundred thousand steps.
    opts = SolverOptions(max_iters=500000)
    for (l1, l2), pairs in recovery_corpus.items():
        for x1, x2 in pairs:
            b = measure(x1, x2)
            est1, est2, _ = recover(l1, l2, b, opts)
            mse, _ = aligned_mse(
                np.concatenate([x1, x2]), np.concatenate([est1, est2])
            )
            worst = max(worst, mse)
            total += 1
            if mse > 1e-5:
                failures += 1
    elapsed = time.perf_counter() - started
    _report(
        1,
        failures == 0 and elapsed < 300.0,
        f"noiseless recovery on {total} coprime pairs across "
        f"{len(RECOVERY_SHAPES)} shapes: {total - failures}/{total} with "
        f"aligned MSE <= 1e-5 (worst {worst:.3e}), {elapsed:.1f}s",
    )


def test_criterion_02_measurement_count():
    rng = np.random.default_rng(7)
    bad = []
    for l1 in range(1, 9):
        for l2 in range(1, 9):
            x1 = gen_signal(l1, rng)
            x2 = gen_signal(l2, rng)
            n = l1 + l2
            full = measure(x1, x2).stacked.size
            reduced = measure(x1, x2, reduced=True).stacked.size
            if full != 4 * n - 4 or reduced != 3 * n - 3:
                bad.append((l1, l2, full, reduced))
    _report(
        2,
        not bad,
        "measurement counts equal 4N-4 (full) and 3N-3 (reduced) for all "
        f"64 shapes with L1, L2 <= 8{'' if not bad else f'; mismatches {bad}'}",
    )


def test_criterion_03_certificates(recovery_corpus):
    rng = np.random.default_rng(31)
    pairs = [p for pair_list in recovery_corpus.values() for p in pair_list]
    swapped = [
        _coprime_pair(*shape, rng)
        for shape in SWAPPED_SHAPES
        for _ in range(SWAPPED_PER_SHAPE)
    ]
    pairs = pairs + swapped
    n_swapped = sum(1 for x1, x2 in pairs if x1.size > x2.size)
    checked = 0
    for x1, x2 in pairs:
        n = x1.size + x2.size
        s = build_padded(x1, x2)
        w = s.conj().T @ s
        w_fro = float(np.linalg.norm(w))
        x = np.concatenate([x1, x2])
        assert float(np.linalg.norm(w @ x)) <= 1e-10 * w_fro * float(
            np.linalg.norm(x)
        )
        assert float(np.linalg.eigvalsh(w)[0]) >= -1e-10 * w_fro
        assert numeric_rank(w) == n - 1
        lam = certificate_multipliers(measure(x1, x2))
        reproduced = adjoint(build_sensing(x1.size, x2.size), lam)
        assert float(np.linalg.norm(reproduced - w)) <= 1e-10 * w_fro
        checked += 1
    _report(
        3,
        checked == len(pairs) and n_swapped >= 20,
        f"certificate conditions (null vector, PSD, rank N-1, multiplier "
        f"reproduction) hold on {checked} pairs, {n_swapped} with L1 > L2",
    )


def test_criterion_04_tangent_classification():
    rng = np.random.default_rng(404)
    shapes = [(2, 3), (3, 3), (3, 4), (4, 4), (2, 4)]
    wrong = 0
    for index in range(50):
        l1, l2 = shapes[index % len(shapes)]
        x1, x2 = _coprime_pair(l1, l2, rng)
        rank, injective = tangent_injectivity(x1, x2)
        if not (injective and rank == 2 * (l1 + l2) - 1):
            wrong += 1
    for index in range(50):
        l1, l2 = shapes[index % len(shapes)]
        common = random_self_reciprocal(1, rng)
        x1 = convolve(common, gen_signal(l1 - 1, rng))
        x2 = convolve(common, gen_signal(l2 - 1, rng))
        rank, injective = tangent_injectivity(x1, x2)
        if injective or rank >= 2 * (x1.size + x2.size) - 1:
            wrong += 1
    _report(
        4,
        wrong == 0,
        "tangent-space rank classifies 50 coprime (rank 2N-1) and 50 "
        f"self-reciprocal-common-factor pairs (rank < 2N-1) with "
        f"{wrong} misclassifications",
    )


def test_criterion_05_gcd_degree():
    rng = np.random.default_rng(505)
    mismatches = 0
    for index in range(100):
        degree = index % 4
        if degree == 0:
            x1, x2 = _coprime_pair(3, 4, rng)
        else:
            g = gen_signal(degree + 1, rng)
            r1, r2 = _coprime_pair(3, 4, rng)
            x1 = convolve(g, r1)
            x2 = convolve(g, r2)
        sylvester_deg = gcd_degree(x1, x2) - 1
        euclid_deg = poly_gcd(x1, x2).size - 1
        if sylvester_deg != degree or euclid_deg != degree:
            mismatches += 1
    _report(
        5,
        mismatches == 0,
        "Sylvester rank deficiency matches the Euclidean GCD degree on 100 "
        f"pairs with planted degrees 0-3 ({mismatches} mismatches)",
    )


def _zero_key(zs, digits=6):
    return tuple(
        sorted((round(z.real, digits), round(z.imag, digits)) for z in zs)
    )


def _brute_force_classes(x1, x2):
    """All distinct left-factor zero multisets of size L1-1, by exhaustion."""
    product = convolve(x1, x2)
    expanded = list(roots(product))
    keys = set()
    for combo in itertools.combinations(range(len(expanded)), x1.size - 1):
        keys.add(_zero_key([expanded[i] for i in combo]))
    return keys


def test_criterion_06_ambiguity_enumeration():
    rng = np.random.default_rng(606)
    shapes = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]
    checked = 0
    for l1, l2 in shapes:
        for _ in range(3):
            x1, x2 = _coprime_pair(l1, l2, rng)
            d = l1 + l2 - 2
            classes = enumerate_convolution_ambiguities(x1, x2)
            assert len(classes) <= 2**d
            product = convolve(x1, x2)
            scale = float(np.linalg.norm(product))
            enum_keys = set()
            for cls in classes:
                err = float(
                    np.linalg.norm(convolve(cls.x1_rep, cls.x2_rep) - product)
                )
                assert err <= 1e-7 * scale
                enum_keys.add(_zero_key(roots(cls.x1_rep)))
            assert enum_keys == _brute_force_classes(x1, x2)
            assert len(enum_keys) == len(classes)
            checked += 1
    auto_checked = 0
    for n in (2, 3, 4, 5):
        for _ in range(5):
            x = gen_signal(n, rng)
            acf = correlate(x, x)
            outputs = enumerate_autocorr_ambiguities(x)
            assert len(outputs) <= 2 ** (n - 1)
            for y in outputs:
                err = float(np.linalg.norm(correlate(y, y) - acf))
                assert err <= 1e-7 * float(np.linalg.norm(acf))
            auto_checked += 1
    _report(
        6,
        checked == 18 and auto_checked == 20,
        f"convolution ambiguities match brute-force subset enumeration on "
        f"{checked} pairs (D <= 6) and {auto_checked} autocorrelation "
        "instances all reproduce their autocorrelation",
    )


def test_criterion_07_anti_solution():
    rng = np.random.default_rng(707)
    checked = 0
    worst = 0.0
    for index in range(100):
        g_degree = 1 + index % 4
        g = random_self_reciprocal(g_degree, rng)
        r = gen_signal(2 + index % 3, rng)
        x = convolve(g, r)
        if index % 2 == 0 or g_degree < 2:
            s = g
        else:
            s = random_self_reciprocal(g_degree - 2, rng)
        h = anti_solution(x, s)
        assert h.size == x.size
        lhs = convolve(x, conj_time_reverse(h)) + convolve(
            conj_time_reverse(x), h
        )
        scale = float(np.linalg.norm(x)) * float(np.linalg.norm(h))
        rel = float(np.linalg.norm(lhs)) / scale
        worst = max(worst, rel)
        assert rel <= 1e-8
        checked += 1
    _report(
        7,
        checked == 100,
        "anti-symmetry solutions verified on 100 admissible (x, s) pairs "
        f"(worst relative residual {worst:.3e})",
    )


def test_criterion_08_noise_trend():
    started = time.perf_counter()
    cfg = ExperimentConfig(
        l1=3,
        l2=3,
        snr_db_list=(10.0, 20.0, 30.0, 40.0),
        trials=50,
        seed=0,
        solver=SolverOptions(max_iters=2000),
    )
    records = run_sweep(cfg)
    assert not any(r.failed for r in records)
    medians = []
    for snr in cfg.snr_db_list:
        mses = [r.mse for r in records if r.rsnr_db == snr]
        assert len(mses) == cfg.trials
        medians.append(float(np.median(mses)))
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    elapsed = time.perf_counter() - started

    # Informational only: unequal split (2, 4) versus even split (3, 3) at
    # the same total length N = 6 and 30 dB.  Recorded, not asserted.
    split_medians = {}
    for l1, l2 in ((2, 4), (3, 3)):
        side = run_sweep(
            ExperimentConfig(
                l1=l1,
                l2=l2,
                snr_db_list=(30.0,),
                trials=20,
                seed=1,
                solver=SolverOptions(max_iters=2000),
            )
        )
        split_medians[(l1, l2)] = float(np.median([r.mse for r in side]))
    print(
        "\n[INFO] median MSE at 30 dB, N=6: "
        f"split (2,4) {split_medians[(2, 4)]:.3e} vs "
        f"split (3,3) {split_medians[(3, 3)]:.3e}"
    )

    _report(
        8,
        decreasing and medians[-1] <= 1e-2 and elapsed < 600.0,
        "median MSE decreases strictly across 10/20/30/40 dB "
        f"({', '.join(f'{m:.2e}' for m in medians)}) with 50 trials per "
        f"point; at 40 dB median {medians[-1]:.2e} <= 1e-2; {elapsed:.1f}s",
    )


def _random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(g)


def test_criterion_09_numerical_foundations():
    rng = np.random.default_rng(909)
    instances = 0
    for _ in range(24):
        n = int(rng.integers(3, 11))
        a = _random_hermitian(rng, n)
        dec = herm_eig(a)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert float(np.linalg.norm(rebuilt - a)) <= 1e-9 * float(
            np.linalg.norm(a)
        )
        projected = psd_project(a)[0]
        twice = psd_project(projected)[0]
        scale = max(float(np.linalg.norm(projected)), 1.0)
        assert float(np.linalg.norm(twice - projected)) <= 1e-10 * scale
        instances += 1
    fd_checks = 0
    for index in range(20):
        l1 = 2 + index % 2
        l2 = 2 + (index // 2) % 3
        x1 = gen_signal(l1, rng)
        x2 = gen_signal(l2, rng)
        reduced = bool(index % 2)
        b_vec = measure(x1, x2, reduced=reduced).stacked
        m_count = b_vec.size
        s = build_sensing(l1, l2)
        n = l1 + l2
        x_mat = _random_hermitian(rng, n)

        def objective(mat):
            return float(
                np.linalg.norm(forward_stacked(s, mat)[:m_count] - b_vec) ** 2
            )

        lam = np.zeros(4 * n - 4, dtype=complex)
        lam[:m_count] = np.conj(forward_stacked(s, x_mat)[:m_count] - b_vec)
        grad = adjoint(s, lam)
        eps = 1e-6
        h = _random_hermitian(rng, n)
        h /= np.linalg.norm(h)
        fd = (objective(x_mat + eps * h) - objective(x_mat - eps * h)) / (
            2.0 * eps
        )
        analytic = float(np.real(np.vdot(grad, h)))
        assert abs(fd - analytic) <= 1e-5 * max(abs(fd), 1.0)
        fd_checks += 1
    _report(
        9,
        instances == 24 and fd_checks == 20,
        f"eigendecomposition reconstructs to 1e-9 and projection is "
        f"idempotent to 1e-10 on {instances} matrices; analytic gradient "
        f"matches central differences to 1e-5 on {fd_checks} instances",
    )


def test_criterion_10_reproducible_csv(tmp_path):
    args = [
        "sweep",
        "--l1",
        "3",
        "--l2",
        "3",
        "--snr-db",
        "20,40",
        "--trials",
        "5",
        "--seed",
        "2024",
        "--max-iters",
        "2000",
    ]
    path_a = tmp_path / "run_a.csv"
    path_b = tmp_path / "run_b.csv"
    assert main(args + ["--out", str(path_a)]) == 0
    assert main(args + ["--out", str(path_b)]) == 0
    bytes_a = path_a.read_bytes()
    identical = bytes_a == path_b.read_bytes()
    rows = bytes_a.decode("utf-8").strip().split("\n")
    _report(
        10,
        identical and len(rows) == 11,
        "two sweep invocations with the same configuration produce "
        f"byte-identical CSV ({len(bytes_a)} bytes, {len(rows) - 1} rows)",
    )
