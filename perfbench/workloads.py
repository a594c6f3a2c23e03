"""The three benchmark workloads: their inputs, their operation and its gate.

Each workload builds a fixed list of inputs from the seed (one round), runs
one operation per input through corrlift's public functions, and checks every
output with `gates`.  Operations look functions up as module attributes at
call time, so the traced run sees the wrappers `tracing` installs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from corrlift import ambiguity, cli, sensing, solver, sylvester

import gates

EXACT_SHAPES = ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4))
EXACT_PAIRS_PER_SHAPE = 24
# The base pairs are drawn from this fixed seed stream; --seed only re-dresses
# them by symmetries of the problem (see `exact_inputs`).
EXACT_BASE_SEED = 0
EXACT_MAX_ITERS = 500000  # criterion 01; rel_tol stays default

NOISY_SHAPE = (3, 3)
NOISY_SNR_DB = (10.0, 20.0, 30.0, 40.0)  # the default `corrlift sweep` grid
NOISY_TRIALS = 4

CERTIFY_SHAPES = (
    (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6),
    (6, 6), (6, 7), (7, 7), (7, 8), (8, 8), (8, 9),
)
CERTIFY_COMMON = (0, 1, 2)


@dataclass
class Workload:
    """One benchmark workload.

    `build(seed)` returns the inputs of one round; `run(inp)` is the timed
    operation; `check(inp, out)` raises `gates.GateError` on a wrong output
    and returns a value kept for `check_round(inputs, values)`, which judges
    a whole round.
    """

    name: str
    build: Callable[[int], list]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], Any]
    check_round: Callable[[list, list], Any] = field(default=lambda inputs, values: None)


# --- exact-recovery ---------------------------------------------------------


def exact_inputs(seed: int) -> list:
    """Noiseless pairs of the five criterion-01 shapes, in a fixed cycle.

    Pair i is drawn as `cli.gen_signal` draws it from the stream
    (EXACT_BASE_SEED, i); no draw is dropped.  The seed then applies, per
    pair, random global phases to x1 and x2 and one random modulation
    x[k] -> x[k] e^{i theta k} to both.  Each is a symmetry of the problem
    (the lift turns into D X D* for a diagonal unitary D, and every band sum
    of the measurements into a unit-modulus multiple of itself), and each
    maps the CN(0, I) draw to itself, so the inputs are new numbers drawn
    from the same law while the zero geometry, and with it the solver's
    heavy-tailed iteration count, is the same in every run.
    """
    inputs = []
    for i in range(EXACT_PAIRS_PER_SHAPE * len(EXACT_SHAPES)):
        l1, l2 = EXACT_SHAPES[i % len(EXACT_SHAPES)]
        base = np.random.default_rng(np.random.SeedSequence([EXACT_BASE_SEED, i]))
        x1 = cli.gen_signal(l1, base)
        x2 = cli.gen_signal(l2, base)
        alpha, beta, theta = np.random.default_rng(
            np.random.SeedSequence([seed, i])
        ).uniform(0.0, 2.0 * math.pi, 3)
        x1 = x1 * np.exp(1j * (alpha + theta * np.arange(l1)))
        x2 = x2 * np.exp(1j * (beta + theta * np.arange(l2)))
        inputs.append((l1, l2, x1, x2, sensing.measure(x1, x2)))
    return inputs


def exact_run(inp):
    l1, l2, _, _, b = inp
    return solver.recover(l1, l2, b, solver.SolverOptions(max_iters=EXACT_MAX_ITERS))


def exact_check(inp, out):
    _, _, x1, x2, _ = inp
    est1, est2, _ = out
    return gates.check_exact(x1, x2, est1, est2)


# --- noisy-sweep -------------------------------------------------------------


def noisy_inputs(seed: int) -> list:
    """Trials 0..NOISY_TRIALS-1 of the default sweep, drawn as `run_sweep` does.

    Trial j at SNR point i uses the stream (seed, i, j).
    """
    l1, l2 = NOISY_SHAPE
    inputs = []
    for trial in range(NOISY_TRIALS):
        for snr_index, snr_db in enumerate(NOISY_SNR_DB):
            rng = np.random.default_rng(np.random.SeedSequence([seed, snr_index, trial]))
            x1 = cli.gen_signal(l1, rng)
            x2 = cli.gen_signal(l2, rng)
            clean = sensing.measure(x1, x2)
            stacked = clean.stacked
            sigma = cli._sigma_for(snr_db, float(np.linalg.norm(stacked) ** 2), stacked.size)
            noise = sensing.NoiseModel(sigma=sigma, seed=int(rng.integers(0, 2**63)))
            noisy = sensing.add_noise(clean, noise)
            inputs.append((snr_db, x1, x2, noisy))
    return inputs


def noisy_run(inp):
    _, _, _, noisy = inp
    return solver.recover(NOISY_SHAPE[0], NOISY_SHAPE[1], noisy, solver.SolverOptions())


def noisy_check(inp, out):
    _, x1, x2, noisy = inp
    est1, est2, diag = out
    b = noisy.stacked
    gates.check_noisy_fit(x1, x2, b, diag.residual * float(np.linalg.norm(b)))
    return gates.aligned_mse(np.concatenate([x1, x2]), np.concatenate([est1, est2]))


def noisy_check_round(inputs, mses):
    by_snr: dict = {}
    for (snr_db, *_), mse in zip(inputs, mses):
        by_snr.setdefault(snr_db, []).append(mse)
    return gates.check_noise_trend(by_snr)


# --- certify-ambiguity -------------------------------------------------------


def certify_inputs(seed: int) -> list:
    """Every shape with 0, 1 and 2 planted common zeros.

    A common factor c of length k+1 and cofactors of lengths L1-k and L2-k
    are drawn with `cli.gen_signal` from the stream (seed, shape index, k);
    the pair is (cofactor1 * c, cofactor2 * c).
    """
    inputs = []
    for shape_index, (l1, l2) in enumerate(CERTIFY_SHAPES):
        for common in CERTIFY_COMMON:
            rng = np.random.default_rng(np.random.SeedSequence([seed, shape_index, common]))
            c = cli.gen_signal(common + 1, rng)
            x1 = np.convolve(cli.gen_signal(l1 - common, rng), c)
            x2 = np.convolve(cli.gen_signal(l2 - common, rng), c)
            inputs.append((common, x1, x2))
    return inputs


def certify_run(inp):
    _, x1, x2 = inp
    return (
        sylvester.gcd_degree(x1, x2),
        sylvester.certificate_report(x1, x2),
        sylvester.tangent_injectivity(x1, x2),
        ambiguity.enumerate_convolution_ambiguities(x1, x2),
        ambiguity.enumerate_autocorr_ambiguities(x1),
    )


def certify_check(inp, out):
    common, x1, x2 = inp
    gcd_deg, report, _, classes, autos = out
    gates.check_certify(
        x1, x2, common, gcd_deg, report.rank, [(c.x1_rep, c.x2_rep) for c in classes], autos
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-recovery", exact_inputs, exact_run, exact_check),
        Workload("noisy-sweep", noisy_inputs, noisy_run, noisy_check, noisy_check_round),
        Workload("certify-ambiguity", certify_inputs, certify_run, certify_check),
    )
}
