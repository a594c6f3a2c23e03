"""Each benchmark gate passes the program's output and fails a wrong one."""

from __future__ import annotations

import math

import numpy as np
import pytest

import gates
import workloads


def test_exact_gate():
    rng = np.random.default_rng(3)
    x1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phase = np.exp(0.7j)
    assert gates.check_exact(x1, x2, phase * x1, phase * x2) < 1e-12
    with pytest.raises(gates.GateError):
        gates.check_exact(x1, x2, phase * x1, -phase * x2)
    with pytest.raises(gates.GateError):
        gates.check_exact(x1, x2, x1 * (1 + 1e-2), x2)


def test_noisy_gates():
    inp = workloads.noisy_inputs(5)[0]
    _, x1, x2, noisy = inp
    misfit = float(np.linalg.norm(noisy.stacked - gates.stacked_correlations(x1, x2)))
    assert misfit > 0
    assert gates.check_noisy_fit(x1, x2, noisy.stacked, 0.6 * misfit) == pytest.approx(0.6)
    with pytest.raises(gates.GateError):
        gates.check_noisy_fit(x1, x2, noisy.stacked, 1.001 * misfit)
    assert gates.check_noise_trend({10.0: [0.1, 0.05], 40.0: [1e-4, 0.2, 1e-5]}) < 0
    with pytest.raises(gates.GateError):
        gates.check_noise_trend({10.0: [1e-3, 2e-3], 20.0: [1e-3], 40.0: [5e-3, 4e-3]})
    with pytest.raises(gates.GateError):
        gates.check_noise_trend({10.0: [1e-3, 1e-2], 40.0: [2e-2, 1e-3]})


def test_split_count():
    assert all(
        gates.split_count(l1, l2, 0) == math.comb(l1 + l2 - 2, l1 - 1)
        for l1, l2 in workloads.CERTIFY_SHAPES
    )
    # (3,3) sharing one zero: zeros {a, b, c, c}, left factor takes two.
    assert gates.split_count(3, 3, 1) == 4
    assert gates.split_count(3, 3, 2) == 3


def test_is_generic():
    assert gates.is_generic(np.array([1.0, -0.5, 0.2j]))
    assert not gates.is_generic(np.array([1.0, -np.exp(0.3j)]))
    # zeros 2 and 1/2 mirror each other across the unit circle
    assert not gates.is_generic(np.convolve([1.0, -2.0], [1.0, -0.5]))


@pytest.mark.parametrize("index", [0, 1, 2])
def test_certify_gate(index):
    inp = workloads.certify_inputs(11)[index]
    common, x1, x2 = inp
    gcd_deg, report, _, classes, autos = workloads.certify_run(inp)
    pairs = [(c.x1_rep, c.x2_rep) for c in classes]

    def check(**changes):
        args = dict(gcd_deg=gcd_deg, cert_rank=report.rank, classes=pairs, autos=autos)
        args.update(changes)
        gates.check_certify(x1, x2, common, **args)

    check()
    bent = [(pairs[0][0] * (1 + 1e-5), pairs[0][1])] + pairs[1:]
    wrong_outputs = [
        dict(gcd_deg=gcd_deg + 1),
        dict(classes=pairs[:-1]),
        dict(classes=bent),
        dict(autos=autos[:-1]),
        dict(autos=[autos[0] * 1.001] + autos[1:]),
    ]
    if common == 0:
        wrong_outputs.append(dict(cert_rank=report.rank - 1))
    for wrong in wrong_outputs:
        with pytest.raises(gates.GateError):
            check(**wrong)
