"""Property tests for the solver's closed forms: exact step and spectral start.

Each property is checked over signals and shapes drawn by `hypothesis`; the
draws are derandomized so the suite stays deterministic.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corrlift.sensing import (
    Measurements,
    NoiseModel,
    SensingSet,
    add_noise,
    adjoint,
    build_sensing,
    forward_stacked,
    measure,
)
from corrlift.solver import SolverResult, _spectral_start, aligned_mse, extract_rank1
from corrlift.sylvester import certificate_multipliers

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)

lengths = st.integers(min_value=1, max_value=8)
entries = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


def signals(max_len: int):
    return st.lists(entries, min_size=1, max_size=max_len).map(
        lambda v: np.array(v, dtype=complex)
    )


def hermitian_basis(n: int) -> np.ndarray:
    """Rows: an orthonormal basis of the n x n Hermitian matrices, flattened.

    Orthonormal in the real Frobenius pairing Re tr(A^H B), over which the
    real-linear gradient operator is symmetric.
    """
    basis = []
    r = np.sqrt(0.5)
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = r
            basis.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[i, j], e[j, i] = 1j * r, -1j * r
            basis.append(e)
    return np.array([e.ravel() for e in basis])


def gradient_operator_norm(s: SensingSet, m_count: int) -> float:
    """Top eigenvalue of H -> adjoint(conj(A(H))), built densely."""
    basis = hermitian_basis(s.n)
    lam = np.zeros(4 * s.n - 4, dtype=complex)
    images = []
    for h in basis:
        lam[:m_count] = np.conj(forward_stacked(s, h.reshape(s.n, s.n))[:m_count])
        images.append(adjoint(s, lam).ravel())
    op = np.real(basis.conj() @ np.array(images).T)
    return float(np.linalg.eigvalsh(0.5 * (op + op.T))[-1])


def scale_segments(b: Measurements, factors: np.ndarray) -> Measurements:
    """Multiply the full 4n-4 stacked data entrywise, keeping `reduced`."""
    full = Measurements(b.a11, b.a22, b.a12, b.a21).stacked * factors
    n11, n22, nc = b.a11.size, b.a22.size, b.a12.size
    return Measurements(
        a11=full[:n11],
        a22=full[n11 : n11 + n22],
        a12=full[n11 + n22 : n11 + n22 + nc],
        a21=full[n11 + n22 + nc :],
        reduced=b.reduced,
    )


def simple_bottom(s: SensingSet, b: Measurements) -> bool:
    # the start is unique when W's smallest eigenvalue is well separated
    w = np.linalg.eigvalsh(adjoint(s, certificate_multipliers(b)))
    return w[1] - w[0] > 1e-4 * w[-1]


@PROPERTY_SETTINGS
@given(l1=lengths, l2=lengths, reduced=st.booleans())
def test_closed_form_step_is_exact_lipschitz_constant(l1, l2, reduced):
    s = build_sensing(l1, l2)
    m_count = 3 * s.n - 3 if reduced else 4 * s.n - 4
    top = gradient_operator_norm(s, m_count)
    assert abs(top - 2.0 * max(l1, l2)) <= 1e-9 * top


@PROPERTY_SETTINGS
@given(x1=signals(6), x2=signals(6), reduced=st.booleans())
def test_spectral_start_alone_recovers_noiseless_coprime_pair(x1, x2, reduced):
    l1, l2 = x1.size, x2.size
    b = measure(x1, x2, reduced=reduced)
    x_start, margin = _spectral_start(build_sensing(l1, l2), b)
    # a (near-)shared factor leaves the null space more than one-dimensional
    assume(margin > 1e-4)
    est = extract_rank1(SolverResult(x_mat=x_start, iters=0, residual=0.0, rank1_gap=0.0))
    x = np.concatenate([x1, x2])
    _, phi = aligned_mse(x, est)
    assert np.linalg.norm(np.exp(1j * phi) * est - x) <= 1e-10 * np.linalg.norm(x)


@PROPERTY_SETTINGS
@given(
    x1=signals(5),
    x2=signals(5),
    sigma=st.floats(min_value=0.0, max_value=0.3),
    phase=st.floats(min_value=-np.pi, max_value=np.pi),
    theta=st.floats(min_value=-np.pi, max_value=np.pi),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
def test_spectral_start_equivariance(x1, x2, sigma, phase, theta, scale):
    l1, l2 = x1.size, x2.size
    s = build_sensing(l1, l2)
    noise = NoiseModel(sigma=sigma, seed=5)
    b = add_noise(measure(x1, x2), noise)
    assume(simple_bottom(s, b))
    x_start, margin = _spectral_start(s, b)
    tol = 1e-8 * np.linalg.norm(x_start)

    # global phase: the data do not change, nor does the start
    rotated = add_noise(measure(np.exp(1j * phase) * x1, np.exp(1j * phase) * x2), noise)
    assert np.linalg.norm(_spectral_start(s, rotated)[0] - x_start) <= tol

    # scaling x -> a x scales the data and the start by |a|^2
    scaled = scale_segments(b, np.full(4 * s.n - 4, scale**2))
    scaled_start, scaled_margin = _spectral_start(s, scaled)
    assert np.linalg.norm(scaled_start - scale**2 * x_start) <= scale**2 * tol
    assert abs(scaled_margin - margin) <= 1e-9

    # modulation x[k] -> x[k] e^{i theta k} multiplies each measurement by a
    # unit factor u and the lift by D on both sides
    d = np.exp(1j * theta * np.concatenate([np.arange(l1), np.arange(l2)]))
    lift_d = np.outer(d, d.conj())
    u = forward_stacked(s, lift_d) / forward_stacked(s, np.ones((s.n, s.n)))
    modulated_clean = measure(d[:l1] * x1, d[l1:] * x2).stacked
    err = np.abs(modulated_clean - u * measure(x1, x2).stacked).max()
    assert err <= 1e-12 * np.abs(modulated_clean).max()
    modulated_start, _ = _spectral_start(s, scale_segments(b, u))
    assert np.linalg.norm(modulated_start - lift_d * x_start) <= tol
