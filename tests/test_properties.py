"""Property tests for the measurement map, the solver's closed forms and the
autocorrelation ambiguity family.

Each property is checked over signals and shapes drawn by `hypothesis`; the
draws are derandomized so the suite stays deterministic.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from corrlift.ambiguity import enumerate_autocorr_ambiguities
from corrlift.linalg import _eigh, _eigvals, _eigvalsh, herm_eig, hermitian_part
from corrlift.poly import conj_time_reverse, correlate, from_roots
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
from corrlift.solver import (
    GAP_RTOL,
    SolverOptions,
    _spectral_start,
    aligned_mse,
    solve,
)
from corrlift.sylvester import certificate_multipliers
from test_solver import duality_gap_terms

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)

lengths = st.integers(min_value=1, max_value=8)
entries = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


def signals(max_len: int):
    return st.lists(entries, min_size=1, max_size=max_len).map(
        lambda v: np.array(v, dtype=complex)
    )


def hermitian_matrices(n: int):
    return arrays(complex, (n, n), elements=entries).map(hermitian_part)


def rank1_oracle(x_mat: np.ndarray) -> np.ndarray:
    """sqrt(lam1) * v1 from `herm_eig` of a matrix with a positive top eigenvalue."""
    eig = herm_eig(x_mat)
    return math.sqrt(float(eig.eigenvalues[-1])) * eig.eigenvectors[:, -1]


@st.composite
def eig_inputs(draw):
    """A Hermitian matrix of size 1-16, complex128 or real float64.

    Besides dense draws it builds exactly degenerate spectra: a multiple of
    the identity, a diagonal over three values, or r copies of one block
    (kron(I_r, H)).
    """
    n = draw(st.integers(min_value=1, max_value=16))
    kind = draw(st.sampled_from(["dense", "dense", "dense", "identity", "diagonal", "blocks"]))
    if kind == "identity":
        a = draw(st.sampled_from([1.0, 0.0, -2.5])) * np.eye(n, dtype=complex)
    elif kind == "diagonal":
        values = draw(st.lists(st.sampled_from([-1.0, 0.0, 2.0]), min_size=n, max_size=n))
        a = np.diag(values).astype(complex)
    elif kind == "blocks":
        copies = draw(st.sampled_from([r for r in range(1, n + 1) if n % r == 0]))
        a = np.kron(np.eye(copies), draw(hermitian_matrices(n // copies)))
    else:
        a = draw(hermitian_matrices(n))
    # the real part of a Hermitian matrix is real symmetric
    return a.real.copy() if draw(st.booleans()) else a


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
@given(l1=lengths, l2=lengths, data=st.data())
def test_adjoint_pairing(l1, l2, data):
    # tr(adjoint(lam) X) = 2 Re sum_m lam_m A(X)_m for Hermitian X
    s = build_sensing(l1, l2)
    x = data.draw(hermitian_matrices(s.n))
    lam = data.draw(arrays(complex, 4 * s.n - 4, elements=entries))
    lhs = np.trace(adjoint(s, lam) @ x)
    rhs = 2.0 * np.real(np.sum(lam * forward_stacked(s, x)))
    scale = np.abs(lam).sum() * s.n * np.abs(x).max()
    assert abs(lhs - rhs) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(l1=lengths, l2=lengths, data=st.data())
def test_measurement_symmetry(l1, l2, data):
    # the a21 samples of a Hermitian X are the conjugate time reversal of a12
    s = build_sensing(l1, l2)
    flat = forward_stacked(s, data.draw(hermitian_matrices(s.n)))
    a12, a21 = np.split(flat[2 * l1 - 1 + 2 * l2 - 1 :], 2)
    assert np.array_equal(a21, conj_time_reverse(a12))


@PROPERTY_SETTINGS
@given(x1=signals(8), x2=signals(8))
def test_forward_of_lift_is_measure(x1, x2):
    x = np.concatenate([x1, x2])
    lifted = forward_stacked(build_sensing(x1.size, x2.size), np.outer(x, x.conj()))
    direct = measure(x1, x2).stacked
    assert np.abs(lifted - direct).max() <= 1e-12 * np.linalg.norm(x) ** 2


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
    est = rank1_oracle(x_start)
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


@PROPERTY_SETTINGS
@given(
    x1=signals(5),
    x2=signals(5),
    sigma=st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=0.3)),
)
def test_solve_estimate_matches_a_fresh_decomposition(x1, x2, sigma):
    # `solve` reads x_est and rank1_gap from the last projection's
    # eigenpairs, those of the matrix before its rebuild; a fresh
    # decomposition of the rebuilt x_mat agrees to rounding.  The
    # eigenvector moves by about eps * n * lam1 / (lam1 - lam2), the
    # eigenvalues by about eps * n * lam1.  The cap keeps pairs that (nearly)
    # share a factor, which would spend the whole budget, short.
    b = add_noise(measure(x1, x2), NoiseModel(sigma=sigma, seed=7))
    result = solve(b, SolverOptions(max_iters=300))
    n = result.x_mat.shape[0]
    eps = np.finfo(float).eps
    w = _eigvalsh(result.x_mat)
    lam1, lam2 = float(w[-1]), float(w[-2])
    assert abs(result.rank1_gap - max(lam2, 0.0) / lam1) <= 10.0 * eps * n
    fresh = rank1_oracle(result.x_mat)
    _, phi = aligned_mse(fresh, result.x_est)
    err = float(np.linalg.norm(np.exp(1j * phi) * result.x_est - fresh))
    assert err <= 10.0 * eps * n * math.sqrt(lam1) * lam1 / (lam1 - lam2)


def psd_matrices(n: int):
    """G G^H for a complex n x r draw G, r = 1..n."""
    return st.integers(min_value=1, max_value=n).flatmap(
        lambda r: arrays(complex, (n, r), elements=entries).map(lambda g: g @ g.conj().T)
    )


@PROPERTY_SETTINGS
@given(
    l1=st.integers(min_value=1, max_value=5),
    l2=st.integers(min_value=1, max_value=5),
    reduced=st.booleans(),
    data=st.data(),
)
def test_dual_point_bounds_every_fit_from_below(l1, l2, reduced, data):
    # The dual point mu(X) = r + t e that `solve`'s gap check builds is dual
    # feasible for any PSD X, so g(mu(X)) is a lower bound on ||A(Y) - b||^2
    # for every PSD Y, and so on the optimum, which a long solve bounds
    # from above.  The gap's cancellation-free form is f(X) - g(mu(X)).
    n = l1 + l2
    sizes = (2 * l1 - 1, 2 * l2 - 1, n - 1, n - 1)
    b = Measurements(*(data.draw(arrays(complex, m, elements=entries)) for m in sizes), reduced=reduced)
    b_vec = b.stacked
    s = build_sensing(l1, l2)
    f, g, gap = duality_gap_terms(b, data.draw(psd_matrices(n)))
    scale = f + np.vdot(b_vec, b_vec).real
    y = data.draw(psd_matrices(n))
    assert g <= np.linalg.norm(forward_stacked(s, y)[: b_vec.size] - b_vec) ** 2 + 1e-12 * scale
    result = solve(b, SolverOptions(max_iters=20000))
    assert result.stop_reason in ("converged", "gap", "stalled")
    if result.stop_reason == "gap":
        assert result.gap <= GAP_RTOL
    assert g <= (result.residual * np.linalg.norm(b_vec)) ** 2 + 1e-12 * scale
    assert gap == pytest.approx(f - g, rel=1e-9)


@st.composite
def reflection_groups(draw):
    """The zeros of 1-4 groups, and each group's count t of zeros.

    A group is an off-circle zero z alone, doubled, or with its reflection
    1/conj(z).  No zero or reflection of one group lies within 0.1 of one
    of another, so no two groups cluster together.
    """
    zeros, sizes, points = [], [], []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        radius = draw(st.floats(min_value=0.3, max_value=0.85))
        if draw(st.booleans()):
            radius = 1.0 / radius
        z = complex(radius * np.exp(1j * draw(st.floats(min_value=0.0, max_value=2 * math.pi))))
        mirror = 1.0 / z.conjugate()
        assume(all(abs(p - q) >= 0.1 for p in (z, mirror) for q in points))
        group = draw(st.sampled_from([[z], [z, z], [z, mirror]]))
        points += [z, mirror]
        zeros += group
        sizes.append(len(group))
    return zeros, sizes


@PROPERTY_SETTINGS
@given(groups=reflection_groups())
def test_autocorr_family_holds_one_distinct_member_per_group_count(groups):
    # k = 0..t of each group's zeros at the reflection: prod(t + 1) members
    zeros, sizes = groups
    x = from_roots(1.0, [zeros])[:, 0]
    acf = correlate(x, x)
    family = enumerate_autocorr_ambiguities(x)
    assert len(family) == math.prod(t + 1 for t in sizes)
    for y in family:
        assert np.linalg.norm(correlate(y, y) - acf) <= 1e-7 * np.linalg.norm(acf)
    peaks = np.abs(family).max(axis=1)
    gaps = np.abs(family[:, None] - family[None]).max(axis=2)
    close = gaps <= 1e-7 * np.maximum(peaks[:, None], peaks[None])
    assert np.array_equal(close, np.eye(len(family), dtype=bool))


@st.composite
def small_close_zeros(draw):
    """2-3 zeros of magnitude (0.3-0.9) 2^-k, k = 6..10, each 1e-4 to 1e-3
    of its size from the one before, in a random direction.

    Every pair is drawn at least 1e-4 apart relative to its size: far
    above the clustering threshold, which is relative to the largest zero.
    """
    m = draw(st.integers(min_value=2, max_value=3))
    k = draw(st.integers(min_value=6, max_value=10))
    r = draw(st.floats(min_value=0.3, max_value=0.9))
    angle = st.floats(min_value=0.0, max_value=2.0 * math.pi)
    zeros = [cmath.rect(r * 2.0**-k, draw(angle))]
    for _ in range(m - 1):
        step = draw(st.floats(min_value=1e-4, max_value=1e-3))
        zeros.append(zeros[-1] + cmath.rect(abs(zeros[-1]) * step, draw(angle)))
    assume(all(abs(a - b) >= 1e-4 * abs(a) for i, a in enumerate(zeros) for b in zeros[:i]))
    return zeros


@PROPERTY_SETTINGS
@given(zeros=small_close_zeros())
def test_autocorr_family_clusters_small_zeros_relative_to_their_size(zeros):
    # zeros well inside the disk, closer to each other than 1e-6 but much
    # farther apart than 1e-6 of their size, are distinct: 2^m members
    x = from_roots(1.0, [zeros])[:, 0]
    acf = correlate(x, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        family = enumerate_autocorr_ambiguities(x)
    assert len(family) == 2 ** len(zeros)
    for y in family:
        assert np.linalg.norm(correlate(y, y) - acf) <= 1e-7 * np.linalg.norm(acf)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(a=eig_inputs())
def test_eigen_helpers_are_bytewise_numpy(a):
    w, v = _eigh(a)
    want_w, want_v = np.linalg.eigh(a)
    pairs = [(w, want_w), (v, want_v), (_eigvalsh(a), np.linalg.eigvalsh(a))]
    # _eigvals takes complex input, Hermitian or not (a strictly upper
    # triangle made imaginary breaks the symmetry)
    general = a.astype(complex)
    for g in (general, general + 1j * np.triu(a.real, 1)):
        pairs.append((_eigvals(g), np.linalg.eigvals(g)))
    for got, want in pairs:
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
