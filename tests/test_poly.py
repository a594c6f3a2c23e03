"""Contract tests for the polynomial/signal algebra."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from corrlift import poly
from corrlift.poly import (
    anti_solution,
    conj_time_reverse,
    convolve,
    correlate,
    from_roots,
    gsd,
    is_self_reciprocal,
    poly_gcd,
    roots,
)
from test_self_reciprocal import random_self_reciprocal


def random_signal(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    while abs(x[0]) < 0.1 or abs(x[-1]) < 0.1:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x


def test_convolve_examples():
    assert np.allclose(convolve([1, 1], [1, -1]), [1, 0, -1])
    assert np.allclose(convolve([1, 2], [3, 4]), [3, 10, 8])


def test_convolve_commutes_and_associates():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = random_signal(rng, int(rng.integers(1, 6)))
        b = random_signal(rng, int(rng.integers(1, 6)))
        c = random_signal(rng, int(rng.integers(1, 6)))
        ab = convolve(a, b)
        assert np.linalg.norm(ab - convolve(b, a)) <= 1e-12 * np.linalg.norm(ab)
        abc = convolve(ab, c)
        assert np.linalg.norm(abc - convolve(a, convolve(b, c))) <= 1e-12 * np.linalg.norm(abc)


def test_conj_time_reverse_example():
    out = conj_time_reverse([1 + 1j, 2])
    assert np.array_equal(out, np.array([2, 1 - 1j], dtype=complex))


def test_correlate_flip_symmetry():
    rng = np.random.default_rng(2)
    x1 = random_signal(rng, 4)
    x2 = random_signal(rng, 6)
    a12 = correlate(x1, x2)
    a21 = correlate(x2, x1)
    assert a12.shape == (9,)
    assert np.allclose(a12, conj_time_reverse(a21))


def test_autocorrelation_is_involution_product():
    rng = np.random.default_rng(3)
    x = random_signal(rng, 5)
    assert np.allclose(correlate(x, x), convolve(x, conj_time_reverse(x)))


def test_roots_examples():
    assert np.allclose(roots([1, -3, 2]), [1, 2], atol=1e-10)
    assert np.allclose(roots([1, -2]), [2], atol=1e-12)
    assert roots([5]).shape == (0,)
    # an end coefficient just above 1e-12 of the largest keeps its zero
    assert roots([2e-12, 1, 0.5]).shape == (2,)


def test_roots_rejects_zero_signal():
    with pytest.raises(ValueError, match="the zero signal"):
        roots([0, 0, 0])


@pytest.mark.parametrize(
    "x, resolvable",
    [
        ([0, 1, -1], 1),
        ([1e-13, 1, 2], 1),
        ([1, 2, 1e-12], 1),
        ([1e-300, 1, 2, 1e-300], 1),
        ([1e-20, 1e-20, 3, 1], 1),
        ([1, 1e-300], 0),
    ],
)
def test_roots_rejects_a_negligible_end_coefficient(x, resolvable):
    # an end coefficient at most 1e-12 of the largest takes its zero out of
    # reach; the message names the signal and both counts
    want = (
        f"sig has {resolvable} resolvable zeros instead of {len(x) - 1}: "
        "an end coefficient is negligible next to the largest"
    )
    with pytest.raises(ValueError) as err:
        roots(x, "sig")
    assert str(err.value) == want
    with pytest.raises(ValueError, match=f"^x has {resolvable} resolvable zeros"):
        roots(x)


@pytest.mark.parametrize(
    "x",
    [
        [1, float("nan")],
        [float("nan"), 1, 2],
        [1, float("inf"), 2],
        [float("-inf"), 1],
        [1, complex(1, float("nan"))],
    ],
)
def test_roots_rejects_a_non_finite_coefficient(x):
    with pytest.raises(ValueError, match="^sig has a non-finite coefficient$"):
        roots(x, "sig")


def test_roots_matches_numpy_oracle():
    rng = np.random.default_rng(4)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        x = random_signal(rng, n)
        mine = roots(x)
        # numpy wants descending powers of w; zeros are reciprocals of w-roots
        ref = 1.0 / np.roots(x[::-1])
        ref = np.array(sorted(ref, key=lambda z: (z.real, z.imag)))
        assert np.allclose(mine, ref, rtol=1e-7, atol=1e-9)


# --- the npoly.polyval form of the Aberth iteration, kept as the oracle -----


def _polyval_aberth(coeffs, max_iter=200, update_tol=1e-13):
    m = len(coeffs) - 1
    if m == 0:
        return np.zeros(0, dtype=complex)
    c = coeffs / np.abs(coeffs).max()
    dc = npoly.polyder(c)
    companion = np.eye(m, k=-1, dtype=complex)
    companion[:, -1] -= c[:-1] / c[m]
    z = np.linalg.eigvals(companion)
    for _ in range(max_iter):
        p = npoly.polyval(z, c)
        dp = npoly.polyval(z, dc)
        dp = np.where(dp == 0, 1e-300, dp)
        newton = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        denom = 1.0 - newton * inv.sum(axis=1)
        denom = np.where(denom == 0, 1e-300, denom)
        delta = newton / denom
        z = z - delta
        if np.all(np.abs(delta) <= update_tol * np.maximum(1.0, np.abs(z))):
            break
    res = np.abs(npoly.polyval(z, c)) / (np.abs(c).sum() * np.maximum(1.0, np.abs(z)) ** m)
    worst = float(res.max())
    if worst > 1e-10:
        raise RuntimeError(f"root finding did not converge: worst relative residual {worst:.3e}")
    return z


def _oracle_signals():
    # 600 signals of length 2-17: complex, real, with a planted double or
    # triple zero, and with a conjugate pair of unit-circle zeros
    rng = np.random.default_rng(81)
    signals = []
    for i in range(600):
        n = int(rng.integers(2, 18))
        kind = i % 5
        if kind == 0:
            x = random_signal(rng, n)
        elif kind == 1:
            x = rng.standard_normal(n)
        elif kind in (2, 3):
            k = min(kind, n - 1)
            z = complex(rng.standard_normal(), rng.standard_normal())
            x = random_signal(rng, n - k)
            for _ in range(k):
                x = convolve(x, [1.0, -z])
        else:
            t = rng.uniform(0.0, 2.0 * np.pi)
            x = rng.standard_normal(max(n - 2, 1))
            x = convolve(x, [1.0, -2.0 * np.cos(t), 1.0])
        signals.append(x)
    return signals


def _record_aberth(monkeypatch, aberth):
    # patch poly._aberth with `aberth`, keeping the roots of every call
    calls = []
    monkeypatch.setattr(poly, "_aberth", lambda c: calls.append(aberth(c)) or calls[-1])
    return calls


def _python_sorted_bytes(w_roots):
    # the zeros 1/w in Python's sorted order by (re, im), as bytes
    zs = (1.0 / w_roots).tolist()
    return np.array(sorted(zs, key=lambda z: (z.real, z.imag)), dtype=complex).tobytes()


def test_roots_is_byte_identical_to_the_polyval_oracle(monkeypatch):
    signals = _oracle_signals()
    got = [roots(x).tobytes() for x in signals]
    w_roots = _record_aberth(monkeypatch, _polyval_aberth)
    want = [roots(x).tobytes() for x in signals]
    assert got == want
    # and in the order of Python's sorted on the same roots
    assert want == [_python_sorted_bytes(w) for w in w_roots]


def test_roots_order_is_sorted_by_real_then_imaginary_part(monkeypatch):
    # Real polynomials, and products of (1 - e^{it} w)(1 - e^{-it} w): their
    # conjugate zero pairs can tie in the real part, so the imaginary part
    # decides the order.  (The oracle signals are checked above.)
    rng = np.random.default_rng(86)
    signals = [rng.standard_normal(n) for n in rng.integers(2, 14, size=200)]
    for n in rng.integers(1, 7, size=200):
        x = np.ones(1, dtype=complex)
        for t in rng.uniform(0.1, 3.0, size=n):
            x = convolve(x, convolve([1.0, -np.exp(1j * t)], [1.0, -np.exp(-1j * t)]))
        signals.append(x)
    w_roots = _record_aberth(monkeypatch, poly._aberth)
    got = [roots(x) for x in signals]
    assert [z.tobytes() for z in got] == [_python_sorted_bytes(w) for w in w_roots]
    tied = sum(np.unique(z.real).size < z.size for z in got)
    assert tied > len(signals) // 2


def _ill_scaled_signals():
    # 3000 complex signals of length 2-21 whose coefficient magnitudes are
    # spread by 10^u, u uniform in [-s, s] for s = 0, 2, 4, 6 in turn; an
    # end coefficient within roots' trim threshold of the largest is drawn
    # again, so every zero is resolvable
    rng = np.random.default_rng(87)
    signals = []
    for i in range(3000):
        n = int(rng.integers(2, 22))
        s = (0, 2, 4, 6)[i % 4]
        while True:
            x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-s, s, n)
            mags = np.abs(x)
            if min(mags[0], mags[-1]) > poly._TRIM_TOL * mags.max():
                break
        signals.append(x)
    return signals


def test_roots_of_ill_scaled_signals_rebuild_them():
    # The companion eigenvalues alone fail the residual check on two of
    # these signals (1.7e-9 and 1.3e-9) and leave reconstruction errors up
    # to 1.5e-3; after the Aberth polish every error is below 1.6e-12.
    worst = 0.0
    for x in _ill_scaled_signals():
        back = from_roots(x[0], [roots(x)])[:, 0]
        worst = max(worst, float(np.linalg.norm(back - x) / np.linalg.norm(x)))
    assert worst <= 1e-11


def test_aberth_fails_like_the_polyval_oracle():
    # an ill-scaled signal whose companion eigenvalues alone miss the
    # residual bound: with no polish step, the same error, residual digits
    # included
    c = _ill_scaled_signals()[555]
    with pytest.raises(RuntimeError) as oracle:
        _polyval_aberth(c, max_iter=0)
    with pytest.raises(RuntimeError, match="worst relative residual 1.7") as mine:
        poly._aberth(c, max_iter=0)
    assert str(mine.value) == str(oracle.value)
    # one polish step resolves it
    assert poly._aberth(c, max_iter=1).tobytes() == _polyval_aberth(c, max_iter=1).tobytes()


def test_roots_rejects_a_non_finite_residual():
    # x has a w-root near 2.5e11 (its last coefficient is 2e-12, the one
    # before -0.5), and p overflows there in the polish of x * (1 + w)'s
    # roots; the NaN residual used to pass the check and gave NaN zeros.
    x = [1, 0.3, -0.2, 0.5, 0.1, 0.7, -0.4, 0.2, 0.9, -0.3, 0.6, 0.1, -0.8, 0.4, 0.3]
    x = x + [-0.2, 0.5, 0.1, 0.7, -0.4, 0.2, 0.9, -0.3, 0.6, 0.1, -0.8, 0.4, 0.3, -0.5, 2e-12]
    message = "^product: root finding did not converge: a residual is not finite$"
    with pytest.raises(RuntimeError, match=message):
        roots(convolve(x, [1, 1]), "product")


def test_aberth_derivative_is_polyder_byte_for_byte(monkeypatch):
    # _aberth hands p' to _horner as its second coefficient list.  On 2000
    # random complex polynomials of degree 1-15, every other one with signed
    # zeros among its coefficients, that list is npoly.polyder's bytes.  (Its
    # one product differs from polyder's on a -0-0j coefficient, which the
    # scaling c / max|c| never leaves.)
    rng = np.random.default_rng(84)
    specials = [complex(a, b) for a in (0.0, -0.0, 1.5) for b in (0.0, -0.0, -2.0)]
    lists = []
    horner = poly._horner

    def recording(c, z):
        lists.append(c)
        return horner(c, z)

    monkeypatch.setattr(poly, "_horner", recording)
    for i in range(2000):
        coeffs = random_signal(rng, int(rng.integers(2, 17)))
        if i % 2 and coeffs.size > 2:
            picks = rng.integers(1, coeffs.size - 1, size=coeffs.size // 2)
            coeffs[picks] = [specials[k] for k in rng.integers(0, len(specials), picks.size)]
        lists.clear()
        try:
            poly._aberth(coeffs, max_iter=1)
        except RuntimeError:
            pass
        want = npoly.polyder(coeffs / np.abs(coeffs).max())
        assert np.array(lists[1], dtype=complex).tobytes() == want.tobytes()


def _row_major_from_roots(unit, zeros):
    # the row-major loop, kept as the oracle of the column-major build
    zeros = np.asarray(zeros, dtype=complex)
    rows = np.atleast_2d(zeros)
    m = rows.shape[1]
    out = np.zeros((rows.shape[0], m + 1), dtype=complex)
    out[:, 0] = unit
    for j in range(m):
        out[:, 1 : j + 2] -= rows[:, j : j + 1] * out[:, : j + 1]
    return out[0] if zeros.ndim == 1 else out


@pytest.mark.parametrize("k", [1, 7, 6435])
@pytest.mark.parametrize("m", [0, 1, 8])
def test_from_roots_is_byte_identical_to_the_row_major_loop(k, m):
    rng = np.random.default_rng([83, k, m])
    zeros = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    want = _row_major_from_roots(0.3 + 2j, zeros).tobytes()
    # one signal per column, from a row-major and from a column-major gather
    for table in (zeros, np.ascontiguousarray(zeros.T).T):
        cols = from_roots(0.3 + 2j, table)
        assert cols.shape == (m + 1, k) and cols.flags.c_contiguous
        assert cols.T.tobytes(order="C") == want
    for row in zeros[:3]:
        one = from_roots(-1.5j, [row])
        assert one.T.tobytes(order="C") == _row_major_from_roots(-1.5j, row).tobytes()
    empty = np.zeros((4, 0))
    assert from_roots(3, empty).T.tobytes(order="C") == _row_major_from_roots(3, empty).tobytes()


def test_from_roots_identity_and_single_zero():
    assert np.array_equal(from_roots(1, [[]]), np.array([[1.0 + 0j]]))
    assert np.allclose(from_roots(1, [[2]]), [[1], [-2]])


def test_from_roots_rows_match_single_calls():
    rng = np.random.default_rng(6)
    zeros = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    batch = from_roots(2 - 1j, zeros)
    assert batch.shape == (5, 5)
    for col, zs in zip(batch.T, zeros):
        assert np.array_equal(col, from_roots(2 - 1j, [zs])[:, 0])
        assert np.allclose(col, (2 - 1j) * np.poly(zs))
    # no zeros at all: every signal is the unit alone
    assert np.array_equal(from_roots(3, np.zeros((4, 0))), np.full((1, 4), 3 + 0j))


def test_from_roots_rejects_origin_zero():
    with pytest.raises(ValueError, match="origin"):
        from_roots(1, [[2, 0]])


def test_root_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        x = random_signal(rng, n)
        back = from_roots(x[0], [roots(x)])[:, 0]
        assert np.linalg.norm(back - x) <= 1e-8 * np.linalg.norm(x)


def test_root_round_trip_double_zero():
    x = np.array([1.0, -2.0, 1.0], dtype=complex)  # (1 - w)^2
    back = from_roots(x[0], [roots(x)])[:, 0]
    assert np.linalg.norm(back - x) <= 1e-8 * np.linalg.norm(x)


def test_poly_gcd_examples():
    g = poly_gcd([1, -3, 2], [1, -1])
    assert g.shape == (2,)
    # monic in w: a scalar multiple of (1 - z^{-1}) with leading w-coefficient 1
    assert np.allclose(g, [-1, 1])

    g = poly_gcd([1, -3, 2], [1])
    assert g.shape == (1,)

    rng = np.random.default_rng(6)
    x = random_signal(rng, 5)
    g = poly_gcd(x, x)
    assert np.allclose(g, x / x[-1])


def test_poly_gcd_planted_factor():
    rng = np.random.default_rng(7)
    for _ in range(15):
        common = random_signal(rng, int(rng.integers(2, 4)))
        a = convolve(common, random_signal(rng, int(rng.integers(1, 4))))
        b = convolve(common, random_signal(rng, int(rng.integers(1, 4))))
        g = poly_gcd(a, b)
        assert g.size >= common.size
        # the planted factor must divide the computed gcd's reconvolution:
        # check deg only when the cofactors are coprime (generic), then verify
        # the gcd actually divides both inputs.
        for p in (a, b):
            q, r = np.polydiv(p[::-1], g[::-1])
            assert np.linalg.norm(r) <= 1e-6 * np.linalg.norm(p)


def test_is_self_reciprocal():
    assert is_self_reciprocal([1, -2.5, 1])
    assert is_self_reciprocal([1 + 1j, 3, 1 - 1j])
    assert not is_self_reciprocal([1, -2])


def test_gsd_rotates_a_self_inversive_gcd_onto_the_self_reciprocal_one():
    # 1j * s is self-inversive with phase pi, not self-reciprocal: the
    # rotation by e^{i pi/2} and the sign rule give back s's divisor exactly,
    # and the phase goes to the co-factor
    s = np.array([2, -1 + 1j, 0.5, -1 - 1j, 2], dtype=complex)
    g, r = gsd(s)
    g_rot, r_rot = gsd(1j * s)
    assert g_rot.tobytes() == g.tobytes()
    assert np.array_equal(r_rot, 1j * r)
    # a signal with no self-reciprocal factor has the trivial divisor
    g, r = gsd([1, -2])
    assert np.array_equal(g, [1.0]) and np.array_equal(r, [1.0, -2.0])


def test_gsd_whole_signal_self_reciprocal():
    g, r = gsd([1, -2.5, 1])
    assert g.shape == (3,)
    assert r.shape == (1,)
    assert np.linalg.norm(g - conj_time_reverse(g)) <= 1e-12 * np.linalg.norm(g)
    assert g[1].real >= 0
    assert np.linalg.norm(convolve(g, r) - np.array([1, -2.5, 1])) <= 1e-10


def test_gsd_trivial():
    g, r = gsd([1, -2])
    assert g.shape == (1,)
    assert np.allclose(convolve(g, r), [1, -2])


def test_gsd_planted():
    x = convolve([1, -2.5, 1], [1, -3])
    g, r = gsd(x)
    assert g.shape == (3,)
    assert np.linalg.norm(g - conj_time_reverse(g)) <= 1e-10 * np.linalg.norm(g)
    # co-factor proportional to the non-reciprocal part
    assert abs(r[1] / r[0] - (-3)) < 1e-8
    assert np.linalg.norm(convolve(g, r) - x) <= 1e-8 * np.linalg.norm(x)


def test_gsd_complex_planted_with_phase():
    rng = np.random.default_rng(8)
    for _ in range(10):
        s = random_self_reciprocal(2, rng)
        x = convolve(np.exp(1j * rng.uniform(0, 2 * np.pi)) * s, random_signal(rng, 3))
        g, r = gsd(x)
        assert g.size >= 3
        assert is_self_reciprocal(g)
        assert np.linalg.norm(convolve(g, r) - x) <= 1e-8 * np.linalg.norm(x)


def test_anti_solution_identity():
    rng = np.random.default_rng(9)
    for trial in range(20):
        s_factor = random_self_reciprocal(2 * int(rng.integers(1, 3)), rng)
        r_factor = random_signal(rng, int(rng.integers(1, 4)))
        x = convolve(s_factor, r_factor)
        g, _ = gsd(x)
        gap = int(rng.integers(0, (g.size - 1) // 2 + 1)) * 2
        s = random_self_reciprocal(g.size - 1 - gap, rng)
        h = anti_solution(x, s)
        assert h.shape == x.shape
        lhs = convolve(x, conj_time_reverse(h)) + convolve(conj_time_reverse(x), h)
        assert np.linalg.norm(lhs) <= 1e-8 * np.linalg.norm(x) * np.linalg.norm(h)


def test_anti_solution_rejections():
    x = convolve([1, -2.5, 1], [1, -3])
    with pytest.raises(ValueError):
        anti_solution(x, [1, -2])  # not self-reciprocal
    with pytest.raises(ValueError):
        anti_solution(x, [1, 0, 0, 0, 1])  # degree above the divisor's
    with pytest.raises(ValueError):
        anti_solution(x, np.array([1.0, 1.0]))  # odd degree gap
    with pytest.raises(ValueError):
        anti_solution([0, 1, 1], [1.0])  # not C00

