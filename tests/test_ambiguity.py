"""Contract tests for ambiguity enumeration."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from corrlift.ambiguity import (
    AmbiguityClass,
    count_bounds,
    enumerate_autocorr_ambiguities,
    enumerate_convolution_ambiguities,
)
from corrlift.poly import convolve, correlate, roots
from corrlift.solver import aligned_mse


def random_signal(rng, n):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    while abs(x[0]) < 0.1 or abs(x[-1]) < 0.1:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x


def test_two_distinct_zeros_give_two_classes():
    x1 = np.array([1.0, -1.0])
    x2 = np.array([1.0, -2.0])
    classes = enumerate_convolution_ambiguities(x1, x2)
    assert len(classes) == 2
    conv = convolve(x1, x2)
    assert np.allclose(conv, [1.0, -3.0, 2.0])
    for cls in classes:
        recon = convolve(cls.x1_rep, cls.x2_rep)
        assert np.linalg.norm(recon - conv) <= 1e-7 * np.linalg.norm(conv)
    # the two classes assign zero 1 and zero 2 to the left factor respectively
    lefts = sorted(complex(roots(c.x1_rep).zeros[0]).real for c in classes)
    assert lefts == pytest.approx([1.0, 2.0])


def test_trivial_left_factor_single_class():
    classes = enumerate_convolution_ambiguities(np.array([1.0]), np.array([1.0, -2.0]))
    assert len(classes) == 1
    assert classes[0].x1_rep.shape == (1,)
    assert np.allclose(convolve(classes[0].x1_rep, classes[0].x2_rep), [1.0, -2.0])


def test_repeated_zero_collapses_to_one_class():
    x1 = np.array([1.0, -1.0])
    x2 = np.array([1.0, -1.0])
    classes = enumerate_convolution_ambiguities(x1, x2)
    assert len(classes) == 1
    recon = convolve(classes[0].x1_rep, classes[0].x2_rep)
    assert np.linalg.norm(recon - np.array([1.0, -2.0, 1.0])) <= 1e-6


def test_unit_goes_to_left_factor():
    x1 = np.array([3.0 + 1.0j, -2.0])
    x2 = np.array([0.5j, 1.0])
    classes = enumerate_convolution_ambiguities(x1, x2)
    for cls in classes:
        # right factor is monic in the leading coefficient
        assert cls.x2_rep[0] == pytest.approx(1.0)


def test_enumeration_guard():
    rng = np.random.default_rng(100)
    x1 = random_signal(rng, 10)
    x2 = random_signal(rng, 10)
    with pytest.raises(ValueError):
        enumerate_convolution_ambiguities(x1, x2)


def test_enumeration_matches_brute_force_subsets():
    rng = np.random.default_rng(101)
    for l1, l2 in [(2, 2), (2, 3), (3, 3), (2, 4)]:
        x1 = random_signal(rng, l1)
        x2 = random_signal(rng, l2)
        classes = enumerate_convolution_ambiguities(x1, x2)

        zs = list(roots(x1).zeros) + list(roots(x2).zeros)
        d = len(zs)
        want = set()
        for subset in itertools.chain.from_iterable(
            itertools.combinations(range(d), k) for k in range(d + 1)
        ):
            if not (max(d - l2 + 1, 0) <= len(subset) <= l1 - 1):
                continue
            key = tuple(
                sorted(
                    (round(zs[i].real, 6), round(zs[i].imag, 6)) for i in subset
                )
            )
            want.add(key)
        assert len(classes) == len(want)


def test_class_count_within_bounds():
    rng = np.random.default_rng(102)
    for l1, l2 in [(2, 2), (3, 3), (2, 4)]:
        x1 = random_signal(rng, l1)
        x2 = random_signal(rng, l2)
        classes = enumerate_convolution_ambiguities(x1, x2)
        _, upper = count_bounds(x1, x2)
        assert 1 <= len(classes) <= upper


def test_count_bounds_examples():
    assert count_bounds([1.0, -1.0], [1.0, -2.0]) == (2, 4)
    assert count_bounds([1.0], [2.0]) == (1, 1)
    rng = np.random.default_rng(103)
    x1 = random_signal(rng, 3)
    x2 = random_signal(rng, 3)
    assert count_bounds(x1, x2) == (3, 16)


def test_cluster_instability_warns():
    # zeros at 2 and 2 + 1.5*tol*scale: separated, but within 2x of merging
    tol = 1e-6
    z_near = 2.0 * (1.0 + 1.5 * tol)
    x1 = np.array([1.0, -2.0])
    x2 = np.array([1.0, -z_near])
    with pytest.warns(RuntimeWarning):
        classes = enumerate_convolution_ambiguities(x1, x2, cluster_tol=tol)
    assert len(classes) == 2


def test_autocorr_two_classes_for_single_zero():
    x = np.array([1.0, -2.0])
    outs = enumerate_autocorr_ambiguities(x)
    assert len(outs) == 2
    acf = correlate(x, x)
    assert np.allclose(acf, [-2.0, 5.0, -2.0])
    for y in outs:
        assert np.linalg.norm(correlate(y, y) - acf) <= 1e-7 * np.linalg.norm(acf)
    zero_mags = sorted(abs(roots(y).zeros[0]) for y in outs)
    assert zero_mags == pytest.approx([0.5, 2.0])


def test_autocorr_original_among_outputs():
    rng = np.random.default_rng(104)
    for n in (2, 3, 4):
        x = random_signal(rng, n)
        outs = enumerate_autocorr_ambiguities(x)
        assert len(outs) <= 2 ** (n - 1)
        best = min(aligned_mse(x, y)[0] for y in outs)
        assert best <= 1e-12


def test_autocorr_self_reciprocal_closure():
    x = np.array([1.0, -2.5, 1.0])
    outs = enumerate_autocorr_ambiguities(x)
    acf = correlate(x, x)
    for y in outs:
        assert np.linalg.norm(correlate(y, y) - acf) <= 1e-7 * np.linalg.norm(acf)
    # zeros 2 and 1/2 swap into each other: swapping both is the identity,
    # swapping one gives zeros {2,2} or {1/2,1/2}
    assert len(outs) == 3


def test_autocorr_unit_circle_zero_is_fixed():
    # both zeros on the unit circle: no swaps available, single class
    x = np.array([1.0, 0.0, 1.0])
    outs = enumerate_autocorr_ambiguities(x)
    assert len(outs) == 1
    acf = correlate(x, x)
    assert np.linalg.norm(correlate(outs[0], outs[0]) - acf) <= 1e-7 * np.linalg.norm(acf)


def test_autocorr_canonical_phase():
    rng = np.random.default_rng(105)
    x = random_signal(rng, 3)
    for y in enumerate_autocorr_ambiguities(x):
        assert abs(y[0].imag) <= 1e-12 * abs(y[0])
        assert y[0].real > 0


def test_autocorr_rejects_unresolvable_zeros():
    with pytest.raises(ValueError, match="x has 0 resolvable zeros instead of 1"):
        enumerate_autocorr_ambiguities([1, 1e-12])


def test_autocorr_guard():
    rng = np.random.default_rng(106)
    with pytest.raises(ValueError):
        enumerate_autocorr_ambiguities(random_signal(rng, 14))


def test_ambiguity_class_is_frozen():
    cls = AmbiguityClass(x1_rep=np.array([1.0]), x2_rep=np.array([1.0, -1.0]))
    with pytest.raises(Exception):
        cls.x1_rep = np.array([2.0])
