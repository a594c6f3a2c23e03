"""Contract tests for ambiguity enumeration."""

from __future__ import annotations

import inspect
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from corrlift import ambiguity
from corrlift.ambiguity import (
    DEFAULT_CLUSTER_TOL,
    cluster_zeros,
    enumerate_autocorr_ambiguities,
    enumerate_convolution_ambiguities,
)
from corrlift.cli import cmd_ambiguities, cmd_zeros, gen_signal
from corrlift.poly import convolve, correlate, from_roots, roots
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
    lefts = sorted(complex(roots(c.x1_rep)[0]).real for c in classes)
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

        zs = roots(x1).tolist() + roots(x2).tolist()
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
        # at most one class per subset of the product's l1 + l2 - 2 zeros
        assert 1 <= len(classes) <= 2 ** (l1 + l2 - 2)


def test_cluster_instability_warns():
    # zeros at 2 and 2 + 1.5*tol*scale: separated, but within 2x of merging
    tol = DEFAULT_CLUSTER_TOL
    z_near = 2.0 * (1.0 + 1.5 * tol)
    x1 = np.array([1.0, -2.0])
    x2 = np.array([1.0, -z_near])
    with pytest.warns(RuntimeWarning):
        classes = enumerate_convolution_ambiguities(x1, x2)
    assert len(classes) == 2


def test_autocorr_two_classes_for_single_zero():
    x = np.array([1.0, -2.0])
    outs = enumerate_autocorr_ambiguities(x)
    assert len(outs) == 2
    acf = correlate(x, x)
    assert np.allclose(acf, [-2.0, 5.0, -2.0])
    for y in outs:
        assert np.linalg.norm(correlate(y, y) - acf) <= 1e-7 * np.linalg.norm(acf)
    zero_mags = sorted(abs(roots(y)[0]) for y in outs)
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


def test_families_are_read_only_arrays():
    x1, x2 = _planted_pair(3, 4, 0, 15)
    classes = enumerate_convolution_ambiguities(x1, x2)
    autos = enumerate_autocorr_ambiguities(x1)
    assert isinstance(classes, np.recarray) and isinstance(classes[0], np.record)
    assert classes.x1_rep.shape == (len(classes), 3)
    assert classes.x2_rep.shape == (len(classes), 4)
    for row, c1, c2 in zip(classes, classes.x1_rep, classes.x2_rep):
        assert row.x1_rep.tobytes() == c1.tobytes()
        assert row.x2_rep.tobytes() == c2.tobytes()
    assert autos.shape == (4, 3)
    writes = [
        lambda: setattr(classes[0], "x1_rep", np.zeros(3)),
        lambda: classes[0].x2_rep.__setitem__(0, 0.0),
        lambda: classes.x1_rep.__setitem__((slice(None), 0), 0.0),
        lambda: autos[0].__setitem__(0, 0.0),
        lambda: autos.__setitem__((slice(None), 0), 0.0),
    ]
    for write in writes:
        with pytest.raises(ValueError, match="read-only"):
            write()
    # families are arrays: their truth value is ambiguous, their length is not
    for family in (classes, autos):
        with pytest.raises(ValueError, match="ambiguous"):
            bool(family)


def test_zero_free_families_hold_one_row():
    classes = enumerate_convolution_ambiguities([1.0], [2.0])
    assert len(classes) == 1
    assert classes[0].x1_rep.tobytes() == np.array([2.0 + 0.0j]).tobytes()
    assert classes[0].x2_rep.tobytes() == np.array([1.0 + 0.0j]).tobytes()
    assert cmd_ambiguities([1.0], [2.0]) == ["classes=1", "class0_x1=(2+0j)", "class0_x2=(1+0j)"]
    autos = enumerate_autocorr_ambiguities([3.0 - 4.0j])
    assert autos.shape == (1, 1)
    assert autos.tobytes() == np.array([[5.0 + 0.0j]]).tobytes()
    assert not autos.flags.writeable


# --- the per-class loop, kept as the oracle of the batched enumeration ------


def _loop_from_roots(unit, zeros):
    out = np.array([unit], dtype=complex)
    for z in zeros:
        out = np.convolve(out, np.array([1.0, -z], dtype=complex))
    return out


def _loop_convolution_classes(x1, x2):
    """One class per cluster-count split, in the order of its index subset."""
    l1 = len(x1)
    unit = complex(x1[0]) * complex(x2[0])
    zs = roots(x1).tolist() + roots(x2).tolist()
    if not zs:
        return [(np.array([unit]), np.array([1.0 + 0.0j]))]
    clusters, _ = cluster_zeros(zs)
    offsets = np.concatenate([[0], np.cumsum([m for _, m in clusters])])
    candidates = []
    for counts in itertools.product(*(range(m + 1) for _, m in clusters)):
        if sum(counts) != l1 - 1:
            continue
        assigned = tuple(int(offsets[k] + i) for k, c in enumerate(counts) for i in range(c))
        candidates.append((assigned, counts))
    candidates.sort(key=lambda t: t[0])
    classes = []
    for _, counts in candidates:
        left = [z for (z, _), c in zip(clusters, counts) for _ in range(c)]
        right = [z for (z, m), c in zip(clusters, counts) for _ in range(m - c)]
        classes.append((_loop_from_roots(unit, left), _loop_from_roots(1.0, right)))
    return classes


def _loop_autocorr(x):
    """One output per count of reflected zeros in each reflection group."""
    acf = correlate(x, x)
    acf_norm = float(np.linalg.norm(acf))
    clusters, threshold = cluster_zeros(roots(x).tolist())
    paired = set()
    choices = []
    for i, (c, t) in enumerate(clusters):
        if i in paired:
            continue
        mirror = 1.0 / np.conj(c)
        if abs(c - mirror) <= threshold:
            choices.append([[c] * t])
            continue
        for j in range(i + 1, len(clusters)):
            if j not in paired and abs(clusters[j][0] - mirror) <= threshold:
                paired.add(j)
                t += clusters[j][1]
                break
        choices.append([[c] * (t - k) + [mirror] * k for k in range(t + 1)])
    outputs = []
    for combo in itertools.product(*choices):
        y0 = _loop_from_roots(1.0, [z for group in combo for z in group])
        outputs.append(math.sqrt(acf_norm / float(np.linalg.norm(correlate(y0, y0)))) * y0)
    return outputs


def _assert_rows_match(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def _assert_matches_loop(monkeypatch, x1, x2):
    # Built one class per block, in 7-class blocks with a ragged tail, and
    # in the default blocks: the same bytes, which match the loop.
    built = []
    for block in (1, 7, 512):
        monkeypatch.setattr(ambiguity, "_BLOCK", block)
        built.append(enumerate_convolution_ambiguities(x1, x2))
    assert [c.tobytes() for c in built[1:]] == [c.tobytes() for c in built[:-1]]
    want = _loop_convolution_classes(x1, x2)
    _assert_rows_match(list(built[0].x1_rep), [w1 for w1, _ in want])
    _assert_rows_match(list(built[0].x2_rep), [w2 for _, w2 in want])
    _assert_rows_match(enumerate_autocorr_ambiguities(x1), _loop_autocorr(x1))


def _planted_pair(l1, l2, common, seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, l1, l2, common]))
    c = gen_signal(common + 1, rng)
    return (
        np.convolve(gen_signal(l1 - common, rng), c),
        np.convolve(gen_signal(l2 - common, rng), c),
    )


@pytest.mark.parametrize("l1,l2", [(1, 1), (1, 3), (3, 1), (1, 6), (6, 1)])
def test_batched_enumeration_matches_loop_one_sided(monkeypatch, l1, l2):
    _assert_matches_loop(monkeypatch, *_planted_pair(l1, l2, 0, 11))


@pytest.mark.parametrize(
    "l1,l2",
    [(3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6), (6, 6), (6, 7), (7, 7), (7, 8), (8, 8), (8, 9)],
)
def test_batched_enumeration_matches_loop_certify_shapes(monkeypatch, l1, l2):
    for common in (0, 1, 2):
        _assert_matches_loop(monkeypatch, *_planted_pair(l1, l2, common, 12))


def test_batched_enumeration_matches_loop_repeated_zeros(monkeypatch):
    # a triple zero at 2, two of it in x1: of the C(5, 3) = 10 subsets
    # only 4 count splits remain
    x1 = convolve(convolve([1.0, -2.0], [1.0, -2.0]), [1.0, 0.5j])
    x2 = convolve([1.0, -2.0], [1.0, 3.0])
    assert len(enumerate_convolution_ambiguities(x1, x2)) == 4
    _assert_matches_loop(monkeypatch, x1, x2)
    _assert_matches_loop(monkeypatch, x2, x1)
    _assert_matches_loop(monkeypatch, np.array([1.0, -1.0]), np.array([1.0, -1.0]))


def test_batched_autocorr_matches_loop_on_reflection_cases():
    for x in ([1.0, -2.5, 1.0], [1.0, 0.0, 1.0], convolve([1.0, 0.0, 1.0], [1.0, -3.0])):
        x = np.array(x, dtype=complex)
        _assert_rows_match(enumerate_autocorr_ambiguities(x), _loop_autocorr(x))


def _dedup_signals():
    rng = np.random.default_rng(71)
    z = 0.6 + 0.3j
    mirror = [1.0, -(z + 1 / np.conj(z)), z / np.conj(z)]
    signals = [random_signal(rng, n) for n in (2, 3, 5, 8, 11)]
    signals += [rng.standard_normal(n) for n in (4, 7)]
    signals += [
        convolve(convolve([1.0, -2.0], [1.0, -2.0]), [1.0, 0.5j]),  # repeated zero
        convolve([1.0, -2.0], [1.0, -0.5]),  # mirror pair on the real axis
        convolve(mirror, [1.0, 3.0]),  # mirror pair off the axis
        convolve(mirror, mirror),  # a repeated mirror pair
        convolve([1.0, 0.0, 1.0], [1.0, -3.0]),  # unit-circle zeros
    ]
    return signals


def test_autocorr_members_are_distinct():
    # No two members within 1e-7 of the larger peak, and as many members as
    # the post-hoc dedup of one product per zero-or-reflection choice kept.
    families = [enumerate_autocorr_ambiguities(x) for x in _dedup_signals()]
    assert [len(f) for f in families] == [2, 4, 16, 128, 1024, 8, 64, 6, 3, 6, 5, 2]
    for family in families:
        peaks = np.abs(family).max(axis=1)
        gaps = np.abs(family[:, None] - family[None]).max(axis=2)
        close = gaps <= 1e-7 * np.maximum(peaks[:, None], peaks[None])
        assert np.array_equal(close, np.eye(len(family), dtype=bool))


def _exact_autocorr_family(zeros, acf_norm):
    # One signal per distinct multiset of exact zero-or-reflection choices.
    choice_sets = [(z,) if abs(abs(z) - 1.0) < 1e-15 else (z, 1.0 / np.conj(z)) for z in zeros]
    multisets = {
        tuple(sorted((round(z.real, 9), round(z.imag, 9)) for z in combo)): combo
        for combo in itertools.product(*choice_sets)
    }
    family = []
    for combo in multisets.values():
        y0 = _loop_from_roots(1.0, combo)
        family.append(math.sqrt(acf_norm / float(np.linalg.norm(correlate(y0, y0)))) * y0)
    return family


def test_autocorr_members_are_exact_factors_on_repeated_and_reflected_zeros():
    z = 0.6 + 0.3j
    cases = [
        [2.0, 2.0, -0.5j],  # a double zero
        [2.0, 0.5],  # a reflection pair
        [z, z, 1.0 / np.conj(z), 1.0 / np.conj(z)],  # a double reflection pair
        [2.0, 2.0, 0.5],  # a double zero and its reflection
        [1j, 1j, -1j, -1j, -2j],  # double unit-circle zeros
        [1.0, 1.0],  # a double zero on the circle
    ]
    for zeros in cases:
        x = _loop_from_roots(1.0, zeros)
        family = enumerate_autocorr_ambiguities(x)
        exact = _exact_autocorr_family(zeros, float(np.linalg.norm(correlate(x, x))))
        assert len(family) == len(exact)
        nearest = [min(range(len(exact)), key=lambda i: np.abs(y - exact[i]).max()) for y in family]
        assert sorted(nearest) == list(range(len(exact)))
        for y, i in zip(family, nearest):
            assert np.abs(y - exact[i]).max() <= 1e-7 * np.abs(exact[i]).max()


def test_autocorr_merges_zeros_within_the_clustering_threshold():
    # 2 and 2(1 + 5e-7) lie 1e-6 apart, within the threshold 2e-6: one
    # double zero, so k = 0, 1 or 2 of it taken at 1/2
    family = enumerate_autocorr_ambiguities(convolve([1.0, -2.0], [1.0, -2.0 * (1.0 + 5e-7)]))
    assert len(family) == 3


def test_autocorr_clusters_small_zeros_relative_to_their_size():
    # 1e-3 and 1e-3(1 + 1e-4) lie 1e-7 apart, far outside the threshold
    # 1e-6 x 1e-3 relative to the largest zero: two zeros, 2 x 2 members,
    # as the convolution family holds their 2 splits
    a, b = [1.0, -1e-3], [1.0, -1e-3 * (1.0 + 1e-4)]
    x = convolve(a, b)
    acf = correlate(x, x)
    family = enumerate_autocorr_ambiguities(x)
    assert len(family) == 4
    for y in family:
        assert np.linalg.norm(correlate(y, y) - acf) <= 1e-7 * np.linalg.norm(acf)
    assert len(enumerate_convolution_ambiguities(a, b)) == 2


def test_bad_merge_fails_reconvolution(monkeypatch):
    # at this tolerance the zeros 1 and 1.3 merge into one double zero
    monkeypatch.setattr(ambiguity, "DEFAULT_CLUSTER_TOL", 0.5)
    with pytest.raises(RuntimeError, match="fail to reproduce the convolution"):
        enumerate_convolution_ambiguities([1.0, -1.0], [1.0, -1.3])


# --- per-shape subset tables and the fast paths ------------------------------


def test_subset_tables_are_cached_and_read_only():
    tables = ambiguity._subset_tables(7, 3)
    assert all(a is b for a, b in zip(tables, ambiguity._subset_tables(7, 3)))
    mask, left, right = tables
    assert left.dtype == right.dtype == np.int8
    assert [tuple(row) for row in left] == list(itertools.combinations(range(7), 3))
    for m, l, r in zip(mask, left, right):
        assert list(np.flatnonzero(m)) == list(l)
        assert sorted([*l, *r]) == list(range(7))
    for table in tables:
        with pytest.raises(ValueError):
            table[0, 0] = 0


def _filtered_classes(x1, x2):
    # The mask construction with the cluster-prefix filter always applied,
    # kept as the oracle of the table gather and of its singleton skip.
    l1 = len(x1)
    unit = complex(x1[0]) * complex(x2[0])
    zs = roots(x1).tolist() + roots(x2).tolist()
    d = len(zs)
    clusters, _ = cluster_zeros(zs)
    starts = np.zeros(d, dtype=bool)
    starts[np.cumsum([0] + [m for _, m in clusters[:-1]])] = True
    subsets = np.array(list(itertools.combinations(range(d), l1 - 1)), dtype=np.intp)
    mask = np.zeros((len(subsets), d), dtype=bool)
    mask[np.arange(len(subsets))[:, None], subsets] = True
    mask = mask[~(mask[:, 1:] & ~mask[:, :-1] & ~starts[1:]).any(axis=1)]
    k = len(mask)
    zs = np.broadcast_to(np.repeat([z for z, _ in clusters], [m for _, m in clusters]), mask.shape)
    return len(clusters), list(
        zip(
            from_roots(unit, zs[mask].reshape(k, l1 - 1)).T,
            from_roots(1.0, zs[~mask].reshape(k, len(x2) - 1)).T,
        )
    )


def _assert_bytes_match_filtered(x1, x2):
    n_clusters, want = _filtered_classes(x1, x2)
    got = enumerate_convolution_ambiguities(x1, x2)
    assert len(got) == len(want)
    for cls, (w1, w2) in zip(got, want):
        assert cls.x1_rep.tobytes() == w1.tobytes()
        assert cls.x2_rep.tobytes() == w2.tobytes()
    return n_clusters


@pytest.mark.parametrize("l1,l2", [(2, 2), (3, 5), (5, 3), (6, 7), (8, 9)])
def test_singleton_skip_matches_the_filtered_path(l1, l2):
    # distinct zeros only: the enumeration skips the filter, which would
    # keep every subset
    x1, x2 = _planted_pair(l1, l2, 0, 13)
    assert _assert_bytes_match_filtered(x1, x2) == l1 + l2 - 2


def test_filtered_path_on_repeated_zeros_matches_loop_and_oracle(monkeypatch):
    # a double zero at 2 and a triple zero at -1, split across the factors
    x1 = convolve(convolve([1.0, -2.0], [1.0, -2.0]), convolve([1.0, 1.0], [1.0, 0.5j]))
    x2 = convolve(convolve([1.0, 1.0], [1.0, 1.0]), [1.0, 3.0])
    for a, b in ((x1, x2), (x2, x1)):
        assert _assert_bytes_match_filtered(a, b) < len(a) + len(b) - 2
        _assert_matches_loop(monkeypatch, a, b)
    for common in (1, 2):
        x1, x2 = _planted_pair(6, 7, common, 14)
        assert _assert_bytes_match_filtered(x1, x2) == 11 - common


# --- the near-merge warning and the class-axis check ------------------------


def test_near_merge_warning_points_at_the_caller():
    x1 = np.array([1.0, -2.0])
    x2 = np.array([1.0, -2.0 * (1.0 + 1.5 * DEFAULT_CLUSTER_TOL)])
    with pytest.warns(RuntimeWarning, match="within a factor two of merging") as record:
        line = inspect.currentframe().f_lineno + 1
        enumerate_convolution_ambiguities(x1, x2)
    assert [(w.filename, w.lineno) for w in record] == [(__file__, line)]
    x = convolve(x1, x2)
    with pytest.warns(RuntimeWarning, match="within a factor two of merging") as record:
        line = inspect.currentframe().f_lineno + 1
        enumerate_autocorr_ambiguities(x)
    assert [(w.filename, w.lineno) for w in record] == [(__file__, line)]
    # `zeros` clusters the product's zeros, x1's and x2's, as the
    # convolution family does
    with pytest.warns(RuntimeWarning, match="within a factor two of merging") as record:
        line = inspect.currentframe().f_lineno + 1
        rows = cmd_zeros(x1, x2)
    assert [(w.filename, w.lineno) for w in record] == [(__file__, line)]
    assert [r["which"] for r in rows] == ["x1", "x2", "product", "product"]


def test_circle_parity_warning_points_at_the_caller():
    # The zero 1 + 0.75e-6 lies within the clustering threshold (about 1e-6)
    # of the unit circle, but 1.5e-6 from its mirror: neither merges, so the
    # circle holds two zeros of multiplicity one.
    odd = "unit-circle zero of the autocorrelation has odd multiplicity"
    with pytest.warns(RuntimeWarning, match=odd) as record:
        line = inspect.currentframe().f_lineno + 1
        enumerate_autocorr_ambiguities([1, -(1 + 0.75e-6)])
    assert [(w.filename, w.lineno) for w in record] == [(__file__, line)]


def test_autocorr_even_multiplicity_near_the_circle_does_not_warn():
    # A double zero at 1 + 0.75e-6: the autocorrelation holds it and its
    # mirror twice each, so the parity check stays quiet.
    z = 1 + 0.75e-6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        family = enumerate_autocorr_ambiguities(convolve([1, -z], [1, -z]))
    assert len(family) == 3


def _bend_one_class(monkeypatch, which, k):
    # Wrap `from_roots` so that class k of the `which` factor tables (0: the
    # left factors, 1: the right ones) is 1e-6 relative off, whichever block
    # builds it.  Each block builds its left table, then its right one.
    calls = []
    built = [0, 0]

    def bent(unit, zeros):
        out = from_roots(unit, zeros)
        side = len(calls) % 2
        if side == which and built[side] <= k < built[side] + out.shape[1]:
            out[:, k - built[side]] *= 1.0 + 1e-6
        built[side] += out.shape[1]
        calls.append(out.shape)
        return out

    monkeypatch.setattr(ambiguity, "from_roots", bent)
    return calls


def test_reconvolution_check_covers_every_class(monkeypatch):
    # One block of 35 classes, and the seed-1 certify-ambiguity pair at
    # (8, 9) with no common zero (`perfbench/workloads.py`, shape index 11):
    # 6435 classes, 12 full blocks and a 291-class tail.
    rng = np.random.default_rng(np.random.SeedSequence([1, 11, 0]))
    c = gen_signal(1, rng)
    certify_pair = (np.convolve(gen_signal(8, rng), c), np.convolve(gen_signal(9, rng), c))
    for (x1, x2), count in (
        (_planted_pair(4, 5, 0, 16), math.comb(7, 3)),
        (certify_pair, math.comb(15, 7)),
    ):
        monkeypatch.setattr(ambiguity, "from_roots", from_roots)
        want = enumerate_convolution_ambiguities(x1, x2)
        assert len(want) == count
        # unbent, the wrapped build passes with the same bytes
        calls = _bend_one_class(monkeypatch, 2, 0)
        assert enumerate_convolution_ambiguities(x1, x2).tobytes() == want.tobytes()
        assert len(calls) == 2 * math.ceil(count / ambiguity._BLOCK)
        for which in (0, 1):
            for k in (0, count // 2, count - 1):
                calls = _bend_one_class(monkeypatch, which, k)
                with pytest.raises(RuntimeError, match="fail to reproduce the convolution"):
                    enumerate_convolution_ambiguities(x1, x2)
                # raised at the block that holds class k, before any later one
                assert len(calls) == 2 * (k // ambiguity._BLOCK + 1)


def test_enumeration_peak_memory_stays_within_a_block_budget():
    # The guard's largest family, C(16, 8) = 12870 classes at (9, 9).  Besides
    # its output the build holds one block's tables: its gathered zeros, its
    # two factor tables (and the previous block's, until they are replaced)
    # and the reconvolution's two scratch tables, under 5 (l1 + l2) complex
    # entries per class.  Building whole-family tables holds 5.8 MB over the
    # 3.7 MB output; the budget is 0.74 MB.
    x1, x2 = _planted_pair(9, 9, 0, 17)
    enumerate_convolution_ambiguities(x1, x2)  # the cached subset tables
    budget = ambiguity._BLOCK * 5 * (9 + 9) * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        classes = enumerate_convolution_ambiguities(x1, x2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(classes) == math.comb(16, 8)
    assert peak - classes.nbytes <= budget
