"""Enumeration of convolution and autocorrelation ambiguities in the root domain.

A convolution y = x1 * x2 only determines the zero multiset of the product
Y(z) together with one overall unit; every admissible split of those zeros
between the two factors is an equally valid factorization.  Likewise an
autocorrelation only determines zeros up to swaps across reflections at the
unit circle.  This module enumerates canonical representatives of both
ambiguity families.

A convolution family is a read-only `np.recarray`: row `c` is one class
(`c.x1_rep`, `c.x2_rep`) and `family.x1_rep` the (K, l1) column of left
factors.  An autocorrelation family is a read-only (k, n) array, one signal
per row.  `bool(family)` raises for more than one row: test `len(family)`.

Each family is built as one batch: the zero choices of all its members
form one array, `poly.from_roots` expands every member in one pass, into
(l, K) tables with one member per column, and one batched product along
that class axis (`_reconvolution_errors`) checks every member against the
source convolution or autocorrelation.  The convolution classes gather
their zeros through index tables that depend only on the shape and are
built once per shape; the subset filter for repeated zeros runs only when a
cluster holds more than one zero.  Their tables are copied once, into the
record array.  The autocorrelation family's scale comes from the same
product against a zero target, and its table is transposed once, to rows.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings

import numpy as np

from .poly import (
    Signal,
    as_signal,
    convolve,
    correlate,
    from_roots,
    require_c00,
    resolved_zeros,
    roots,
)

DEFAULT_CLUSTER_TOL = 1e-6

# Combinatorial guards: subset enumeration is exponential in the zero count.
MAX_CONVOLUTION_ZEROS = 16
MAX_AUTOCORR_ZEROS = 12

_RECONVOLVE_TOL = 1e-7


def cluster_zeros(zs, threshold: float) -> list:
    """Agglomerate zeros whose centroids fall within `threshold`.

    Returns (centroid, multiplicity) pairs sorted by (re, im) for
    deterministic downstream enumeration.
    """
    clusters = [[complex(z)] for z in zs]
    # Centroids are always np.mean of a cluster's members (a singleton's
    # mean can differ from the zero in the sign of a zero part); only a
    # merge changes one, so it alone is recomputed then.
    centroids = np.mean(np.array(zs, dtype=complex)[:, None], axis=1).tolist()
    merged = True
    while merged:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if abs(centroids[i] - centroids[j]) <= threshold:
                    clusters[i].extend(clusters.pop(j))
                    del centroids[j]
                    centroids[i] = complex(np.mean(clusters[i]))
                    merged = True
                    break
            if merged:
                break
    out = [(c, len(members)) for c, members in zip(centroids, clusters)]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def _warn_if_near_merge(clusters, threshold: float) -> None:
    centroids = [c for c, _ in clusters]
    for i in range(len(centroids)):
        for j in range(i + 1, len(centroids)):
            gap = abs(centroids[i] - centroids[j])
            if threshold < gap <= 2.0 * threshold:
                warnings.warn(
                    "two zero clusters are within a factor two of merging; "
                    "the class enumeration is sensitive to the clustering tolerance",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return


def count_bounds(x1: Signal, x2: Signal) -> tuple[int, int]:
    """Lower and upper bounds on the number of factorization classes.

    For a product of degree D the bounds are (min{D+1, L1, L2}, 2^D).  The
    lower bound counts per-zero assignment choices without the subset-size
    constraint, so constrained enumeration may legitimately emit fewer
    classes for repeated zeros; the bounds are reported as-is.
    """
    x1 = require_c00(as_signal(x1))
    x2 = require_c00(as_signal(x2))
    d = (x1.size - 1) + (x2.size - 1)
    return min(d + 1, x1.size, x2.size), 2**d


def enumerate_convolution_ambiguities(x1: Signal, x2: Signal) -> np.recarray:
    """All factorization classes of convolve(x1, x2) with the given lengths.

    Zeros of the product (union of the factors' zeros) are clustered at
    DEFAULT_CLUSTER_TOL relative to the largest magnitude, then every multiset
    split whose sizes fit the factor lengths yields one representative,
    with the combined unit placed on the left factor.  Classes are ordered
    lexicographically by the assigned index subset and each is verified to
    reconvolve to the source product within 1e-7 relative.  Returns a
    read-only record array, one row per class, whose fields `x1_rep` (shape
    (l1,)) and `x2_rep` (shape (l2,)) hold each class's pair.
    """
    x1 = require_c00(as_signal(x1))
    x2 = require_c00(as_signal(x2))
    l1, l2 = x1.size, x2.size
    d = (l1 - 1) + (l2 - 1)
    if d > MAX_CONVOLUTION_ZEROS:
        raise ValueError(
            f"product has {d} zeros, above the enumeration guard {MAX_CONVOLUTION_ZEROS}"
        )
    r1 = roots(x1)
    r2 = roots(x2)
    unit = r1.unit * r2.unit
    all_zeros = list(resolved_zeros(r1, l1, "x1")) + list(resolved_zeros(r2, l2, "x2"))
    conv = convolve(x1, x2)
    conv_norm = float(np.linalg.norm(conv))

    # No zeros (l1 = l2 = 1): empty tables give the one class (unit) | (1).
    scale = max((abs(z) for z in all_zeros), default=0.0)
    threshold = DEFAULT_CLUSTER_TOL * scale
    clusters = cluster_zeros(all_zeros, threshold)
    _warn_if_near_merge(clusters, threshold)

    # Every class gives the left factor l1-1 of the d zeros.  Within a
    # cluster of a repeated zero only the count matters, so a class is the
    # index subset that takes a prefix of every cluster's block; the
    # lexicographic order of `combinations` is the class order.
    mask, left, right = _subset_tables(d, l1 - 1)
    if len(clusters) < d:
        starts = np.zeros(d, dtype=bool)
        starts[np.cumsum([0] + [m for _, m in clusters[:-1]])] = True
        keep = ~(mask[:, 1:] & ~mask[:, :-1] & ~starts[1:]).any(axis=1)
        left, right = left[keep], right[keep]
    zs = np.repeat([z for z, _ in clusters], [m for _, m in clusters])
    # Gathered class axis last, so `from_roots` reads contiguous columns,
    # and expanded to (l, K) tables: one signal per column.
    x1_cols = from_roots(unit, zs[left.T].T, columns=True)
    x2_cols = from_roots(1.0, zs[right.T].T, columns=True)
    if np.any(_reconvolution_errors(x1_cols, x2_cols, conv) > _RECONVOLVE_TOL * conv_norm):
        raise RuntimeError(
            "clustered zeros fail to reproduce the convolution within "
            f"{_RECONVOLVE_TOL:g} relative; distinct zeros were merged at "
            f"the clustering tolerance {DEFAULT_CLUSTER_TOL:g}"
        )
    dtype = [("x1_rep", complex, (l1,)), ("x2_rep", complex, (l2,))]
    classes = np.empty(len(left), dtype=dtype).view(np.recarray)
    classes.x1_rep.T[...] = x1_cols
    classes.x2_rep.T[...] = x2_cols
    classes.flags.writeable = False
    return classes


def _reconvolution_errors(a: np.ndarray, b: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per column k, the norm of convolve(a[:, k], b[:, k]) - target.

    a and b are (la, K) and (lb, K) tables, one signal per column.  Each of
    the la steps is one product over all K classes, written into one
    scratch table reused across the steps.
    """
    la, lb = a.shape[0], b.shape[0]
    out = np.zeros((la + lb - 1, a.shape[1]), dtype=complex)
    step = np.empty_like(b)
    for i in range(la):
        np.multiply(a[i], b, out=step)
        out[i : i + lb] += step
    out -= target[:, None]
    parts = out.view(float)
    squares = np.einsum("ij,ij->j", parts, parts)
    return np.sqrt(squares[0::2] + squares[1::2])


@functools.lru_cache(maxsize=32)
def _subset_tables(d: int, k: int) -> tuple:
    """Every k-subset of range(d), in the lexicographic order of `combinations`.

    Returns the (C(d, k), d) membership mask and the int8 tables of each
    subset's indices and of its complement's, both ascending.  Cached for
    the 32 most recent (d, k): a repeated shape returns the same three
    read-only arrays.
    """
    count = math.comb(d, k)
    # Straight into an int8 array: as a list, the C(d, k) tuples of Python
    # ints would take 0.67 MB at d = 15, k = 7.
    left = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(d), k)),
        dtype=np.int8,
        count=count * k,
    ).reshape(count, k)
    mask = np.zeros((count, d), dtype=bool)
    mask[np.arange(count)[:, None], left] = True
    right = np.nonzero(~mask)[1].astype(np.int8).reshape(count, d - k)
    for table in (mask, left, right):
        table.flags.writeable = False
    return mask, left, right


def enumerate_autocorr_ambiguities(x: Signal) -> np.ndarray:
    """All signals sharing correlate(x, x), one per conjugate-inverse choice.

    Every zero zeta of x pairs with 1/conj(zeta) in the autocorrelation's
    zero set; picking either member of each pair and rescaling to match the
    autocorrelation norm exhausts the ambiguity family (at most 2^{N-1}
    signals).  Outputs are canonicalized to a real positive leading
    coefficient and deduplicated; the original signal appears among them up
    to global phase.  Returns them as the rows of one read-only (k, n)
    array, (1, 1) for n = 1.
    """
    x = require_c00(as_signal(x))
    n = x.size
    if n - 1 > MAX_AUTOCORR_ZEROS:
        raise ValueError(
            f"signal has {n - 1} zeros, above the enumeration guard {MAX_AUTOCORR_ZEROS}"
        )
    acf = correlate(x, x)
    acf_norm = float(np.linalg.norm(acf))
    # For n = 1 there are no zeros: one candidate, (sqrt(acf_norm)).
    zeros = resolved_zeros(roots(x), n, "x")
    threshold = DEFAULT_CLUSTER_TOL * max([1.0, *(abs(z) for z in zeros)])

    choice_sets = []
    for z in zeros:
        mirror = 1.0 / np.conj(z)
        if abs(z - mirror) <= threshold:
            # unit-circle zero: the reflection is itself, no choice to make
            choice_sets.append((z,))
        else:
            choice_sets.append((z, mirror))

    _check_circle_parity(choice_sets, threshold)

    y0 = from_roots(1.0, list(itertools.product(*choice_sets)), columns=True)
    auto0_norms = _reconvolution_errors(y0, np.conj(y0[::-1]), np.zeros(acf.size))
    y = np.sqrt(acf_norm / auto0_norms) * y0
    if np.any(_reconvolution_errors(y, np.conj(y[::-1]), acf) > _RECONVOLVE_TOL * acf_norm):
        raise RuntimeError(
            "zero-swap candidate fails to reproduce the autocorrelation; "
            "distinct zeros were merged at the clustering tolerance "
            f"{DEFAULT_CLUSTER_TOL:g}"
        )
    y = y.T
    family = y[_first_distinct(y)]
    family.flags.writeable = False
    return family


def _first_distinct(y: np.ndarray) -> np.ndarray:
    """Mask of the rows of y kept by the dedup, scanning in row order.

    A row is kept unless an earlier kept row lies within 1e-7 of it in
    every coefficient, relative to that row's largest coefficient.  Such a
    row is within 1e-7 * max(peak) of it in any one real part, so only the
    kept rows whose real part in one fixed column (the one that spreads the
    rows most) lies in a window of twice that width, found by bisection in
    the sorted column, are compared.
    """
    peaks = np.abs(y).max(axis=1)
    column = np.ptp(y.real, axis=0).argmax()
    key = y[:, column].real
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    width = 2e-7 * peaks.max()
    lo = np.searchsorted(sorted_key, key - width, side="left")
    hi = np.searchsorted(sorted_key, key + width, side="right")
    if np.all(hi - lo == 1):
        # every window holds only its own row: nothing to compare
        return np.ones(len(y), dtype=bool)
    kept = np.zeros(len(y), dtype=bool)
    for i in range(len(y)):
        near = order[lo[i] : hi[i]]
        near = near[kept[near]]
        kept[i] = not np.any(np.abs(y[near] - y[i]).max(axis=1) <= 1e-7 * peaks[near])
    return kept


def _check_circle_parity(choice_sets, threshold: float) -> None:
    # The autocorrelation's zero multiset holds each pair member once; on
    # the unit circle members coincide, so circle zeros must arrive with
    # even multiplicity.  Odd counts flag a borderline clustering.
    members = []
    for cs in choice_sets:
        members.extend(cs if len(cs) == 2 else (cs[0], cs[0]))
    for centroid, mult in cluster_zeros(members, threshold):
        if abs(abs(centroid) - 1.0) <= threshold and mult % 2:
            warnings.warn(
                "unit-circle zero of the autocorrelation has odd multiplicity; "
                "swap enumeration near the circle is unstable at this tolerance",
                RuntimeWarning,
                stacklevel=3,
            )
            return

