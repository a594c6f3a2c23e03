"""Enumeration of convolution and autocorrelation ambiguities in the root domain.

A convolution y = x1 * x2 only determines the zero multiset of the product
Y(z) together with one overall unit; every admissible split of those zeros
between the two factors is an equally valid factorization.  Likewise an
autocorrelation only determines zeros up to swaps across reflections at the
unit circle.  This module enumerates canonical representatives of both
ambiguity families, each built from the clustered zeros so that its
members are distinct by construction: a convolution class splits every
cluster's count between the factors, and an autocorrelation member picks,
for every group of a cluster and the cluster at its reflection, how many
of the group's zeros sit at the reflection.

Both families, and the product rows of ``corrlift zeros``, read one
clustering routine, `cluster_zeros`, with one rule: zeros merge when their
centroids lie within DEFAULT_CLUSTER_TOL times the largest zero magnitude,
and two clusters more than that but at most twice that apart raise a
RuntimeWarning, since the classes then hang on the tolerance.

A convolution family is a read-only `np.recarray`: row `c` is one class
(`c.x1_rep`, `c.x2_rep`) and `family.x1_rep` the (K, l1) column of left
factors.  An autocorrelation family is a read-only (k, n) array, one signal
per row.  `bool(family)` raises for more than one row: test `len(family)`.

Members are built in batches: the zero choices of a batch form one array,
`poly.from_roots` expands them in one pass, into (l, K) tables with one
member per column, and one product along that class axis
(`_reconvolution_errors`) checks every member against the source
convolution or autocorrelation.  The convolution classes gather their
zeros through index tables that depend only on the shape and are built
once per shape, and kept as int8; the subset filter for repeated zeros
runs only when a cluster holds more than one zero.  They are built in
blocks of `_BLOCK` classes into a record array allocated first: each block
widens its rows of the tables to intp, gathers, expands, checks and is
copied into its rows, through the two field views fetched once, before the
next is gathered, so the enumeration holds one block's tables besides its
output, and a failing check raises at the first block that holds a failing
class.  The autocorrelation family (at most 2^12 members) is one batch:
one row of zeros per combination of group counts, its scale from the same
product against a zero target, and its table transposed once, to rows.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings

import numpy as np

from .poly import (
    Signal,
    convolve,
    correlate,
    from_roots,
    require_c00,
    roots,
)

DEFAULT_CLUSTER_TOL = 1e-6

# Combinatorial guards: subset enumeration is exponential in the zero count.
MAX_CONVOLUTION_ZEROS = 16
MAX_AUTOCORR_ZEROS = 12

_RECONVOLVE_TOL = 1e-7

# Convolution classes built and checked per block: the block's (l, K)
# tables, not the whole family's, are what the enumeration holds besides
# its output.  Smaller blocks pay NumPy's per-call cost more often.
_BLOCK = 512


def cluster_zeros(zs) -> tuple[list, float]:
    """Agglomerate zeros whose centroids fall within DEFAULT_CLUSTER_TOL * max |z|.

    Returns the (centroid, multiplicity) pairs, sorted by (re, im) for
    deterministic downstream enumeration, and the threshold they were
    merged at (0 for no zeros).  Warns (RuntimeWarning, at the caller of
    the routine that called this one) when two clusters lie within a
    factor two of merging: more than the threshold but at most twice it
    apart, where the clustering, and every family built from it, is
    sensitive to the tolerance.
    """
    threshold = DEFAULT_CLUSTER_TOL * max((abs(z) for z in zs), default=0.0)
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
    if any(
        threshold < abs(a - b) <= 2.0 * threshold
        for a, b in itertools.combinations(centroids, 2)
    ):
        warnings.warn(
            "two zero clusters are within a factor two of merging; "
            "the class enumeration is sensitive to the clustering tolerance",
            RuntimeWarning,
            stacklevel=3,
        )
    out = [(c, len(members)) for c, members in zip(centroids, clusters)]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out, threshold


def count_bounds(x1: Signal, x2: Signal) -> tuple[int, int]:
    """Lower and upper bounds on the number of factorization classes.

    For a product of degree D the bounds are (min{D+1, L1, L2}, 2^D).  The
    lower bound counts per-zero assignment choices without the subset-size
    constraint, so constrained enumeration may legitimately emit fewer
    classes for repeated zeros; the bounds are reported as-is.
    """
    x1 = require_c00(x1)
    x2 = require_c00(x2)
    d = (x1.size - 1) + (x2.size - 1)
    return min(d + 1, x1.size, x2.size), 2**d


def enumerate_convolution_ambiguities(x1: Signal, x2: Signal) -> np.recarray:
    """All factorization classes of convolve(x1, x2) with the given lengths.

    Zeros of the product (union of the factors' zeros) are clustered by
    `cluster_zeros`, relative to the largest magnitude, then every multiset
    split whose sizes fit the factor lengths yields one representative,
    with the combined unit placed on the left factor.  Classes are ordered
    lexicographically by the assigned index subset and each is verified to
    reconvolve to the source product within 1e-7 relative.  Returns a
    read-only record array, one row per class, whose fields `x1_rep` (shape
    (l1,)) and `x2_rep` (shape (l2,)) hold each class's pair.
    """
    x1 = require_c00(x1)
    x2 = require_c00(x2)
    l1, l2 = x1.size, x2.size
    d = (l1 - 1) + (l2 - 1)
    if d > MAX_CONVOLUTION_ZEROS:
        raise ValueError(
            f"product has {d} zeros, above the enumeration guard {MAX_CONVOLUTION_ZEROS}"
        )
    unit = complex(x1[0]) * complex(x2[0])
    all_zeros = roots(x1, "x1").tolist() + roots(x2, "x2").tolist()
    conv = convolve(x1, x2)
    conv_norm = float(np.linalg.norm(conv))

    # No zeros (l1 = l2 = 1): empty tables give the one class (unit) | (1).
    clusters, _ = cluster_zeros(all_zeros)

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
    dtype = [("x1_rep", complex, (l1,)), ("x2_rep", complex, (l2,))]
    classes = np.empty(len(left), dtype=dtype)
    x1_out, x2_out = classes["x1_rep"], classes["x2_rep"]
    for start in range(0, len(left), _BLOCK):
        rows = slice(start, start + _BLOCK)
        # Gathered class axis last, so `from_roots` reads contiguous
        # columns, and expanded to (l, K) tables: one signal per column.
        x1_cols = from_roots(unit, zs[left[rows].astype(np.intp).T].T)
        x2_cols = from_roots(1.0, zs[right[rows].astype(np.intp).T].T)
        if np.any(_reconvolution_errors(x1_cols, x2_cols, conv) > _RECONVOLVE_TOL * conv_norm):
            raise RuntimeError(
                "clustered zeros fail to reproduce the convolution within "
                f"{_RECONVOLVE_TOL:g} relative; distinct zeros were merged at "
                f"the clustering tolerance {DEFAULT_CLUSTER_TOL:g}"
            )
        x1_out[rows].T[...] = x1_cols
        x2_out[rows].T[...] = x2_cols
    classes = classes.view(np.recarray)
    classes.flags.writeable = False
    return classes


def _reconvolution_errors(a: np.ndarray, b: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per column k, the norm of convolve(a[:, k], b[:, k]) - target.

    a and b are (la, K) and (lb, K) tables, one signal per column: a block
    of convolution classes, or the whole autocorrelation family.  Each of
    the la steps is one product over the K columns, written into one
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
    """All signals sharing correlate(x, x), one per reflection choice.

    Every zero zeta of x pairs with 1/conj(zeta) in the autocorrelation's
    zero set.  The zeros are clustered by `cluster_zeros`, as for the
    convolution classes, so zeros within its threshold (relative to the
    largest |zeta|) count as one repeated zero.  Each cluster c joins the
    later cluster at 1/conj(c), if any, in a group of t zeros.  A cluster
    within the threshold of its reflection lies on the unit circle and has
    one choice; any other group has t + 1: k = 0..t of its zeros at
    1/conj(c), the rest at c.  Each combination of choices is one member (at most
    2^{N-1}, distinct by construction), ordered as `itertools.product`
    over the groups in their first cluster's (re, im) order, k ascending.
    Members are scaled to the autocorrelation's norm with a real positive
    leading coefficient; the original signal is among them up to global
    phase.  Returns them as the rows of one read-only (k, n) array, (1, 1)
    for n = 1.
    """
    x = require_c00(x)
    n = x.size
    if n - 1 > MAX_AUTOCORR_ZEROS:
        raise ValueError(
            f"signal has {n - 1} zeros, above the enumeration guard {MAX_AUTOCORR_ZEROS}"
        )
    acf = correlate(x, x)
    acf_norm = float(np.linalg.norm(acf))
    # For n = 1 there are no zeros: one member, (sqrt(acf_norm)).
    clusters, threshold = cluster_zeros(roots(x))

    choice_sets = []
    while clusters:
        c, t = clusters.pop(0)
        mirror = 1.0 / np.conj(c)
        if abs(c - mirror) <= threshold:
            choice_sets.append([(c,) * t])
            continue
        for j, (d, s) in enumerate(clusters):
            if abs(d - mirror) <= threshold:
                del clusters[j]
                t += s
                break
        # The autocorrelation holds c and 1/conj(c) t times each; near the
        # circle they would merge into one cluster, so an odd t there flags
        # a borderline clustering.
        if t % 2 and abs(abs(c) - 1.0) <= threshold:
            warnings.warn(
                "unit-circle zero of the autocorrelation has odd multiplicity; "
                "swap enumeration near the circle is unstable at this tolerance",
                RuntimeWarning,
                stacklevel=2,
            )
        choice_sets.append([(c,) * (t - k) + (mirror,) * k for k in range(t + 1)])

    y0 = from_roots(1.0, [sum(combo, ()) for combo in itertools.product(*choice_sets)])
    auto0_norms = _reconvolution_errors(y0, np.conj(y0[::-1]), np.zeros(acf.size))
    y = np.sqrt(acf_norm / auto0_norms) * y0
    if np.any(_reconvolution_errors(y, np.conj(y[::-1]), acf) > _RECONVOLVE_TOL * acf_norm):
        raise RuntimeError(
            "zero-swap candidate fails to reproduce the autocorrelation; "
            "distinct zeros were merged at the clustering tolerance "
            f"{DEFAULT_CLUSTER_TOL:g}"
        )
    family = y.T.copy()
    family.flags.writeable = False
    return family
