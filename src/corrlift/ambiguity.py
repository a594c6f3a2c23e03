"""Enumeration of convolution and autocorrelation ambiguities in the root domain.

A convolution y = x1 * x2 only determines the zero multiset of the product
Y(z) together with one overall unit; every admissible split of those zeros
between the two factors is an equally valid factorization.  Likewise an
autocorrelation only determines zeros up to swaps across reflections at the
unit circle.  This module enumerates canonical representatives of both
ambiguity families.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .poly import (
    RootSet,
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


@dataclass(frozen=True)
class AmbiguityClass:
    """Left-scaled representative pair of one factorization class."""

    x1_rep: np.ndarray
    x2_rep: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x1_rep", as_signal(self.x1_rep))
        object.__setattr__(self, "x2_rep", as_signal(self.x2_rep))


def cluster_zeros(zs, threshold: float) -> list:
    """Agglomerate zeros whose centroids fall within `threshold`.

    Returns (centroid, multiplicity) pairs sorted by (re, im) for
    deterministic downstream enumeration.
    """
    clusters = [[complex(z)] for z in zs]
    merged = True
    while merged:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                ci = complex(np.mean(clusters[i]))
                cj = complex(np.mean(clusters[j]))
                if abs(ci - cj) <= threshold:
                    clusters[i].extend(clusters[j])
                    del clusters[j]
                    merged = True
                    break
            if merged:
                break
    out = [(complex(np.mean(c)), len(c)) for c in clusters]
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
                    "the class enumeration is sensitive to cluster_tol",
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


def enumerate_convolution_ambiguities(
    x1: Signal, x2: Signal, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> list:
    """All factorization classes of convolve(x1, x2) with the given lengths.

    Zeros of the product (union of the factors' zeros) are clustered at
    `cluster_tol` relative to the largest magnitude, then every multiset
    split whose sizes fit the factor lengths yields one representative,
    with the combined unit placed on the left factor.  Classes are ordered
    lexicographically by the assigned index subset and each is verified to
    reconvolve to the source product within 1e-7 relative.
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

    if not all_zeros:
        return [AmbiguityClass(x1_rep=np.array([unit]), x2_rep=np.array([1.0 + 0.0j]))]

    scale = max(abs(z) for z in all_zeros)
    threshold = cluster_tol * scale
    clusters = cluster_zeros(all_zeros, threshold)
    _warn_if_near_merge(clusters, threshold)

    lo = max(d - l2 + 1, 0)
    hi = l1 - 1
    offsets = np.concatenate([[0], np.cumsum([m for _, m in clusters])])

    candidates = []
    for counts in itertools.product(*(range(m + 1) for _, m in clusters)):
        if not (lo <= sum(counts) <= hi):
            continue
        assigned = tuple(
            int(offsets[k] + i) for k, c in enumerate(counts) for i in range(c)
        )
        candidates.append((assigned, counts))
    candidates.sort(key=lambda t: t[0])

    classes = []
    for _, counts in candidates:
        left = [z for (z, _), c in zip(clusters, counts) for _ in range(c)]
        right = [z for (z, m), c in zip(clusters, counts) for _ in range(m - c)]
        x1_rep = from_roots(RootSet(unit=unit, zeros=left))
        x2_rep = from_roots(RootSet(unit=1.0, zeros=right))
        recon = convolve(x1_rep, x2_rep)
        if np.linalg.norm(recon - conv) > _RECONVOLVE_TOL * conv_norm:
            raise RuntimeError(
                "clustered zeros fail to reproduce the convolution within "
                f"{_RECONVOLVE_TOL:g} relative; decrease cluster_tol"
            )
        classes.append(AmbiguityClass(x1_rep=x1_rep, x2_rep=x2_rep))
    return classes


def enumerate_autocorr_ambiguities(
    x: Signal, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> list:
    """All signals sharing correlate(x, x), one per conjugate-inverse choice.

    Every zero zeta of x pairs with 1/conj(zeta) in the autocorrelation's
    zero set; picking either member of each pair and rescaling to match the
    autocorrelation norm exhausts the ambiguity family (at most 2^{N-1}
    signals).  Outputs are canonicalized to a real positive leading
    coefficient and deduplicated; the original signal appears among them up
    to global phase.
    """
    x = require_c00(as_signal(x))
    n = x.size
    if n - 1 > MAX_AUTOCORR_ZEROS:
        raise ValueError(
            f"signal has {n - 1} zeros, above the enumeration guard {MAX_AUTOCORR_ZEROS}"
        )
    acf = correlate(x, x)
    acf_norm = float(np.linalg.norm(acf))
    if n == 1:
        return [np.array([math.sqrt(acf_norm)], dtype=complex)]

    zeros = resolved_zeros(roots(x), n, "x")
    scale = max(abs(z) for z in zeros)
    threshold = cluster_tol * max(scale, 1.0)

    choice_sets = []
    for z in zeros:
        mirror = 1.0 / np.conj(z)
        if abs(z - mirror) <= threshold:
            # unit-circle zero: the reflection is itself, no choice to make
            choice_sets.append((z,))
        else:
            choice_sets.append((z, mirror))

    _check_circle_parity(choice_sets, threshold)

    outputs: list = []
    for combo in itertools.product(*choice_sets):
        y0 = from_roots(RootSet(unit=1.0, zeros=combo))
        auto0 = correlate(y0, y0)
        s = math.sqrt(acf_norm / float(np.linalg.norm(auto0)))
        y = s * y0
        if np.linalg.norm(correlate(y, y) - acf) > _RECONVOLVE_TOL * acf_norm:
            raise RuntimeError(
                "zero-swap candidate fails to reproduce the autocorrelation; "
                "decrease cluster_tol"
            )
        if not any(np.abs(y - prev).max() <= 1e-7 * np.abs(prev).max() for prev in outputs):
            outputs.append(y)
    return outputs


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

