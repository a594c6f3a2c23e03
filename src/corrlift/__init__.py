"""corrlift: recover a signal pair from auto- and cross-correlations.

The package solves a PSD-constrained least-squares program over the lifted
rank-one variable X = x x* whose linear measurements are the two
autocorrelations and the cross-correlation of the pair, and ships the
polynomial machinery around it: z-domain factorization ambiguities,
self-reciprocal divisors, and Sylvester-matrix certificates of uniqueness.

Modules
-------
linalg     dense Hermitian eigen-toolbox (eigendecomposition, projection, rank)
poly       signal/polynomial algebra: convolution, roots, GCD, GSD
ambiguity  enumeration of convolution and autocorrelation ambiguity classes
sensing    correlation sensing operators, measurements, noise
sylvester  Sylvester matrices, GCD degree, dual certificates
solver     projected-gradient solver and rank-one extraction
cli        command-line experiment harness
"""

from __future__ import annotations

__version__ = "0.1.0"

__all__ = [
    "ambiguity",
    "cli",
    "linalg",
    "poly",
    "sensing",
    "solver",
    "sylvester",
]
