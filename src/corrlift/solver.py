"""Accelerated projected-gradient solver for the lifted correlation fit.

Minimizes ``f(X) = ||A(X) - b||^2`` over the cone of positive-semidefinite
Hermitian matrices, where ``A`` is the stacked correlation measurement map
and ``b`` the observed correlations.  The minimizer is the lifted outer
product ``x x*`` exactly when the planted pair has coprime z-transforms, so
the top eigenpair of the solution yields the signal estimate up to a global
phase.

The solve starts at the spectral estimate of the dual certificate: the
certificate W = S^H S is a linear function of the correlations
(`sylvester.certificate_multipliers`), annihilates the stacked pair, and
for a coprime pair has exactly span(x) as its null space.  Its bottom
eigenvector, scaled to the energy a11[l1-1] + a22[l2-1] = ||x||^2, is the
pair itself (up to phase) on noiseless coprime data, so the iteration only
refines it under noise or a shared factor.

Each iteration projects onto the PSD cone with `linalg.psd_project`, which
takes a Hermitian matrix as is.  The adjoint returns m + m^H, real-scalar
combinations keep that symmetry exactly, and the projection's output is
exactly Hermitian, so only the first step's input, built from the spectral
start c v v* (Hermitian up to rounding), is symmetrized.  `extract_rank1`
reads the estimate from one `eigh`, pinning the top column's phase by
`linalg.herm_eig`'s rule; the solver keeps no eigen routine of its own.

Every solve ends for a stated reason (`SolverResult.stop_reason`): the
relative residual reaches REL_TOL ("converged", as noiseless data do), the
objective falls by no more than STALL_RTOL of itself over STALL_WINDOW
iterations ("stalled", as noisy data do, whose least-squares fit keeps a
positive residual), or the `max_iters` cap is spent ("max_iters").  The
adaptive restart of O'Donoghue & Candes (FoCM 2015) makes the accepted
objectives fall geometrically, so a short look-back (20 iterations) with a
proportionally tight tolerance (1e-10) sees a stall soon after it sets in.

`SolverResult` is the one record of a solve's diagnostics: `recover` returns
the result `solve` built, and the command line's output and sweep CSV read
their diagnostics from it.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .linalg import _pin_phase, herm_eig, hermitian_part, psd_project
from .poly import Signal, as_signal
from .sensing import Measurements, SensingSet, adjoint, build_sensing, forward_stacked
from .sylvester import _pow2_scale, certificate_multipliers

# A solution whose second eigenvalue exceeds this fraction of the first is
# not meaningfully rank-1; recovery then reflects a non-unique program.
NONUNIQUE_GAP_TOL = 1e-6

# Relative spectral-gap threshold below which the top eigenvector of the
# solution matrix is treated as degenerate (tie between eigenvalues).
RANK1_TIE_TOL = 1e-12

# Fraction of the exact step 1/L taken each iteration.
STEP_SAFETY = 0.95

# The default iteration cap of `solve` (`SolverOptions.max_iters`).
MAX_ITERS = 20000

# Convergence stop: the solve ends once the relative residual
# ||A(X) - b|| / ||b|| is at most REL_TOL.
REL_TOL = 1e-10

# Stall stop: the solve ends once the accepted objective has fallen by no
# more than STALL_RTOL of its current value over the last STALL_WINDOW
# iterations.  The rule is relative, so it is invariant under scaling b.
# The look-back is short, so a stall ends the solve within STALL_WINDOW
# iterations of setting in; the tolerance is tight in proportion, 5e-12 of
# the objective per iteration.
STALL_WINDOW = 20
STALL_RTOL = 1e-10

# The largest norm whose square is a finite float.
_MAX_NORM = math.sqrt(sys.float_info.max)


@dataclass
class SolverOptions:
    """The iteration cap of `solve`; its stop tolerances are module constants."""

    max_iters: int = MAX_ITERS

    def __post_init__(self) -> None:
        if self.max_iters <= 0:
            raise ValueError("max_iters must be positive")


@dataclass
class SolverResult:
    """The one record of a solve: solution matrix and its diagnostics.

    `residual` is ||A(X) - b|| / ||b||; `rank1_gap` is the ratio of the
    second to the first eigenvalue of the solution matrix (0 for the zero
    matrix), small exactly when the solution is numerically rank-1.
    `margin` is the identifiability margin lam2(W) / lam_max(W) of the
    data-only certificate W: about 0 when the pair shares a factor.
    `stop_reason` is "converged", "stalled" or "max_iters" (see the module
    docstring); `restarts` counts the momentum restarts.
    """

    x_mat: np.ndarray
    iters: int
    residual: float
    rank1_gap: float
    margin: float
    stop_reason: str
    restarts: int

    @property
    def non_unique(self) -> bool:
        """Whether `rank1_gap` exceeds NONUNIQUE_GAP_TOL (a shared factor or heavy noise)."""
        return self.rank1_gap > NONUNIQUE_GAP_TOL


def measurement_norm(b_vec: np.ndarray) -> float:
    """||b_vec|| as `np.linalg.norm` computes it; ValueError when ||b_vec||^2 overflows.

    The objective and the sweep's noise level are computed from the energy
    ||b||^2, so finite data whose energy is not a finite float are rejected
    here, before NumPy warns about the overflow.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(b_vec))
    if not norm <= _MAX_NORM:
        raise ValueError("measurement energy ||b||^2 overflows the floating-point range")
    return norm


def _spectral_start(s: SensingSet, b: Measurements) -> tuple[np.ndarray, float]:
    """The start c v v* and the identifiability margin lam2(W) / lam_max(W).

    W = adjoint(certificate_multipliers(b)) is the dual certificate built
    from the data, v its eigenvector for the smallest eigenvalue and
    c = a11[l1-1] + a22[l2-1] (clipped at 0) the energy ||x||^2.
    """
    w, v = np.linalg.eigh(adjoint(s, certificate_multipliers(b)))
    margin = float(w[1] / w[-1]) if w[-1] > 0.0 else 0.0
    energy = max(float(b.a11[s.l1 - 1].real + b.a22[s.l2 - 1].real), 0.0)
    return energy * np.outer(v[:, 0], v[:, 0].conj()), margin


def solve(b: Measurements, opts: SolverOptions | None = None) -> SolverResult:
    """Minimize ||A(X) - b||^2 over PSD X by momentum projected gradient.

    A is the (cached) sensing set of b's segment lengths.  Starts from the
    spectral estimate of `_spectral_start` and takes the step STEP_SAFETY / L
    with L = 2 max(l1, l2).  Momentum restarts whenever the objective would
    increase (the restart redoes the step without momentum from the last
    accepted iterate, so accepted objectives are non-increasing whenever the
    step bound holds).  Terminates once the relative measurement residual
    drops below REL_TOL (1e-10) ("converged"), once the objective has fallen
    by at most STALL_RTOL (1e-10) of itself over the last STALL_WINDOW (20)
    iterations ("stalled"), or after `max_iters` iterations ("max_iters").
    Ten consecutive objective increases after restarts raise RuntimeError
    with the recent objective trace.
    """
    opts = SolverOptions() if opts is None else opts
    s = build_sensing(b.l1, b.l2)
    b_vec = b.stacked
    m_count = b_vec.size
    if not np.all(np.isfinite(b_vec)):
        raise ValueError("measurements must be finite")
    n = s.n
    norm_b = measurement_norm(b_vec)
    if norm_b == 0.0:
        return SolverResult(
            x_mat=np.zeros((n, n), dtype=complex),
            iters=0,
            residual=0.0,
            rank1_gap=0.0,
            margin=0.0,
            stop_reason="converged",
            restarts=0,
        )

    lam = np.zeros(4 * n - 4, dtype=complex)

    def objective(v: np.ndarray) -> float:
        # float(np.linalg.norm(v - b_vec) ** 2), the same arithmetic without
        # the wrapper.
        r = v - b_vec
        return math.sqrt(r.real.dot(r.real) + r.imag.dot(r.imag)) ** 2

    def gradient(v: np.ndarray) -> np.ndarray:
        # nabla ||A(X) - b||^2 = adjoint(conj(A(X) - b)); adjoint output is
        # Hermitian by construction, no symmetrization error to remove.
        lam[:m_count] = np.conj(v - b_vec)
        return adjoint(s, lam)

    # The gradient's exact Lipschitz constant: the bands tile X, and the
    # largest gain, 2 max(l1, l2), is on the longest band (the main diagonal
    # of the larger autocorrelation block).
    step = STEP_SAFETY / (2.0 * max(s.l1, s.l2))

    x, margin = _spectral_start(s, b)
    v_x = forward_stacked(s, x)[:m_count]
    x_prev, v_prev = x, v_x
    obj_prev = objective(v_x)
    t = 1.0
    beta = 0.0
    bad_streak = 0
    restarts = 0
    # The last STALL_WINDOW + 1 accepted objectives, oldest first.
    recent: deque = deque(maxlen=STALL_WINDOW + 1)
    iters_done = opts.max_iters
    stop_reason = "max_iters"

    for k in range(1, opts.max_iters + 1):
        # A is linear, so the forward image of the momentum point is the
        # same combination of the stored images (saves one transform).
        v_y = v_x + beta * (v_x - v_prev)
        y = x + beta * (x - x_prev)
        a = y - step * gradient(v_y)
        # Only the first input carries the start's rounding asymmetry; at
        # k = 2 beta is still 0, so it never reaches a later one.
        x_new = psd_project(hermitian_part(a) if k == 1 else a)
        v_new = forward_stacked(s, x_new)[:m_count]
        obj = objective(v_new)

        if obj > obj_prev:
            # Adaptive restart: drop momentum and redo as a plain projected
            # gradient step from the last accepted iterate.  A step taken
            # with beta = 0 already is that plain step: it is not redone.
            t = 1.0
            if beta > 0.0:
                restarts += 1
                x_new = psd_project(x - step * gradient(v_x))
                v_new = forward_stacked(s, x_new)[:m_count]
                obj = objective(v_new)
        if obj > obj_prev:
            bad_streak += 1
            if bad_streak >= 10:
                raise RuntimeError(
                    "solver diverged: objective rose on 10 consecutive "
                    f"post-restart iterations; recent objectives {list(recent)[-12:]}"
                )
        else:
            bad_streak = 0

        x_prev, v_prev = x, v_x
        x, v_x = x_new, v_new
        obj_prev = obj
        recent.append(obj)

        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        t = t_next

        if math.sqrt(obj) <= REL_TOL * norm_b:
            iters_done, stop_reason = k, "converged"
            break
        if len(recent) > STALL_WINDOW and recent[0] - obj <= STALL_RTOL * obj:
            iters_done, stop_reason = k, "stalled"
            break

    eigenvalues = np.linalg.eigvalsh(x)
    lam1 = float(eigenvalues[-1])
    lam2 = float(eigenvalues[-2])
    gap = 0.0 if lam1 <= 0.0 else max(lam2, 0.0) / lam1
    residual = float(np.linalg.norm(v_x - b_vec)) / norm_b
    return SolverResult(
        x_mat=x,
        iters=iters_done,
        residual=residual,
        rank1_gap=gap,
        margin=margin,
        stop_reason=stop_reason,
        restarts=restarts,
    )


def extract_rank1(x_mat: np.ndarray) -> np.ndarray:
    """Best rank-1 signal estimate sqrt(lam1) * v1 from a solution matrix.

    v1 is one `eigh`'s top column with `herm_eig`'s phase rule, bit for bit
    `herm_eig`'s top column (an exactly tied top eigenvalue calls `herm_eig`).
    A nonpositive top eigenvalue yields the zero signal (with a warning when
    the matrix itself is nonzero); a relative spectral tie at the top means
    the estimate is not unique, which is also warned about while the
    deterministic first eigenvector is returned.
    """
    x_mat = np.asarray(x_mat, dtype=complex)
    w, v = np.linalg.eigh(hermitian_part(x_mat))
    lam1 = float(w[-1])
    if lam1 <= 0.0:
        if np.any(x_mat != 0):
            warnings.warn(
                "top eigenvalue is nonpositive; returning the zero signal",
                RuntimeWarning,
                stacklevel=2,
            )
        return np.zeros(x_mat.shape[0], dtype=complex)
    lam2 = float(w[-2])
    if lam1 - lam2 <= RANK1_TIE_TOL * lam1:
        warnings.warn(
            "top eigenvalue is numerically degenerate; rank-1 estimate is "
            "not unique",
            RuntimeWarning,
            stacklevel=2,
        )
    top = herm_eig(x_mat).eigenvectors[:, -1] if lam1 == lam2 else _pin_phase(v[:, -1:])[:, 0]
    return math.sqrt(lam1) * top


def aligned_mse(x_true: Signal, x_est: Signal) -> tuple[float, float]:
    """Phase-aligned normalized squared error and the aligning phase.

    Returns ``(min_phi ||x - e^{i phi} x_est||^2 / ||x||^2, phi)`` in closed
    form; ``e^{i phi} x_est`` is the estimate rotated onto the truth.  Both
    signals are first scaled by the power of two that brings the reference's
    largest magnitude to unit order.  That is exact and leaves the ratio and
    the phase unchanged, but a tiny reference's squared norm no longer
    underflows to zero.
    """
    xt = as_signal(x_true)
    xe = as_signal(x_est)
    if xt.size != xe.size:
        raise ValueError("signals must have equal length")
    scale = _pow2_scale(xt)
    xt = xt * scale
    xe = xe * scale
    nt = float(np.linalg.norm(xt) ** 2)
    if nt == 0.0:
        raise ValueError("reference signal must be nonzero")
    ne = float(np.linalg.norm(xe) ** 2)
    inner = complex(np.vdot(xe, xt))
    mse = max(nt + ne - 2.0 * abs(inner), 0.0) / nt
    return mse, float(np.angle(inner))


def recover(
    x1_len: int,
    x2_len: int,
    b: Measurements,
    opts: SolverOptions | None = None,
) -> tuple[np.ndarray, np.ndarray, SolverResult]:
    """Recover the signal pair from correlations: solve, extract, split.

    The stacked rank-1 estimate is split at `x1_len`; the third item is the
    `SolverResult` of the solve, whose `non_unique` flags a solution that is
    not numerically rank-1.
    """
    if b.l1 != x1_len or b.l2 != x2_len:
        raise ValueError("measurements are inconsistent with the stated lengths")
    result = solve(b, opts)
    x_est = extract_rank1(result.x_mat)
    return x_est[:x1_len], x_est[x1_len:], result
