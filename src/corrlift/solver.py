"""Accelerated projected-gradient solver for the lifted correlation fit.

Minimizes ``f(X) = ||A(X) - b||^2`` over the cone of positive-semidefinite
Hermitian matrices, where ``A`` is the stacked correlation measurement map
and ``b`` the observed correlations.  The minimizer is the lifted outer
product ``x x*`` exactly when the planted pair has coprime z-transforms, so
the top eigenpair of the solution yields the signal estimate up to a global
phase.

The solve runs in a power-of-four frame of b (`measurement_frame`).  Where
||b|| lies in _FRAME_WINDOW, [2^-32, 2^32], the frame is the identity: b is
solved in its own scale.  Elsewhere it is b times 4^-q, q = floor(p / 2)
clamped to [-511, 511] for the largest real or imaginary magnitude m 2^p of
b, which brings that magnitude into [0.5, 2) (short of the clamp).  There
the energy ||b||^2 is finite and the matrices stay inside the norm range in
which LAPACK's eigensolvers do not rescale (LAPACK Users' Guide, 1999,
section 4.1), so finite data are never rejected; on return X is mapped back
by 4^q and the estimate x by 2^q.  Scaling by a power of two is exact
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, section 2),
so b and 4^k b are solved in the same bits, in either frame.  Only rounding
noise far below eps ||X|| (entries of X some 1e-80 of its largest, the last
bits of `rank1_gap` or `gap`) depends on the absolute scale inside LAPACK,
on pairs whose energies lie some 1e80 apart.  The window is no wider so that
such pairs keep the bits of the scaled frame: at [2^-200, 2^200], 25 of
3000 such solves moved.

The solve starts at the spectral estimate of the dual certificate: the
certificate W = S^H S is a linear function of the correlations
(`sylvester.certificate_multipliers`), annihilates the stacked pair, and
for a coprime pair has exactly span(x) as its null space.  Its bottom
eigenvector, scaled to the energy a11[l1-1] + a22[l2-1] = ||x||^2, is the
pair itself (up to phase) on noiseless coprime data, so the iteration only
refines it under noise or a shared factor.  When ||x1||^2 and ||x2||^2 lie
more than BALANCE_RATIO apart, the start decomposes W balanced by powers of
two instead (`_spectral_start`), so that rounding does not bury the null
vector.

Each iteration projects onto the PSD cone with `linalg.psd_project`, which
takes a Hermitian matrix as is.  The adjoint returns m + m^H, real-scalar
combinations keep that symmetry exactly, and the projection's output is
exactly Hermitian, so only the first step's input, built from the spectral
start c v v* (Hermitian up to rounding), is symmetrized.  The projection
also returns the eigenpairs it computed, and `solve` reads the estimate
`SolverResult.x_est` and `rank1_gap` from those of the last accepted
iterate.  The read-out rule: with lam1 the top (clipped, so nonnegative)
eigenvalue, `x_est` is sqrt(lam1) times the top eigenvector, whose phase
`linalg._pin_phase` fixes (its largest-magnitude entry real and positive),
and the zero signal when lam1 is 0 (then X is 0).  The estimate is unique
exactly when the solution is rank one; `SolverResult.non_unique` (the
rank-1 gap above NONUNIQUE_GAP_TOL) is the one report that it is not, as
for a pair with a shared zero.  So a noiseless coprime solve runs two
decompositions (the spectral start and one projection), a noisy one 1 +
iters + restarts, and none follows the loop.  Every decomposition here runs
through `linalg._eigh`; the solver keeps no eigen routine of its own.  The
duality-gap check below adds one eigenvalue-only `linalg._eigvalsh` each.

Every solve ends for a stated reason (`SolverResult.stop_reason`), tested
after each accepted iterate k in this order:

- "diverged": the last 10 accepted objectives each rose above the one
  before it, restart and all.
- "converged": the relative residual ||A(X) - b|| / ||b|| is at most
  REL_TOL, as on noiseless data.
- "gap": k is a multiple of GAP_EVERY and the relative duality gap of X is
  at most GAP_RTOL, as on noisy data.  The dual of the fit is
  max g(mu) = -||mu||^2 - 2 Re<mu, b> subject to adjoint(conj mu) PSD, and
  every feasible mu bounds the optimum from below, g(mu) <= f* <= f(X)
  (Boyd & Vandenberghe, Convex Optimization, 2004, section 5.5).  From the
  residual r = A(X) - b the check builds mu = r + t e, where e is 1/2 at the
  centre lags a11[l1-1] and a22[l2-1], so that adjoint(conj e) = I, and
  t = max(0, -lam_min(adjoint(conj r))) makes mu feasible: one `adjoint` and
  one `_eigvalsh`.  Expanding f(X) - g(mu) gives
  2 Re<r, A(X)> + t tr X + t^2 / 2, which is computed as written: the
  difference f - g loses its digits when ||r|| is small next to ||b||.  The
  rule stops at gap <= GAP_RTOL f(X), certified and invariant under scaling
  b, and cannot fire on a rising objective.
- "stalled": k > STALL_WINDOW and the objective has fallen by no more than
  STALL_RTOL of its current value since iterate k - STALL_WINDOW.  It is the
  backstop where the gap certifies late or never: above about 60 dB the
  objective flattens long before the gap falls to GAP_RTOL f(X) (at 80 and
  120 dB it fires first), and on noiseless data with a shared factor f* is
  0, so no gap is small next to it.  The rule is relative, so it is
  invariant under scaling b.  The adaptive restart of O'Donoghue &
  Candes (FoCM 2015) makes the accepted objectives fall geometrically, so a
  short look-back (20 iterations) with a proportionally tight tolerance
  (1e-10, 5e-12 of the objective per iteration) sees a stall soon after it
  sets in.
- "max_iters": the `max_iters` cap is spent.

`SolverResult` is the one record of a solve's diagnostics, and whatever the
stop it describes the last accepted iterate: `recover` returns the result
`solve` built, and the command line's output and sweep CSV read their
diagnostics from it.  Its `gap` is the relative gap of that iterate: a
"gap" stop reports its own check, the "stalled", "max_iters" and
"diverged" stops run one more check at the stop, and "converged" reports
NaN, its residual being the certificate.  A noiseless coprime solve
converges at iteration 1, so it runs no check.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .linalg import _eigh, _eigvalsh, _pin_phase, hermitian_part, psd_project
from .poly import Signal, as_signal
from .sensing import Measurements, SensingSet, adjoint, build_sensing, forward_stacked
from .sylvester import _multiplier_gather, _pow2_scale

# A solution whose second eigenvalue exceeds this fraction of the first is
# not meaningfully rank-1; recovery then reflects a non-unique program.
NONUNIQUE_GAP_TOL = 1e-6

# Fraction of the exact step 1/L taken each iteration.
STEP_SAFETY = 0.95

# The default iteration cap of `solve` (`SolverOptions.max_iters`).
MAX_ITERS = 20000

# The convergence, duality-gap and stall stops; the module docstring states
# the rules.
REL_TOL = 1e-10
GAP_EVERY = 10
GAP_RTOL = 1e-4
STALL_WINDOW = 20
STALL_RTOL = 1e-10

# The ratio of the two signals' energies past which `_spectral_start`
# balances the certificate.  Wrong starts begin near 2**36; the default sweep
# and the benchmark inputs stay below 2**5.
BALANCE_RATIO = 2.0**20

# The norms ||b|| at which `measurement_frame` is the identity; the module
# docstring says why the window is no wider.
_FRAME_WINDOW = (2.0**-32, 2.0**32)

# The zero that pads the data for `_certificate_gather`.
_PAD = np.zeros(1, dtype=complex)


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

    `x_est` is the stacked rank-1 estimate of the solution matrix, read
    from the last projection's eigenpairs by the rule of the module
    docstring.  `residual` is ||A(X) - b|| / ||b||;
    `rank1_gap` is the ratio of the second to the first eigenvalue of the
    solution matrix (0 for the zero matrix), small exactly when the
    solution is numerically rank-1.  `non_unique` reads the gap, and is the
    one report that the estimate is not unique; the solve raises no warning.
    `margin` is the identifiability margin lam2(W) / lam_max(W) of the
    data-only certificate W, balanced as `_spectral_start` says when the
    two energies lie more than BALANCE_RATIO apart: about 0 when the pair
    shares a factor.
    `stop_reason` is "diverged", "converged", "gap", "stalled" or
    "max_iters", the stop rules in the order the module docstring tests
    them; `restarts` counts the momentum restarts.  `gap` is the relative
    duality gap (f(X) - g(mu)) / f(X) of the solution matrix, NaN for a
    "converged" solve (see the module docstring).

    `x_mat` and `x_est` are in the scale of the data; every other field is
    read in the solve's power-of-four frame, the identity where ||b|| lies
    in _FRAME_WINDOW, so it keeps its bits when b is scaled by a power of
    four (up to the rounding noise the module docstring names).
    """

    x_mat: np.ndarray
    x_est: np.ndarray
    iters: int
    residual: float
    rank1_gap: float
    margin: float
    stop_reason: str
    restarts: int
    gap: float

    @property
    def non_unique(self) -> bool:
        """Whether `rank1_gap` exceeds NONUNIQUE_GAP_TOL (a shared factor or heavy noise)."""
        return self.rank1_gap > NONUNIQUE_GAP_TOL


def measurement_frame(b_vec: np.ndarray) -> tuple[float, np.ndarray, float]:
    """The power-of-four frame of b_vec and its norm there; the one check of b.

    Returns ``(scale, scale * b_vec, ||scale * b_vec||)`` for the frame of
    the module docstring: scale 1.0 and b_vec itself, no copy, where
    ||b_vec||, taken by `math.hypot` (which neither overflows nor warns),
    lies in _FRAME_WINDOW, and 4^-q elsewhere.  There the largest scaled
    magnitude lies in [0.5, 2) short of the clamp and below 4 at it, so the
    energy is finite, and 4^q and 2^q, which map a solution back, are
    finite and normal too.  ``norm / scale`` is ||b_vec|| bit for bit as
    `np.linalg.norm` computes it wherever that is finite: the norm is
    sqrt(re.re + im.im), from the two dots `np.linalg.norm` takes.  Raises
    ValueError("measurements must be finite") for a NaN or infinite entry;
    finite data are never rejected.
    """
    parts = b_vec.view(np.float64)  # re and im interleaved
    if _FRAME_WINDOW[0] <= math.hypot(*parts.tolist()) <= _FRAME_WINDOW[1]:
        scale, scaled = 1.0, b_vec
    else:
        peak = float(np.abs(parts).max())
        if not math.isfinite(peak):
            raise ValueError("measurements must be finite")
        scale = math.ldexp(1.0, -2 * min(max(math.frexp(peak)[1] // 2, -511), 511))
        scaled = scale * b_vec
    re, im = scaled.real, scaled.imag
    return scale, scaled, math.sqrt(re.dot(re) + im.dot(im))


@functools.lru_cache(maxsize=32)
def _certificate_gather(l1: int, l2: int) -> tuple[np.ndarray, np.ndarray]:
    # `certificate_multipliers`' gather and signs composed with the band
    # label: W = m + m^H for m = sign * padded[index], padded the data
    # stacked as (a11, a22, a12, a21, 0).  Read-only, as its parts are.
    index, sign = _multiplier_gather(l1, l2)
    label = build_sensing(l1, l2).label.reshape(l1 + l2, l1 + l2)
    index, sign = index[label], sign[label]
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


def _spectral_start(
    s: SensingSet, b: Measurements, scale: float, b_vec: np.ndarray
) -> tuple[np.ndarray, float]:
    """The start c v v* in the frame `scale` and the margin lam2(W) / lam_max(W).

    W = adjoint(scale * certificate_multipliers(b)) is the dual certificate
    of the data in `solve`'s frame (`measurement_frame`), whose stacked
    vector is b_vec = scale * b.stacked; v is W's eigenvector for the
    smallest eigenvalue and c = e1 + e2 (clipped at 0) the energy ||x||^2,
    from the scaled centre lags e1 = scale a11[l1-1] and
    e2 = scale a22[l2-1], the frame's ||x1||^2 and ||x2||^2.  W = m + m^H is
    built in one gather: a per-shape table (`_certificate_gather`) gives
    each entry of m its multiplier's datum and sign, and m is the sign times
    that datum of b_vec padded with one zero (reduced b_vec holds no a21, so
    reduced data are padded from the segments).  The signs +-1/2 and the
    scale are powers of two, so this is adjoint's W bit for bit.

    When e1 and e2 are positive and e1 / e2 lies outside
    [1 / BALANCE_RATIO, BALANCE_RATIO], W's spectrum is dominated by the
    larger signal and its null vector is lost in rounding.  The start then
    decomposes the balanced certificate E W E instead, with
    E = diag(beta I_l1, alpha I_l2) and alpha, beta the powers of two
    nearest 1 / sqrt(e1) and 1 / sqrt(e2), 2^-floor(p / 2) for e = m 2^p
    with m in [0.5, 1) (Parlett & Reinsch, Numer. Math. 1969): the
    certificate of the pair (alpha x1, beta x2), whose energies lie in
    [0.5, 2).  E holds powers of two, so E W E is exact, and the same
    matrix for x1 and 2^u x1.  The margin is read from E W E.  Its bottom
    eigenvector is that pair up to phase and norm, so it is mapped back by
    diag(I_l1 / alpha, I_l2 / beta) and c is the balanced energy
    alpha^2 e1 + beta^2 e2: no norm is taken, so nothing overflows.
    """
    if b.reduced:  # b_vec holds no a21
        padded = np.concatenate((b.a11, b.a22, b.a12, b.a21, _PAD))
        if scale != 1.0:
            padded = scale * padded
    else:
        padded = np.concatenate((b_vec, _PAD))
    index, sign = _certificate_gather(s.l1, s.l2)
    m = sign * padded[index]
    w_mat = m + m.conj().T
    e1, e2 = scale * float(b.a11[s.l1 - 1].real), scale * float(b.a22[s.l2 - 1].real)
    energy = max(e1 + e2, 0.0)
    unscale = None
    if e1 > 0.0 and e2 > 0.0 and not 1.0 / BALANCE_RATIO <= e1 / e2 <= BALANCE_RATIO:
        alpha, beta = (math.ldexp(1.0, -(math.frexp(e)[1] // 2)) for e in (e1, e2))
        balance = np.repeat([beta, alpha], [s.l1, s.l2])
        with np.errstate(over="ignore", invalid="ignore"):
            w_bal = w_mat * (balance[:, None] * balance)
            # A pair's correlations keep every entry below 2 (Cauchy-Schwarz),
            # and noise far below BALANCE_RATIO; data that take an entry past
            # it are no pair's, and keep W.
            bounded = np.abs(w_bal).max() <= BALANCE_RATIO
        if bounded:
            w_mat, energy = w_bal, alpha * alpha * e1 + beta * beta * e2
            unscale = np.repeat([1.0 / alpha, 1.0 / beta], [s.l1, s.l2])
    w, v = _eigh(w_mat)
    margin = float(w[1] / w[-1]) if w[-1] > 0.0 else 0.0
    v0 = v[:, 0] if unscale is None else unscale * v[:, 0]
    return energy * (v0[:, None] * v0.conj()), margin


def solve(b: Measurements, opts: SolverOptions | None = None) -> SolverResult:
    """Minimize ||A(X) - b||^2 over PSD X by momentum projected gradient.

    A is the (cached) sensing set of b's segment lengths.  Starts from the
    spectral estimate of `_spectral_start` and takes the step STEP_SAFETY / L
    with L = 2 max(l1, l2).  Momentum restarts whenever the objective would
    increase: the restart takes the same projected-gradient step again,
    without momentum, from the last accepted iterate, so accepted objectives
    are non-increasing whenever the step bound holds.  Stops by the rules of
    the module docstring.
    """
    opts = SolverOptions() if opts is None else opts
    s = build_sensing(b.l1, b.l2)
    scale, b_vec, norm_b = measurement_frame(b.stacked)
    m_count = b_vec.size
    n = s.n
    if norm_b == 0.0:
        return SolverResult(
            x_mat=np.zeros((n, n), dtype=complex),
            x_est=np.zeros(n, dtype=complex),
            iters=0,
            residual=0.0,
            rank1_gap=0.0,
            margin=0.0,
            stop_reason="converged",
            restarts=0,
            gap=math.nan,
        )

    lam = np.zeros(4 * n - 4, dtype=complex)

    def misfit(v: np.ndarray) -> float:
        # float(np.linalg.norm(v - b_vec)), the same arithmetic without the
        # wrapper; the objective is its square.
        r = v - b_vec
        return math.sqrt(r.real.dot(r.real) + r.imag.dot(r.imag))

    def gradient(r: np.ndarray) -> np.ndarray:
        # nabla ||A(X) - b||^2 = adjoint(conj(r)) at the residual r = A(X) - b;
        # adjoint output is Hermitian by construction, no symmetrization
        # error to remove.
        lam[:m_count] = np.conj(r)
        return adjoint(s, lam)

    # The gradient's exact Lipschitz constant: the bands tile X, and the
    # largest gain, 2 max(l1, l2), is on the longest band (the main diagonal
    # of the larger autocorrelation block).
    step = STEP_SAFETY / (2.0 * max(s.l1, s.l2))

    def projected_step(y: np.ndarray, ay: np.ndarray) -> tuple:
        # The projected-gradient step from y, whose image is ay: the new
        # iterate, its clipped eigenpairs, its image and its misfit.  Only
        # the first input carries the start's rounding asymmetry: a restart
        # needs beta > 0, and beta is still 0 at k = 2.
        a = y - step * gradient(ay - b_vec)
        x_new, w, u = psd_project(hermitian_part(a) if k == 1 else a)
        ax_new = forward_stacked(s, x_new)[:m_count]
        return x_new, w, u, ax_new, misfit(ax_new)

    def relative_gap(ax: np.ndarray, obj: float) -> float:
        # (f(X) - g(mu)) / f(X) at the dual point mu = r + t e of the module
        # docstring, in its cancellation-free form.
        r = ax - b_vec
        shift = max(0.0, -float(_eigvalsh(gradient(r))[0]))  # t
        trace = float(ax[s.l1 - 1].real + ax[2 * s.l1 + s.l2 - 2].real)  # a11 + a22 centres
        fit = float(r.real.dot(ax.real) + r.imag.dot(ax.imag))  # Re<r, A(X)>
        return (2.0 * fit + shift * trace + 0.5 * shift * shift) / obj

    # The iterate x travels with its image ax, the part of A(x) that b
    # measures.  A is linear, so the momentum point's image is the same
    # combination of the stored images (one transform fewer per step).
    x, margin = _spectral_start(s, b, scale, b_vec)
    ax = forward_stacked(s, x)[:m_count]
    x_prev, ax_prev = x, ax
    t = 1.0
    beta = 0.0
    bad_streak = 0
    restarts = 0
    # The last STALL_WINDOW + 1 objectives of the start and the accepted
    # iterates, oldest first.  Every objective is dist * dist, which is
    # correctly rounded and so scales exactly with b; dist**2 calls libm's
    # pow, which misrounds about one square in 1100 and not alike in every
    # frame.
    dist = misfit(ax)
    recent = deque([dist * dist], maxlen=STALL_WINDOW + 1)

    for k in range(1, opts.max_iters + 1):
        # beta is 0 at k = 1 and after a restart, where the momentum point is x.
        if beta > 0.0:
            y, ay = x + beta * (x - x_prev), ax + beta * (ax - ax_prev)
        else:
            y, ay = x, ax
        x_new, w_new, u_new, ax_new, dist = projected_step(y, ay)
        obj = dist * dist

        if obj > recent[-1]:
            # Adaptive restart: drop momentum and redo as a plain projected
            # gradient step from the last accepted iterate.  A step taken
            # with beta = 0 already is that plain step: it is not redone.
            t = 1.0
            if beta > 0.0:
                restarts += 1
                x_new, w_new, u_new, ax_new, dist = projected_step(x, ax)
                obj = dist * dist
        bad_streak = bad_streak + 1 if obj > recent[-1] else 0

        x_prev, ax_prev = x, ax
        x, ax = x_new, ax_new
        recent.append(obj)

        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        t = t_next

        if bad_streak == 10:
            stop_reason = "diverged"
            break
        if math.sqrt(obj) <= REL_TOL * norm_b:
            stop_reason = "converged"
            break
        if k % GAP_EVERY == 0:
            gap = relative_gap(ax, obj)
            if gap <= GAP_RTOL:
                stop_reason = "gap"
                break
        if k > STALL_WINDOW and recent[0] - obj <= STALL_RTOL * obj:
            stop_reason = "stalled"
            break
    else:
        stop_reason = "max_iters"

    if stop_reason == "converged":
        gap = math.nan
    elif stop_reason != "gap":
        gap = relative_gap(ax, obj)
    # The loop ran at least once and ends on x = x_new: w_new and u_new are
    # its clipped (nonnegative) eigenvalues and eigenvectors, dist its misfit.
    lam1 = float(w_new[-1])
    if lam1 > 0.0:
        x_est = math.sqrt(lam1) * _pin_phase(u_new[:, -1])
        rank1_gap = float(w_new[-2]) / lam1
    else:
        x_est, rank1_gap = np.zeros(n, dtype=complex), 0.0
    # Back from the frame: X scales like b, by 4^q, and x by 2^q, both finite
    # and exact.
    if scale != 1.0:
        unscale = 1.0 / scale
        x, x_est = unscale * x, math.sqrt(unscale) * x_est
    return SolverResult(
        x_mat=x,
        x_est=x_est,
        iters=k,
        residual=dist / norm_b,
        rank1_gap=rank1_gap,
        margin=margin,
        stop_reason=stop_reason,
        restarts=restarts,
        gap=gap,
    )


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
    """Recover the signal pair from correlations: solve, then split.

    The solve's stacked rank-1 estimate `x_est` is split at `x1_len`; the
    third item is the `SolverResult` of the solve, whose `non_unique` flags
    a solution that is not numerically rank-1.
    """
    if b.l1 != x1_len or b.l2 != x2_len:
        raise ValueError("measurements are inconsistent with the stated lengths")
    result = solve(b, opts)
    return result.x_est[:x1_len], result.x_est[x1_len:], result
