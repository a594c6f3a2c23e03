"""Command-line front end: recovery sweeps, zero inspection, certification.

Subcommands
-----------
``sweep``        Monte-Carlo recovery over an SNR grid, emitting one CSV row
                 per trial.
``zeros``        Cluster and print the zeros of two signals and their
                 convolution.
``certify``      Evaluate the Gram certificate and tangent-space rank for a
                 signal pair.
``ambiguities``  Enumerate the equivalence classes consistent with the
                 correlations of a pair.
``recover``      Run a single recovery (given or generated signals) and print
                 diagnostics.

All randomness is driven by explicit seeds so every command is reproducible;
``sweep`` in particular writes byte-identical CSV files across repeat runs
with the same configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
from dataclasses import dataclass, field, fields
from typing import IO, Sequence

import numpy as np

from .ambiguity import (
    DEFAULT_CLUSTER_TOL,
    cluster_zeros,
    count_bounds,
    enumerate_convolution_ambiguities,
)
from .poly import Signal, as_signal, convolve, require_c00, roots
from .sensing import NoiseModel, add_noise, measure
from .solver import (
    MAX_ITERS,
    SolverOptions,
    SolverResult,
    aligned_mse,
    measurement_norm,
    recover,
)
from .sylvester import certificate_report, tangent_injectivity

ZEROS_FIELDS = ("which", "re", "im", "multiplicity")

_MIN_EDGE_MAG = 0.1


@dataclass
class ExperimentConfig:
    """Validated description of one Monte-Carlo sweep.

    ``snr_db_list`` entries are target reduced-SNR values in dB; ``inf`` is
    the noiseless sentinel (noise level exactly zero).  NaN and ``-inf`` are
    rejected.
    """

    l1: int
    l2: int
    snr_db_list: Sequence[float]
    trials: int
    seed: int
    reduced: bool = False
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self) -> None:
        if self.l1 < 1 or self.l2 < 1:
            raise ValueError("signal lengths must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        snrs = tuple(float(s) for s in self.snr_db_list)
        if not snrs:
            raise ValueError("snr_db_list must not be empty")
        for s in snrs:
            _check_snr(s)
        self.snr_db_list = snrs


@dataclass(kw_only=True)
class TrialRecord:
    """One row of sweep output, its fields in CSV column order.

    ``failed`` marks solver non-convergence: the metric fields of a failed
    trial are NaN and are exempt from the nonnegativity check, and its
    ``stop_reason`` reads ``diverged``.
    """

    trial: int
    l1: int
    l2: int
    rsnr_db: float
    sigma: float
    mse: float
    mse_per_dim_db: float
    iters: int
    stop_reason: str
    restarts: int
    residual: float
    rank1_gap: float
    seed: int
    failed: bool

    def __post_init__(self) -> None:
        if not self.failed and not self.mse >= 0.0:
            raise ValueError("mse must be nonnegative for a successful trial")

    def as_row(self) -> dict[str, object]:
        row: dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "failed":
                value = _fmt_bool(value)
            elif isinstance(value, float):
                value = repr(value)
            row[f.name] = value
        return row


CSV_FIELDS = tuple(f.name for f in fields(TrialRecord))


def gen_signal(length: int, rng: np.random.Generator) -> Signal:
    """Draw a complex Gaussian signal with nonvanishing endpoints.

    Components are i.i.d. CN(0, 1) (unit variance split evenly between the
    real and imaginary parts); draws are rejected until both the first and
    last entries have magnitude at least 0.1, so every sample has full
    effective degree.
    """
    if length < 1:
        raise ValueError("signal length must be at least 1")
    while True:
        x = (rng.standard_normal(length) + 1j * rng.standard_normal(length))
        x /= math.sqrt(2.0)
        if abs(x[0]) >= _MIN_EDGE_MAG and abs(x[-1]) >= _MIN_EDGE_MAG:
            return x


def _mse_per_dim_db(mse: float, n: int) -> float:
    if mse == 0.0:
        return -math.inf
    return 10.0 * math.log10(mse / n)


def _snr_gain(snr_db: float) -> float:
    """The power ratio 10^(snr_db / 10) of a finite SNR.

    Raises ValueError where the ratio overflows or underflows to zero.
    """
    try:
        gain = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        gain = math.inf
    if not 0.0 < gain < math.inf:
        raise ValueError(f"snr {snr_db!r} dB is outside the floating-point range")
    return gain


def _check_snr(snr_db: float) -> None:
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError("snr values must be finite or +inf (the noiseless sentinel)")
    if math.isfinite(snr_db):
        _snr_gain(snr_db)


def _sigma_for(snr_db: float, power: float, m_count: int) -> float:
    """Noise level realizing the target reduced SNR for given signal power."""
    if math.isinf(snr_db):
        return 0.0
    return math.sqrt(power / (m_count * _snr_gain(snr_db)))


def _trial(
    x1: Signal,
    x2: Signal,
    snr_db: float,
    noise_seed: int,
    reduced: bool,
    opts: SolverOptions,
) -> tuple[float, RuntimeError | tuple[np.ndarray, np.ndarray, SolverResult, float]]:
    """Measure the pair, add noise at `snr_db`, recover it and score the estimate.

    Returns ``(sigma, outcome)``.  ``outcome`` is ``(x1_est, x2_est, result,
    mse)``, with ``mse`` the phase-aligned error of the stacked pair, or the
    RuntimeError of a failed solve, which is data rather than a configuration
    error.  Configuration errors raise ValueError; nothing is printed here, so
    they leave no partial output.
    """
    clean = measure(x1, x2, reduced=reduced)
    stacked = clean.stacked
    # The correlations of finite signals can overflow, and so can the sum of
    # their squares: reject both before the power is used.
    if not np.all(np.isfinite(stacked)):
        raise ValueError("measurements must be finite")
    sigma = _sigma_for(snr_db, measurement_norm(stacked) ** 2, stacked.size)
    noisy = add_noise(clean, NoiseModel(sigma=sigma, seed=noise_seed))
    try:
        est1, est2, result = recover(len(x1), len(x2), noisy, opts)
    except RuntimeError as exc:
        return sigma, exc
    mse, _ = aligned_mse(
        np.concatenate([x1, x2]), np.concatenate([est1, est2])
    )
    return sigma, (est1, est2, result, mse)


def run_sweep(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Run the Monte-Carlo sweep; solver failures become flagged rows.

    Trial (i, j) of SNR point i uses an independent child stream seeded by
    ``(cfg.seed, i, j)``, so any single trial can be reproduced without
    replaying the rest of the sweep.  Rows are ordered by SNR point first,
    trial second.
    """
    records: list[TrialRecord] = []
    n = cfg.l1 + cfg.l2
    for snr_index, snr_db in enumerate(cfg.snr_db_list):
        for trial_index in range(cfg.trials):
            seq = np.random.SeedSequence([cfg.seed, snr_index, trial_index])
            rng = np.random.default_rng(seq)
            x1 = gen_signal(cfg.l1, rng)
            x2 = gen_signal(cfg.l2, rng)
            noise_seed = int(rng.integers(0, 2**63))
            sigma, outcome = _trial(x1, x2, snr_db, noise_seed, cfg.reduced, cfg.solver)
            base = {
                "trial": trial_index,
                "l1": cfg.l1,
                "l2": cfg.l2,
                "rsnr_db": snr_db,
                "sigma": sigma,
                "seed": cfg.seed,
            }
            if isinstance(outcome, RuntimeError):
                records.append(
                    TrialRecord(
                        mse=math.nan,
                        mse_per_dim_db=math.nan,
                        iters=0,
                        stop_reason="diverged",
                        restarts=0,
                        residual=math.nan,
                        rank1_gap=math.nan,
                        failed=True,
                        **base,
                    )
                )
                continue
            _, _, result, mse = outcome
            records.append(
                TrialRecord(
                    mse=mse,
                    mse_per_dim_db=_mse_per_dim_db(mse, n),
                    iters=result.iters,
                    stop_reason=result.stop_reason,
                    restarts=result.restarts,
                    residual=result.residual,
                    rank1_gap=result.rank1_gap,
                    failed=False,
                    **base,
                )
            )
    return records


def write_records(records: Sequence[TrialRecord], stream: IO[str]) -> None:
    """Write sweep rows as CSV with a fixed header and LF line endings."""
    writer = csv.DictWriter(
        stream, fieldnames=list(CSV_FIELDS), lineterminator="\n"
    )
    writer.writeheader()
    for record in records:
        writer.writerow(record.as_row())


def cmd_zeros(x1: Signal, x2: Signal) -> list[dict[str, object]]:
    """Tabulate clustered zeros of ``x1``, ``x2``, and their convolution."""
    x1 = require_c00(x1)
    x2 = require_c00(x2)
    rows: list[dict[str, object]] = []
    for which, sig in (("x1", x1), ("x2", x2), ("product", convolve(x1, x2))):
        zs = roots(sig, which)
        if not zs.size:
            continue
        threshold = DEFAULT_CLUSTER_TOL * max(abs(z) for z in zs)
        for centroid, mult in cluster_zeros(zs, threshold):
            rows.append(
                {
                    "which": which,
                    "re": repr(centroid.real),
                    "im": repr(centroid.imag),
                    "multiplicity": mult,
                }
            )
    return rows


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _fmt_complex_vec(values: np.ndarray) -> str:
    return ",".join(repr(complex(v)) for v in values)


def cmd_certify(x1: Signal, x2: Signal) -> list[str]:
    """Certificate and tangent-space diagnostics as ``key=value`` lines.

    Floats are rendered with ``repr`` and booleans as ``true``/``false`` so
    the output parses back losslessly.
    """
    x1 = as_signal(x1)
    x2 = as_signal(x2)
    report = certificate_report(x1, x2)
    rank_t, injective = tangent_injectivity(x1, x2)
    n = len(x1) + len(x2)
    return [
        f"n={n}",
        f"null_residual={report.null_residual!r}",
        f"min_eig={report.min_eig!r}",
        f"rank={report.rank}",
        f"in_range={_fmt_bool(report.in_range)}",
        f"tangent_rank={rank_t}",
        f"injective={_fmt_bool(injective)}",
        f"lambda={_fmt_complex_vec(report.lam)}",
    ]


def cmd_ambiguities(x1: Signal, x2: Signal) -> list[str]:
    """Count bounds and verified ambiguity classes as ``key=value`` lines."""
    x1 = as_signal(x1)
    x2 = as_signal(x2)
    lower, upper = count_bounds(x1, x2)
    classes = enumerate_convolution_ambiguities(x1, x2)
    lines = [
        f"lower_bound={lower}",
        f"upper_bound={upper}",
        f"classes={len(classes)}",
    ]
    for index, (x1_rep, x2_rep) in enumerate(zip(classes.x1_rep, classes.x2_rep)):
        lines.append(f"class{index}_x1={_fmt_complex_vec(x1_rep)}")
        lines.append(f"class{index}_x2={_fmt_complex_vec(x2_rep)}")
    return lines


def _parse_complex(token: str) -> complex:
    """Parse a complex literal, accepting ``i`` as the imaginary unit."""
    text = token.strip().lower().replace("i", "j")
    try:
        return complex(text)
    except ValueError:
        raise ValueError(f"cannot parse complex literal {token!r}") from None


def _parse_signal(text: str) -> Signal:
    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("signal literal must contain at least one entry")
    sig = np.array([_parse_complex(t) for t in tokens], dtype=np.complex128)
    if not np.all(np.isfinite(sig)):
        raise ValueError(f"signal entries must be finite: {text!r}")
    return sig


def _parse_snr_list(text: str) -> tuple[float, ...]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("--snr-db must contain at least one value")
    return tuple(float(t) for t in tokens)


def _solver_options(args: argparse.Namespace) -> SolverOptions:
    return SolverOptions(max_iters=args.max_iters)


def _signal_pair(args: argparse.Namespace) -> tuple[Signal, Signal]:
    if args.signal is None or len(args.signal) != 2:
        raise ValueError(
            "exactly two --signal arguments are required (x1 then x2)"
        )
    return _parse_signal(args.signal[0]), _parse_signal(args.signal[1])


def _open_out(path: str | None) -> contextlib.AbstractContextManager[IO[str]]:
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _run_sweep(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        l1=args.l1,
        l2=args.l2,
        snr_db_list=_parse_snr_list(args.snr_db),
        trials=args.trials,
        seed=args.seed,
        reduced=args.reduced,
        solver=_solver_options(args),
    )
    # Opened before the first trial, so an unwritable path fails at once.
    with _open_out(args.out) as stream:
        records = run_sweep(cfg)
        write_records(records, stream)
    if args.out is not None:
        failed = sum(r.failed for r in records)
        print(f"rows={len(records)} failed={failed} out={args.out}")
    return 0


def _run_zeros(args: argparse.Namespace) -> int:
    x1, x2 = _signal_pair(args)
    rows = cmd_zeros(x1, x2)
    with _open_out(args.out) as stream:
        writer = csv.DictWriter(
            stream, fieldnames=list(ZEROS_FIELDS), lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(rows)
    return 0


def _run_lines(args: argparse.Namespace) -> int:
    """Print the ``key=value`` lines of the ``cmd_*`` named by ``args.lines``."""
    x1, x2 = _signal_pair(args)
    for line in args.lines(x1, x2):
        print(line)
    return 0


def _run_recover(args: argparse.Namespace) -> int:
    if args.signal is not None:
        x1, x2 = _signal_pair(args)
    else:
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0, 0]))
        x1 = gen_signal(args.l1, rng)
        x2 = gen_signal(args.l2, rng)
    snr_db = math.inf
    if args.snr_db is not None:
        snrs = _parse_snr_list(args.snr_db)
        if len(snrs) != 1:
            raise ValueError("recover accepts a single --snr-db value")
        snr_db = snrs[0]
        _check_snr(snr_db)
    sigma, outcome = _trial(x1, x2, snr_db, args.seed, args.reduced, _solver_options(args))
    print(f"l1={len(x1)}")
    print(f"l2={len(x2)}")
    print(f"sigma={sigma!r}")
    if isinstance(outcome, RuntimeError):
        print("failed=true")
        print(f"reason={outcome}")
        return 0
    est1, est2, result, mse = outcome
    print("failed=false")
    print(f"mse={mse!r}")
    print(f"iters={result.iters}")
    print(f"stop_reason={result.stop_reason}")
    print(f"restarts={result.restarts}")
    print(f"residual={result.residual!r}")
    print(f"rank1_gap={result.rank1_gap!r}")
    print(f"non_unique={_fmt_bool(result.non_unique)}")
    print(f"x1_est={_fmt_complex_vec(est1)}")
    print(f"x2_est={_fmt_complex_vec(est2)}")
    print(f"margin={result.margin!r}")
    return 0


def _add_shape_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--l1", type=int, default=3, help="length of x1")
    parser.add_argument("--l2", type=int, default=3, help="length of x2")


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-iters",
        type=int,
        default=MAX_ITERS,
        help=(
            "solver iteration cap; noisy solves normally stop well below it, "
            "once the objective stalls"
        ),
    )
    parser.add_argument(
        "--reduced",
        action="store_true",
        help="drop the redundant cross-correlation from the measurements",
    )


def _add_signal_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--signal",
        action="append",
        metavar="C0,C1,...",
        help=(
            "comma-separated complex literals (either i or j suffix); "
            "pass twice, first x1 then x2"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrlift",
        description=(
            "Recover a signal pair from auto- and cross-correlations, and "
            "inspect the algebra that governs when recovery is unique."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="Monte-Carlo recovery sweep over an SNR grid (CSV out)"
    )
    _add_shape_flags(sweep)
    sweep.add_argument(
        "--snr-db",
        default="10,20,30,40",
        help="comma-separated SNR grid in dB (inf = noiseless)",
    )
    sweep.add_argument(
        "--trials", type=int, default=50, help="trials per SNR point"
    )
    sweep.add_argument("--seed", type=int, default=0, help="master seed")
    _add_solver_flags(sweep)
    sweep.add_argument("--out", default=None, help="CSV output path")
    sweep.set_defaults(handler=_run_sweep)

    zeros = sub.add_parser(
        "zeros", help="cluster and print zeros of a pair and its convolution"
    )
    _add_signal_flag(zeros)
    zeros.add_argument("--out", default=None, help="CSV output path")
    zeros.set_defaults(handler=_run_zeros)

    certify = sub.add_parser(
        "certify", help="certificate and tangent-space diagnostics for a pair"
    )
    _add_signal_flag(certify)
    certify.set_defaults(handler=_run_lines, lines=cmd_certify)

    ambiguities = sub.add_parser(
        "ambiguities", help="enumerate ambiguity classes for a pair"
    )
    _add_signal_flag(ambiguities)
    ambiguities.set_defaults(handler=_run_lines, lines=cmd_ambiguities)

    recov = sub.add_parser(
        "recover", help="run a single recovery and print diagnostics"
    )
    _add_shape_flags(recov)
    recov.add_argument(
        "--snr-db",
        default=None,
        help="single SNR value in dB (omit for noiseless)",
    )
    recov.add_argument("--seed", type=int, default=0, help="random seed")
    _add_solver_flags(recov)
    _add_signal_flag(recov)
    recov.set_defaults(handler=_run_recover)

    return parser


def _bind_signal_values(argv: Sequence[str]) -> list[str]:
    """Join each `--signal V` whose V starts with one "-" into `--signal=V`.

    argparse reads an argument such as "-1,2" (a negative first coefficient)
    as an option, not as the value of the `--signal` before it.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--signal" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"--signal={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_bind_signal_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
