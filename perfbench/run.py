"""Benchmark for corrlift: three workloads, output gates, per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload exact-recovery --seed 1 --seconds 30 --trace 0

One process with single-threaded BLAS runs the workload's operations one
after another (a closed loop with one client).  It repeats whole rounds of
the workload's input list while the next round is expected to fit in
``--seconds``, checks every output, and prints one JSON object as its last
line: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; ``--trace 1`` runs the same
loop with `tracing.Tracer` installed and reports per-layer metrics instead.
Raw per-operation results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Before NumPy is first imported: one BLAS thread, so the load is one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# NumPy is imported here, outside the set-up clock: it is a dependency, and
# its import time is large and unsteady.  `speed` also binds
# numpy.linalg.eigh before the tracer can wrap it.
import gates  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("exact-recovery", "noisy-sweep", "certify-ambiguity")
# setup_s is the median of this many set-ups: this process and fresh children.
SETUP_SAMPLES = 7
# The speed reference kernel runs before an operation once this much time
# has passed since its last run, and once after the last operation.
REF_EVERY_S = 0.2
# Timed runs of the speed kernel just before each set-up.
SETUP_KERNEL_RUNS = 3

# Per-layer metrics (traced run).  Every value is per operation unless its
# name says per call.
CALL_METRICS = (
    "linalg.herm_eig",
    "linalg.eigh",
    "sensing.forward_stacked",
    "sensing.adjoint",
    "poly.roots",
    "poly.from_roots",
)
MS_METRICS = (
    "solver.extract_rank1",
    "sensing.build_sensing",
    "ambiguity.cluster_zeros",
    "ambiguity.enumerate_convolution_ambiguities",
    "ambiguity.enumerate_autocorr_ambiguities",
    "sylvester.certificate_report",
    "sylvester.tangent_injectivity",
    "sylvester.gcd_degree",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="print one set-up time in seconds and exit"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def set_up(name: str, seed: int):
    """Import corrlift and build the inputs.

    Returns (workload, inputs, seconds, seconds at reference speed).  The
    seconds run from before corrlift is imported to just before the first
    timed operation; the speed kernel is timed just before them.
    """
    speed.kernel()  # warm-up
    kernel_runs = [speed.timed_kernel() for _ in range(SETUP_KERNEL_RUNS)]
    started = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports corrlift

    workload = workloads.WORKLOADS[name]
    inputs = workload.build(seed)
    seconds = perf_counter() - started
    return workload, inputs, seconds, seconds * speed.to_reference(kernel_runs)


def child_set_up_seconds(args) -> list:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def run_rounds(workload, inputs, seconds, tracer=None):
    """Run whole rounds of `inputs` while the next one is expected to fit.

    Returns the latencies of the operations that completed with the index
    of each one's input, the durations of the speed kernel runs between
    them, the messages of the operations that raised, the gate errors, the
    round count and, when traced, one span table per operation.
    """
    latencies, input_of, refs, failures, gate_errors, op_tables = [], [], [], [], [], []
    rounds = 0
    started = perf_counter()
    last_ref = started - REF_EVERY_S
    while True:
        round_started = perf_counter()
        kept_inputs, values = [], []
        for index, inp in enumerate(inputs):
            if perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(speed.timed_kernel())
                last_ref = perf_counter()
            t = perf_counter()
            try:
                out = workload.run(inp)
            except (RuntimeError, ValueError, ArithmeticError) as exc:
                out = exc
            elapsed = perf_counter() - t
            if tracer is not None:
                op_tables.append(tracer.fold())
            if isinstance(out, Exception):
                failures.append(repr(out))
                continue
            latencies.append(elapsed)
            input_of.append(index)
            try:
                values.append(workload.check(inp, out))
                kept_inputs.append(inp)
            except gates.GateError as exc:
                gate_errors.append(str(exc))
        try:
            workload.check_round(kept_inputs, values)
        except gates.GateError as exc:
            gate_errors.append(str(exc))
        rounds += 1
        now = perf_counter()
        if now - started + (now - round_started) > seconds:
            refs.append(speed.timed_kernel())
            return latencies, input_of, refs, failures, gate_errors, rounds, op_tables


def median_op_ms(latencies, input_of) -> float:
    """Median over the input list of each input's median latency, in ms.

    Operations of one workload differ in cost by orders of magnitude, so
    the plain median of all latencies can fall in a gap between two inputs
    and jump with the noise of single operations; taking each input's
    median over the rounds first removes that noise.
    """
    per_input: dict = {}
    for index, t in zip(input_of, latencies):
        per_input.setdefault(index, []).append(t)
    return 1e3 * statistics.median(statistics.median(v) for v in per_input.values())


def tail_ms(latencies):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(latencies)
    if n < 40:
        return None
    pct = 100 * (n - 10) // n
    ordered = sorted(latencies)
    return {"percentile": pct, "ms": 1e3 * ordered[-(-pct * n // 100) - 1]}


def layer_metrics(tracer, ops: int, op_p50_ms: float) -> dict:
    totals = tracer.totals

    def row(name):
        return totals.get(name, [0, 0.0, 0.0, 0])

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    put("solver.iters_per_op", row("solver.solve")[3] / ops, "count")
    put("solver.solve.self_ms", 1e3 * row("solver.solve")[2] / ops, "ms")
    for name in CALL_METRICS:
        calls, inclusive = row(name)[:2]
        put(f"{name}.calls", calls / ops, "count")
        put(f"{name}.us_per_call", 1e6 * inclusive / calls if calls else 0.0, "us")
    put("sensing.build_sensing.calls", row("sensing.build_sensing")[0] / ops, "count")
    for name in MS_METRICS:
        put(f"{name}.ms", 1e3 * row(name)[1] / ops, "ms")
    put(
        "ambiguity.classes_per_op",
        row("ambiguity.enumerate_convolution_ambiguities")[3] / ops,
        "count",
    )
    autocorr = "ambiguity.enumerate_autocorr_ambiguities"
    tried = tracer.edges.get((autocorr, "poly.from_roots"), 0)
    put("ambiguity.autocorr_kept_ratio", row(autocorr)[3] / tried if tried else 0.0, "ratio")
    put("trace.norm_op_p50_ms", op_p50_ms, "ms")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "corrlift" / "__init__.py").is_file():
        print(f"error: no corrlift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload, inputs, setup_s, setup_ref_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps([setup_s, setup_ref_s]))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        latencies, input_of, refs, failures, gate_errors, rounds, op_tables = run_rounds(
            workload, inputs, args.seconds, tracer
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(inputs) * rounds
    if not latencies:
        print("error: no operation completed", *failures[:5], sep="\n", file=sys.stderr)
        return 1

    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "ops_per_round": len(inputs),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "gate_errors": gate_errors[:20],
        "latencies_s": latencies,
    }
    if args.trace:
        metrics = layer_metrics(
            tracer, len(latencies), median_op_ms(latencies, input_of) * speed.to_reference(refs)
        )
        raw["span_totals"] = tracer.totals
        raw["span_edges"] = [[p, c, n] for (p, c), n in sorted(tracer.edges.items())]
    else:
        setup_samples = [[setup_s, setup_ref_s]]
        setup_samples += [child_set_up_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        ops_per_s = len(latencies) / sum(latencies)
        p50_ms = median_op_ms(latencies, input_of)
        to_ref = speed.to_reference(refs)
        metrics = {
            "norm_ops_per_s": {"value": ops_per_s / to_ref, "unit": "1/s"},
            "setup_s": {"value": statistics.median(r for _, r in setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        raw["ops_per_s"] = ops_per_s
        raw["op_p50_ms"] = p50_ms
        raw["norm_op_p50_ms"] = p50_ms * to_ref
        raw["setup_s"] = statistics.median(m for m, _ in setup_samples)
        raw["kernel_runs_s"] = refs
        raw["setup_samples_s"] = setup_samples
        raw["op_tail"] = tail_ms(latencies)
    raw["metrics"] = metrics

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(raw, indent=1) + "\n")
    if args.trace:
        with stem.with_suffix(".spans.jsonl").open("w") as f:
            for i, table in enumerate(op_tables):
                f.write(json.dumps({"op": i, "spans": table}) + "\n")

    for message in failures[:5] + gate_errors[:5]:
        print(message, file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {attempted} attempted, {len(failures)} failed, "
        f"{rounds} round(s) of {len(inputs)}"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not gate_errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
