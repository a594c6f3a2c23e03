"""A/B benchmark: a base revision against the working tree.

Run from the repository root, for example:

    python3 tools/bench_ab.py --base HEAD --seed 101 --out BENCH_7.json

The base revision is exported with ``git archive`` into a temporary
directory.  For every workload that ``BENCHMARK.json`` declares, the
benchmark command it names (``perfbench/run.py``) runs on both trees once
per pair, for ``PAIRS`` pairs with seeds ``--seed``, ``--seed`` + 1, ...,
and the tree that runs first alternates from pair to pair.  These untraced runs give the end-to-end
metrics.  One traced run per tree and workload (``--trace 1``, first seed)
gives the per-layer metrics.  Every run takes the run length that
``BENCHMARK.json`` sets.

The output file holds, per workload, each end-to-end metric's runs, median
and quartiles on both sides, the change's median relative to the base's, the
number of pairs the change won (ties count for neither side), whether the
worsening stays within the metric's bound, and whether a gain would meet the
claim rule (won at least nine tenths of the pairs, the medians differ by
more than the base's interquartile range, and every change run is correct
and fails no more operations than its paired base run).  It also holds
every run's correctness and failure counts and the two traced metric sets.

Uses only the standard library.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Pairs of runs per workload: the claim rule needs nine wins in ten.
PAIRS = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def git(*args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def export_revision(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The "data" filter exists from Python 3.10.12 and 3.11.4 on; the
        # archive is the repository's own, so older releases extract it as is.
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_once(tree: Path, command, workload: str, seed: int, seconds: float, trace: int):
    """One benchmark run; returns the JSON object its last output line holds."""
    cmd = [
        *command,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
    ]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    done = subprocess.run(
        cmd, cwd=tree, capture_output=True, text=True, timeout=20 * seconds + 600
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(cmd)} in {tree} exited {done.returncode}: {done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def numpy_version() -> str:
    """``numpy.__version__`` as the benchmark runs, which use this interpreter, see it."""
    done = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(spec, base_side, change_side):
    """End-to-end comparison of one metric over paired runs.

    A gain also needs every change run to be correct and to fail no more
    operations than the base run it is paired with.
    """
    higher = spec["better"] == "higher"
    base_runs = [r["metrics"][spec["name"]] for r in base_side]
    change_runs = [r["metrics"][spec["name"]] for r in change_side]
    sound = all(
        c["correct"] and c["failed"] <= b["failed"] for b, c in zip(base_side, change_side)
    )
    base, change = summary(base_runs), summary(change_runs)
    wins = sum((c > b) if higher else (c < b) for b, c in zip(base_runs, change_runs))
    ratio = change["median"] / base["median"] if base["median"] else None
    worse_by = None if ratio is None else (1.0 - ratio if higher else ratio - 1.0)
    gap = change["median"] - base["median"]
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "base": base,
        "change": change,
        "change_over_base": ratio,
        "change_wins": wins,
        "pairs": len(base_runs),
        "within_bound": worse_by is not None and worse_by <= spec["bound"],
        "gain_rule_met": sound
        and wins >= 0.9 * len(base_runs)
        and (gap if higher else -gap) > base["q3"] - base["q1"],
    }


def bench_workload(trees, command, name, metric_specs, args, seconds):
    runs = {side: [] for side in trees}
    for i in range(PAIRS):
        seed = args.seed + i
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for side in order:
            result = run_once(trees[side], command, name, seed, seconds, 0)
            runs[side].append(
                {
                    "seed": seed,
                    "ran_first": side == order[0],
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                }
            )
            print(f"{name} seed={seed} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)
    end_to_end = {
        spec["name"]: compare(spec, runs["base"], runs["change"]) for spec in metric_specs
    }
    per_layer = {}
    for side, tree in trees.items():
        traced = run_once(tree, command, name, args.seed, seconds, 1)
        per_layer[side] = {
            "correct": traced["correct"],
            "failed": traced["failed"],
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    return {"end_to_end": end_to_end, "runs": runs, "per_layer": per_layer}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])
    base_commit = git("rev-parse", args.base)
    report = {
        "base": {"rev": args.base, "commit": base_commit},
        "change": {
            "commit": git("rev-parse", "HEAD"),
            # Tracked files only: an untracked notes file changes no run.
            "uncommitted_changes": bool(
                git("status", "--porcelain", "--untracked-files=no")
            ),
        },
        "command": spec["command"],
        "seconds": seconds,
        "pairs": PAIRS,
        "first_seed": args.seed,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            # The runs' byte-identical outputs rest on NumPy's loop layout.
            "numpy": numpy_version(),
        },
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        base_tree = Path(tmp) / "base"
        export_revision(base_commit, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for name in (w["name"] for w in spec["workloads"]):
            report["workloads"][name] = bench_workload(
                trees, spec["command"], name, spec["end_to_end"], args, seconds
            )
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for name, w in report["workloads"].items():
        failed = {side: sum(r["failed"] for r in runs) for side, runs in w["runs"].items()}
        for metric, c in w["end_to_end"].items():
            print(
                f"{name} {metric}: base {c['base']['median']:.6g} "
                f"[{c['base']['q1']:.6g}, {c['base']['q3']:.6g}] -> change "
                f"{c['change']['median']:.6g} [{c['change']['q1']:.6g}, "
                f"{c['change']['q3']:.6g}]; wins {c['change_wins']}/{c['pairs']}, "
                f"within bound {c['within_bound']}, gain rule {c['gain_rule_met']}; "
                f"failed operations base {failed['base']}, change {failed['change']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
