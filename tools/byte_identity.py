"""Byte-identity check: a base revision's command-line outputs against the working tree's.

Run from the repository root, for example:

    python3 tools/byte_identity.py --base HEAD

The base revision is exported with ``git archive`` into a temporary
directory, as ``tools/bench_ab.py`` does.  Every command of ``COMMANDS``
runs as ``python -m corrlift.cli`` in both trees, each tree's ``src`` first
on ``PYTHONPATH`` and each command in a fresh empty working directory.  The
check compares stdout, stderr, exit status and the bytes of every file a
command writes there (the sweep and zeros CSVs).  It prints one line per
command and, under a command that differs, a unified diff of each stream
and file that differs, cut to its first ``DIFF_LINES`` lines.  It exits 1
if any command differs, unless the change declares that difference as
below, and 0 otherwise.

A change that means to alter some outputs declares the corrlift
subcommands whose runs it alters in a ``Byte-identity-differs: NAME, ...``
trailer of one of its commit messages, and ``--expect-from RANGE`` reads
the trailers of ``git log RANGE``.  A difference in a declared subcommand
is reported but passes; a declared subcommand none of whose runs differs
fails, so that a declaration says what the change does.

The commands are README's sweep example (all of whose options are
``corrlift sweep``'s defaults), the acceptance suite's criterion-10 sweep,
README's other command-line examples, the two whose ``--signal`` or
``--snr-db`` value starts with a minus sign among them (every revision
since 711e203 parses them), a noisy ``recover`` (which ends on the
duality-gap stop), the same ``recover`` with ``--max-iters 40`` (which ends
on the iteration cap), a ``recover`` of README's first pair at 80 dB (which
ends on the stall stop), a noisy ``--reduced`` ``recover`` (which ends on the
duality-gap stop with reduced measurements), a noiseless
``recover`` of README's shared-factor pair (a solution that is not rank-1),
a noisy ``recover`` at shape (6, 6), a ``recover`` at shape (1, 1) and -20 dB
whose fit is the zero matrix (the zero estimate), a ``recover`` whose
measurements are rejected (correlations that overflow to infinity), three
``recover``s of finite correlations whose energy ||b||^2 overflows (solved
in the power-of-four frame, two noiseless and one at 20 dB, whose noise
level is mapped back from the frame), two noiseless ``recover``s
of coprime pairs whose energies are far apart (where the spectral start
balances the certificate), two noiseless ``recover``s whose ||b|| lies
just inside and just outside the top of the window in which the solve's
frame is the identity, ``zeros`` and
``ambiguities`` rejecting a pair with a negligible end coefficient,
``zeros`` on a pair whose product's root polish would overflow (it prints
the factors' zeros and exits 0), and ``certify``, ``ambiguities`` and
``zeros`` on README's pairs and on three certify-ambiguity benchmark pairs
(seed 1: shape (8, 9) with no common zero, (7, 8) with one, (6, 6) with
two), written as ``--signal`` literals.

Uses only the standard library.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_ab import ROOT, export_revision, git

README_PAIRS = (("1,-1", "1,0,-4"), ("1,2i", "1,-1,3"), ("1,-3,2", "1,-2"))
CERTIFY_PAIRS = (
    (
        "-0.5751062411632568-0.6437988830428556j,0.17442087800673933+0.3928252779945287j,"
        "0.24867994847122823-0.12620977286904975j,0.00406964456610688+0.3182519999176983j,"
        "-0.22624809383842848-0.04947599419840819j,0.23081275435540344+0.3676463062823494j,"
        "-0.12657489002869898+0.08283243953659587j,0.12305359826235845+0.15296693862204433j",
        "0.10714083805990275+0.7855407189649265j,-0.46016516159348153+0.09767510833251952j,"
        "-0.489515460366658+0.7243732328558489j,0.07226199710785292+0.19562274063020654j,"
        "-0.455327140390236-0.5108697800460441j,-0.18986787445618022-0.4896901037953965j,"
        "0.07659628695148764+0.553545169631282j,0.1597321476470891-0.6323628741516146j,"
        "1.0392377998065734+0.5018151139680541j",
    ),
    (
        "-0.21590545007626677+0.00661394080725939j,-0.6329383705881886-0.1850414613736387j,"
        "-0.027555187847199358+0.20370765071111366j,-0.6506044045923668+0.3854231629632434j,"
        "-0.5291592876601865-0.6588063102510002j,1.083638818890851+0.3700063787764502j,"
        "0.7305977094160903+0.04863227954056375j",
        "0.27214596924900786-0.1720354433319892j,1.1250693644559642-0.5419491917021493j,"
        "0.5693187911117116-0.5293040540164582j,-0.7129739823989574+0.29158003478305755j,"
        "0.17493003497635962-0.22001996856638828j,0.08150120517823871-0.3088793638146062j,"
        "0.09012433124989644-0.8678023160095358j,-0.18402414002648948+0.25468895630307453j",
    ),
    (
        "1.1961904742168703-0.31562870361928463j,1.5241460371124353+0.10847836321714788j,"
        "-0.6019873142968447-0.20391097954108628j,1.3872925420134434+0.9453676804270071j,"
        "-0.06131822690843598+0.22100542638363976j,-0.03701659824783202+0.1811137214907464j",
        "1.5522698966366164+0.27620751497302154j,0.5569122276283357-0.8998640926834207j,"
        "-0.4579343449639695-0.13295342038705904j,-0.3516601513578125-1.5370759883587486j,"
        "0.19747821341188204-0.3057949383748524j,0.11122762169989421-0.11728934801622648j",
    ),
)

COMMANDS = [
    [
        "sweep", "--l1", "3", "--l2", "3", "--snr-db", "20,40", "--trials", "5",
        "--seed", "2024", "--max-iters", "2000", "--out", "sweep.csv",
    ],
    # README's examples; the sweep's options are all the defaults, so it is
    # also the default `corrlift sweep`
    [
        "sweep", "--l1", "3", "--l2", "3", "--snr-db", "10,20,30,40", "--trials", "50",
        "--seed", "0", "--out", "sweep.csv",
    ],
    ["zeros", "--signal", "1,-1", "--signal", "1,0,-4"],
    ["certify", "--signal", "1,2i", "--signal", "1,-1,3"],
    ["ambiguities", "--signal", "1,-3,2", "--signal", "1,-2"],
    [
        "sweep", "--l1", "2", "--l2", "2", "--snr-db", "-10,0", "--trials", "1",
        "--seed", "0", "--out", "neg.csv",
    ],
    ["certify", "--signal", "-1,2", "--signal", "1,1"],
    ["recover", "--l1", "2", "--l2", "3", "--seed", "7"],
    ["recover", "--signal", "1,2i", "--signal", "1,-1,3", "--reduced"],
    ["recover", "--l1", "3", "--l2", "3", "--snr-db", "20", "--seed", "1"],
    # README's shared-factor pair, noiseless: 6799 iterations and a solution
    # that is not rank-1; then 12 x 12 noisy projections
    ["recover", "--signal", "1,-3,2", "--signal", "1,-2"],
    ["recover", "--l1", "6", "--l2", "6", "--snr-db", "30", "--seed", "3"],
    # a noisy solve cut by its iteration cap: iters=40, stop_reason=max_iters
    [
        "recover", "--l1", "3", "--l2", "3", "--snr-db", "20", "--seed", "1",
        "--max-iters", "40",
    ],
    # README's first pair at 80 dB, where the stall stop fires before the
    # duality-gap stop; then the gap stop on reduced measurements
    ["recover", "--signal", "1,-1", "--signal", "1,0,-4", "--snr-db", "80"],
    ["recover", "--reduced", "--snr-db", "20"],
    # noise that leaves no PSD fit but the zero matrix: x1_est=0j, x2_est=0j
    ["recover", "--l1", "1", "--l2", "1", "--snr-db", "-20", "--seed", "43"],
    # measurements rejected at the boundary, exit status 2: correlations
    # that overflow to inf
    ["recover", "--signal", "1e160,1", "--signal", "1,1"],
    # finite correlations whose energy ||b||^2 overflows, solved in the
    # power-of-four frame: two exact recoveries, then the noise level of
    # such data, which scales like b
    ["recover", "--signal", "1e150,1", "--signal", "1,1"],
    ["recover", "--signal", "3e100,1,2", "--signal", "2e100,-1"],
    ["recover", "--signal", "1e150,1", "--signal", "1,1", "--snr-db", "20"],
    # coprime pairs whose energies are about 2^65 and 2^509 apart: the start
    # decomposes the balanced certificate and recovers them exactly
    ["recover", "--signal", "1e10,1", "--signal", "1,1"],
    ["recover", "--signal", "5e76,1", "--signal", "1,1"],
    # ||b|| about 0.998 and 1.002 times 2^32, the top of the window in which
    # the frame is the identity: solved in its own scale, then in the peak
    # frame
    ["recover", "--signal", "24500,49000", "--signal", "24500,-24500"],
    ["recover", "--signal", "24550,49100", "--signal", "24550,-24550"],
    # an end coefficient negligible next to the largest: the message and
    # exit status 2 of the rejection
    ["zeros", "--signal", "1,1e-300", "--signal", "1,2"],
    ["ambiguities", "--signal", "1,1e-12", "--signal", "1,1"],
    # a product whose root polish overflows: older revisions print NaN zeros
    # or reject it; the product rows are now the factors' zeros, exit 0
    [
        "zeros", "--signal",
        "1,0.3,-0.2,0.5,0.1,0.7,-0.4,0.2,0.9,-0.3,0.6,0.1,-0.8,0.4,0.3,"
        "-0.2,0.5,0.1,0.7,-0.4,0.2,0.9,-0.3,0.6,0.1,-0.8,0.4,0.3,-0.5,2e-12",
        "--signal", "1,1",
    ],
]
# `--signal=` binds a leading minus sign as a value in every revision.
for _x1, _x2 in README_PAIRS + CERTIFY_PAIRS:
    for _command in ("certify", "ambiguities", "zeros"):
        COMMANDS.append([_command, f"--signal={_x1}", f"--signal={_x2}"])
    COMMANDS.append(["zeros", f"--signal={_x1}", f"--signal={_x2}", "--out", "zeros.csv"])


SUBCOMMANDS = sorted({command[0] for command in COMMANDS})
TRAILER = "Byte-identity-differs"
DIFF_LINES = 12


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument(
        "--expect-from", metavar="RANGE",
        help=f"commits whose '{TRAILER}:' trailers name the subcommands the change alters",
    )
    args = parser.parse_args(argv)
    args.expected = declared_differences(args.expect_from) if args.expect_from else set()
    unknown = args.expected - set(SUBCOMMANDS)
    if unknown:
        parser.error(
            f"unknown subcommand(s) {', '.join(sorted(unknown))}; "
            f"expected one of {', '.join(SUBCOMMANDS)}"
        )
    return args


def declared_differences(revisions: str) -> set:
    """The subcommands named in the trailers of the commits in `revisions`."""
    values = git("log", f"--format=%(trailers:key={TRAILER},valueonly)", revisions)
    return set(values.replace(",", " ").split())


def environment(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    return env


def check_import(tree: Path) -> None:
    """Fail unless `corrlift` imports from this tree's ``src``."""
    done = subprocess.run(
        [sys.executable, "-c", "import corrlift; print(corrlift.__file__)"],
        env=environment(tree), capture_output=True, text=True, check=True,
    )
    where = Path(done.stdout.strip()).resolve()
    if (tree / "src").resolve() not in where.parents:
        raise SystemExit(f"corrlift imports from {where}, not from {tree / 'src'}")


def run(tree: Path, args, scratch: Path) -> dict:
    """One command in a fresh directory: its streams, status and written files."""
    scratch.mkdir()
    done = subprocess.run(
        [sys.executable, "-m", "corrlift.cli", *args],
        cwd=scratch, env=environment(tree), capture_output=True, timeout=600,
    )
    files = {p.name: p.read_bytes() for p in sorted(scratch.iterdir())}
    return {
        "stdout": done.stdout,
        "stderr": done.stderr,
        "exit": done.returncode,
        "files": files,
    }


def print_diff(name: str, base: bytes, change: bytes) -> None:
    """A unified diff of one stream or file, indented, cut to DIFF_LINES lines."""
    lines = list(
        difflib.unified_diff(
            base.decode(errors="replace").splitlines(),
            change.decode(errors="replace").splitlines(),
            f"base/{name}",
            f"change/{name}",
            lineterm="",
        )
    )
    for line in lines[:DIFF_LINES]:
        print(f"    {line}")
    if len(lines) > DIFF_LINES:
        print(f"    ... {len(lines) - DIFF_LINES} more diff lines")


def print_diffs(base: dict, change: dict) -> None:
    """The diffs of every stream and written file that differ between two runs."""
    if base["exit"] != change["exit"]:
        print(f"    exit: {base['exit']} -> {change['exit']}")
    for stream in ("stdout", "stderr"):
        if base[stream] != change[stream]:
            print_diff(stream, base[stream], change[stream])
    for name in sorted(base["files"].keys() | change["files"].keys()):
        old, new = base["files"].get(name), change["files"].get(name)
        if old != new:
            print_diff(name, old or b"", new or b"")


def main(argv=None) -> int:
    args = parse_args(argv)
    expected = args.expected
    base_commit = git("rev-parse", args.base)
    failing = 0
    altered = set()
    with tempfile.TemporaryDirectory(prefix="byte_identity_") as tmp:
        trees = {"base": Path(tmp) / "base", "change": ROOT}
        export_revision(base_commit, trees["base"])
        for tree in trees.values():
            check_import(tree)
        for i, command in enumerate(COMMANDS):
            out = {
                side: run(tree, command, Path(tmp) / f"{side}{i}")
                for side, tree in trees.items()
            }
            diff = [key for key in out["base"] if out["base"][key] != out["change"][key]]
            if diff:
                altered.add(command[0])
                failing += command[0] not in expected
            shown = " ".join(a if len(a) <= 40 else a[:37] + "..." for a in command)
            status = "differs in " + ", ".join(diff) if diff else "identical"
            if diff and command[0] in expected:
                status += " (declared)"
            print(f"{status} (exit {out['change']['exit']}): corrlift {shown}")
            if diff:
                print_diffs(out["base"], out["change"])
    print(
        f"{failing} of {len(COMMANDS)} commands differ from {args.base} "
        f"({base_commit[:12]}) in an undeclared subcommand"
    )
    for name in sorted(expected - altered):
        print(f"declared to differ, but every run is identical: corrlift {name}")
    return 1 if failing or expected - altered else 0


if __name__ == "__main__":
    sys.exit(main())
