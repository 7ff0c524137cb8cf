"""SHA-256 digests of the CLI artifacts of a fixed set of renyiflow runs.

Usage:
    PYTHONPATH=src python tools/artifact_digests.py OUTDIR

Run under ``python -W error::UserWarning -W error::RuntimeWarning``, it fails on a
BoundaryLeakWarning (a wall that held mass on a default-sized config) or a
floating-point warning, as the tier-1 test does.

Runs eleven configurations, each into OUTDIR/LABEL, and prints one line
``LABEL/RELATIVE-PATH SHA256`` per file written, sorted.  The ``exp-*``
directory the CLI names after its config hash is left out of the path, so
two trees whose configs differ (say, in a default radius) still list the
same keys: run it once per checkout, on one machine, and ``diff`` the two
listings.  Each run's exit code and ``exp-*`` name go to stderr, as
``LABEL: exit N, exp-*``.

The run facts, which do not depend on the hardware, go to OUTDIR/facts.txt,
outside the digested trees, under a header that names the numpy and python
versions: for each config its exit code and ``exp-*`` name (a ``verify``
name hashes every digit of the series it reads, so it holds where those
do), the steps and rejections its ``run_meta.json`` records, and each
verdict's pass flag and margin to 4 significant figures, sweep rows
included.  The listing is committed as ``tests/data/run_facts.txt``, which a
tier-1 test (``test_run_facts_ledger``) compares with a fresh one line by line,
naming the first line that differs and both numpy versions; a change that moves
a fact updates that file.

The renyiflow imported is whichever PYTHONPATH finds, so pointing it at
another checkout's ``src`` digests that checkout with this same config set.
Digests can differ across numpy versions, so compare trees on one machine.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from renyiflow import cli

BARENBLATT_VERIFY = ["--initial", "barenblatt", "--t-start", "1",
                     "--verify", "concavity,upsilon,debruijn", "--tol-upsilon", "1e-4"]
ALL_CHECKS = "concavity,upsilon,debruijn,dissipation,isoperimetric"

# label -> CLI arguments; "{label}" names the snapshots.csv of an earlier run
CONFIGS = {
    "evolve_pme": ["evolve", "--p", "2.0", "--dim", "1", "--nodes", "2048",
                   "--t-end", "3.0", "--snapshots", "33"] + BARENBLATT_VERIFY,
    "evolve_fd": ["evolve", "--p", "0.8", "--dim", "3", "--nodes", "768",
                  "--t-end", "1.25", "--snapshots", "17"] + BARENBLATT_VERIFY,
    "sweep": ["sweep", "--p", "0.8,1.0,1.5,2.0", "--dim", "1,3", "--seeds", "3",
              "--nodes", "512", "--workers", "1"],
    # a p = 2 Barenblatt that stands still in the self-similar frame: one implicit step
    # per interval (the label is kept from when its march turned implicit partway)
    "switch_pme_768": ["evolve", "--p", "2", "--dim", "1", "--nodes", "768",
                       "--initial", "barenblatt", "--t-start", "1", "--t-end", "3",
                       "--snapshots", "9"],
    "mixture_p1.5": ["evolve", "--p", "1.5", "--dim", "1", "--nodes", "512",
                     "--initial", "mixture", "--verify", ALL_CHECKS],
    "mixture_p0.8": ["evolve", "--p", "0.8", "--dim", "1", "--nodes", "512",
                     "--initial", "mixture", "--verify", "concavity,upsilon"],
    # its implicit solves reduce systems of odd size: 777, 389 and 195 rows, then 98 and 49
    "mixture_p0.8_777": ["evolve", "--p", "0.8", "--dim", "1", "--nodes", "777",
                         "--initial", "mixture", "--verify", "concavity,upsilon"],
    "gaussian_p1": ["evolve", "--p", "1", "--dim", "1", "--nodes", "512",
                    "--initial", "gaussian", "--verify", "concavity,upsilon,debruijn"],
    # the radial p = 1 march outside the sweep: the heat kernel, still in the self-similar frame
    "heat_radial3": ["evolve", "--p", "1", "--dim", "3", "--nodes", "512",
                     "--initial", "gaussian", "--verify", "concavity,upsilon"],
    "verify_evolve_fd": ["verify", "--snapshots-csv", "{evolve_fd}", "--p", "0.8",
                         "--dim", "3", "--checks", "concavity,upsilon"],
    "verify_mixture_p1.5": ["verify", "--snapshots-csv", "{mixture_p1.5}", "--p", "1.5",
                            "--dim", "1", "--checks", "concavity,upsilon,debruijn"],
}


def run_all(outdir: Path) -> tuple[dict[str, int], dict[str, Path]]:
    """Run every config into outdir/LABEL; returns each run's exit code and exp-* directory."""
    codes, exps = {}, {}
    for label, argv in CONFIGS.items():
        argv = [str(exps[a[1:-1]] / "snapshots.csv") if a.startswith("{") else a
                for a in argv]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            codes[label] = cli.main(argv + ["--out", str(outdir / label)])
        (exps[label],) = (outdir / label).glob("exp-*")
        print(f"{label}: exit {codes[label]}, {exps[label].name}", file=sys.stderr)
    return codes, exps


def facts(codes: dict[str, int], exps: dict[str, Path]) -> list[str]:
    """The run facts, one per line, in config order."""
    lines = []
    for label, exp in exps.items():
        lines.append(f"{label} exit {codes[label]} {exp.name}")
        if (exp / "run_meta.json").is_file():
            meta = json.loads((exp / "run_meta.json").read_text())
            lines.append(f"{label} steps {meta['steps']} rejections {meta['rejections']}")
        for verdicts in sorted(exp.rglob("verdicts.txt")):
            row = verdicts.parent.relative_to(exp).as_posix()  # "." but in a sweep
            run = label if row == "." else f"{label}/{row}"
            for line in verdicts.read_text().splitlines():
                # check=NAME pass=FLAG margin=FLOAT tolerance=... detail=...
                check, passed, margin = (f.split("=", 1)[1] for f in line.split(" ", 3)[:3])
                lines.append(f"{run} {check} pass {passed} margin {float(margin):.3e}")
    return lines


def digests(exps: dict[str, Path]) -> list[str]:
    lines = []
    for label, exp in exps.items():
        for path in exp.rglob("*"):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{label}/{path.relative_to(exp).as_posix()} {digest}")
    return sorted(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/artifact_digests.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    if outdir.exists() and any(outdir.iterdir()):
        print(f"{outdir} is not empty; digests need fresh run directories", file=sys.stderr)
        return 2
    print(f"renyiflow from {Path(cli.__file__).parent}", file=sys.stderr)
    codes, exps = run_all(outdir)
    print("\n".join(digests(exps)))
    header = f"# run facts; numpy {np.__version__}, python {platform.python_version()}"
    (outdir / "facts.txt").write_text("\n".join([header, *facts(codes, exps)]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
