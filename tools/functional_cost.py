"""Microseconds per survey density: sampling it, then its functionals and checks.

Usage:
    PYTHONPATH=src python tools/functional_cost.py N [N ...]

For each node count N a density is `sample_mixture(grid, seed)` on the Cartesian
grid and on the radial n = 3 grid of radius 12 (the grids of the benchmark's
`survey_upsilon` workload), and its functionals are, for each p in P,
`snapshot(with_dissipation=True)`, `isoperimetric_check` and
`concavity_condition_chain`, the survey's calls in its order.  The two parts are
timed apart, the functionals on the fresh field `sample_mixture` returned, so
they include the field's shared passes (max u, the positivity mask, log(u/c),
sqrt(u) and the mass, formed once for all three p) and the one pressure pass per
p that the field's memo then serves.
Each of the REPEATS = 400 densities per grid has its own seed.  The two grids
alternate, so a change in the host's speed touches them alike, and one untimed
density per grid fills the per-grid and per-(p, n) caches first, as the survey's
first density does.  The median is reported with the quartiles, under a line
that names nproc and the python and numpy versions.

The renyiflow imported is whichever PYTHONPATH finds, so pointing it at
another checkout's ``src`` times that checkout with this same method.
"""
from __future__ import annotations

import argparse
import os
import platform
import sys
import time

import numpy as np

import renyiflow as rf

P = (0.8, 1.5, 2.0)
RADIUS = 12.0
REPEATS = 400  # timed densities per grid and N


def _functionals(f: rf.DensityField, n: int) -> list:
    return [(rf.snapshot(f, p, n, with_dissipation=True), rf.isoperimetric_check(f, p, n),
             rf.concavity_condition_chain(f, p, n)) for p in P]


def functional_cost(nodes: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Quartiles of µs per `sample_mixture` and per density's functionals, by grid."""
    grids = {"cartesian": (rf.Grid.cartesian(nodes, RADIUS), 1),
             "radial3": (rf.Grid.radial(3, nodes, RADIUS), 3)}
    for grid, n in grids.values():
        _functionals(rf.sample_mixture(grid, REPEATS), n)
    samples = {kind: ([], []) for kind in grids}
    for seed in range(REPEATS):
        for kind, (grid, n) in grids.items():
            sampling, functionals = samples[kind]
            start = time.perf_counter_ns()
            f = rf.sample_mixture(grid, seed)
            mid = time.perf_counter_ns()
            _functionals(f, n)
            sampling.append(mid - start)
            functionals.append(time.perf_counter_ns() - mid)
    return {kind: tuple(np.percentile(np.array(t) / 1e3, [25.0, 50.0, 75.0]) for t in pair)
            for kind, pair in samples.items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("nodes", type=int, nargs="+", metavar="N")
    args = parser.parse_args(argv)
    if min(args.nodes) < 8:
        parser.error("N must be at least 8")
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"# nproc {nproc}, python {platform.python_version()}, "
          f"numpy {np.__version__}; renyiflow from {os.path.dirname(rf.__file__)}")
    print(f"# seeded mixtures, radius {RADIUS}, p in {P}; "
          f"median [q1, q3] of {REPEATS} densities, µs")
    print(f"{'N':>6}  {'grid':<9}  {'sample_mixture':>24}  {'functionals':>24}")
    for nodes in args.nodes:
        for kind, quartiles in functional_cost(nodes).items():
            cells = [f"{q[1]:9.1f} [{q[0]:.1f}, {q[2]:.1f}]" for q in quartiles]
            print(f"{nodes:>6}  {kind:<9}  {cells[0]:>24}  {cells[1]:>24}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
