"""Microseconds per implicit and per explicit step of the renyiflow kernel.

Usage:
    PYTHONPATH=src python tools/step_cost.py N [N ...]

For each node count N the field is the p = 2 Barenblatt at t = 1, normalized,
on the 1-D domain of radius 1.3 times its support radius at t = 3 (the domain
`renyiflow evolve --p 2 --initial barenblatt --t-end 3` sizes).  The implicit
step is BDF2 at a fixed step, the one that moves MASS_STEP = 0.2% of the
(unit) mass, MASS_STEP / ||u_t||_1 (`evolve` sizes implicit steps by their
local-error estimate instead; a fixed step keeps the timed work the same),
after one backward-Euler step and one BDF2 step of that size: every timed step
starts from those three levels, so it forms its local-error estimate too.  The
explicit step is `advance` at the CFL step (`solver.CFL_SAFETY` of the stable
step), timed together with its `cfl_dt`, and timed again on the radial n = 3
grid (`radial3`): the p = 2 Barenblatt in three dimensions at t = 1, on the
radial domain sized the same way.  Every timed step starts from a copy of one
kernel state, so all REPEATS = 400 of them do the same work.  The three kinds
of step alternate, so a change in the host's speed touches them alike; the
median is reported with the quartiles.  The solves per implicit step are
counted once, outside the timing.  The ratio is that of the medians,
implicit / explicit (Cartesian).

The renyiflow imported is whichever PYTHONPATH finds, so pointing it at
another checkout's ``src`` times that checkout with this same method, given a
`_Kernel.cfl_dt` whose safety defaults to `solver.CFL_SAFETY`.
"""
from __future__ import annotations

import argparse
import os
import platform
import sys
import time

import numpy as np

import renyiflow as rf
from renyiflow import solver

P, T_START, T_DOMAIN = 2.0, 1.0, 3.0
REPEATS = 400  # timed steps per march and N
MASS_STEP = 2e-3  # the share of the mass one timed implicit step moves


def _barenblatt_kernel(nodes: int, dim: int = 1) -> solver._Kernel:
    spec = rf.barenblatt_spec(P, dim, rf.PDE_NORMALIZED)
    radius = 1.3 * rf.support_radius(spec) * T_DOMAIN ** (1.0 / spec.coeffs.mu)
    grid = rf.Grid.cartesian(nodes, radius) if dim == 1 else rf.Grid.radial(dim, nodes, radius)
    f0 = rf.sample_barenblatt(grid, P, T_START, normalize=True)
    return solver._Kernel(f0.grid, P, f0.values)


def _implicit_stepper(nodes: int):
    """A BDF2 step that moves MASS_STEP of the mass, from one saved three-level state,
    and its solves."""
    kernel = _barenblatt_kernel(nodes)
    dt = MASS_STEP / kernel.speed()
    kernel.implicit_advance(dt, T_START)  # the backward-Euler start
    kernel.implicit_advance(dt, T_START + dt)
    levels = [kernel.u.copy(), kernel.u_prev.copy(), kernel.u_prev2.copy()]
    steps, umax = (kernel.dt_prev, kernel.dt_prev2), kernel.umax

    def restore():
        for level, saved in zip((kernel.u, kernel.u_prev, kernel.u_prev2), levels):
            np.copyto(level, saved)
        (kernel.dt_prev, kernel.dt_prev2), kernel.umax = steps, umax

    solve, solves = kernel.plan.solve, []

    def counted_solve():
        solves.append(1)
        return solve()

    kernel.plan.solve = counted_solve
    restore()
    kernel.implicit_advance(dt, T_START + 2.0 * dt)
    del kernel.plan.solve
    return restore, lambda: kernel.implicit_advance(dt, T_START + 2.0 * dt), len(solves)


def _explicit_stepper(nodes: int, dim: int = 1):
    """An explicit step at the CFL step, with its `cfl_dt`, from one saved state."""
    kernel = _barenblatt_kernel(nodes, dim)
    u, umax = kernel.u.copy(), kernel.umax

    def restore():
        np.copyto(kernel.u, u)
        kernel.umax = umax
        kernel._faces()

    return restore, lambda: kernel.advance(kernel.cfl_dt(), T_START)


def step_cost(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Quartiles of µs per implicit step, per explicit step and per radial n = 3
    explicit step, and the solves per implicit step.  The three kinds of step
    alternate, so all see the same host."""
    restore, advance, solves = _implicit_stepper(nodes)
    steppers = [(restore, advance), _explicit_stepper(nodes), _explicit_stepper(nodes, 3)]
    samples = [[], [], []]
    for _ in range(REPEATS):
        for (restore, advance), times in zip(steppers, samples):
            restore()
            start = time.perf_counter_ns()
            advance()
            times.append(time.perf_counter_ns() - start)
    implicit, explicit, radial = (np.percentile(np.array(t) / 1e3, [25.0, 50.0, 75.0])
                                  for t in samples)
    return implicit, explicit, radial, solves


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("nodes", type=int, nargs="+", metavar="N")
    args = parser.parse_args(argv)
    if min(args.nodes) < 8:
        parser.error("N must be at least 8")
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"# nproc {nproc}, python {platform.python_version()}, "
          f"numpy {np.__version__}; renyiflow from {os.path.dirname(rf.__file__)}")
    print(f"# p = {P} Barenblatt at t = {T_START}; median [q1, q3] of {REPEATS} steps, µs")
    print(f"{'N':>6}  {'implicit':>24}  {'solves':>6}  {'explicit':>24}  {'ratio':>6}  "
          f"{'radial3 explicit':>24}")
    for nodes in args.nodes:
        implicit, explicit, radial, solves = step_cost(nodes)
        cells = [f"{q[1]:9.1f} [{q[0]:.1f}, {q[2]:.1f}]" for q in (implicit, explicit, radial)]
        print(f"{nodes:>6}  {cells[0]:>24}  {solves:>6}  {cells[1]:>24}  "
              f"{implicit[1] / explicit[1]:>6.1f}  {cells[2]:>24}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
