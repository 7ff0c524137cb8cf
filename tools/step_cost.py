"""Microseconds per implicit and per explicit step of the renyiflow kernel, and per row
of a grouped implicit step.

Usage:
    PYTHONPATH=src python tools/step_cost.py N [N ...]

For each node count N the field is the p = 2 Barenblatt at t = 1, normalized,
on the 1-D domain of radius 1.3 times its support radius at t = 3 (the domain
`renyiflow evolve --p 2 --initial barenblatt --t-end 3` sizes).  The implicit
step is BDF2 at a fixed step, the one that moves MASS_STEP = 0.2% of the
(unit) mass, MASS_STEP / ||u_t||_1 (`evolve` sizes implicit steps by their
local-error estimate instead; a fixed step keeps the timed work the same),
after one backward-Euler step and one BDF2 step of that size: every timed step
starts from those three levels, so it forms its local-error estimate too.  It
is timed twice: drift-free, as `evolve` steps in x, and with the drift of the
self-similar frame (`drift`), as `evolve` steps the Barenblatt, whose y-grid
at t = 1 is the same grid (the same step, now in tau = log t; the field stands
still there, so the drift column is the step's cost, not its work on a moving
front).  It is timed again for kernels of GROUPS = 3 and 6 blocks of that field laid
end to end, as `sweep` marches the rows of one p together, and reported per row of the
grouped step (the B = 1 row is the implicit column).  The explicit step is the public `solver.step` with no dt, so each call
clips the field, forms its CFL step (`solver.CFL_SAFETY` of the stable step)
and takes it; it is timed again on the radial n = 3 grid (`radial3`): the
p = 2 Barenblatt in three dimensions at t = 1, on the radial domain sized the
same way.  Every timed implicit step starts from a copy of one kernel state,
and every explicit one from the same `SolverState`, so all REPEATS = 400 of
them do the same work.
The kinds of step alternate, so a change in the host's speed touches them
alike; the median is reported with the quartiles.  The solves per implicit
step are counted once, outside the timing.  The ratios are those of the
medians: implicit / explicit (Cartesian), and drift / implicit, the drift's
share of a step's cost.

The renyiflow imported is whichever PYTHONPATH finds, so pointing it at
another checkout's ``src`` times that checkout with this same method, given a
`_Kernel` that takes its blocks' grids, data and drifts as sequences.
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
GROUPS = (3, 6)  # blocks of the grouped implicit steps
MASS_STEP = 2e-3  # the share of the mass one timed implicit step moves


def _barenblatt(nodes: int, dim: int = 1) -> rf.DensityField:
    spec = rf.barenblatt_spec(P, dim, rf.PDE_NORMALIZED)
    radius = 1.3 * rf.support_radius(spec) * T_DOMAIN ** (1.0 / spec.coeffs.mu)
    grid = rf.Grid.cartesian(nodes, radius) if dim == 1 else rf.Grid.radial(dim, nodes, radius)
    return rf.sample_barenblatt(grid, P, T_START, normalize=True)


def _barenblatt_kernel(nodes: int, drift: float = 0.0, blocks: int = 1) -> solver._Kernel:
    f0 = _barenblatt(nodes)
    return solver._Kernel([f0.grid] * blocks, P, [f0.values] * blocks, [drift] * blocks)


def _implicit_stepper(nodes: int, drift: float = 0.0, blocks: int = 1):
    """A BDF2 step that moves MASS_STEP of the mass in x, from one saved three-level
    state, and its solves; with the drift, that step in the self-similar frame; with
    blocks, that step of each of as many copies of the field, grouped."""
    dt = MASS_STEP / float(_barenblatt_kernel(nodes).speed()[0])
    kernel = _barenblatt_kernel(nodes, drift=drift, blocks=blocks)
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
    """`solver.step` at its CFL step, from one state (the call leaves it unchanged)."""
    f0 = _barenblatt(nodes, dim)
    state = solver.SolverState(t=T_START, grid=f0.grid, values=f0.values)
    params = rf.DiffusionParams(p=P, dim=dim, t_start=T_START, t_end=T_DOMAIN)
    return lambda: None, lambda: solver.step(state, params)


def step_cost(nodes: int) -> tuple[np.ndarray, ...]:
    """Quartiles of µs per implicit step, per explicit step, per radial n = 3 explicit
    step and per implicit step with the drift, the solves per implicit step without
    and with it, and the quartiles of µs per row of each grouped step (GROUPS).  The
    kinds of step alternate, so all see the same host."""
    restore, advance, solves = _implicit_stepper(nodes)
    *drifting, drift_solves = _implicit_stepper(nodes, 1.0 / rf.coefficients(P, 1).mu)
    steppers = [(restore, advance), _explicit_stepper(nodes), _explicit_stepper(nodes, 3),
                drifting] + [_implicit_stepper(nodes, blocks=b)[:2] for b in GROUPS]
    samples = [[] for _ in steppers]
    for _ in range(REPEATS):
        for (restore, advance), times in zip(steppers, samples):
            restore()
            start = time.perf_counter_ns()
            advance()
            times.append(time.perf_counter_ns() - start)
    rows = [1, 1, 1, 1, *GROUPS]  # a grouped step's time is per row
    implicit, explicit, radial, drift, *grouped = (
        np.percentile(np.array(t) / (1e3 * b), [25.0, 50.0, 75.0]) for t, b in zip(samples, rows))
    return implicit, explicit, radial, drift, solves, drift_solves, *grouped


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
          f"{'radial3 explicit':>24}  {'drift':>24}  {'solves':>6}  {'ratio':>6}"
          + "".join(f"  {f'B = {b}, per row':>24}" for b in GROUPS))
    for nodes in args.nodes:
        implicit, explicit, radial, drift, solves, drift_solves, *grouped = step_cost(nodes)
        cells = [f"{q[1]:9.1f} [{q[0]:.1f}, {q[2]:.1f}]"
                 for q in (implicit, explicit, radial, drift, *grouped)]
        print(f"{nodes:>6}  {cells[0]:>24}  {solves:>6}  {cells[1]:>24}  "
              f"{implicit[1] / explicit[1]:>6.1f}  {cells[2]:>24}  {cells[3]:>24}  "
              f"{drift_solves:>6}  {drift[1] / implicit[1]:>6.2f}"
              + "".join(f"  {cell:>24}" for cell in cells[4:]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
