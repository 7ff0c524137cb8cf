"""Conservative finite-volume solver for u_t = Lap(u^p).

The update is written in flux form on v = u^p with one operator L, read from the grid
as data: (L v)_i is the net flux c (v_R - v_L) into cell i through its faces, of
conductance c = area / h.  Interior fluxes telescope, so the discrete mass changes
only through the (closed, zero-flux) boundary.  The explicit step u + dt L(v) / w
(`step`, `cfl_dt`) keeps nonnegativity: each update is a convex combination of
neighbor values while dt D c_i <= w_i at every node (D the stiffness, c_i node i's
summed conductances, w the weights): for dt up to 1 / (D max_i c_i / w_i), which is
h^2 / (2 D) on Cartesian grids and h^2 / (2^(n-1) D), set by node 0, on radial ones
of n >= 2.  That step is far below the one the flow's rate of change allows (for
p < 1 the diffusivity p u^{p-1} peaks in the far tail), so `evolve` takes linearly
implicit BDF2 steps, for every p and from t_start on.  Each implicit step estimates
its own local error and sizes the next from it, so a slowing flow takes longer steps.
Their tridiagonal systems are solved by odd-even cyclic reduction, on buffers and
views prepared once per run.  The degenerate p > 1 front is handled as in Vazquez,
*The Porous Medium Equation* (2007), ch. 5 and 9.

The implicit march runs in the self-similar frame of Carrillo and Toscani (Indiana
Univ. Math. J. 49, 2000) where that frame carries most of the motion:
v(tau, y) = R^n u(t, R y) with R = t^{1/mu} and tau = log t solves
v_tau = Lap(v^p) + div(y v) / mu, and the Barenblatt stands still.  Both frames take
one implicit step; in y its drift adds c m dphi to each face flux, phi = |y|^2 / (2 mu)
and m the secant mobility, so the flux is c m d(xi) with xi = e'(v) + phi (the
gradient-flow form of Carrillo, Chertock and Huang, Commun. Comput. Phys. 17, 2015)
and the sampled Barenblatt, on which xi is constant, is a discrete steady state; a
face whose upwind cell is empty is closed.

Runs of one p, frame and node count march together (`_march`, which `sweep` calls
for the rows of each p; `evolve` is its run of one): their grids are laid end to end
as the blocks of one kernel, in flat buffers of B N entries, with a closed face, a
seam, between each block and the next, whose flux and couplings are assigned +0.0.
Each elementwise pass is then each block's pass, the reductions are taken per block
and the block's scalars broadcast over its row, so each run is bitwise its march
alone.  The cyclic reduction runs on the flat system while each block keeps an even
number of rows at every level above its bottom of SEQUENTIAL_SIZE rows or fewer, so
that the blocks' odd and even rows are the flat system's; a node count without that
property (1000 -> 500 -> 250 -> 125) marches each run alone.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .analytic import coefficients
from .errors import BoundaryLeakWarning, DegenerateError, DomainError, InsufficientData, StabilityError
from .functionals import FunctionalSnapshot, _pressure, rescale, rescale_snapshot, snapshot
from .grids import RADIAL, DensityField, Grid
from .verification import TOL_CONCAVITY

MAX_REJECTIONS = 40
NEGATIVITY_SLACK = 1e-14  # relative to max(u): tolerated roundoff undershoot
DOMAIN_TOL = 1e-6  # mass a domain may leave past its wall (the sizing) or hold at it (the edge)
EDGE_CELLS = 64  # the edge mass is read in the last node_count // EDGE_CELLS cells
# An implicit step relinearizes while it misplaces more than this fraction of the mass it
# moves (4096-node p = 2 Barenblatt, L1 off Newton's steps: 2.0e-6 at 1e-2, 4.8e-7 at 1e-3).
LINEARIZATION_TOL = 1e-3
# An x-frame implicit step's local-error estimate, in mass, is at most this fraction of
# the most mass the flow can move over the snapshot interval it starts in: the interval
# times the starting rate ||u_t||_1 (the rate never grows: the flow is an L1
# contraction), and at most the mass.  The concavity check takes second differences of
# N_p in units of its largest change per interval, so closer snapshots get more
# accurate steps.  The starting rate is the check's unit: N_p is concave, so its
# largest slope is its first.  (Runs in y take TOL_CONCAVITY in N_p's units instead;
# there the fitted Barenblatt datum stands still, and the 2048-node p = 2 run, t 1..3
# with 33 snapshots, and the 768-node p = 0.8, n = 3 run, t 1..1.25 with 17, take 6
# steps and 6 solves each: two that land on the first two snapshots, then steps that
# double and pass the rest.)
LOCAL_ERROR_TOL = 4e-5
# The explicit (CFL) step's share of the stable step; the explicit step alone reads it.
CFL_SAFETY = 0.9
# An implicit step is at most this many CFL steps (`_stable_dt` at safety 1, read once
# for each snapshot interval a step starts in).  Its flux form carries the rounding of
# v = u^p into u' times dt over that step: about 2 eps per CFL step, relative to max(u),
# on the flat state of three geometries (1.7e6 CFL steps: 4.3e-10).  Near the flat state
# the local-error estimate vanishes, and that rounding is all the error there is: the
# 256-node flat p = 0.8, n = 3 state ended uneven by 5.8e-9 after steps of 1.7e7 CFL
# steps.
MAX_CFL_STEPS = 1e6
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)
SEQUENTIAL_SIZE = 64  # tridiagonal systems this small are solved row by row
# The march runs in the self-similar frame when the flow there moves less than this
# fraction of the mass it moves in x per unit of log t, ||v_tau||_1 < SELF_SIMILAR_RATE
# t ||u_t||_1: where the dilation carries nearly all of the motion, so that the march takes
# few enough steps to pay for the drift (a drift step costs about 1.3 drift-free ones,
# tools/step_cost.py).  The ratio is read at t_start on the x-grid, where ||v_tau||_1 is
# t times the speed of the flow with the drift 1 / (mu t).  The fitted Barenblatt reads
# 1e-11 (p = 2) and 3e-13 (p = 0.8, n = 3); the sweep's mixtures 0.34-0.99 (one p = 1,
# n = 3 row, 0.072, goes to y), and at p >= 1.5, n = 3, 2.9-54; compact two-bump data
# 0.90-0.96 (its waiting fronts retreat in y, cell by cell), and criterion 5's mixtures at
# p = 2 and 1.5, n = 3, 40 and 5.2 (the drift drains their thin tails at the wall).
SELF_SIMILAR_RATE = 0.1


@dataclass(frozen=True)
class DiffusionParams:
    """Run parameters; the boundary is a closed, zero-flux wall.  The snapshot times,
    given or snapshot_count evenly spaced, must strictly increase (not t 1, 1, 1 + 2 eps)."""

    p: float
    dim: int
    t_start: float
    t_end: float
    snapshot_count: int = 9
    snapshot_times: tuple[float, ...] | None = None

    def __post_init__(self):
        coefficients(self.p, self.dim)  # validates p > 1 - 2/dim
        if not math.isfinite(self.t_end):
            raise DomainError("t_end must be finite")
        if not (self.t_end > self.t_start >= 0.0):
            raise DomainError("need t_end > t_start >= 0")
        if self.snapshot_times is None and self.snapshot_count < 2:
            raise DomainError("need at least 2 snapshots")
        ts = self.times()
        if ts.size < 2 or np.any(np.diff(ts) <= 0.0):
            raise DomainError(f"snapshot times must be strictly increasing; {ts.size} "
                              f"in [{self.t_start!r}, {self.t_end!r}] are not")
        if not (math.isclose(ts[0], self.t_start) and math.isclose(ts[-1], self.t_end)):
            raise DomainError("snapshot times must span [t_start, t_end]")

    def times(self) -> np.ndarray:
        if self.snapshot_times is not None:
            return np.asarray(self.snapshot_times, dtype=float)
        return np.linspace(self.t_start, self.t_end, self.snapshot_count)


@dataclass
class SolverState:
    t: float
    grid: Grid
    values: np.ndarray
    step_count: int = 0
    rejection_count: int = 0


class _Kernel:
    """The implicit march on one p for B blocks, each a datum on a grid of N nodes, laid
    end to end in flat buffers of B N entries; `evolve`'s march of one datum is B = 1.

    A block's grid is read only as its weights w and `Grid.conductances`, and every flux
    is conductance * dv.  Between two blocks lies a seam, a closed face like a wall:
    its conductance, flux and couplings are assigned +0.0, never formed as 0 * dv, so
    the flat system is block diagonal and each block's arithmetic is its own.  Every
    elementwise pass gives an entry the bits of that pass over its block alone; each
    reduction (max, min, sums) is taken per block, over the block's row of a (B, N)
    view (`_per_block`), and each w @ u over the block's slices; and a block's scalars
    (dt, theta, omega, floor, umax, error_tol, dt_next) are lists of Python floats, one
    per block, with the arithmetic of the march of one datum (the controller's cube
    root is libm's), made (B, 1) columns to broadcast over the rows (`_column`; for one
    block the number itself, and the rows the flat arrays, as that march has them).
    So each block steps bitwise as it would alone.  Face arrays hold N entries per
    block, its N - 1 faces and then the closed face to its right (a seam, or the wall),
    so that (B, N) views of them broadcast too (`face_rows`); their flat views leave
    out the last.  `origins` holds each block's index when the kernel was made, and
    `keep` drops the blocks that finished or failed, laying the rest end to end again
    in the same buffers and plan.  A kernel of one block reads its grid's weights and
    couplings in place (`_flat`): `keep` never runs on it.

    `implicit_advance` is the BDF2 step of every block: it keeps the last three u and
    two steps as its history and proposes each block's next step, `dt_next`;
    `interpolant` reads a block's u inside its last step from that history, in
    `level`.  Its `_ReductionPlan` and buffers (`work`, about 8 B N doubles, and `ring`,
    the four u levels as rows) are made on its first call, so the frame's probe, which
    reads only `speed`, never pays for them.  u is clipped to u >= 0 on entry
    (`_clipped`) and after each step, whose acceptance test's max(u) is the next umax;
    v, dv, du and div are scratch.  Each out= pass keeps the operands and operation
    order of the plain array expressions.

    Both frames take the one step.  The frame is fixed here and nowhere else: it sets
    the floor of g (`_floor`) and which drift terms exist.  With drifts c > 0 (one per
    block) the kernel steps v_tau = Lap(v^p) + c div(y v) on the y-grids: every face
    flux gains c m dphi (`_drift_faces`, `pull` = c dphi), which the linearization
    takes as an upwind term in u' with the ratio m / g_up frozen at the extrapolation
    g, and for p > 1 a face whose upwind cell is empty is `closed`.  The face terms,
    the rows (`_drift_rows`) and the linearized flow (`_linear_flow`) add those terms
    to the drift-free ones, and without a drift form none of them.  The system stays a
    column-diagonally-dominant M-matrix with zero column sums for p >= 1 (for p < 1
    while neighbouring g differ by less than a factor (1-p)^{-1/p}).
    """

    def __init__(self, grids: Sequence[Grid], p: float, values: Sequence[np.ndarray],
                 drifts: Sequence[float] | None = None):
        n, blocks = grids[0].node_count, len(grids)
        drift = [0.0] * blocks if drifts is None else [float(c) for c in drifts]
        if blocks > 1 and not (_batchable(n) and all(g.node_count == n for g in grids)
                               and len({c > 0.0 for c in drift}) == 1):
            raise ValueError("blocks share a node count that `_batchable` allows, and a frame")
        clipped = [_clipped(grid, p, u) for grid, u in zip(grids, values)]
        terms = [grid.conductances() for grid in grids]
        self.p, self.n, self.blocks, self.drift = p, n, blocks, drift
        self.origins = list(range(blocks))
        self.umax = [umax for _, umax in clipped]
        # the arrays of all blocks, node and face; `_lay` points the names at their prefixes
        self._nodes = {"u": _flat([u for u, _ in clipped]),
                       "weights": _flat([grid.weights() for grid in grids]),
                       "coupling": _flat([coupling for _, coupling, _ in terms])}
        self._nodes["error_weights"] = self._nodes["weights"].copy()  # evolve leaves the edge out
        self._nodes.update((name, np.empty(blocks * n)) for name in ("v", "div", "level"))
        self._faces = {"conductance": np.zeros(blocks * n), "dv": np.zeros(blocks * n),
                       "du": np.zeros(blocks * n)}
        for row, (conductance, _, _) in zip(self._faces["conductance"].reshape(blocks, n), terms):
            row[:-1] = conductance
        self._flux = np.zeros(blocks * n + 1)  # walls and seams: zero flux
        # BDF2 history (none before the first implicit step) and the next step's proposal
        self.head, self.u_prev, self.u_prev2 = 0, None, None
        self.dt_prev, self.dt_prev2, self.dt_next = [0.0] * blocks, [0.0] * blocks, [0.0] * blocks
        self.error_tol = [math.inf] * blocks  # the local error, in mass, a step may make
        self.plan = self.work = self.ring = None  # the implicit solver and buffers: made by its first call
        drifted = any(drift)
        self.floor_share = EPS if p <= 1.0 and not drifted else 0.0  # of umax, `_floor`
        self.floor_least = TINY if p <= 1.0 and drifted else 0.0
        self.pull = self.closed = None  # the drift's terms: none without one
        if drifted:
            self._faces["pull"] = np.zeros(blocks * n)  # c dphi per face
            for row, grid, c, (conductance, _, _) in zip(
                    self._faces["pull"].reshape(blocks, n), grids, drift, terms):
                phi = 0.5 * c * grid.nodes() ** 2
                np.multiply(conductance, np.subtract(phi[1:], phi[:-1]), out=row[:-1])
            self._faces["cond_p"] = self._faces["conductance"] / p
            self._faces.update((name, np.zeros(blocks * n)) for name in (
                "lift", "lift_hi", "mobility", "log_ratio"))
            self._nodes["log_g"], self._faces["up"] = np.empty(blocks * n), np.zeros(blocks * n, bool)
            if p > 1.0:  # no cell is empty for p <= 1
                self._faces["closed"] = np.zeros(blocks * n, bool)
                self._faces["open_c"] = np.zeros(blocks * n)
        self._lay()

    def _lay(self) -> None:
        """Points every buffer's name at its first `blocks` blocks: node arrays whole, face
        arrays without the last closing face, and the (B, N) rows of those that take a
        block's scalars."""
        blocks, n = self.blocks, self.n
        size = blocks * n
        for name, full in self._nodes.items():
            setattr(self, name, full[:size])
        for name, full in self._faces.items():
            setattr(self, name, full[:size - 1])
        self.face_rows = {name: self._faces[name][:size].reshape(blocks, n) for name in (
            "conductance", "du", "lift", "lift_hi", "mobility", "log_ratio") if name in self._faces}
        if "open_c" not in self._faces:
            self.open_c = self.conductance  # c across the faces that are not closed
        self.flux = self._flux[:size + 1]
        self.seams = self.flux[n:-1:n] if blocks > 1 else None  # the flux across each seam
        self.v_hi, self.v_lo, self.flux_in = self.v[1:], self.v[:-1], self.flux[1:-1]
        self.flux_hi, self.flux_lo = self.flux[1:], self.flux[:-1]

    def _lay_steps(self) -> None:
        """Points the implicit step's buffers, levels and plan rows at the first `blocks`
        blocks, as `_lay` does the kernel's."""
        blocks, n = self.blocks, self.n
        size = blocks * n
        self.work = [full[:size] for full in self._work]
        self.ring_rows = [row[:size] for row in self.ring]
        rows = [self.ring_rows[(self.head - back) % 4] for back in range(4)]
        self.u, self.new = rows[0], rows[3]  # the oldest row is the next level
        self.u_prev = rows[1] if self.head > 0 else None
        self.u_prev2 = rows[2] if self.head > 1 else None
        # each block's coefficients, levels, weights and buffer for `_local_error`
        self.estimates = [(self.coef[b], self.ring[:, b * n:(b + 1) * n],
                           self.error_weights[b * n:(b + 1) * n], self.work[3][b * n:(b + 1) * n])
                          for b in range(blocks)]
        self.coupling_seams = (self.plan.lower[n - 1::n], self.plan.upper[n - 1::n]) * (blocks > 1)

    def keep(self, kept: Sequence[int]) -> None:
        """Keeps the blocks kept (in order) and lays them end to end again from the first,
        in the same buffers and plan."""
        size, rows = self.blocks * self.n, (self.blocks, self.n)
        for name in ("u", "weights", "coupling", "error_weights", "conductance", "pull", "cond_p"):
            full = self._nodes.get(name, self._faces.get(name))
            if full is not None:
                block = full[:size].reshape(rows)
                block[:len(kept)] = block[kept]
        if self.ring is not None:
            block = self.ring[:, :size].reshape(4, *rows)
            block[:, :len(kept)] = block[:, kept]
        for name in ("umax", "drift", "dt_prev", "dt_prev2", "dt_next", "error_tol"):
            values = getattr(self, name)
            setattr(self, name, [values[b] for b in kept])
        self.origins = [self.origins[b] for b in kept]
        self.blocks = len(kept)
        self._lay()
        if self.plan is not None:
            self.plan.lay(self.blocks)
            self._lay_steps()

    def block(self, a: np.ndarray, b: int) -> np.ndarray:
        """Block b's entries of the node array a."""
        return a[b * self.n:(b + 1) * self.n]

    def _rows(self, a: np.ndarray) -> np.ndarray:
        """The node array a as (B, N) rows, one per block (a itself for one block, whose
        scalars are numbers, not columns)."""
        return a if self.blocks == 1 else a.reshape(self.blocks, self.n)

    def _per_block(self, reduce, a: np.ndarray) -> list:
        """reduce (a ufunc's) of the node array a over each block, as Python numbers:
        of each (B, N) row, bitwise the reduction of that block alone."""
        if self.blocks == 1:
            return [float(reduce(a))]
        return reduce(a.reshape(self.blocks, self.n), axis=1).tolist()

    def _dots(self, a: np.ndarray, x: np.ndarray) -> list[float]:
        """Each block's a @ x, as floats: one product per block, each bitwise its product
        alone (a product of (B, N) rows is not)."""
        n = self.n
        return [float(a[i:i + n] @ x[i:i + n]) for i in range(0, a.size, n)]

    def _divergence(self, v: np.ndarray) -> np.ndarray:
        """(L v)_i: net face flux of v into cell i across the open faces, walls and seams
        closed."""
        np.subtract(v[1:], v[:-1], out=self.dv)
        np.multiply(self.open_c, self.dv, out=self.flux_in)
        if self.seams is not None:
            self.seams.fill(0.0)
        return np.subtract(self.flux_hi, self.flux_lo, out=self.div)

    def _floor(self) -> list[float]:
        """Each block's floor of g = max(u, floor), fixed by the frame: 0 for p > 1; for
        p <= 1 the rounding of max(u) in x, and with a drift the least normal float,
        which keeps log g finite: there the tail below max(u)'s rounding is part of the
        steady state, on which xi is constant, and a higher floor moves it.  Neither
        serves both frames (compact two-bump data, seed 11, t 1..2, 9 snapshots, floored
        at the least normal float in x: p = 0.8 takes 293 steps for 99 on a 512-node
        Cartesian grid of radius 12 and 312 for 119 on the radial n = 3 one, p = 0.5
        602 for 117 on the Cartesian one of radius 30; the 1024-node p = 0.65, n = 3
        fitted Barenblatt floored at max(u)'s rounding in y, 15 steps for 8), nor does
        flooring only the empty cells (that p = 0.36, n = 3 compact run then drifts in
        mass by 3.9e-14, for 2.2e-16)."""
        return [max(self.floor_share * umax, self.floor_least) for umax in self.umax]

    def _flow(self) -> tuple[np.ndarray, np.ndarray]:
        """The net flux into each cell at u, `_linear_flow` at lin = u^p and x = u about
        g = max(u, floor), where the drift's flux reads c m dphi u_up / g_up; and the
        slope p g^{p-1} it was linearized with."""
        g = np.maximum(self._rows(self.u), _column(self._floor())).reshape(-1)
        slope = self.p * g ** (self.p - 1.0)
        self._drift_faces(g, slope)
        return self._linear_flow(np.power(self.u, self.p, out=self.v), self.u, 1.0, self.div), slope

    def _drift_faces(self, g: np.ndarray, slope: np.ndarray) -> None:
        """The drift's face terms at g, slope = p g^{p-1}; none without a drift.

        The face flux is c d(g^p) + c m dphi, where m = d(g^p) / d(e'(g)) is the
        secant mobility across the face, e'(g) = p g^{p-1} / (p-1) (log g at p = 1), so
        it is c m d(xi), xi = e'(g) + phi.  Where it is positive the upper cell is
        upwind (`up`): the mass leaves it.  c m dphi / g_up is the drift's share of
        the flux per unit of the upwind cell, `lift_hi` where the upper cell is upwind
        and `lift` where the lower one is.  For p > 1 a face whose upwind cell is empty
        is closed (`closed`): it carries no flux, so the shares and `open_c` are 0
        there; so is one whose ratio m / g_up overflows, g_up being rounding beside m.
        m is formed from r = min / max of the pair's g as
        max(g) (r^p - 1) / (p (r^{p-1} - 1) / (p - 1)), through expm1 and log as
        `functionals._pressure` does (log r for the denominator's quotient at p = 1); at
        r = 1 (0/0), and where both cells are empty, the quotient reads 1.  A seam's
        pull and conductance are 0, so are its shares.
        """
        if self.pull is None:
            return
        p, lift, up, against = self.p, self.lift, self.up, self.flux_in
        mob, ratio = self.mobility, self.log_ratio
        np.multiply(slope, g, out=self.v)  # p g^p
        np.subtract(self.v_lo, self.v_hi, out=against)
        np.multiply(against, self.cond_p, out=against)  # -c d(g^p)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_g = np.log(g, out=self.log_g)  # -inf where g = 0
            np.subtract(log_g[1:], log_g[:-1], out=ratio)
            np.abs(ratio, out=ratio)  # -log r
            np.multiply(ratio, -p, out=mob)
            np.expm1(mob, out=mob)  # r^p - 1
            if p == 1.0:
                np.negative(ratio, out=ratio)
            else:
                np.multiply(ratio, 1.0 - p, out=ratio)
                np.expm1(ratio, out=ratio)
                np.multiply(ratio, p / (p - 1.0), out=ratio)
            np.divide(mob, ratio, out=mob)
            np.fmin(mob, 1.0, out=mob)  # m / max(g), in [0, 1]; fmin reads nan as 1
            np.multiply(mob, np.maximum(g[1:], g[:-1], out=ratio), out=mob)
            np.multiply(mob, self.pull, out=mob)  # c m dphi
            np.greater(mob, against, out=up)  # the flux is positive
            np.divide(mob, np.where(up, g[1:], g[:-1]), out=lift)  # over g_up
        closed = self.closed
        if closed is not None:  # g_up = 0, or so far below m that the ratio overflows
            np.logical_not(np.isfinite(lift, out=closed), out=closed)
            np.copyto(lift, 0.0, where=closed)
            np.copyto(self.open_c, self.conductance)
            np.copyto(self.open_c, 0.0, where=closed)
        np.multiply(lift, up, out=self.lift_hi)
        np.subtract(lift, self.lift_hi, out=lift)

    def _drift_rows(self, g: np.ndarray, slope: np.ndarray, theta: np.ndarray) -> None:
        """Adds the drift's terms to the plan's rows, linearized about g (`_drift_faces`);
        none without a drift.  Each face's upwind term theta lift u'_up adds to the
        coupling of its upwind cell, so the columns still sum to the weights.  A closed
        face's diffusion terms, already in the rows, are taken out with them.  theta
        is each block's, as a (B, 1) column."""
        if self.pull is None:
            return
        self._drift_faces(g, slope)
        lower, diag, upper, lo, hi = (
            self.plan.lower, self.plan.diag, self.plan.upper, self.mobility, self.log_ratio)
        rows = self.face_rows
        np.multiply(rows["lift"], theta, out=rows["mobility"])
        np.multiply(rows["lift_hi"], -theta, out=rows["log_ratio"])
        if self.closed is not None:  # there lo and hi are 0: cancel the diffusion terms
            np.copyto(lo, lower, where=self.closed)
            np.copyto(hi, upper, where=self.closed)
        np.subtract(upper, hi, out=upper)
        np.subtract(lower, lo, out=lower)
        np.subtract(diag[:-1], lo, out=diag[:-1])
        np.subtract(diag[1:], hi, out=diag[1:])

    def _linear_flow(self, lin: np.ndarray, x: np.ndarray, theta,
                     out: np.ndarray) -> np.ndarray:
        """theta times the net flux into each cell of the flow linearized about g, for
        the linearized u^p lin at the field x: the face flux is c (lin_{j+1} - lin_j)
        across open faces, and with a drift lift_hi x_{j+1} + lift x_j added; theta is
        a number or each block's, as a (B, 1) column."""
        np.subtract(lin[1:], lin[:-1], out=self.dv)
        np.multiply(self.open_c, self.dv, out=self.flux_in)
        if self.pull is not None:
            np.add(self.flux_in, np.multiply(self.lift_hi, x[1:], out=self.dv), out=self.flux_in)
            np.add(self.flux_in, np.multiply(self.lift, x[:-1], out=self.dv), out=self.flux_in)
        if self.seams is not None:
            self.seams.fill(0.0)
        np.subtract(self.flux_hi, self.flux_lo, out=out)
        np.multiply(theta, self._rows(out), out=self._rows(out))
        return out

    def speed(self) -> list[float]:
        """Each block's ||u_t||_1, u_t = `_flow` / W: the mass the flow moves per unit time."""
        return self._per_block(np.add.reduce, np.abs(self._flow()[0], out=self.div))

    def starting_dt(self, tol_rate) -> list[float]:
        """Each block's first implicit step, read from the flow rather than the grid: the
        backward-Euler step whose local error, dt^2 / 2 ||u_tt||_1, is tol_rate dt, so
        2 tol_rate / ||u_tt||_1, both norms over `error_weights`.  u_t = `_flow` / w
        and u_tt = J u_t / w, J the flow linearized about g = max(u, floor) as
        `implicit_advance` does (`_linear_flow`): L(s u_t) with s = p g^{p-1}, and with
        a drift its upwind term at the frozen ratio m / g_up."""
        flow, slope = self._flow()
        rate = flow / self.weights
        accel = self._linear_flow(slope * rate, rate, 1.0, self.div) / self.weights
        norms = self._dots(self.error_weights, np.abs(accel))
        return [2.0 * tol / norm if norm > 0.0 else math.inf
                for tol, norm in zip(_each(tol_rate, self.blocks), norms)]

    def implicit_advance(self, dt, t) -> tuple[list[float], list[int]]:
        """One variable-step BDF2 step of each block from its t, dt (a number or one per
        block), halving a block's dt on undershoot: each block's (dt, rejections).

        With omega = dt / dt_prev the step solves W (u' - b) = theta L u'^p for
        b = ((1+omega)^2 u - omega^2 u_prev) / (1+2 omega), formed as
        u + omega^2 (u - u_prev) / (1+2 omega), and
        theta = dt (1+omega) / (1+2 omega); with no u_prev it is backward Euler
        (b = u, theta = dt).  Callers keep omega <= 2 < 1 + sqrt(2), where BDF2 is
        zero-stable.  The step is linearly implicit (Akrivis and Crouzeix, Math.
        Comp. 73, 2004): it solves W (u' - b) = theta L (g^p + s (u' - g)), s = p g^{p-1},
        about g = u + omega (u - u_prev) (g = u first), floored (`_floor`), and with a
        drift its upwind terms (`_drift_rows`): a column-diagonally-dominant M-matrix,
        nonsingular where s = 0.  u' comes from the telescoping fluxes of the linearized
        flow (`_linear_flow`), so mass is conserved.  Where u is smooth the linearization
        error is O(theta |u' - g|^2) = O(dt^5), but ahead of a p > 1 front g = 0, the
        linearized u'^p is 0, and one solve moves the front at most one cell.  While
        the defect d = u'^p - (g^p + s (u' - g)) at the front (nodes with u' > 2 g;
        elsewhere d is small, or rounding as large as the step near the flat state)
        misplaces theta ||L d||_1 above LINEARIZATION_TOL of the mass the step moves,
        the step relinearizes about u' (a Newton step) and solves again, moving the
        front a cell further.  d is formed at the front nodes only, in a zeroed buffer
        that is zeroed again after use; with no front node the step has settled, and
        the mass it moves is not formed.  b can be negative near a front, so an
        undershoot of any solve halves dt, a rejection.  Where b is negative beyond
        rounding, in either frame, the step is backward Euler (b = u, theta = dt,
        g = u): a draining cell, such as a thin tail the drift empties, would
        extrapolate below 0, and no flux could fill it.

        From the third step on, the step also estimates its local error by Milne's
        device (Hairer and Wanner, *Solving Ordinary Differential Equations II*, 2nd ed.
        1996, ch. III.5).  With h1 = dt_prev, h2 = dt_prev2 and u_ttt the third time
        derivative, the quadratic P2 through the last three levels, extrapolated to
        t + dt, errs by u_ttt/6 dt (dt+h1) (dt+h1+h2), and the variable-step BDF2
        solution by u_ttt/6 dt (dt+h1) theta, with the same sign (each from the
        interpolation error of its quadratic).  So the step's error is C (u' - P2) with
        C = theta / (theta + dt + h1 + h2), 2/11 at equal steps, and the estimate is
        C w @ |u' - P2|.  A step whose estimate exceeds `error_tol` (set by `evolve`,
        infinite otherwise) is a rejection, retried at dt times the controller's
        factor 0.9 (error_tol / estimate)^(1/3): the elementary controller, the
        integral part of Gustafsson, Lundh and Söderlind's (BIT 28, 1988).  An accepted
        step proposes `dt_next`, dt times that factor capped at 2, so omega <= 2;
        before three levels the factor is 2: the doubling ramp.

        Each block settles, undershoots and is accepted on its own.  A block that has
        settled or undershot keeps its g while the others relinearize, so each later
        solve gives it the same u' again; a block accepted while another is retried
        keeps its dt, and its retry gives the same step.  A block that fails (its
        linearization does not settle, or its step is rejected MAX_REJECTIONS times)
        ends the call with a StabilityError whose `blocks` maps each failed block to
        its own error, and the state is left as it was.
        """
        p, w, scratch, conduct, blocks = self.p, self.weights, self.v, self.du, self.blocks
        if self.plan is None:
            size = w.size
            self.plan = _ReductionPlan(self.n, blocks)
            self._work = [np.empty(size) for _ in range(7)] + [np.zeros(size),
                                                               np.empty(size, dtype=bool)]
            # u, new, u_prev and u_prev2 take turns as the rows of one block, so the
            # estimate's P2 is a single product with it
            self.ring, self.coef = np.empty((4, size)), np.empty((blocks, 4))
            np.copyto(self.ring[0], self.u)
            self._lay_steps()
        u, new, plan, rows = self.u, self.new, self.plan, self._rows
        bdf_base, spring, load, slope, shift, g_buf, trial_buf, defect, front = self.work
        dt, top = _each(dt, blocks), self.umax  # top: each block's max(u) before the step
        floor = _column(self._floor())
        rejections = [0] * blocks
        while True:
            g, trial = g_buf, trial_buf
            base, theta, euler = u, dt, [True] * blocks
            if self.u_prev is not None:
                omega = [step / last for step, last in zip(dt, self.dt_prev)]
                scale = [1.0 + 2.0 * w for w in omega]
                change = np.subtract(u, self.u_prev, out=g)
                np.multiply(rows(change), _column([w * w / s for w, s in zip(omega, scale)]),
                            out=rows(bdf_base))
                np.add(u, bdf_base, out=bdf_base)
                # else a draining cell: backward Euler, from u >= 0
                euler = [low < -NEGATIVITY_SLACK * high
                         for low, high in zip(self._per_block(np.minimum.reduce, bdf_base), top)]
                if not all(euler):
                    base = bdf_base
                    theta = [step if back else step * (1.0 + w) / s
                             for step, back, w, s in zip(dt, euler, omega, scale)]
                    np.multiply(rows(change), _column(omega), out=rows(g))
                    np.add(u, g, out=g)
                    if any(euler):
                        for b in (b for b, back in enumerate(euler) if back):
                            np.copyto(self.block(g, b), self.block(u, b))
                            np.copyto(self.block(bdf_base, b), self.block(u, b))
            np.maximum(rows(u if base is u else g), floor, out=rows(g))
            column = _column(theta)
            np.multiply(self.face_rows["conductance"], column, out=self.face_rows["du"])
            np.multiply(rows(self.coupling), column, out=rows(spring))
            np.multiply(w, base, out=load)
            for _ in range(self.n):  # Newton moves the front at least a cell per solve
                np.copyto(slope, g)
                slope **= p - 1.0  # `**` with numpy's fast paths (sqrt, square), as g ** (p - 1)
                np.multiply(g, 1.0 - p, out=shift)
                np.multiply(shift, slope, out=shift)  # the linearized u'^p is shift + slope u'
                np.multiply(slope, p, out=slope)
                np.multiply(conduct, slope[:-1], out=plan.lower)
                np.multiply(conduct, slope[1:], out=plan.upper)
                np.add(w, np.multiply(spring, slope, out=plan.diag), out=plan.diag)
                self._drift_rows(g, slope, column)
                for seam in self.coupling_seams:
                    seam.fill(0.0)
                np.multiply(column, rows(self._divergence(shift)), out=rows(plan.rhs))
                np.add(load, plan.rhs, out=plan.rhs)
                sol = plan.solve()
                np.multiply(slope, sol, out=scratch)
                np.add(shift, scratch, out=scratch)
                self._linear_flow(scratch, sol, column, new)
                np.divide(new, w, out=new)
                np.add(base, new, out=new)
                umax = self._per_block(np.maximum.reduce, new)
                undershoot = [not low >= -NEGATIVITY_SLACK * high  # and nan
                              for low, high in zip(self._per_block(np.minimum.reduce, new), umax)]
                np.maximum(rows(new), floor, out=rows(trial))
                (at,) = np.greater(trial, np.multiply(g, 2.0, out=scratch), out=front).nonzero()
                done = [True] * blocks  # settled, or undershot; no front node: no defect
                if at.size:
                    front_u = trial[at]
                    defect[at] = front_u ** p - shift[at] - slope[at] * front_u
                    defects = self._per_block(np.add.reduce, np.abs(self._divergence(defect),
                                                                    out=self.div))
                    defect[at] = 0.0
                    moved = np.abs(np.subtract(new, u, out=scratch), out=scratch)
                    nears = self._per_block(np.logical_or.reduce, front)  # has a front node
                    for b in (b for b, near in enumerate(nears) if near):
                        misplaced = theta[b] * defects[b]
                        done[b] = undershoot[b] or misplaced <= LINEARIZATION_TOL * float(
                            self.block(w, b) @ self.block(moved, b))
                if all(done):
                    break
                if any(done):  # those keep their g, and so their u'
                    np.copyto(rows(g), rows(trial), where=~np.array(done)[:, None])
                else:
                    g, trial = trial, g
            else:
                raise _failure({b: f"implicit step at t = {_each(t, blocks)[b]}: linearization "
                                   "did not settle" for b in range(blocks) if not done[b]})
            errors = self._local_error(dt, theta, euler)
            factor, rejected = [0.5] * blocks, list(undershoot)
            for b, (error, tol) in enumerate(zip(errors, self.error_tol)):
                if not undershoot[b]:
                    factor[b] = 2.0  # the controller: 0.9 (error_tol / error)^(1/3), at most 2
                    if 8.0 * error > 0.9 ** 3 * tol:
                        factor[b] = 0.9 * (tol / error) ** (1.0 / 3.0)
                    rejected[b] = error > tol
            if not any(rejected):
                break
            rejections = [count + again for count, again in zip(rejections, rejected)]
            failed = {b: f"implicit step at t = {_each(t, blocks)[b]} failed {count} times"
                      for b, count in enumerate(rejections) if count > MAX_REJECTIONS}
            if failed:
                raise _failure(failed)
            dt = [step * f if again else step for step, f, again in zip(dt, factor, rejected)]
        np.maximum(new, 0.0, out=new)
        self.head += 1
        self.u_prev2, self.dt_prev2 = self.u_prev, self.dt_prev
        self.u_prev, self.dt_prev, self.u = u, dt, new
        self.new = self.ring_rows[(self.head + 1) % 4]  # the oldest row
        self.umax, self.dt_next = umax, [f * step for f, step in zip(factor, dt)]
        return dt, rejections

    def _local_error(self, dt: list, theta: list, euler: list) -> list:
        """Each block's C w @ |new - P2| for its step of dt to new (self.new), 0 before
        three levels; w here is `error_weights`, and new - P2 is formed in the slope
        buffer.  A backward-Euler step (euler) errs by dt^2 / 2 u_tt, which new - P2
        holds whole: C = 1."""
        if self.u_prev2 is None:
            return [0.0] * self.blocks
        head, errors = self.head, []
        for step, th, back, h1, h2, (coef, levels, weights, gap) in zip(
                dt, theta, euler, self.dt_prev, self.dt_prev2, self.estimates):
            # P2 = u + a (u - u_prev) - b (u_prev - u_prev2), the Newton form through the levels
            k = step * (step + h1) / (h1 + h2)
            a, b = (step + k) / h1, k / h2
            coef[(head + 1) % 4], coef[head % 4] = 1.0, -1.0 - a
            coef[(head - 1) % 4], coef[(head - 2) % 4] = a + b, -b
            np.dot(coef, levels, out=gap)  # new - P2
            share = 1.0 if back else th / (th + step + h1 + h2)
            errors.append(share * float(weights @ np.abs(gap, out=gap)))
        return errors

    def interpolant(self, back: float, b: int = 0) -> np.ndarray:
        """Block b's u at `back` before its last level in the march's clock,
        0 <= back <= dt_prev: the last level itself at back = 0, else the quadratic
        through u, u_prev and u_prev2, in `level` (the next call overwrites it; v is its
        scratch).

        Its weights are Lagrange's, which sum to 1, so it keeps the mass to rounding.
        Inside the step it errs by u_ttt/6 max |(s-a0)(s-a1)(s-a2)| over the nodes a_i,
        0.385 h^3 at equal steps h, where the step errs by u_ttt/6 dt (dt+h1) theta,
        4/3 h^3: the interpolant adds at most 0.294 of the error Milne's estimate
        bounds for every omega <= 2 (0.289 at omega = 1, 0.25 as omega -> 0).  Where
        the quadratic is below 0 at a node, the whole field is the linear interpolant
        of the step's two ends instead: a convex combination, so u >= 0 and the mass is
        kept; a per-node mix would not keep it."""
        start, stop = b * self.n, (b + 1) * self.n
        u = self.u[start:stop]
        if not back:
            return u
        h1, h2 = self.dt_prev[b], self.dt_prev2[b]
        level, scratch = self.level[start:stop], self.v[start:stop]
        u_prev, u_prev2 = self.u_prev[start:stop], self.u_prev2[start:stop]
        span, ahead = h1 + h2, h1 - back
        np.multiply(u, ahead * (span - back) / (h1 * span), out=level)
        level += np.multiply(u_prev, back * (span - back) / (h1 * h2), out=scratch)
        level -= np.multiply(u_prev2, back * ahead / (span * h2), out=scratch)
        if np.minimum.reduce(level) < 0.0:
            np.multiply(u, ahead / h1, out=level)
            level += np.multiply(u_prev, back / h1, out=scratch)
        return level


def _flat(arrays: list[np.ndarray]) -> np.ndarray:
    """The blocks' node arrays end to end; one block's own array, which a kernel of one
    block never writes (`keep` writes only where blocks leave others)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _each(x, blocks: int) -> list[float]:
    """x, a number or one per block, as one float per block."""
    return [float(x)] * blocks if isinstance(x, (int, float)) else [float(v) for v in x]


def _column(values: list[float]):
    """One number per block as a (B, 1) column, to broadcast over the blocks' rows (the
    number itself for one block)."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def _failure(messages: dict[int, str]) -> StabilityError:
    """The StabilityError of a kernel step whose blocks in messages failed: its `blocks`
    maps each of them to its own error."""
    errors = {b: StabilityError(message) for b, message in messages.items()}
    failure = StabilityError(*next(iter(errors.values())).args)
    failure.blocks = errors
    return failure


def _batchable(n: int) -> bool:
    """Blocks of n rows can share a flat `_ReductionPlan`: the block size is even at every
    level of the reduction above the bottom (1000 -> 500 -> 250 -> 125 is not), so each
    level's odd and even rows of a block are the flat system's."""
    while n > SEQUENTIAL_SIZE:
        if n % 2:
            return False
        n //= 2
    return True


class _ReductionPlan:
    """Odd-even cyclic reduction for tridiagonal systems of B blocks of n rows laid end to
    end (block diagonal: the couplings across a seam are 0), in its own buffers.

    Row i reads -lower[i-1] x[i-1] + diag[i] x[i] - upper[i] x[i+1] = rhs[i]: the
    off-diagonals are stored negated, as the step's M-matrix has no positive ones.
    Callers fill the four arrays, and `solve` returns x, a buffer the next solve
    overwrites.  Eliminating the odd unknowns leaves a tridiagonal system in the
    even ones (their Schur complement), written to the next level's buffers and
    solved the same way, straight into x[0::2]; the multipliers overwrite the
    couplings of lower and upper that the odd rows no longer need.  Once each block
    has SEQUENTIAL_SIZE rows or fewer, the per-call cost of numpy outweighs the work,
    and elimination on Python floats finishes each block's bottom; the odd unknowns
    follow by back substitution.  Every level's buffers are made here, once, for all
    the blocks, and `lay` makes their views and calls for the first B of them, so a
    solve is a flat run of out= ufunc calls and a block that leaves needs no new
    buffers.  Each product and sum is that of the plain recursion on
    (sub, diag, sup) = (-lower, diag, -upper), in its order, and negation is exact, so
    the solution is bitwise the recursion's.  With B > 1 the block size is even at
    every level above the bottom (`_batchable`): each block's odd and even rows are
    then the flat system's, a seam's couplings and multipliers stay +0.0 at every
    level, and its terms add exact zeros, so each block's solution is bitwise its solve
    alone.  There is no pivoting: the Schur complements of a
    column-diagonally-dominant M-matrix are again such matrices, so no pivot vanishes.
    """

    def __init__(self, n: int, blocks: int = 1):
        size, self.n = blocks * n, n
        self._lower, self._upper = np.empty(size - 1), np.empty(size - 1)
        self._diag, self._rhs, self._x = np.empty(size), np.empty(size), np.empty(size)
        self._scratch, self._levels = np.empty(size // 2), []
        while n > SEQUENTIAL_SIZE:  # the next level keeps each block's even rows
            n -= n // 2
            self._levels.append((np.empty(blocks * n - 1), np.empty(blocks * n),
                                 np.empty(blocks * n - 1), np.empty(blocks * n)))
        self.size = n  # each block's rows at the bottom
        self.lay(blocks)

    def lay(self, blocks: int) -> None:
        """Prepares the solve of the first `blocks` blocks, in prefixes of the buffers."""
        size, scratch = blocks * self.n, self._scratch
        lower, diag, upper = self._lower[:size - 1], self._diag[:size], self._upper[:size - 1]
        rhs, x = self._rhs[:size], self._x[:size]
        self.lower, self.diag, self.upper, self.rhs, self.x = lower, diag, upper, rhs, x
        forward, backward = [], []
        for level_lower, level_diag, level_upper, level_rhs in self._levels:
            k, m = diag.size // 2, (diag.size - 1) // 2  # odd rows; those with an even right
            odd_diag, odd_rhs, odd_x = diag[1::2], rhs[1::2], x[1::2]
            # odd row j couples to even rows j (left) and j+1 (right); even row j to
            # odd rows j (right) and j-1 (left), whose couplings become the multipliers
            odd_left, odd_right, right, left = lower[0::2], upper[1::2], upper[0::2], lower[1::2]
            even_diag, even_rhs, even_x = diag[0::2], rhs[0::2], x[0::2]
            next_lower, next_upper = level_lower[:m], level_upper[:m]
            next_diag, next_rhs = level_diag[:diag.size - k], level_rhs[:diag.size - k]
            tk, tm = scratch[:k], scratch[:m]
            forward += [
                (np.divide, (right, odd_diag, right)),
                (np.divide, (left, odd_diag[:m], left)),
                (np.multiply, (right, odd_left, tk)),
                (np.subtract, (even_diag[:k], tk, next_diag[:k])),
                (np.multiply, (right, odd_rhs, tk)),
                (np.add, (even_rhs[:k], tk, next_rhs[:k])),
            ]
            if m == k:  # an odd size: the last row is even, with no odd row to its right
                forward += [(np.copyto, (next_diag[k:], even_diag[k:])),
                            (np.copyto, (next_rhs[k:], even_rhs[k:]))]
            forward += [
                (np.multiply, (left, odd_right, tm)),
                (np.subtract, (next_diag[1:], tm, next_diag[1:])),
                (np.multiply, (left, odd_rhs[:m], tm)),
                (np.add, (next_rhs[1:], tm, next_rhs[1:])),
                (np.multiply, (left, odd_left[:m], next_lower)),
                (np.multiply, (right[:m], odd_right, next_upper)),
            ]
            backward[:0] = [
                (np.multiply, (odd_left, even_x[:k], tk)),
                (np.add, (odd_rhs, tk, odd_x)),
                (np.multiply, (odd_right, even_x[1:], tm)),
                (np.add, (odd_x[:m], tm, odd_x[:m])),
                (np.divide, (odd_x, odd_diag, odd_x)),
            ]
            lower, diag, upper, rhs, x = next_lower, next_diag, next_upper, next_rhs, even_x
        self.forward, self.backward = forward, backward
        self.bottom = lower, diag, upper, rhs, x

    def solve(self) -> np.ndarray:
        """x for the system in lower, diag, upper and rhs."""
        for call, args in self.forward:
            call(*args)
        lower, diag, upper, rhs, x = self.bottom
        lower, diag, upper, rhs = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
        for start in range(0, len(diag), self.size):  # each block's bottom, seams left out
            _eliminate(lower, diag, upper, rhs, start, start + self.size)
        x[:] = rhs
        for call, args in self.backward:
            call(*args)
        return self.x


def _eliminate(lower: list, diag: list, upper: list, rhs: list, start: int, stop: int) -> None:
    """The tridiagonal solve of rows start to stop by sequential elimination, on Python
    floats, off-diagonals negated as in `_ReductionPlan`; overwrites their diag, and their
    rhs with the solution."""
    for i in range(start + 1, stop):
        factor = lower[i - 1] / diag[i - 1]
        diag[i] -= factor * upper[i - 1]
        rhs[i] += factor * rhs[i - 1]
    rhs[stop - 1] /= diag[stop - 1]
    for i in range(stop - 2, start - 1, -1):
        rhs[i] = (rhs[i] + upper[i] * rhs[i + 1]) / diag[i]


def _clipped(grid: Grid, p: float, values: np.ndarray) -> tuple[np.ndarray, float]:
    """(max(values, 0), its max), refused where u^p or its fluxes overflow on the grid."""
    u = np.maximum(values, 0.0)
    umax = float(u.max())
    with np.errstate(over="ignore"):  # 2 N max(c) max(u)^p bounds the fluxes' sum
        fluxes = 2 * grid.node_count * grid.conductances()[0].max() * np.float64(umax) ** p
    if not fluxes < math.inf:
        raise DomainError(f"domain radius {grid.radius()!r} is too small for this "
                          "datum: u^p or its fluxes overflow")
    return u, umax


def _divergence(conductance: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(L v)_i: the net flux conductance * dv into cell i, walls closed."""
    flux = np.zeros(v.size + 1)
    np.multiply(conductance, np.diff(v), out=flux[1:-1])
    return np.subtract(flux[1:], flux[:-1])


def _stable_dt(grid: Grid, p: float, u: np.ndarray, umax: float,
               safety: float = CFL_SAFETY) -> float:
    """safety / (D max_i c_i / w_i), D = p umax^{p-1}; for p < 1, where that is the least
    stiff node's, the max face chord slope of u -> u^p: the convex-combination bound."""
    if not umax > 0.0:
        raise DomainError("field has no positive maximum")
    stiffness = p * umax ** (p - 1.0)
    if p < 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 = nan where du == 0
            chord = np.diff(np.power(u, p)) / np.diff(u)
        # fmax skips those nans: such faces count as chord 0, below the bound
        stiffness = float(np.fmax.reduce(np.abs(chord), initial=stiffness))
    return safety / (stiffness * grid.conductances()[2])


def cfl_dt(f: DensityField, params: DiffusionParams) -> float:
    """Stable explicit step CFL_SAFETY / (D max_i c_i / w_i), c_i node i's summed conductances."""
    return _stable_dt(f.grid, params.p, *_clipped(f.grid, params.p, f.values))


def step(state: SolverState, params: DiffusionParams, dt: float | None = None) -> SolverState:
    """Advance one accepted step from max(values, 0), halving dt on CFL violations."""
    grid, p = state.grid, params.p
    u, umax = _clipped(grid, p, state.values)
    if dt is None:
        dt = _stable_dt(grid, p, u, umax)
    div, rejections = _divergence(grid.conductances()[0], np.power(u, p)), 0
    while True:
        new = u + div * dt / grid.weights()
        umin = new.min()
        if umin >= -NEGATIVITY_SLACK * new.max():
            break
        rejections += 1
        if rejections > MAX_REJECTIONS:
            raise StabilityError(
                f"step at t = {state.t} rejected {rejections} times; CFL bound violated")
        dt *= 0.5
    if umin < 0.0:
        np.maximum(new, 0.0, out=new)
    return replace(
        state,
        t=state.t + dt,
        values=new,
        step_count=state.step_count + 1,
        rejection_count=state.rejection_count + rejections,
    )


def _edge_weights(grid: Grid) -> np.ndarray:
    """The weights of the last node_count // EDGE_CELLS cells at each wall (the outer one
    on radial grids), 0 elsewhere."""
    from_wall = np.arange(grid.node_count)[::-1]  # cells between a node and the wall
    if grid.kind != RADIAL:
        from_wall = np.minimum(from_wall, from_wall[::-1])  # either wall
    return np.where(from_wall < max(1, grid.node_count // EDGE_CELLS), grid.weights(), 0.0)


def _entropy_weights(kernel: _Kernel, b: int, interior: np.ndarray, nu: float) -> np.ndarray:
    """The first variation of log N_p at block b's u, times the interior weights: the
    estimate's weights in the self-similar frame.

    log N_p = nu H_p varies by nu p u^{p-1} / ((1-p) integral u^p).  A step's estimate
    new - P2 carries no mass (its weighted sum is below 1.3e-6 of its weighted L1
    norm), so a constant comes off: nu p c^{p-1} |P| / integral u^p, with P the
    pressure `functionals._pressure` forms of g = max(u, 1e-8 c), c = max u, which is
    continuous through p = 1.  The floor bounds the weight in the far tail."""
    u, p, umax = kernel.block(kernel.u, b), kernel.p, kernel.umax[b]
    pressure, _, log_c = _pressure(np.maximum(u, 1e-8 * umax), p)
    scale = nu * p * math.exp((p - 1.0) * log_c) / float(kernel.block(kernel.weights, b) @ u ** p)
    np.multiply(np.abs(pressure, out=pressure), interior, out=pressure)
    return np.multiply(pressure, scale, out=pressure)


class FieldSeries(Sequence):
    """The snapshot fields, each (field, t_k, dilate) in the frame it was marched in,
    x = t_k^dilate y (0 in x, 1 / mu in y).  Item k, in x, is `rescale(field, t_k^dilate)`
    formed on read, so a reader of one field maps only it; a slice is a FieldSeries."""

    def __init__(self, marched: list[tuple[DensityField, float, float]]):
        self.marched = marched

    def __len__(self) -> int:
        return len(self.marched)

    def __getitem__(self, k):
        return FieldSeries(self.marched[k]) if isinstance(k, slice) else self.in_frame(k, 0.0)

    def in_frame(self, k: int, dilate: float) -> DensityField:
        """Field k in the frame x = t_k^dilate y, as marched where it was marched there."""
        f, t, own = self.marched[k]
        return f if own == dilate else rescale(f, t ** (own - dilate))


@dataclass
class EvolutionResult:
    params: DiffusionParams
    snapshots: list[FunctionalSnapshot]
    fields: FieldSeries
    step_count: int
    rejection_count: int
    edge_mass: float  # the largest over the snapshots

    @property
    def domain_cut(self) -> bool:
        """The wall held more than DOMAIN_TOL of the mass: mass the flow on R^n carries
        past it, so the domain cuts the flow."""
        return self.edge_mass > DOMAIN_TOL

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


_ROW_ERRORS = (DomainError, StabilityError, InsufficientData, DegenerateError)


def evolve(f0: DensityField, params: DiffusionParams,
           with_dissipation: bool = False) -> EvolutionResult:
    """March from t_start to t_end, reading each snapshot from the step that reaches it.

    A step divides what remains into equal parts no longer than the proposed step.  The
    first two steps carry no local-error estimate (Milne's device needs three levels),
    so each divides what remains to the next snapshot and lands on it.  From the third
    on, a step divides what remains to t_end, and each snapshot time it passes is read
    from the quadratic through the kernel's last three levels (`_Kernel.interpolant`:
    dense output, Hairer, Norsett and Wanner, *Solving Ordinary Differential Equations
    I*, 2nd ed. 1993, II.6), whose error inside the step is under 0.3 of the error the
    step's estimate bounds.  So a flow that barely moves passes many snapshots in one
    step, and the tolerance, not the landing, keeps the series accurate.  The march is
    linearly implicit BDF2, with its history, from t_start to the end, for every p.
    Its bounds are read once for each snapshot interval a step starts in: the tolerance,
    in x LOCAL_ERROR_TOL of the most mass the flow can move over the interval, and the
    longest step, MAX_CFL_STEPS CFL steps: DomainError where such a step cannot move
    the clock, on a domain too small for the datum.  The march starts with the
    backward-Euler step whose local error is its share of one step's tolerance per
    interval (`_Kernel.starting_dt`: read from the flow's acceleration, so a finer
    grid starts no shorter) and doubles it while it has fewer than three levels; from
    then on each step proposes the next from its own local-error estimate
    (`_Kernel.implicit_advance`), at most twice as long, so omega <= 2 keeps BDF2
    zero-stable.  As the flow slows, its local error falls and the steps grow.  The
    estimate leaves out the edge cells (below), where a wall that cuts the flow holds
    a boundary layer as thin as the grid; that error is the domain's, reported as the
    edge mass.

    The edge mass, the mass in the last node_count // EDGE_CELLS cells at each
    wall, is read at the datum and at every snapshot; above DOMAIN_TOL, the
    wall holds mass the flow on R^n would carry past it, and the run warns once.

    The frame is chosen once, before the first step.  From t_start > 0 the march runs
    in the self-similar frame when the flow there moves less than SELF_SIMILAR_RATE of
    the mass it moves in x per unit of log t, read on the x-grid (by a probe kernel with
    the drift 1 / (mu t) there); the march's one kernel is then built on the frame's
    grid, so a run that stays in x dilates nothing.  In y the datum
    is dilated exactly onto the y-grid (`functionals.rescale` by t^{-1/mu}), the kernel
    gets the drift 1 / mu, and the march's clock is tau = log t (refused before any step
    where it does not advance: t 1e6 to 1e6 + 1e-10).  Each snapshot is read on the
    march's field and mapped to x by the dilation laws (`functionals.rescale_snapshot`),
    so the snapshots, the checks and the messages read the physical field at physical t.
    The fields are kept as marched (`FieldSeries`); `fields[k]`, rescaled by t_k^{1/mu}
    when read, lives on the grid dilated to t_k.  In y
    the tolerance is in the concavity check's units: the estimate is weighed by the
    first variation of log N_p (`_entropy_weights`, read at the interval's first step),
    and it may be TOL_CONCAVITY of log N_p's change over the interval in t,
    nu I_p (t_k - t_(k-1)), I_p read from the last snapshot.  A datum that relaxes in y,
    such as a Barenblatt sample scaled rather than fitted to unit mass, needs it: under
    the mass tolerance the time error of its first steps bent N_p past the bound.  The
    y-frame's wall moves out with the grid in x.  Both frames take the kernel's one
    step, and where BDF2's base is negative beyond rounding (a cell the drift drains: a
    thin tail ahead of a p > 1 front, a front retreating in y) it is a backward-Euler
    step.  The march is `_march`'s of one run, which marches the runs of a sweep
    together.
    """
    (outcome,) = _march([(f0, params, with_dissipation)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _march(data: Sequence[tuple[DensityField, DiffusionParams, bool]]) -> list:
    """`evolve` of each (f0, params, with_dissipation) in data: its EvolutionResult, or
    the error (DomainError, StabilityError and the like) that ended its run alone.

    Runs that share p, frame and node count march together, as the blocks of one
    `_Kernel`, each bitwise as it would alone: each keeps its own interval bounds,
    landings, snapshot reads, rejections and errors, and a run that finishes or fails
    leaves the kernel, whose other blocks are laid end to end again.  A node count whose
    blocks cannot share a plan (`_batchable`) marches each run alone.  The frames are
    chosen by one probe kernel for the runs of each p and node count, each block with
    its own drift 1 / (mu t) on its x-grid."""
    outcomes: list = [None] * len(data)
    runs = []
    for index, (f0, params, with_dissipation) in enumerate(data):
        try:
            runs.append(_Run(index, f0, params, with_dissipation))
        except _ROW_ERRORS as err:
            outcomes[index] = err
    # ||v_tau||_1 is t times the mass the x-grid flow with the drift drift / t moves
    for batch in _batches([run for run in runs if run.t > 0.0], lambda run: run.p):
        probe = _Kernel([run.f0.grid for run in batch], batch[0].p, [run.u0 for run in batch],
                        [run.drift / run.t for run in batch])
        for run, speed in zip(batch, probe.speed()):
            run.self_similar = speed < SELF_SIMILAR_RATE * run.rate
    marching = []
    for run in runs:
        try:
            run.frame()
            marching.append(run)
        except _ROW_ERRORS as err:
            outcomes[run.index] = err
    for batch in _batches(marching, lambda run: (run.p, run.dilate > 0.0)):
        _march_blocks(batch, outcomes)
    return outcomes


def _batches(runs: list[_Run], key) -> list[list[_Run]]:
    """runs in lists that can share a kernel: one key and one node count whose blocks can
    share a plan (`_batchable`), or one run alone."""
    batches: dict = {}
    for run in runs:
        n = run.f0.grid.node_count
        batches.setdefault((key(run), n) if _batchable(n) else id(run), []).append(run)
    return list(batches.values())


def _march_blocks(batch: list[_Run], outcomes: list) -> None:
    """Marches the runs of batch, which share p, frame and node count, as the blocks of one
    kernel, writing each run's outcome when it finishes or fails."""
    try:
        kernel = _Kernel([run.grid for run in batch], batch[0].p,
                         [run.start.values for run in batch], [run.dilate for run in batch])
    except DomainError as err:  # a datum overflows on its frame's grid: find whose, alone
        if len(batch) == 1:
            outcomes[batch[0].index] = err
        else:
            for run in batch:
                _march_blocks([run], outcomes)
        return
    for b, run in enumerate(batch):
        kernel.block(kernel.error_weights, b)[:] = run.interior
    while True:
        active, gone = [batch[origin] for origin in kernel.origins], {}
        for b, run in enumerate(active):
            if run.entered < run.k:
                try:
                    run.enter(kernel, b)
                except _ROW_ERRORS as err:
                    gone[b] = err
        if not gone:
            # the march's first step, also of a block kept when another failed to enter
            starting = [b for b, step in enumerate(kernel.dt_next) if not step]
            if starting:
                starts = kernel.starting_dt([tol / (run.end - run.now)
                                             for tol, run in zip(kernel.error_tol, active)])
                for b in starting:
                    kernel.dt_next[b] = starts[b]
            dt = [run.proposal(kernel, b) for b, run in enumerate(active)]
            try:
                dt_used, rejections = kernel.implicit_advance(dt, [run.at for run in active])
            except StabilityError as err:  # the blocks it names, or all
                gone = getattr(err, "blocks", None) or dict.fromkeys(range(kernel.blocks), err)
            else:
                for b, run in enumerate(active):
                    try:
                        if run.advanced(kernel, b, dt_used[b], rejections[b]):
                            gone[b] = run.result()
                    except _ROW_ERRORS as err:
                        gone[b] = err
        for b, outcome in gone.items():
            outcomes[active[b].index] = outcome
        if len(gone) == kernel.blocks:
            return
        if gone:
            kernel.keep([b for b in range(kernel.blocks) if b not in gone])


class _Run:
    """One datum's run in `_march`: the datum's checks and the march's bounds, clock and
    snapshots, read as `evolve` reads them; a kernel's block takes its steps."""

    def __init__(self, index: int, f0: DensityField, params: DiffusionParams,
                 with_dissipation: bool):
        if f0.grid.dim != params.dim:
            raise DomainError("initial field dimension does not match params.dim")
        self.m0 = float(f0.grid.weights() @ f0.values)
        if abs(self.m0 - 1.0) > 1e-6:
            raise DomainError(f"initial mass must be 1 within 1e-6, got {self.m0}")
        self.index, self.f0, self.params, self.with_dissipation = index, f0, params, with_dissipation
        self.times, self.p = params.times(), params.p
        self.t = float(self.times[0])
        self.u0, self.edge = _clipped(f0.grid, self.p, f0.values)[0], _edge_weights(f0.grid)
        self.edge_mass = float(self.edge @ f0.values)
        # the largest ||u_t||_1 of the run: the flow is an L1 contraction
        self.rate = float(np.abs(_divergence(f0.grid.conductances()[0],
                                             np.power(self.u0, self.p))).sum())
        # tau = log t is the self-similar frame's clock: from t > 0, a probe chooses it
        self.drift = 1.0 / coefficients(self.p, params.dim).mu if self.t > 0.0 else 0.0
        self.self_similar = False

    def frame(self) -> None:
        """Lays the march out in the frame the probe chose: its grid, the march's clock,
        which must advance, and the first snapshot."""
        f0, times, t = self.f0, self.times, self.t
        self.start, self.dilate = f0, 0.0  # dilate: 1 / mu when the march runs in y
        if self.self_similar:
            self.start, self.dilate = rescale(f0, t ** -self.drift), self.drift  # onto the y-grid
            self.edge = _edge_weights(self.start.grid)
        self.grid = self.start.grid
        self.interior = self.grid.weights() - self.edge  # 0 at the edge: the wall's layer is the domain's
        # the march's clock at each snapshot: t, or tau = log t in the self-similar frame
        self.clock = [math.log(x) for x in times] if self.dilate else [float(x) for x in times]
        for k in range(1, len(self.clock)):
            if not self.clock[k] > self.clock[k - 1]:
                raise DomainError(f"snapshot interval [{float(times[k - 1])!r}, "
                                  f"{float(times[k])!r}] does not advance the march's clock, "
                                  f"{'log t' if self.dilate else 't'}")
        self.steps = self.rejections = 0
        self.snaps = [snapshot(f0, self.p, self.params.dim, t=t,
                               with_dissipation=self.with_dissipation)]
        self.fields = [(f0, t, 0.0)]
        self.now, self.at, self.k, self.entered = self.clock[0], t, 1, 0  # at: now in t, for messages

    def enter(self, kernel: _Kernel, b: int) -> None:
        """The step bounds of the interval k the march enters, read once, for block b."""
        k, times, p, m0 = self.k, self.times, self.p, self.m0
        self.entered, self.end, span = k, self.clock[k], float(times[k] - times[k - 1])
        self.longest = MAX_CFL_STEPS * _stable_dt(self.grid, p, kernel.block(kernel.u, b),
                                                  kernel.umax[b], 1.0)
        # a step the cap shortens is over half the cap, or lands on the end
        if self.end + 0.5 * self.longest == self.end:
            raise DomainError(f"domain radius {self.f0.grid.radius()!r} is too small for this "
                              f"datum: its longest step, {self.longest:.3g}, cannot advance "
                              f"t = {float(times[k - 1])!r}")
        if self.dilate:  # TOL_CONCAVITY of the interval's change of log N_p, nu I_p dt
            nu = coefficients(p, self.params.dim).nu
            kernel.block(kernel.error_weights, b)[:] = _entropy_weights(kernel, b, self.interior, nu)
            kernel.error_tol[b] = TOL_CONCAVITY * abs(nu * self.snaps[-1].i_p) * span
        else:
            # the most mass the flow can move over this interval, and sqrt(eps) of the
            # mass where it barely moves, so that rounding fails no step
            moved = min(self.rate * span, m0)
            kernel.error_tol[b] = LOCAL_ERROR_TOL * max(moved, math.sqrt(EPS) * m0)

    def proposal(self, kernel: _Kernel, b: int) -> float:
        """Block b's next step: what remains, to t_end for a step with a local-error
        estimate (the third on), which passes snapshot times, else to the next snapshot,
        in equal parts no longer than the proposed step."""
        self.last = len(self.clock) - 1 if kernel.u_prev2 is not None else self.k
        self.remaining = self.clock[self.last] - self.now
        parts = max(1, math.ceil(self.remaining / min(kernel.dt_next[b], self.longest)))
        return self.remaining / parts

    def advanced(self, kernel: _Kernel, b: int, dt_used: float, rejections: int) -> bool:
        """Takes in block b's step of dt_used and reads the snapshots it reached; True when
        the run has reached t_end."""
        if dt_used == self.remaining:  # it lands exactly
            self.now, self.at = self.clock[self.last], float(self.times[self.last])
        else:
            self.now += dt_used
            self.at = math.exp(self.now) if self.dilate else self.now
        self.steps += 1
        self.rejections += rejections
        p, dim, dilate = self.p, self.params.dim, self.dilate
        while self.k < len(self.clock) and self.clock[self.k] <= self.now:
            t = float(self.times[self.k])
            values = kernel.interpolant(self.now - self.clock[self.k], b)
            self.edge_mass = max(self.edge_mass, float(self.edge @ values))
            fld = DensityField(self.grid, values)
            snap = snapshot(fld, p, dim, t=t, with_dissipation=self.with_dissipation)
            self.snaps.append(rescale_snapshot(snap, t ** dilate, p, dim))  # to x at t
            self.fields.append((fld, t, dilate))
            self.k += 1
        return self.k == len(self.clock)

    def result(self) -> EvolutionResult:
        """The finished run's result; it warns where the wall cut the flow."""
        result = EvolutionResult(self.params, self.snaps, FieldSeries(self.fields), self.steps,
                                 self.rejections, self.edge_mass)
        if result.domain_cut:
            warnings.warn(f"edge mass {self.edge_mass:.3e} exceeds {DOMAIN_TOL}; "
                          "domain is likely too small", BoundaryLeakWarning)
        return result
