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
v_tau = Lap(v^p) + div(y v) / mu, and the Barenblatt stands still.  The kernel's drift
adds c m dphi to each face flux, phi = |y|^2 / (2 mu) and m the secant mobility, so
the flux is c m d(xi) with xi = e'(v) + phi and the sampled Barenblatt, on which xi is
constant, is a discrete steady state; a face whose upwind cell is empty is closed.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .analytic import coefficients
from .errors import BoundaryLeakWarning, DomainError, StabilityError
from .functionals import FunctionalSnapshot, rescale, snapshot
from .grids import RADIAL, DensityField, Grid

MAX_REJECTIONS = 40
NEGATIVITY_SLACK = 1e-14  # relative to max(u): tolerated roundoff undershoot
DOMAIN_TOL = 1e-6  # mass a domain may leave past its wall (the sizing) or hold at it (the edge)
EDGE_CELLS = 64  # the edge mass is read in the last node_count // EDGE_CELLS cells
# An implicit step relinearizes while it misplaces more than this fraction of the mass it
# moves (4096-node p = 2 Barenblatt, L1 off Newton's steps: 2.0e-6 at 1e-2, 4.8e-7 at 1e-3).
LINEARIZATION_TOL = 1e-3
# An implicit step's local-error estimate, in mass, is at most this fraction of the
# most mass the flow can move over its snapshot interval: the interval times the
# starting rate ||u_t||_1 (the rate never grows: the flow is an L1 contraction), and
# at most the mass.  The concavity check takes second differences of N_p in units of
# its largest change per interval, so closer snapshots get more accurate steps.
# The starting rate is the check's unit: N_p is concave, so its largest slope is its
# first.  In the self-similar frame, where the fitted Barenblatt datum stands still,
# the 2048-node p = 2 run (t 1..3, 33 snapshots) takes 32 steps and 32 solves and the
# 768-node p = 0.8, n = 3 run (t 1..1.25, 17 snapshots) 16 steps and 16 solves: one step
# per snapshot interval, so at half this fraction their steps and margins are unchanged.
LOCAL_ERROR_TOL = 4e-5
# The explicit (CFL) step's share of the stable step; the explicit step alone reads it.
CFL_SAFETY = 0.9
# An implicit step is at most this many CFL steps (taken at each snapshot).  Its flux
# form carries the rounding of v = u^p into u' times dt / cfl_dt: about 2 eps per CFL
# step, relative to max(u), on the flat state of three geometries (1.7e6 CFL steps:
# 4.3e-10).  Near the flat state the local-error estimate vanishes, and that rounding
# is all the error there is: the 256-node flat p = 0.8, n = 3 state ended uneven by
# 5.8e-9 after steps of 1.7e7 CFL steps.
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
    """The flux steps on one (grid, p), in preallocated buffers and slice views.

    The grid is read only as its weights w and `Grid.conductances`; every flux is
    formed in `_net_flux`, as conductance * dv.  `advance` is the explicit step
    u + dt L(v) / w, `implicit_advance` the BDF2 one, which keeps the last two u and
    steps as its history and proposes the next step, `dt_next`.  The implicit step's
    `_ReductionPlan` and buffers (`work`, about 8N doubles, and `ring`, the four u
    levels as rows) are made on its first call, so `step` and `cfl_dt` never pay for
    them.  u is clipped to u >= 0 on entry and after a step that undershoots.  v = u^p
    and its differences dv serve both the p < 1 chord stiffness and the fluxes, and
    the acceptance test's max(u) is the next umax.  An explicit step refreshes v and
    dv; an implicit one uses v, dv and du as scratch, so callers refresh them with
    `_faces()` before reading them (`speed`, `cfl_dt`, `starting_dt`, `advance`).
    Each out= pass of either step keeps the operands and operation order of the plain
    array expressions: bitwise theirs.

    With a drift c > 0 the kernel steps v_tau = Lap(v^p) + c div(y v) on the y-grid:
    every face flux gains c m dphi (`_drift_faces`), read by `speed`, `starting_dt`
    and `implicit_advance`, whose linearization takes it as an upwind term in u' with
    the ratio m / g_up frozen at the extrapolation g.  Its system stays a
    column-diagonally-dominant M-matrix with zero column sums for p >= 1 (for p < 1
    while neighbouring g differ by less than a factor (1-p)^{-1/p}).  The explicit
    `advance` and `cfl_dt` read no drift: with none the kernel is the drift-free one,
    bit for bit.
    """

    def __init__(self, grid: Grid, p: float, values: np.ndarray, drift: float = 0.0):
        n = grid.node_count
        self.p, self.weights = p, grid.weights()
        self.conductance, self.coupling, self.max_rate = grid.conductances()
        self.u = np.maximum(values, 0.0)
        self.umax = float(self.u.max())
        with np.errstate(over="ignore"):  # 2 N max(c) max(u)^p bounds the fluxes' sum
            if not 2 * n * self.conductance.max() * np.float64(self.umax) ** p < math.inf:
                raise DomainError(f"domain radius {grid.radius()!r} is too small for this "
                                  "datum: u^p or its fluxes overflow")
        self.new, self.v, self.div = np.empty(n), np.empty(n), np.empty(n)
        self.dv, self.du = np.empty(n - 1), np.empty(n - 1)
        self.flux = np.zeros(n + 1)  # walls: zero flux
        self.v_hi, self.v_lo, self.flux_in = self.v[1:], self.v[:-1], self.flux[1:-1]
        self.flux_hi, self.flux_lo = self.flux[1:], self.flux[:-1]
        # BDF2 history (none before the first implicit step) and the next step's proposal
        self.u_prev = self.u_prev2 = None
        self.dt_prev = self.dt_prev2 = self.dt_next = 0.0
        self.error_tol = math.inf  # the local error, in mass, a step may make (evolve sets it)
        self.error_weights = self.weights  # the estimate's weights (evolve leaves the edge out)
        self.plan = self.work = None  # the implicit solver and buffers: made by its first call
        self.drift = drift
        if drift:
            phi = 0.5 * drift * grid.nodes() ** 2
            self.pull = self.conductance * (phi[1:] - phi[:-1])  # c dphi per face
            self.lift, self.lift_hi, self.mobility, self.log_ratio, self.open_c = (
                np.empty(n - 1) for _ in range(5))
            self.cond_p, self.log_g, self.up = self.conductance / p, np.empty(n), np.empty(n - 1, bool)
            self.closed = np.empty(n - 1, bool) if p > 1.0 else None  # no cell is empty for p <= 1
        self._faces()

    def _faces(self) -> None:
        np.power(self.u, self.p, out=self.v)
        np.subtract(self.v_hi, self.v_lo, out=self.dv)

    def stiffness(self) -> float:
        """Max diffusivity bound entering the CFL step: p * max(u)^{p-1} for p >= 1.

        For p < 1 that would pick the *least* stiff node, so the max face chord slope
        of u -> u^p is used instead: the convex-combination (monotonicity) bound.
        """
        if not self.umax > 0.0:
            raise DomainError("field has no positive maximum")
        bound = self.p * self.umax ** (self.p - 1.0)
        if self.p >= 1.0:
            return bound
        chord = np.subtract(self.u[1:], self.u[:-1], out=self.du)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(self.dv, chord, out=chord)  # 0/0 = nan where du == 0
        # fmax skips those nans: such faces count as chord 0, below the bound
        return float(np.fmax.reduce(np.abs(chord, out=chord), initial=bound))

    def cfl_dt(self, safety: float = CFL_SAFETY) -> float:
        return safety / (self.stiffness() * self.max_rate)

    def advance(self, dt: float, t: float) -> tuple[float, int]:
        """One accepted step from t, halving dt on undershoot: (dt, rejections)."""
        div = self._net_flux()
        new, rejections = self.new, 0
        while True:
            np.multiply(div, dt, out=new)
            np.divide(new, self.weights, out=new)
            np.add(self.u, new, out=new)
            umax, umin = np.maximum.reduce(new), np.minimum.reduce(new)
            if umin >= -NEGATIVITY_SLACK * umax:
                break
            rejections += 1
            if rejections > MAX_REJECTIONS:
                raise StabilityError(
                    f"step at t = {t} rejected {rejections} times; CFL bound violated")
            dt *= 0.5
        if umin < 0.0:
            np.maximum(new, 0.0, out=new)
        self.u, self.new, self.umax = new, self.u, float(umax)
        self._faces()
        return dt, rejections

    def _divergence(self, v: np.ndarray) -> np.ndarray:
        """(L v)_i: net face flux of v into cell i, walls closed."""
        np.subtract(v[1:], v[:-1], out=self.dv)
        return self._net_flux()

    def _net_flux(self) -> np.ndarray:
        """(L v)_i from the differences dv: the net flux conductance * dv into cell i."""
        np.multiply(self.conductance, self.dv, out=self.flux_in)
        return np.subtract(self.flux_hi, self.flux_lo, out=self.div)

    def _floor(self) -> float:
        """The floor of g = max(u, floor): 0 for p > 1; for p <= 1 the rounding of max(u),
        and with a drift the least normal float, which keeps log g finite: there the
        tail below max(u)'s rounding is part of the steady state, on which xi is
        constant, and a higher floor would move it."""
        if self.p > 1.0:
            return 0.0
        return TINY if self.drift else EPS * self.umax

    def _flow(self) -> np.ndarray:
        """The net flux into each cell at u: L v (dv is _faces()'s), and with a drift the
        drift kernel's flux at g = max(u, floor), across open faces (`_drift_faces`)."""
        if not self.drift:
            return self._net_flux()
        g = np.maximum(self.u, self._floor())
        np.multiply(self.conductance, np.diff(g ** self.p), out=self.flux_in)
        self._drift_faces(g)
        return np.subtract(self.flux_hi, self.flux_lo, out=self.div)

    def _drift_faces(self, g: np.ndarray) -> None:
        """The drift's face terms at g, with flux_in holding c (g_{j+1}^p - g_j^p) on entry.

        Adds the drift flux c m dphi to flux_in, where m = d(g^p) / d(e'(g)) is the
        secant mobility across the face, e'(g) = p g^{p-1} / (p-1) (log g at p = 1), so
        flux_in becomes c m d(xi), xi = e'(g) + phi.  Where it is positive the upper cell
        is upwind (`up`): the mass leaves it.  `lift` is c m dphi / g_up, the drift's
        share of the flux per unit of the upwind cell.  For p > 1 a face whose upwind
        cell is empty is closed (`closed`): it carries no flux, so flux_in and lift are 0
        there; so is one whose ratio m / g_up overflows, g_up being rounding beside m.
        m is formed from r = min / max of the pair's g as
        max(g) (r^p - 1) / (p (r^{p-1} - 1) / (p - 1)), through expm1 and log as
        `functionals._pressure` does (log r for the denominator's quotient at p = 1); at
        r = 1 (0/0), and where both cells are empty, the quotient reads 1.
        """
        p, flux, lift, up = self.p, self.flux_in, self.lift, self.up
        mob, ratio = self.mobility, self.log_ratio
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
            np.add(flux, mob, out=flux)
            np.greater(flux, 0.0, out=up)
            np.copyto(ratio, g[:-1])
            np.copyto(ratio, g[1:], where=up)  # g_up
            np.divide(mob, ratio, out=lift)
        if self.closed is not None:  # g_up = 0, or so far below m that the ratio overflows
            np.logical_not(np.isfinite(lift, out=self.closed), out=self.closed)
            np.copyto(lift, 0.0, where=self.closed)
            np.copyto(flux, 0.0, where=self.closed)

    def _split(self, theta: float) -> None:
        """open_c = theta c, 0 across closed faces, and theta lift split by the upwind
        cell: `lift_hi` where the upper cell is upwind, `lift` where the lower one is."""
        np.multiply(self.conductance, theta, out=self.open_c)
        if self.closed is not None:
            np.copyto(self.open_c, 0.0, where=self.closed)
        np.multiply(self.lift, theta, out=self.lift)
        np.multiply(self.lift, self.up, out=self.lift_hi)
        np.subtract(self.lift, self.lift_hi, out=self.lift)

    def _linear_flow(self, lin: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The net flux into each cell of the drift kernel's flow linearized as `_split`
        left it, for the linearized u^p lin at the field x: the face flux is
        open_c (lin_{j+1} - lin_j) + lift_hi x_{j+1} + lift x_j."""
        flux, scratch = self.flux_in, self.dv
        np.subtract(lin[1:], lin[:-1], out=flux)
        np.multiply(flux, self.open_c, out=flux)
        np.add(flux, np.multiply(self.lift_hi, x[1:], out=scratch), out=flux)
        np.add(flux, np.multiply(self.lift, x[:-1], out=scratch), out=flux)
        return np.subtract(self.flux_hi, self.flux_lo, out=out)

    def speed(self) -> float:
        """||u_t||_1, u_t = `_flow()` / W: the mass the flow moves per unit time."""
        return float(np.abs(self._flow(), out=self.div).sum())

    def starting_dt(self, tol_rate: float) -> float:
        """The first implicit step, read from the flow rather than the grid: the
        backward-Euler step whose local error, dt^2 / 2 ||u_tt||_1, is tol_rate dt, so
        2 tol_rate / ||u_tt||_1, both norms over `error_weights`.  u_t = `_flow()` / w
        and u_tt = J u_t / w, J the flow linearized at u as `implicit_advance` does:
        L(s u_t) with s = p u^{p-1}, u floored as there, and with a drift its upwind
        term at the frozen ratio m / g_up (dv is _faces()'s)."""
        p, w = self.p, self.weights
        rate = self._flow() / w
        slope = p * np.maximum(self.u, self._floor()) ** (p - 1.0)
        if self.drift:
            self._split(1.0)
            accel = self._linear_flow(slope * rate, rate, self.div) / w
        else:
            accel = self._divergence(slope * rate) / w
        norm = float(self.error_weights @ np.abs(accel))
        return 2.0 * tol_rate / norm if norm > 0.0 else math.inf

    def implicit_advance(self, dt: float, t: float) -> tuple[float, int]:
        """One variable-step BDF2 step from t, halving dt on undershoot: (dt, rejections).

        With omega = dt / dt_prev the step solves W (u' - b) = theta L u'^p for
        b = ((1+omega)^2 u - omega^2 u_prev) / (1+2 omega), formed as
        u + omega^2 (u - u_prev) / (1+2 omega), and
        theta = dt (1+omega) / (1+2 omega); with no u_prev it is backward Euler
        (b = u, theta = dt).  Callers keep omega <= 2 < 1 + sqrt(2), where BDF2 is
        zero-stable.  The step is linearly implicit (Akrivis and Crouzeix, Math.
        Comp. 73, 2004): it solves W (u' - b) = theta L (g^p + s (u' - g)), s = p g^{p-1},
        about g = u + omega (u - u_prev) (g = u first), floored at 0 for p > 1 and at
        the rounding of max(u) for p < 1 (with a drift, at the least normal float,
        `_floor`): a column-diagonally-dominant M-matrix,
        nonsingular where s = 0.  u' comes from the telescoping fluxes of the
        linearized u'^p, so mass is conserved.  Where u is smooth the linearization
        error is O(theta |u' - g|^2) = O(dt^5), but ahead of a p > 1 front g = 0, the
        linearized u'^p is 0, and one solve moves the front at most one cell.  While
        the defect d = u'^p - (g^p + s (u' - g)) at the front (nodes with u' > 2 g;
        elsewhere d is small, or rounding as large as the step near the flat state)
        misplaces theta ||L d||_1 above LINEARIZATION_TOL of the mass the step moves,
        the step relinearizes about u' (a Newton step) and solves again, moving the
        front a cell further.  d is formed at the front nodes only, in a zeroed buffer
        that is zeroed again after use.  b can be negative near a front, so an
        undershoot of any solve halves dt, a rejection.  With a drift, where b is
        negative beyond rounding the step is backward Euler (b = u, theta = dt, g = u):
        a cell the drift drains would extrapolate below 0, and no flux could fill it.

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
        """
        p, w, scratch, conduct = self.p, self.weights, self.v, self.du
        if self.plan is None:
            n = w.size
            self.plan = _ReductionPlan(n)
            self.work = [np.empty(n) for _ in range(7)] + [np.zeros(n), np.empty(n, dtype=bool)]
            # u, new, u_prev and u_prev2 take turns as the rows of one block, so the
            # estimate's P2 is a single product with it
            self.ring, self.head, self.coef = np.empty((4, n)), 0, np.empty(4)
            np.copyto(self.ring[0], self.u)
            self.u, self.new = self.ring[0], self.ring[1]
        u, new, plan = self.u, self.new, self.plan
        bdf_base, spring, load, slope, shift, g_buf, trial_buf, defect, front = self.work
        floor = self._floor()
        rejections = 0
        while True:
            g, trial = g_buf, trial_buf
            if self.u_prev is None:
                base, theta = u, dt
                np.maximum(u, floor, out=g)
            else:
                omega = dt / self.dt_prev
                scale = 1.0 + 2.0 * omega
                change = np.subtract(u, self.u_prev, out=g)
                base = np.multiply(change, omega * omega / scale, out=bdf_base)
                np.add(u, base, out=base)
                theta = dt * (1.0 + omega) / scale
                np.multiply(change, omega, out=g)
                np.add(u, g, out=g)
                np.maximum(g, floor, out=g)
                if self.drift and base.min() < -NEGATIVITY_SLACK * self.umax:
                    base, theta = u, dt  # a draining cell: backward Euler, from u >= 0
                    np.maximum(u, floor, out=g)
            np.multiply(self.conductance, theta, out=conduct)
            np.multiply(self.coupling, theta, out=spring)
            np.multiply(w, base, out=load)
            for _ in range(w.size):  # Newton moves the front at least a cell per solve
                np.copyto(slope, g)
                slope **= p - 1.0  # `**` with numpy's fast paths (sqrt, square), as g ** (p - 1)
                np.multiply(g, 1.0 - p, out=shift)
                np.multiply(shift, slope, out=shift)  # the linearized u'^p is shift + slope u'
                np.multiply(slope, p, out=slope)
                if self.drift:
                    self._drift_rows(g, slope, shift, theta, load)
                else:
                    np.multiply(conduct, slope[:-1], out=plan.lower)
                    np.multiply(conduct, slope[1:], out=plan.upper)
                    np.add(w, np.multiply(spring, slope, out=plan.diag), out=plan.diag)
                    np.multiply(theta, self._divergence(shift), out=plan.rhs)
                    np.add(load, plan.rhs, out=plan.rhs)
                sol = plan.solve()
                np.multiply(slope, sol, out=scratch)
                np.add(shift, scratch, out=scratch)
                if self.drift:
                    self._linear_flow(scratch, sol, new)
                else:
                    np.multiply(theta, self._divergence(scratch), out=new)
                np.divide(new, w, out=new)
                np.add(base, new, out=new)
                umax = new.max()
                undershoot = not new.min() >= -NEGATIVITY_SLACK * umax  # nan counts too
                np.maximum(new, floor, out=trial)
                (at,) = np.greater(trial, np.multiply(g, 2.0, out=scratch), out=front).nonzero()
                misplaced = 0.0  # no front node: no defect
                if at.size:
                    front_u = trial[at]
                    defect[at] = front_u ** p - shift[at] - slope[at] * front_u
                    misplaced = theta * np.abs(self._divergence(defect), out=self.div).sum()
                    defect[at] = 0.0
                if undershoot or misplaced <= LINEARIZATION_TOL * (
                        w @ np.abs(np.subtract(new, u, out=scratch), out=scratch)):
                    break
                g, trial = trial, g
            else:
                raise StabilityError(f"implicit step at t = {t}: linearization did not settle")
            if undershoot:
                factor = 0.5
            else:
                error = self._local_error(dt, theta, slope, base is u)
                factor = 2.0  # the controller: 0.9 (error_tol / error)^(1/3), at most 2
                if 8.0 * error > 0.9 ** 3 * self.error_tol:
                    factor = 0.9 * (self.error_tol / error) ** (1.0 / 3.0)
                if not error > self.error_tol:
                    break
            rejections += 1
            if rejections > MAX_REJECTIONS:
                raise StabilityError(f"implicit step at t = {t} failed {rejections} times")
            dt *= factor
        np.maximum(new, 0.0, out=new)
        self.head += 1
        self.u_prev2, self.dt_prev2 = self.u_prev, self.dt_prev
        self.u_prev, self.dt_prev, self.u = u, dt, new
        self.new = self.ring[(self.head + 1) % 4]  # the oldest row
        self.umax, self.dt_next = float(umax), factor * dt  # v, dv and du are left stale
        return dt, rejections

    def _drift_rows(self, g: np.ndarray, slope: np.ndarray, shift: np.ndarray, theta: float,
                    load: np.ndarray) -> None:
        """The plan's system for the step linearized about g with the drift: theta times
        the face fluxes of `_linear_flow`, about g's faces (`_drift_faces`), with the
        linearized u'^p = shift + slope u'.  Each face's upwind term adds to the coupling
        of its upwind cell, so the columns still sum to the weights."""
        plan, open_c, flux = self.plan, self.open_c, self.flux_in
        np.multiply(slope, g, out=self.v)  # p g^p
        np.subtract(self.v_hi, self.v_lo, out=flux)
        np.multiply(flux, self.cond_p, out=flux)
        self._drift_faces(g)
        self._split(theta)
        lower, diag, upper = plan.lower, plan.diag, plan.upper
        np.add(np.multiply(open_c, slope[1:], out=upper), self.lift_hi, out=upper)
        np.subtract(np.multiply(open_c, slope[:-1], out=lower), self.lift, out=lower)
        np.copyto(diag, self.weights)
        np.add(diag[:-1], lower, out=diag[:-1])
        np.add(diag[1:], upper, out=diag[1:])
        np.subtract(shift[1:], shift[:-1], out=flux)
        np.multiply(flux, open_c, out=flux)
        np.add(load, np.subtract(self.flux_hi, self.flux_lo, out=plan.rhs), out=plan.rhs)

    def _local_error(self, dt: float, theta: float, gap: np.ndarray, euler: bool) -> float:
        """C w @ |new - P2| for the step of dt to new (self.new), 0 before three levels;
        w here is `error_weights`.  A backward-Euler step errs by dt^2 / 2 u_tt, which
        new - P2 holds whole: C = 1."""
        if self.u_prev2 is None:
            return 0.0
        h1, h2, head, coef = self.dt_prev, self.dt_prev2, self.head, self.coef
        # P2 = u + a (u - u_prev) - b (u_prev - u_prev2), the Newton form through the levels
        k = dt * (dt + h1) / (h1 + h2)
        a, b = (dt + k) / h1, k / h2
        coef[(head + 1) % 4], coef[head % 4] = 1.0, -1.0 - a
        coef[(head - 1) % 4], coef[(head - 2) % 4] = a + b, -b
        np.dot(coef, self.ring, out=gap)  # new - P2
        share = 1.0 if euler else theta / (theta + dt + h1 + h2)
        return share * float(self.error_weights @ np.abs(gap, out=gap))


class _ReductionPlan:
    """Odd-even cyclic reduction for tridiagonal systems of one size, in its own buffers.

    Row i reads -lower[i-1] x[i-1] + diag[i] x[i] - upper[i] x[i+1] = rhs[i]: the
    off-diagonals are stored negated, as the step's M-matrix has no positive ones.
    Callers fill the four arrays, and `solve` returns x, a buffer the next solve
    overwrites.  Eliminating the odd unknowns leaves a tridiagonal system in the
    even ones (their Schur complement), written to the next level's buffers and
    solved the same way, straight into x[0::2]; the multipliers overwrite the
    couplings of lower and upper that the odd rows no longer need.  Below
    SEQUENTIAL_SIZE rows the per-call cost of numpy outweighs the work, and
    elimination on Python floats finishes; the odd unknowns follow by back
    substitution.  Every level's buffers and views are made here, once, so a solve
    is a flat run of out= ufunc calls.  Each product and sum is that of the plain
    recursion on (sub, diag, sup) = (-lower, diag, -upper), in its order, and
    negation is exact, so the solution is bitwise the recursion's.  There is no
    pivoting: the Schur complements of a column-diagonally-dominant M-matrix are
    again such matrices, so no pivot vanishes.
    """

    def __init__(self, n: int):
        self.lower, self.upper = np.empty(n - 1), np.empty(n - 1)
        self.diag, self.rhs, self.x = np.empty(n), np.empty(n), np.empty(n)
        scratch = np.empty(n // 2)
        lower, diag, upper, rhs, x = self.lower, self.diag, self.upper, self.rhs, self.x
        forward, backward = [], []
        while diag.size > SEQUENTIAL_SIZE:
            k, m = diag.size // 2, (diag.size - 1) // 2  # odd rows; those with an even right
            odd_diag, odd_rhs, odd_x = diag[1::2], rhs[1::2], x[1::2]
            # odd row j couples to even rows j (left) and j+1 (right); even row j to
            # odd rows j (right) and j-1 (left), whose couplings become the multipliers
            odd_left, odd_right, right, left = lower[0::2], upper[1::2], upper[0::2], lower[1::2]
            even_diag, even_rhs, even_x = diag[0::2], rhs[0::2], x[0::2]
            next_lower, next_upper = np.empty(m), np.empty(m)
            next_diag, next_rhs = np.empty(diag.size - k), np.empty(diag.size - k)
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
        x[:] = _eliminate(lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist())
        for call, args in self.backward:
            call(*args)
        return self.x


def _eliminate(lower: list, diag: list, upper: list, rhs: list) -> list:
    """The tridiagonal solve by sequential elimination, on Python floats, off-diagonals
    negated as in `_ReductionPlan`; overwrites diag and rhs."""
    n = len(diag)
    for i in range(1, n):
        factor = lower[i - 1] / diag[i - 1]
        diag[i] -= factor * upper[i - 1]
        rhs[i] += factor * rhs[i - 1]
    x = rhs
    x[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (rhs[i] + upper[i] * x[i + 1]) / diag[i]
    return x


def cfl_dt(f: DensityField, params: DiffusionParams) -> float:
    """Stable explicit step CFL_SAFETY / (D max_i c_i / w_i), c_i node i's summed conductances."""
    return _Kernel(f.grid, params.p, f.values).cfl_dt()


def step(state: SolverState, params: DiffusionParams, dt: float | None = None) -> SolverState:
    """Advance one accepted step from max(values, 0), halving dt on CFL violations."""
    kernel = _Kernel(state.grid, params.p, state.values)
    if dt is None:
        dt = kernel.cfl_dt()
    dt_used, rejections = kernel.advance(dt, state.t)
    return replace(
        state,
        t=state.t + dt_used,
        values=kernel.u,
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


@dataclass
class EvolutionResult:
    params: DiffusionParams
    snapshots: list[FunctionalSnapshot]
    fields: list[DensityField]
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


def evolve(f0: DensityField, params: DiffusionParams,
           with_dissipation: bool = False) -> EvolutionResult:
    """March from t_start to t_end, landing exactly on every snapshot time.

    The step toward the next snapshot divides the remaining interval into equal
    parts no longer than the proposed step, so the recorded functional series has no
    step-size kinks inside an interval.  The march is linearly implicit BDF2, with its
    history, from t_start to the end, for every p.  Its tolerance, taken before each
    interval, is LOCAL_ERROR_TOL of the most mass the flow can move over the interval,
    and a step is at most MAX_CFL_STEPS CFL steps: DomainError where such a step cannot
    move the clock, on a domain too small for the datum.  The march starts with the
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
    the mass it moves in x per unit of log t, read on the x-grid (a kernel with the
    drift 1 / (mu t) there), so a run that stays in x dilates nothing.  In y the datum
    is dilated exactly onto the y-grid (`functionals.rescale` by t^{-1/mu}), the kernel
    gets the drift 1 / mu, and the march's clock is tau = log t (refused before any step
    where it does not advance: t 1e6 to 1e6 + 1e-10).  Each snapshot is mapped back by
    `rescale(., t_k^{1/mu})`, so the snapshots, the checks and the messages read the
    physical field at physical t, and `fields[k]` lives on the grid dilated to t_k.  The
    tolerance keeps its unit, mass over the interval in t.  The y-frame's wall moves out
    with the grid in x.  A backward-Euler step stands in for BDF2 there when BDF2's base
    is negative beyond rounding: a cell the drift drains (a thin tail ahead of a p > 1
    front, a front retreating in y) extrapolates below 0.
    """
    if f0.grid.dim != params.dim:
        raise DomainError("initial field dimension does not match params.dim")
    m0 = float(f0.grid.weights() @ f0.values)
    if abs(m0 - 1.0) > 1e-6:
        raise DomainError(f"initial mass must be 1 within 1e-6, got {m0}")
    times = params.times()
    p, grid = params.p, f0.grid
    t = float(times[0])
    kernel, edge = _Kernel(grid, p, f0.values), _edge_weights(grid)
    edge_mass = float(edge @ f0.values)
    rate = kernel.speed()  # the largest ||u_t||_1 of the run: the flow is an L1 contraction
    dilate = 0.0  # 1 / mu when the march runs in y
    if t > 0.0:  # tau = log t is the self-similar frame's clock
        drift = 1.0 / coefficients(p, params.dim).mu
        # ||v_tau||_1 is t times the mass the x-grid flow with the drift drift / t moves
        if _Kernel(grid, p, kernel.u, drift / t).speed() < SELF_SIMILAR_RATE * rate:
            start = rescale(f0, t ** -drift)  # onto the y-grid
            dilate, grid, kernel = drift, start.grid, _Kernel(start.grid, p, start.values, drift)
            edge = _edge_weights(grid)
    kernel.error_weights = grid.weights() - edge  # 0 at the edge: the wall's layer is the domain's
    # the march's clock at each snapshot: t, or tau = log t in the self-similar frame
    clock = [math.log(x) for x in times] if dilate else [float(x) for x in times]
    for k in range(1, len(clock)):
        if not clock[k] > clock[k - 1]:
            raise DomainError(f"snapshot interval [{float(times[k - 1])!r}, {float(times[k])!r}] "
                              f"does not advance the march's clock, {'log t' if dilate else 't'}")
    steps = rejections = 0
    snaps = [snapshot(f0, p, params.dim, t=t, with_dissipation=with_dissipation)]
    fields = [f0]
    for target, now, end in zip(times[1:], clock, clock[1:]):
        kernel._faces()  # an implicit step leaves v = u^p stale
        longest = MAX_CFL_STEPS * kernel.cfl_dt(1.0)
        # a step the cap shortens is over half the cap, or lands on the end
        if end + 0.5 * longest == end:
            raise DomainError(f"domain radius {f0.grid.radius()!r} is too small for this "
                              f"datum: its longest step, {longest:.3g}, cannot advance t = {t!r}")
        # the most mass the flow can move over this interval, and sqrt(eps) of the mass
        # where it barely moves, so that rounding fails no step
        moved = min(rate * float(target - t), m0)
        kernel.error_tol = LOCAL_ERROR_TOL * max(moved, math.sqrt(EPS) * m0)
        if not kernel.dt_next:  # the march's first step
            kernel.dt_next = kernel.starting_dt(kernel.error_tol / (end - now))
        at = t  # the step's start in t, for messages
        while now < end:
            remaining = end - now
            parts = max(1, math.ceil(remaining / min(kernel.dt_next, longest)))
            dt_used, rej = kernel.implicit_advance(remaining / parts, at)
            now += dt_used
            at = math.exp(now) if dilate else now
            steps += 1
            rejections += rej
        t = float(target)  # absorb roundoff from the exact landing
        fld = DensityField(grid, kernel.u)
        if dilate:
            fld = rescale(fld, t ** dilate)  # back to x at t
        snaps.append(snapshot(fld, p, params.dim, t=t, with_dissipation=with_dissipation))
        fields.append(fld)
        edge_mass = max(edge_mass, float(edge @ kernel.u))
    result = EvolutionResult(params, snaps, fields, steps, rejections, edge_mass)
    if result.domain_cut:
        warnings.warn(f"edge mass {edge_mass:.3e} exceeds {DOMAIN_TOL}; "
                      "domain is likely too small", BoundaryLeakWarning)
    return result
