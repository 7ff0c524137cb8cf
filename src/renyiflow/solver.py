"""Conservative finite-volume solver for u_t = Lap(u^p).

The update is written in flux form on v = u^p: face fluxes (v_R - v_L)/h, radial
faces weighted by their area |S^{n-1}| r^{n-1}.  Interior fluxes telescope, so
the discrete mass changes only through the (closed, zero-flux) boundary.  The
explicit step (`step`, `cfl_dt`) keeps nonnegativity: each update is
a convex combination of neighbor values while dt D (A_{i-1/2} + A_{i+1/2}) is at
most h w_i at every node (D the stiffness, A the face areas, w the weights): for
dt up to h^2 / (2 D) on Cartesian grids and h^2 / (2^(n-1) D), set by node 0, on
radial ones.  Where that step is far below the one the flow's rate of change
allows, `evolve` takes linearly implicit BDF2 steps instead: always for p < 1,
whose diffusivity p u^{p-1} peaks in the far tail, and for p >= 1 from the first
snapshot at which that is cheaper.  It re-sizes the step at every snapshot, so a
slowing flow takes longer steps.  The degenerate p > 1 front is handled as in
Vazquez, *The Porous Medium Equation* (2007), ch. 5 and 9.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .analytic import barenblatt_spec, barenblatt_tail_mass, coefficients, suggest_domain_radius
from .errors import BoundaryLeakWarning, DomainError, StabilityError
from .functionals import FunctionalSnapshot, snapshot
from .grids import RADIAL, DensityField, Grid

MAX_REJECTIONS = 40
NEGATIVITY_SLACK = 1e-14  # relative to max(u): tolerated roundoff undershoot
DOMAIN_TOL = 1e-6  # mass a domain may leave past its wall (the sizing) or hold at it (the edge)
EDGE_CELLS = 64  # the edge mass is read in the last node_count // EDGE_CELLS cells
STEP_CHANGE = 2e-3  # implicit steps move at most this fraction of the mass
# An implicit step relinearizes while it misplaces more than this fraction of the mass it
# moves (4096-node p = 2 Barenblatt, L1 off Newton's steps: 2.0e-6 at 1e-2, 4.8e-7 at 1e-3).
LINEARIZATION_TOL = 1e-3
# An implicit march takes at least this many steps per snapshot interval (dt_run
# is at most this fraction of the shortest interval still ahead), so its startup
# ramp (about one step long, with less time error than the steps after it) stays
# a small part of an interval: at 5 steps per interval it bent N_p by 2.1e-6 at
# the first snapshot (1024-node p = 2 Barenblatt, t 1..1.1).
MIN_STEPS_PER_SNAPSHOT = 10
EPS = float(np.finfo(float).eps)
SEQUENTIAL_SIZE = 64  # tridiagonal systems this small are solved row by row
# The ratio dt_run / CFL step, taken at each snapshot, above which a p > 1 run
# marches implicitly from that snapshot on.  An implicit step costs 11-12 /
# 13-14 / 32-37 explicit ones at N = 512 / 2048 / 8192 (p = 2 Barenblatt at the
# accuracy step; 2 cores, numpy 2.4.6), so the march breaks even lower, but
# below about 57 the 512-node run of `test_barenblatt_concavity_exit_zero` goes
# implicit and fails on resolution.
IMPLICIT_STEP_COST = 100.0


@dataclass(frozen=True)
class DiffusionParams:
    """Run parameters; the boundary is a closed, zero-flux wall."""

    p: float
    dim: int
    t_start: float
    t_end: float
    snapshot_count: int = 9
    snapshot_times: tuple[float, ...] | None = None
    cfl_safety: float = 0.9  # explicit steps, and the first step of an implicit march

    def __post_init__(self):
        coefficients(self.p, self.dim)  # validates p > 1 - 2/dim
        if not (self.t_end > self.t_start >= 0.0):
            raise DomainError("need t_end > t_start >= 0")
        if not 0.0 < self.cfl_safety < 1.0:
            raise DomainError("cfl_safety must lie in (0, 1)")
        if self.snapshot_times is not None:
            ts = np.asarray(self.snapshot_times, dtype=float)
            if ts.size < 2 or np.any(np.diff(ts) <= 0.0):
                raise DomainError("snapshot times must be strictly increasing")
            if not (math.isclose(ts[0], self.t_start) and math.isclose(ts[-1], self.t_end)):
                raise DomainError("snapshot times must span [t_start, t_end]")
        elif self.snapshot_count < 2:
            raise DomainError("need at least 2 snapshots")

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

    `advance` is the explicit step, `implicit_advance` the BDF2 one, which also keeps
    the previous u and step as its history; both share the weights, face areas, buffers
    and state.  u is clipped to u >= 0 on entry and after a step that undershoots.
    v = u^p and its differences dv serve both the p < 1 chord stiffness and the fluxes,
    and the acceptance test's max(u) is the next umax.  An explicit step refreshes v and
    dv; an implicit one uses them as scratch, so callers refresh them with `_faces()`
    before reading them (`accuracy_dt`, `cfl_dt`, `advance`).  Each out= pass of
    `advance` keeps the operation order of the plain array expressions: bitwise theirs.
    """

    def __init__(self, grid: Grid, p: float, values: np.ndarray):
        n, h, w = grid.node_count, grid.spacing, grid.weights()
        self.p, self.h, self.weights = p, h, w
        areas = grid.face_areas()
        self.d_geom = float(np.maximum.reduce((areas[:-1] + areas[1:]) * h / (2.0 * w)))
        self.areas = areas if grid.kind == RADIAL else None  # cartesian faces: all 1
        self.u = np.maximum(values, 0.0)
        self.umax = float(self.u.max())
        self.new, self.v, self.div = np.empty(n), np.empty(n), np.empty(n)
        self.dv, self.du = np.empty(n - 1), np.empty(n - 1)
        self.flux, self.face = np.zeros(n + 1), np.empty(n + 1)  # walls: zero flux
        face = self.face if grid.kind == RADIAL else self.flux
        self.v_hi, self.v_lo, self.flux_in = self.v[1:], self.v[:-1], self.flux[1:-1]
        self.face_hi, self.face_lo = face[1:], face[:-1]
        self.conductance = areas[1:-1] / h  # interior faces, for the implicit step
        self.coupling = np.append(self.conductance, 0.0)  # sum of a node's face conductances
        self.coupling[1:] += self.conductance
        self.u_prev, self.dt_prev = None, 0.0  # BDF2 history: none before the first implicit step
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

    def cfl_dt(self, cfl_safety: float) -> float:
        return cfl_safety * self.h * self.h / (2.0 * self.d_geom) / self.stiffness()

    def advance(self, dt: float, t: float) -> tuple[float, int]:
        """One accepted step from t, halving dt on undershoot: (dt, rejections)."""
        np.divide(self.dv, self.h, out=self.flux_in)
        if self.areas is not None:
            np.multiply(self.areas, self.flux, out=self.face)
        div = np.subtract(self.face_hi, self.face_lo, out=self.div)
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
        np.multiply(self.conductance, self.dv, out=self.flux_in)
        return np.subtract(self.flux[1:], self.flux[:-1], out=self.div)

    def accuracy_dt(self, mass_step: float) -> float:
        """Step that moves at most mass_step of mass: mass_step / ||u_t||_1, u_t = L v / W.

        ||u_t||_1 does not grow along the flow (it is an L1 contraction), so a
        step sized now keeps later steps near the same bound.
        """
        rate = float(np.abs(self._divergence(self.v)).sum())
        return mass_step / rate if rate > 0.0 else math.inf

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
        the rounding of max(u) for p < 1: a column-diagonally-dominant M-matrix,
        nonsingular where s = 0.  u' comes from the telescoping fluxes of the
        linearized u'^p, so mass is conserved.  Where u is smooth the linearization
        error is O(theta |u' - g|^2) = O(dt^5), but ahead of a p > 1 front g = 0, the
        linearized u'^p is 0, and one solve moves the front at most one cell.  While
        the defect d = u'^p - (g^p + s (u' - g)) at the front (nodes with u' > 2 g;
        elsewhere d is small, or rounding as large as the step near the flat state)
        misplaces theta ||L d||_1 above LINEARIZATION_TOL of the mass the step moves,
        the step relinearizes about u' (a Newton step) and solves again, moving the
        front a cell further.  With no front node d is zero and takes no pass.  b can
        be negative near a front, so an undershoot of any solve halves dt, a
        rejection.
        """
        p, w = self.p, self.weights
        floor = 0.0 if p > 1.0 else EPS * self.umax
        rejections = 0
        while True:
            if self.u_prev is None:
                base, theta, g = self.u, dt, self.u
            else:
                omega = dt / self.dt_prev
                scale = 1.0 + 2.0 * omega
                change = self.u - self.u_prev
                base = self.u + (omega * omega / scale) * change
                theta = dt * (1.0 + omega) / scale
                g = self.u + omega * change
            g = np.maximum(g, floor)
            off, spring, load = -theta * self.conductance, theta * self.coupling, w * base
            for _ in range(w.size):  # Newton moves the front at least a cell per solve
                power = g ** (p - 1.0)
                slope = p * power
                shift = (1.0 - p) * g * power  # the linearized u'^p is shift + slope u'
                sol = _solve_tridiagonal(off * slope[:-1], w + spring * slope,
                                         off * slope[1:], load + theta * self._divergence(shift))
                new = base + theta * self._divergence(shift + slope * sol) / w
                umax = new.max()
                undershoot = not new.min() >= -NEGATIVITY_SLACK * umax  # nan counts too
                trial = np.maximum(new, floor)
                front = trial > 2.0 * g
                misplaced = 0.0  # no front node: no defect
                if front.any():
                    defect = np.where(front, trial ** p - shift - slope * trial, 0.0)
                    misplaced = theta * np.abs(self._divergence(defect)).sum()
                if undershoot or misplaced <= LINEARIZATION_TOL * (w @ np.abs(new - self.u)):
                    break
                g = trial
            else:
                raise StabilityError(f"implicit step at t = {t}: linearization did not settle")
            if not undershoot:
                break
            rejections += 1
            if rejections > MAX_REJECTIONS:
                raise StabilityError(f"implicit step at t = {t} failed {rejections} times")
            dt *= 0.5
        np.maximum(new, 0.0, out=new)
        self.u_prev, self.dt_prev = self.u, dt
        self.u, self.umax = new, float(umax)  # v and dv are left stale
        return dt, rejections


def _solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system (sub, diag, sup) x = rhs by odd-even cyclic reduction.

    Row i reads sub[i-1] x[i-1] + diag[i] x[i] + sup[i] x[i+1].  Eliminating the odd
    unknowns leaves a tridiagonal system in the even ones (their Schur complement),
    solved the same way; the odd unknowns follow by back substitution.  Below
    SEQUENTIAL_SIZE rows the per-call cost of numpy outweighs the work, and plain
    forward elimination and back substitution finish.  There is no pivoting: the
    Schur complements of a column-diagonally-dominant M-matrix are again such
    matrices, so no pivot vanishes.
    """
    n = diag.size
    if n <= SEQUENTIAL_SIZE:
        return _eliminate(sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist())
    odd_diag, odd_rhs = diag[1::2], rhs[1::2]
    m = (n - 1) // 2  # odd rows with an even neighbour on the right
    # odd row k couples to even rows k (left) and k+1 (right)
    odd_left, odd_right = sub[0::2], sup[1::2]
    # even row j couples to odd rows j (right) and j-1 (left)
    even_right, even_left = sup[0::2] / odd_diag, sub[1::2] / odd_diag[:m]
    even_diag, even_rhs = diag[0::2].copy(), rhs[0::2].copy()
    even_diag[:odd_diag.size] -= even_right * odd_left
    even_rhs[:odd_diag.size] -= even_right * odd_rhs
    even_diag[1:] -= even_left * odd_right
    even_rhs[1:] -= even_left * odd_rhs[:m]
    x = np.empty(n)
    x[0::2] = even = _solve_tridiagonal(-even_left * odd_left[:m], even_diag,
                                        -even_right[:m] * odd_right, even_rhs)
    odd = odd_rhs - odd_left * even[:odd_diag.size]
    odd[:m] -= odd_right * even[1:]
    x[1::2] = odd / odd_diag
    return x


def _eliminate(sub: list, diag: list, sup: list, rhs: list) -> np.ndarray:
    """The tridiagonal solve by sequential elimination, on Python floats; overwrites diag, rhs."""
    n = len(diag)
    for i in range(1, n):
        factor = sub[i - 1] / diag[i - 1]
        diag[i] -= factor * sup[i - 1]
        rhs[i] -= factor * rhs[i - 1]
    x = rhs
    x[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (rhs[i] - sup[i] * x[i + 1]) / diag[i]
    return np.array(x)


def cfl_dt(f: DensityField, params: DiffusionParams) -> float:
    """Stable explicit step cfl h^2 / (2 D_geom D): D_geom = 1 Cartesian, 2^(n-2) radial."""
    return _Kernel(f.grid, params.p, f.values).cfl_dt(params.cfl_safety)


def step(state: SolverState, params: DiffusionParams, dt: float | None = None) -> SolverState:
    """Advance one accepted step from max(values, 0), halving dt on CFL violations."""
    kernel = _Kernel(state.grid, params.p, state.values)
    if dt is None:
        dt = kernel.cfl_dt(params.cfl_safety)
    dt_used, rejections = kernel.advance(dt, state.t)
    return replace(
        state,
        t=state.t + dt_used,
        values=kernel.u,
        step_count=state.step_count + 1,
        rejection_count=state.rejection_count + rejections,
    )


@dataclass
class EvolutionResult:
    params: DiffusionParams
    snapshots: list[FunctionalSnapshot]
    fields: list[DensityField]
    step_count: int
    rejection_count: int
    edge_mass: float  # the largest over the snapshots

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


def evolve(f0: DensityField, params: DiffusionParams,
           with_dissipation: bool = False) -> EvolutionResult:
    """March from t_start to t_end, landing exactly on every snapshot time.

    The step toward the next snapshot divides the remaining interval into
    equal parts no longer than the proposed step, so the recorded functional
    series has no step-size kinks inside an interval.  Before each interval,
    dt_run is re-sized to the step that moves STEP_CHANGE of the mass now, and
    at most a MIN_STEPS_PER_SNAPSHOT-th of the shortest interval still ahead.
    The proposal is the explicit CFL step until dt_run exceeds
    IMPLICIT_STEP_COST CFL steps (for p < 1 from the start); from then on the
    march is linearly implicit BDF2, with its history, to the end.  It starts
    at the CFL step of the switch and doubles it up to dt_run, and a later
    dt_run is reached by doubling too, so omega <= 2 keeps BDF2 zero-stable,
    and the backward-Euler start puts no kink in N_p(t).  As the flow slows,
    dt_run grows from one interval to the next; BDF2's second-order time error
    keeps that growth from bending N_p(t) the way a growing backward-Euler
    step did.

    The edge mass, the mass in the last node_count // EDGE_CELLS cells at each
    wall, is read at the datum and at every snapshot; above DOMAIN_TOL, the
    wall holds mass the flow on R^n would carry past it, and the run warns once.
    """
    if f0.grid.dim != params.dim:
        raise DomainError("initial field dimension does not match params.dim")
    m0 = float(f0.grid.weights() @ f0.values)
    if abs(m0 - 1.0) > 1e-6:
        raise DomainError(f"initial mass must be 1 within 1e-6, got {m0}")
    times = params.times()
    intervals = np.diff(times)
    grid = f0.grid
    from_wall = np.arange(grid.node_count)[::-1]  # cells between a node and the wall
    if grid.kind != RADIAL:
        from_wall = np.minimum(from_wall, from_wall[::-1])  # either wall
    edge = np.where(from_wall < max(1, grid.node_count // EDGE_CELLS), grid.weights(), 0.0)
    kernel = _Kernel(grid, params.p, f0.values)
    implicit = False
    t = float(times[0])
    steps = rejections = 0
    edge_mass = float(edge @ f0.values)
    snaps = [snapshot(f0, params.p, params.dim, t=t, with_dissipation=with_dissipation)]
    fields = [f0]
    for i, target in enumerate(times[1:]):
        kernel._faces()  # an implicit step leaves v = u^p stale
        dt_run = min(kernel.accuracy_dt(STEP_CHANGE * m0),
                     float(intervals[i:].min()) / MIN_STEPS_PER_SNAPSHOT)
        if not implicit:
            first = kernel.cfl_dt(params.cfl_safety)
            implicit = params.p < 1.0 or dt_run > IMPLICIT_STEP_COST * first
        march = kernel.implicit_advance if implicit else kernel.advance
        while t < target:
            if implicit:
                proposal = min(dt_run, 2.0 * kernel.dt_prev) if kernel.dt_prev else first
            else:
                proposal = kernel.cfl_dt(params.cfl_safety)
            remaining = target - t
            parts = max(1, math.ceil(remaining / proposal))
            dt_used, rej = march(remaining / parts, t)
            t += dt_used
            steps += 1
            rejections += rej
        t = float(target)  # absorb roundoff from the exact landing
        fld = DensityField(grid, kernel.u)
        snaps.append(snapshot(fld, params.p, params.dim, t=t,
                              with_dissipation=with_dissipation))
        fields.append(fld)
        edge_mass = max(edge_mass, float(edge @ kernel.u))
    if edge_mass > DOMAIN_TOL:
        warnings.warn(f"edge mass {edge_mass:.3e} exceeds {DOMAIN_TOL}; "
                      "domain is likely too small", BoundaryLeakWarning)
    return EvolutionResult(params, snaps, fields, steps, rejections, edge_mass)


@dataclass(frozen=True)
class DomainSizingReport:
    compact_support: bool          # p > 1
    tail_mass: float               # envelope mass outside the domain
    recommended_radius: float
    adequate: bool                 # tail_mass <= DOMAIN_TOL


def fast_diffusion_guard(params: DiffusionParams, grid: Grid) -> DomainSizingReport:
    """Check the truncated domain against the Barenblatt envelope at t_end.

    The envelope is the pde-normalized source solution at max(t_end, 1).
    The report gives its closed-form mass outside the grid, whether that is
    at most DOMAIN_TOL, and the `suggest_domain_radius` radius scaled by
    the spread t^{1/mu}: the support edge for p > 1, and for
    n/(n+2) < p < 1 the radius with tail mass DOMAIN_TOL.
    """
    p, n = params.p, params.dim
    if p == 1.0:
        raise DomainError("no Barenblatt envelope at p = 1; size by Gaussian tails")
    if p < 1.0 and not p > n / (n + 2.0):
        raise DomainError(
            f"tail-mass sizing needs p > n/(n+2) = {n / (n + 2.0)} (finite second moment)")
    spec = barenblatt_spec(p, n, "pde")
    spread = max(params.t_end, 1.0) ** (1.0 / spec.coeffs.mu)
    tail = barenblatt_tail_mass(spec, grid.radius() / spread)
    rec = suggest_domain_radius(p, n, DOMAIN_TOL, "pde") * spread
    return DomainSizingReport(p > 1.0, tail, rec, tail <= DOMAIN_TOL)
