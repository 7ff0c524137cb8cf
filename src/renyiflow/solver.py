"""Conservative finite-volume solver for u_t = Lap(u^p).

The update is written in flux form on v = u^p: face fluxes (v_R - v_L)/h,
radial faces weighted by their area |S^{n-1}| r^{n-1}.  Interior fluxes
telescope, so the discrete mass changes only through the (closed, zero-flux)
boundary.  For p >= 1 (and in `step`/`cfl_dt`) the step is explicit, and
nonnegativity follows from the CFL bound because each update is a convex
combination of neighbor values.  For p < 1 the diffusivity p u^{p-1} peaks
in the far tail, where a CFL bound would set the step, so `evolve` takes
backward-Euler steps instead: no step bound, and dt follows the flow's own
rate of change.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .analytic import barenblatt_spec, barenblatt_tail_mass, coefficients, suggest_domain_radius, support_radius
from .errors import BoundaryLeakWarning, DomainError, StabilityError
from .functionals import FunctionalSnapshot, snapshot
from .grids import RADIAL, DensityField, Grid

MAX_REJECTIONS = 40
NEGATIVITY_SLACK = 1e-14  # relative to max(u): tolerated roundoff undershoot
LEAK_THRESHOLD = 1e-6
STEP_CHANGE = 2e-3  # implicit steps move at most this fraction of the mass
NEWTON_RTOL = 1e-8  # quadratic convergence: an update this small leaves ~rounding
NEWTON_MAX_ITER = 25  # a step whose Newton solve needs more is retried at dt/2


@dataclass(frozen=True)
class DiffusionParams:
    """Run parameters; the boundary is a closed, zero-flux wall."""

    p: float
    dim: int
    t_start: float
    t_end: float
    snapshot_count: int = 9
    snapshot_times: tuple[float, ...] | None = None
    cfl_safety: float = 0.9  # explicit steps only (p >= 1, `step`, `cfl_dt`)

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
    leak_estimate: float = 0.0   # would-be outflow if the wall were open


class _Kernel:
    """The flux steps on one (grid, p), in preallocated buffers.

    `advance` is the explicit step, `implicit_advance` the backward-Euler one;
    both share the weights, face areas, buffers and state.
    u is clipped to u >= 0 once, on entry; accepted steps end in that clip.
    v = u^p and its differences dv serve both the p < 1 chord stiffness and the
    fluxes, and the acceptance test's max(u) is the next umax.  Each out= pass
    of `advance` keeps the operation order of the plain array expressions:
    bitwise theirs.
    """

    def __init__(self, grid: Grid, p: float, values: np.ndarray):
        n = grid.node_count
        self.p, self.h = p, grid.spacing
        self.d_geom = grid.dim if grid.kind == RADIAL else 1
        self.weights = grid.weights()
        areas = grid.face_areas()
        self.outer_area, self.inner_area = float(areas[-1]), float(areas[0])
        self.areas = areas if grid.kind == RADIAL else None  # cartesian faces: all 1
        self.u = np.maximum(values, 0.0)
        self.umax = float(self.u.max())
        self.new, self.v, self.div = np.empty(n), np.empty(n), np.empty(n)
        self.dv, self.du = np.empty(n - 1), np.empty(n - 1)
        self.flux, self.face = np.zeros(n + 1), np.empty(n + 1)  # walls: zero flux
        self.conductance = areas[1:-1] / self.h  # interior faces, for the implicit step
        self.coupling = np.zeros(n)  # sum of a node's face conductances
        self.coupling[1:] += self.conductance
        self.coupling[:-1] += self.conductance
        self._faces()

    def _faces(self) -> None:
        np.power(self.u, self.p, out=self.v)
        np.subtract(self.v[1:], self.v[:-1], out=self.dv)

    def stiffness(self) -> float:
        """Max diffusivity bound entering the CFL step: p * max(u)^{p-1} for p >= 1.

        For p < 1 that would pick the *least* stiff node, so the max face chord
        slope of u -> u^p is used instead: exactly the convex-combination
        (monotonicity) bound for this scheme.
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

    def advance(self, dt: float, t: float) -> tuple[float, float, int]:
        """One accepted step from t, halving dt on undershoot: (dt, leak rate, rejections)."""
        face = self.flux
        np.divide(self.dv, self.h, out=face[1:-1])
        if self.areas is not None:
            face = np.multiply(self.areas, face, out=self.face)
        div = np.subtract(face[1:], face[:-1], out=self.div)
        new, rejections = self.new, 0
        while True:
            np.multiply(div, dt, out=new)
            np.divide(new, self.weights, out=new)
            np.add(self.u, new, out=new)
            umax = new.max()
            if new.min() >= -NEGATIVITY_SLACK * umax:
                break
            rejections += 1
            if rejections > MAX_REJECTIONS:
                raise StabilityError(
                    f"step at t = {t} rejected {rejections} times; CFL bound violated")
            dt *= 0.5
        np.maximum(new, 0.0, out=new)
        # outflow if the walls were vacuum; the inner radial face has zero area
        leak_rate = (self.outer_area * self.v[-1] + self.inner_area * self.v[0]) / self.h
        self.u, self.new, self.umax = new, self.u, float(umax)
        self._faces()
        return dt, leak_rate, rejections

    def _divergence(self, v: np.ndarray) -> np.ndarray:
        """(L v)_i: net face flux of v into cell i, walls closed."""
        np.subtract(v[1:], v[:-1], out=self.dv)
        np.multiply(self.conductance, self.dv, out=self.flux[1:-1])
        return np.subtract(self.flux[1:], self.flux[:-1], out=self.div)

    def accuracy_dt(self, mass_step: float) -> float:
        """Step that moves at most mass_step of mass: mass_step / ||u_t||_1, u_t = L v / W.

        ||u_t||_1 does not grow along the flow (the flow, and backward Euler at a
        fixed dt, is an L1 contraction), so a step sized now keeps later steps
        within the same bound.
        """
        rate = float(np.abs(self._divergence(self.v)).sum())
        return mass_step / rate if rate > 0.0 else math.inf

    def _newton(self, dt: float) -> np.ndarray | None:
        """v = u'^p solving W (u' - u) = dt L v, or None if Newton has not converged."""
        p, w = self.p, self.weights
        off = -dt * self.conductance
        spring = dt * self.coupling
        v = self.v
        for _ in range(NEWTON_MAX_ITER):
            u = v ** (1.0 / p)
            residual = w * (u - self.u) - dt * self._divergence(v)
            diag = w * u ** (1.0 - p) / p + spring
            delta = _solve_tridiagonal(diag, off, -residual)
            v = np.maximum(v + delta, 0.0)
            if np.all(np.abs(delta) <= NEWTON_RTOL * v):
                return v
        return None

    def implicit_advance(self, dt: float, t: float) -> tuple[float, float, int]:
        """One backward-Euler step from t, halving dt if Newton stalls: (dt, leak rate, rejections).

        Newton runs on v = u'^p.  Its Jacobian diag(W u'^{1-p} / p) - dt L is a
        symmetric, diagonally dominant M-matrix, so the tridiagonal solve needs no
        pivoting and positivity and the max principle hold for any dt.  u' is formed
        from the telescoping fluxes of the converged v, so mass is conserved to rounding.
        """
        rejections = 0
        while True:
            v = self._newton(dt)
            if v is not None:
                new = np.multiply(self._divergence(v), dt, out=self.new)
                np.divide(new, self.weights, out=new)
                np.add(self.u, new, out=new)
                umax = new.max()
                if new.min() >= -NEGATIVITY_SLACK * umax:
                    break
            rejections += 1
            if rejections > MAX_REJECTIONS:
                raise StabilityError(f"implicit step at t = {t} failed {rejections} times")
            dt *= 0.5
        np.maximum(new, 0.0, out=new)
        leak_rate = (self.outer_area * v[-1] + self.inner_area * v[0]) / self.h
        self.u, self.new, self.umax = new, self.u, float(umax)
        self._faces()
        return dt, leak_rate, rejections


def _solve_tridiagonal(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric tridiagonal system (diag, off) x = rhs by odd-even cyclic reduction.

    Eliminating the odd unknowns leaves a symmetric tridiagonal system in the even
    ones (their Schur complement), solved the same way; the odd unknowns follow by
    back substitution.  There is no pivoting: the Schur complements of a nonsingular
    M-matrix are nonsingular M-matrices, so no pivot vanishes.
    """
    n = diag.size
    if n == 1:
        return rhs / diag
    odd_diag, odd_rhs = diag[1::2], rhs[1::2]
    left, right = off[0::2], off[1::2]  # odd row k couples to even rows k and k+1
    over_left, over_right = left / odd_diag, right / odd_diag[:right.size]
    even_diag, even_rhs = diag[0::2].copy(), rhs[0::2].copy()
    even_diag[:left.size] -= left * over_left
    even_rhs[:left.size] -= over_left * odd_rhs
    even_diag[1:] -= right * over_right
    even_rhs[1:] -= over_right * odd_rhs[:right.size]
    x = np.empty(n)
    x[0::2] = even = _solve_tridiagonal(even_diag, -left[:right.size] * over_right, even_rhs)
    odd = odd_rhs - left * even[:left.size]
    odd[:right.size] -= right * even[1:]
    x[1::2] = odd / odd_diag
    return x


def cfl_dt(f: DensityField, params: DiffusionParams) -> float:
    """Stable explicit step: cfl * h^2 / (2 * D_geom) / max diffusivity."""
    return _Kernel(f.grid, params.p, f.values).cfl_dt(params.cfl_safety)


def step(state: SolverState, params: DiffusionParams, dt: float | None = None) -> SolverState:
    """Advance one accepted step from max(values, 0), halving dt on CFL violations."""
    kernel = _Kernel(state.grid, params.p, state.values)
    if dt is None:
        dt = kernel.cfl_dt(params.cfl_safety)
    dt_used, leak_rate, rejections = kernel.advance(dt, state.t)
    return replace(
        state,
        t=state.t + dt_used,
        values=kernel.u,
        step_count=state.step_count + 1,
        rejection_count=state.rejection_count + rejections,
        leak_estimate=state.leak_estimate + dt_used * leak_rate,
    )


@dataclass
class EvolutionResult:
    params: DiffusionParams
    snapshots: list[FunctionalSnapshot]
    fields: list[DensityField]
    step_count: int
    rejection_count: int
    leak_estimate: float

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


def evolve(f0: DensityField, params: DiffusionParams,
           with_dissipation: bool = False) -> EvolutionResult:
    """March from t_start to t_end, landing exactly on every snapshot time.

    The step toward the next snapshot divides the remaining interval into
    equal parts no longer than the proposed step, so the recorded functional
    series has no step-size kinks at snapshot boundaries.  For p >= 1 the
    proposal is the explicit CFL step.  For p < 1 the steps are backward
    Euler, and the proposal is fixed for the run at the step that moves
    STEP_CHANGE of the mass at t_start: their time error is first order in
    dt, so a step that grew along the run would bend N_p(t) by that error.
    """
    if f0.grid.dim != params.dim:
        raise DomainError("initial field dimension does not match params.dim")
    m0 = float(f0.grid.weights() @ f0.values)
    if abs(m0 - 1.0) > 1e-6:
        raise DomainError(f"initial mass must be 1 within 1e-6, got {m0}")
    times = params.times()
    grid = f0.grid
    kernel = _Kernel(grid, params.p, f0.values)
    if params.p < 1.0:
        dt_run = kernel.accuracy_dt(STEP_CHANGE * m0)
        march, proposal = kernel.implicit_advance, lambda: dt_run
    else:
        march, proposal = kernel.advance, lambda: kernel.cfl_dt(params.cfl_safety)
    t = float(times[0])
    steps = rejections = 0
    leak = 0.0
    snaps = [snapshot(f0, params.p, params.dim, t=t, with_dissipation=with_dissipation)]
    fields = [f0]
    warned = False
    for target in times[1:]:
        while t < target:
            remaining = target - t
            parts = max(1, math.ceil(remaining / proposal()))
            dt_used, leak_rate, rej = march(remaining / parts, t)
            t += dt_used
            steps += 1
            rejections += rej
            leak += dt_used * leak_rate
        t = float(target)  # absorb roundoff from the exact landing
        fld = DensityField(grid, kernel.u.copy())
        snaps.append(snapshot(fld, params.p, params.dim, t=t,
                              with_dissipation=with_dissipation))
        fields.append(fld)
        if not warned and leak > LEAK_THRESHOLD:
            warnings.warn(
                f"would-be boundary outflow {leak:.3e} exceeds "
                f"{LEAK_THRESHOLD}; domain is likely too small", BoundaryLeakWarning)
            warned = True
    return EvolutionResult(params, snaps, fields, steps, rejections, leak)


@dataclass(frozen=True)
class DomainSizingReport:
    p: float
    dim: int
    compact_support: bool
    support_radius: float          # inf for p < 1
    domain_radius: float
    tail_mass: float               # envelope mass outside the domain
    recommended_radius: float
    adequate: bool


def fast_diffusion_guard(params: DiffusionParams, grid: Grid,
                         tail_target: float = 1e-6) -> DomainSizingReport:
    """Check the truncated domain against the fat Barenblatt tails.

    For p > 1 the envelope has compact support (spreading like t^{1/mu}) and
    no truncation is needed.  For n/(n+2) < p < 1 the report estimates the
    envelope mass beyond the grid at t_end and recommends a radius with tail
    mass below tail_target.
    """
    p, n = params.p, params.dim
    if p == 1.0:
        raise DomainError("no Barenblatt envelope at p = 1; size by Gaussian tails")
    if p < 1.0 and not p > n / (n + 2.0):
        raise DomainError(
            f"tail-mass sizing needs p > n/(n+2) = {n / (n + 2.0)} (finite second moment)")
    spec = barenblatt_spec(p, n, "pde")
    spread = max(params.t_end, 1.0) ** (1.0 / spec.coeffs.mu)
    if p > 1.0:
        edge = support_radius(spec) * spread
        return DomainSizingReport(p, n, True, edge, grid.radius(), 0.0, edge,
                                  grid.radius() >= edge)
    tail = barenblatt_tail_mass(spec, grid.radius() / spread)
    rec = suggest_domain_radius(p, n, tail_target, "pde") * spread
    return DomainSizingReport(p, n, False, math.inf, grid.radius(), tail, rec,
                              tail <= tail_target)
