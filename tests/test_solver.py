"""Finite-volume solver, explicit and implicit: conservation, stability, analytic oracles."""
import contextlib
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import renyiflow as rf
from renyiflow import cli, solver
from renyiflow.errors import BoundaryLeakWarning, DomainError, StabilityError
from renyiflow.solver import MAX_REJECTIONS, NEGATIVITY_SLACK, SolverState, cfl_dt, step

from conftest import record_implicit_steps


def make_state(field, t=1.0):
    return SolverState(t=t, grid=field.grid, values=field.values.copy())


def _mass_step(kernel):
    """The step that moves 0.2% of the mass now, 2e-3 / ||u_t||_1."""
    return 2e-3 / kernel.speed()


class TestStep:
    def test_constant_field_unchanged(self):
        grid = rf.Grid.cartesian(128, 2.0)
        f = rf.DensityField(grid, np.full(128, 0.25))
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=0.0, t_end=1.0)
        out = step(make_state(f, 0.0), params)
        np.testing.assert_array_equal(out.values, f.values)

    def test_single_step_mass_drift(self):
        grid = rf.Grid.cartesian(1024, 2.0)
        f = rf.sample_barenblatt(grid, 2.0, 1.0, normalize=True)
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=2.0)
        out = step(make_state(f), params)
        drift = abs(float(grid.weights() @ out.values) - rf.mass(f))
        assert drift <= 1e-14

    def test_heat_step_matches_kernel(self):
        # p = 1 is the standard heat stencil; one step against the exact kernel
        grid = rf.Grid.cartesian(512, 15.0)
        f = rf.sample_gaussian(grid, 1.0)
        params = rf.DiffusionParams(p=1.0, dim=1, t_start=1.0, t_end=2.0)
        state = make_state(f)
        dt = cfl_dt(f, params)
        out = step(state, params, dt)
        exact = rf.gaussian_density(np.abs(grid.nodes()), rf.HeatKernelSpec(1, 1.0 + dt))
        err = float(grid.weights() @ np.abs(out.values - exact))
        assert err <= 10.0 * dt * (dt + grid.spacing ** 2)

    def test_rejection_exhaustion_raises(self):
        grid = rf.Grid.cartesian(512, 1.0)
        spike = np.full(512, 1e-9)
        spike[250] = 1.0
        f = rf.DensityField(grid, spike)
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=0.0, t_end=1.0)
        with pytest.raises(StabilityError):
            step(make_state(f, 0.0), params, dt=1e9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_datum_refused(self):
        # a unit mass on a domain this small makes u^p and its fluxes overflow: step and
        # cfl_dt refuse it with evolve's message, before any power is formed
        grid = rf.Grid.cartesian(64, 1e-140)
        f = rf.DensityField(grid, np.full(64, 1.0 / float(grid.weights().sum())))
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=2.0)
        with pytest.raises(DomainError) as refused:
            rf.evolve(f, params)
        assert "u^p or its fluxes overflow" in str(refused.value)
        for call in (lambda: step(make_state(f), params), lambda: cfl_dt(f, params)):
            with pytest.raises(DomainError) as got:
                call()
            assert str(got.value) == str(refused.value)

    @pytest.mark.parametrize("p", [0.8, 2.0])
    def test_negative_entries_read_as_zero(self, p):
        # the state is read as max(values, 0): a dented state steps as its clipped copy
        grid = rf.Grid.cartesian(128, 4.0)
        values = rf.sample_mixture(grid, seed=1).values
        dented = values - 1e-2 * values.max()
        assert dented.min() < 0.0
        params = rf.DiffusionParams(p=p, dim=1, t_start=1.0, t_end=2.0)
        got = step(SolverState(t=1.0, grid=grid, values=dented), params)
        want = step(SolverState(t=1.0, grid=grid, values=np.maximum(dented, 0.0)), params)
        assert got.t == want.t and got.values.tobytes() == want.values.tobytes()

    def test_nonnegativity_preserved(self):
        grid = rf.Grid.cartesian(256, 6.0)
        f = rf.sample_mixture(grid, seed=0)
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=2.0)
        state = make_state(f)
        for _ in range(200):
            state = step(state, params)
            assert state.values.min() >= -1e-14 * state.values.max()


class TestKernelSetUp:
    def test_grid_terms_shared_and_read_only(self):
        # computed once per grid: every kernel on the grid, at any p, reads the same terms
        for grid in (rf.Grid.cartesian(128, 5.0), rf.Grid.radial(3, 128, 5.0)):
            values = rf.sample_gaussian(grid, 0.5).values
            terms = grid.conductances()
            assert grid.conductances() is terms
            conductance, coupling, max_rate = terms
            assert np.array_equal(conductance, grid.face_areas()[1:-1] / grid.spacing)
            assert max_rate == _max_rate(grid)
            for p in (2.0, 0.8):
                kernel = solver._Kernel(grid, p, values)
                assert kernel.conductance is conductance and kernel.coupling is coupling
            for array in (conductance, coupling):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0.0


class TestCflDt:
    def test_doubling_resolution_quarters_dt(self):
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=2.0)
        dts = []
        for nodes in (512, 1024):
            grid = rf.Grid.cartesian(nodes, 2.0)
            dts.append(cfl_dt(rf.sample_barenblatt(grid, 2.0, 1.0), params))
        # the finer grid samples a marginally different profile maximum
        assert dts[0] / dts[1] == pytest.approx(4.0, rel=1e-4)

    def test_p_one_field_independent(self):
        grid = rf.Grid.cartesian(256, 5.0)
        params = rf.DiffusionParams(p=1.0, dim=1, t_start=0.0, t_end=1.0)
        a = cfl_dt(rf.sample_gaussian(grid, 0.5), params)
        b = cfl_dt(rf.sample_mixture(grid, seed=1), params)
        assert a == b == pytest.approx(solver.CFL_SAFETY * grid.spacing ** 2 / 2.0)

    def test_radial_geometry_factor(self):
        grid = rf.Grid.radial(3, 256, 5.0)
        f = rf.sample_mixture(grid, seed=1, mean_range=(0.0, 2.0))
        params3 = rf.DiffusionParams(p=2.0, dim=3, t_start=0.0, t_end=1.0)
        # the factor 2^(n-2) = 2 at n = 3 is set by node 0, whose inner face has zero area
        expected = solver.CFL_SAFETY * grid.spacing ** 2 / (2.0 * 2.0 * 2.0 * f.values.max())
        assert cfl_dt(f, params3) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind, dim, factor", [
        ("cartesian", 1, 1.0), ("radial", 1, 1.0), ("radial", 2, 1.0), ("radial", 3, 2.0),
        ("radial", 4, 4.0), ("radial", 5, 8.0), ("radial", 6, 16.0)])
    def test_exact_bound_factor(self, kind, dim, factor):
        # p = 1 has unit stiffness, so cfl_dt = CFL_SAFETY h^2 / (2 factor)
        grid = rf.Grid.cartesian(256, 5.0) if kind == "cartesian" else rf.Grid.radial(dim, 256, 5.0)
        params = rf.DiffusionParams(p=1.0, dim=dim, t_start=0.0, t_end=1.0)
        dt = cfl_dt(rf.sample_gaussian(grid, 0.5), params)
        got = solver.CFL_SAFETY * grid.spacing ** 2 / (2.0 * dt)
        assert got == pytest.approx(factor, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_exact_bound_attained(self, dim):
        # at the full bound the update's smallest convex weight 1 - dt D c_i / w_i is 0
        # (D = 1 at p = 1); c_i sums the areas / h of node i's faces that carry flux
        grid = rf.Grid.cartesian(256, 5.0) if dim == 1 else rf.Grid.radial(dim, 256, 5.0)
        params = rf.DiffusionParams(p=1.0, dim=dim, t_start=0.0, t_end=1.0)
        dt = cfl_dt(rf.sample_gaussian(grid, 0.5), params) / solver.CFL_SAFETY
        areas = grid.face_areas().copy()
        areas[[0, -1]] = 0.0
        coupling = (areas[:-1] + areas[1:]) / grid.spacing
        smallest = float(np.min(1.0 - dt * coupling / grid.weights()))
        assert -1e-12 <= smallest <= 1e-12

    @pytest.mark.parametrize("p", [0.8, 1.0, 2.0])
    @pytest.mark.parametrize("dim", [4, 5, 6])
    def test_spike_at_origin_no_rejection(self, dim, p):
        # node 0 sets the bound; the 2n factor stepped above it for n >= 5
        grid = rf.Grid.radial(dim, 256, 5.0)
        spike = np.zeros(256)
        spike[0] = 1.0
        state = SolverState(t=0.0, grid=grid, values=spike)
        params = rf.DiffusionParams(p=p, dim=dim, t_start=0.0, t_end=1.0)
        for _ in range(50):
            state = step(state, params)
            assert state.values.min() >= 0.0
        assert state.rejection_count == 0

    def test_barenblatt_run_zero_rejections(self, barenblatt_run):
        assert barenblatt_run.rejection_count == 0
        assert not barenblatt_run.domain_cut  # the sized domain holds nothing at its walls


class TestEvolve:
    def test_barenblatt_tracks_self_similar(self, barenblatt_run):
        run = barenblatt_run
        grid = run.fields[-1].grid
        exact = rf.sample_barenblatt(grid, 2.0, 1.5)
        err = float(grid.weights() @ np.abs(run.fields[-1].values - exact.values))
        assert err < 1e-2

    def test_heat_flow_matches_kernel(self):
        grid = rf.Grid.cartesian(1024, 25.0)
        f0 = rf.sample_gaussian(grid, 1.0, normalize=True)
        params = rf.DiffusionParams(p=1.0, dim=1, t_start=1.0, t_end=2.0, snapshot_count=3)
        final = rf.evolve(f0, params).fields[-1]  # on the grid dilated to t = 2
        exact = rf.sample_gaussian(final.grid, 2.0)
        err = float(final.grid.weights() @ np.abs(final.values - exact.values))
        assert err < 5e-3

    def test_mixture_snapshots_finite(self, mixture_run):
        for s in mixture_run.snapshots:
            assert math.isfinite(s.n_p) and math.isfinite(s.upsilon) and s.n_p > 0.0

    def test_snapshot_times_hit_exactly(self, mixture_run):
        np.testing.assert_allclose(mixture_run.times(),
                                   np.linspace(1.0, 1.3, 13), rtol=0.0, atol=0.0)

    def test_mass_ledger(self, mixture_run):
        masses = np.array([s.mass for s in mixture_run.snapshots])
        assert np.max(np.abs(masses - masses[0])) <= 1e-12

    def test_max_principle_at_snapshots(self, mixture_run):
        maxima = [f.values.max() for f in mixture_run.fields]
        assert np.all(np.diff(maxima) <= 1e-14)

    def test_entropy_integral_monotone(self, mixture_run, fast_diffusion_run):
        # E_p decreases; equivalently integral u^p moves monotonically
        e_vals = np.array([s.e_p for s in mixture_run.snapshots])
        assert np.all(np.diff(e_vals) <= 1e-10)
        s_vals = np.array([(0.9 - 1.0) * s.e_p for s in fast_diffusion_run.snapshots])
        assert np.all(np.diff(s_vals) >= -1e-10)  # integral u^p grows for p < 1

    @pytest.mark.filterwarnings("ignore::renyiflow.errors.BoundaryLeakWarning")
    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10 ** 6), p=st.sampled_from([0.8, 1.5, 2.0]),
           geometry=st.sampled_from(["cartesian", "radial3"]))
    def test_entropy_decreases_snapshot_to_snapshot(self, seed, p, geometry):
        # E_p is a Lyapunov functional of the flow, whichever march evolve takes
        widths = (1.5, 3.0) if p < 1.0 else (0.5, 2.0)
        f0, params = _mixture_case(geometry, p, widths, nodes=256, seed=seed, snapshots=7)
        run = rf.evolve(f0, params)
        e_vals = np.array([s.e_p for s in run.snapshots])
        assert np.all(np.diff(e_vals) < 0.0)

    def test_edge_mass_read_in_the_wall_cells(self):
        # the last node_count // 64 cells at each wall, at the outer wall only on radial
        # grids, and at least one cell
        for grid, cells in ((rf.Grid.cartesian(512, 5.0), [*range(8), *range(504, 512)]),
                            (rf.Grid.radial(3, 512, 5.0), [*range(504, 512)]),
                            (rf.Grid.cartesian(32, 5.0), [0, 31])):
            weights = solver._edge_weights(grid)
            assert np.flatnonzero(weights).tolist() == cells
            assert np.array_equal(weights[cells], grid.weights()[cells])

    def test_nonunit_mass_rejected(self):
        grid = rf.Grid.cartesian(256, 5.0)
        f = rf.DensityField(grid, rf.sample_mixture(grid, seed=1).values * 1.1)
        params = rf.DiffusionParams(p=1.5, dim=1, t_start=1.0, t_end=1.2)
        with pytest.raises(DomainError):
            rf.evolve(f, params)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_non_finite_t_end_rejected(self, t_end):
        with pytest.raises(DomainError, match="t_end must be finite"):
            rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=t_end)

    def test_dimension_mismatch_rejected(self):
        grid = rf.Grid.radial(3, 256, 5.0)
        f = rf.sample_mixture(grid, seed=1, mean_range=(0.0, 2.0))
        params = rf.DiffusionParams(p=1.5, dim=2, t_start=1.0, t_end=1.2)
        with pytest.raises(DomainError):
            rf.evolve(f, params)

    def test_leak_warning_on_small_domain(self):
        grid = rf.Grid.cartesian(256, 3.0)
        f0 = rf.sample_mixture(grid, seed=2, var_range=(1.5, 2.0))
        params = rf.DiffusionParams(p=0.9, dim=1, t_start=1.0, t_end=1.3, snapshot_count=3)
        with pytest.warns(BoundaryLeakWarning):
            run = rf.evolve(f0, params)
        assert run.domain_cut and run.edge_mass > solver.DOMAIN_TOL

    def test_refinement_reduces_self_similar_error(self):
        # at least first-order convergence to the source solution
        p = 3.0
        spec = rf.barenblatt_spec(p, 1, rf.PDE_NORMALIZED)
        radius = rf.support_radius(spec) * 1.5 ** (1.0 / spec.coeffs.mu) * 1.3
        errs = []
        for nodes in (256, 512):
            grid = rf.Grid.cartesian(nodes, radius)
            f0 = rf.sample_barenblatt(grid, p, 1.0, normalize=True)
            params = rf.DiffusionParams(p=p, dim=1, t_start=1.0, t_end=1.5, snapshot_count=3)
            final = rf.evolve(f0, params).fields[-1]  # on the grid dilated to t = 1.5
            exact = rf.sample_barenblatt(final.grid, p, 1.5)
            errs.append(float(final.grid.weights() @ np.abs(final.values - exact.values)))
        assert errs[0] / errs[1] >= 2.0


class TestDiffusionParams:
    def test_validates_exponent_range(self):
        with pytest.raises(DomainError):
            rf.DiffusionParams(p=0.3, dim=3, t_start=0.0, t_end=1.0)

    def test_validates_times(self):
        with pytest.raises(DomainError):
            rf.DiffusionParams(p=2.0, dim=1, t_start=2.0, t_end=1.0)

    def test_validates_snapshot_times(self):
        with pytest.raises(DomainError, match="strictly increasing"):
            rf.DiffusionParams(p=2.0, dim=1, t_start=0.0, t_end=1.0,
                               snapshot_times=(0.0, 0.5, 0.4, 1.0))
        with pytest.raises(DomainError, match="snapshot times must span"):
            rf.DiffusionParams(p=2.0, dim=1, t_start=0.0, t_end=1.0,
                               snapshot_times=(0.0, 0.5, 0.9))


# The explicit reference march, as plain array expressions: `step` must take its steps
# bit for bit, and evolve's fields must stay within its time error of it.
def _reference_stiffness(values, p):
    umax = float(values.max())
    if p >= 1.0:
        return p * umax ** (p - 1.0)
    v = values ** p
    du = np.diff(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        chord = np.where(du != 0.0, np.diff(v) / du, 0.0)
    return float(np.max(np.abs(chord), initial=p * umax ** (p - 1.0)))


def _reference_advance(values, p, dt, grid, drift=0.0):
    """One explicit step from values, dt halved while it undershoots: (new, dt, rejections);
    with a drift, of the self-similar frame's flow v_tau = Lap(v^p) + drift div(y v)."""
    flux = np.zeros(values.size + 1)
    if drift:
        flux[1:-1] = _self_similar_faces(np.maximum(values, 0.0), p, grid, drift)[0]
    else:
        v = np.maximum(values, 0.0) ** p
        flux[1:-1] = (grid.face_areas()[1:-1] / grid.spacing) * (v[1:] - v[:-1])
    rejections = 0
    while True:
        new = values + dt * (flux[1:] - flux[:-1]) / grid.weights()
        if new.min() >= -NEGATIVITY_SLACK * new.max():
            break
        rejections += 1
        assert rejections <= MAX_REJECTIONS
        dt *= 0.5
    np.maximum(new, 0.0, out=new)
    return new, dt, rejections


def _max_rate(grid):
    """max_i c_i / w_i, c_i the summed area / h of node i's faces that carry flux:
    2 / h^2 on Cartesian grids, max(2, 2^(n-1)) / h^2 on radial ones."""
    areas = grid.face_areas()
    areas[[0, -1]] = 0.0  # the walls carry no flux
    conductance = areas / grid.spacing
    return float(np.max((conductance[:-1] + conductance[1:]) / grid.weights()))


def _mixture_case(geometry, p, widths, nodes=128, t_end=1.2, seed=4, blend=None, snapshots=5):
    if geometry == "cartesian":
        grid = rf.Grid.cartesian(nodes, 8.0)
        f0 = rf.sample_mixture(grid, seed=seed, var_range=widths)
    else:
        grid = rf.Grid.radial(3, nodes, 8.0)
        f0 = rf.sample_mixture(grid, seed=seed, mean_range=(0.0, 2.0), var_range=widths)
    if blend is not None:
        f0 = rf.blend_with_barenblatt(f0, p, 1.0, blend)
    return f0, rf.DiffusionParams(p=p, dim=grid.dim, t_start=1.0, t_end=t_end,
                                  snapshot_count=snapshots)


# The implicit march and the explicit oracle differ by the implicit time error,
# held by the step controller; observed at most 3e-4 in L1 on these cases.
IMPLICIT_L1_BOUND = 1e-3


def _self_similar_faces(u, p, grid, drift):
    """The self-similar frame's face terms at u >= 0, written out plainly: the face flux
    c (u_{j+1}^p - u_j^p + m (phi_{j+1} - phi_j)), phi = drift |y|^2 / 2 and m the
    secant mobility (u_{j+1}^p - u_j^p) / (e'(u_{j+1}) - e'(u_j)), e'(u) = p u^{p-1} / (p-1)
    (log u at p = 1; m = u where the pair's e' is equal); whether the upper cell is upwind
    (the flux is positive); the drift's share c m dphi / u_up per unit of the upwind
    cell; and the open faces, as a face carries no flux out of an empty cell."""
    conductance = _operator(grid)[0]
    y = grid.nodes()
    pull = conductance * (0.5 * drift * y[1:] ** 2 - 0.5 * drift * y[:-1] ** 2)
    a, b = u[:-1], u[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        if p == 1.0:
            de = np.log(b) - np.log(a)
        else:
            de = p / (p - 1.0) * (b ** (p - 1.0) - a ** (p - 1.0))
        m = np.where(de == 0.0, a, (b ** p - a ** p) / de)
        flux = conductance * (b ** p - a ** p) + pull * m
        up = flux > 0.0
        u_up = np.where(up, b, a)
        share = pull * m / u_up
    is_open = u_up > 0.0
    return np.where(is_open, flux, 0.0), up, np.where(is_open, share, 0.0), is_open


def _reference_fields(f0, params, start=None, safety=solver.CFL_SAFETY):
    """The reference march's fields, steps and rejections: each step the share of what
    remains of the interval, no longer than safety times the stable step, in evolve's
    frames: x up to snapshot `start`, then the self-similar frame (y = x / t^{1/mu},
    tau = log t) dilated exactly as evolve dilates, in x throughout when start is None."""
    p, grid, times = params.p, f0.grid, params.times()
    values, t, dilate, rate = f0.values.copy(), float(times[0]), 0.0, _max_rate(grid)
    fields, steps, rejections = [f0], 0, 0
    for k, target in enumerate(times[1:]):
        if k == start:
            dilate = 1.0 / rf.coefficients(p, grid.dim).mu
            begin = rf.rescale(fields[-1], t ** -dilate)
            grid, values, rate = begin.grid, begin.values.copy(), _max_rate(begin.grid)
        now, end = (math.log(t), math.log(target)) if dilate else (t, float(target))
        while now < end:
            proposal = safety / (rate * _reference_stiffness(values, p))
            parts = max(1, math.ceil((end - now) / proposal))
            values, dt_used, rej = _reference_advance(values, p, (end - now) / parts, grid, dilate)
            now += dt_used
            steps += 1
            rejections += rej
        t = float(target)
        fld = rf.DensityField(grid, values)
        fields.append(rf.rescale(fld, t ** dilate) if dilate else fld)
    return fields, steps, rejections


def _assert_agrees_with_reference(run, f0, params):
    # the oracle takes the run's frames: x up to the snapshot after which the run's
    # fields live on dilated grids
    start = next((k for k, f in enumerate(run.fields[1:]) if f.grid != f0.grid), None)
    fields = _reference_fields(f0, params, start)[0]
    assert len(run.fields) == len(fields)
    for got, want in zip(run.fields, fields):
        assert got.grid == want.grid
        assert float(got.grid.weights() @ np.abs(got.values - want.values)) <= IMPLICIT_L1_BOUND


def _step_march(f0, params):
    """The reference march by the package's explicit step: `cfl_dt`, then `step` by the
    share of the remaining interval."""
    state = make_state(f0, params.t_start)
    fields = [f0.values]
    for target in params.times()[1:]:
        while state.t < target:
            proposal = cfl_dt(rf.DensityField(state.grid, state.values), params)
            remaining = target - state.t
            state = step(state, params, remaining / max(1, math.ceil(remaining / proposal)))
        state = replace(state, t=float(target))
        fields.append(state.values)
    return fields, state.step_count, state.rejection_count


def _record_interpolants(monkeypatch, record):
    """Wrap `_Kernel.interpolant`; returns the list of (steps in record so far, back) of
    every snapshot evolve reads."""
    reads, real = [], solver._Kernel.interpolant

    def interpolant(self, back):
        reads.append((len(record), back))
        return real(self, back)

    monkeypatch.setattr(solver._Kernel, "interpolant", interpolant)
    return reads


class TestAgreesWithExplicitReference:
    """`step` and `cfl_dt` take the explicit reference march's steps bit for bit;
    evolve's fields stay within the time error of that march, and its snapshots are its
    kernel's steps, read through the interpolant, bit for bit."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("geometry", ["cartesian", "radial3"])
    def test_evolve_bitwise(self, p, geometry, monkeypatch):
        # these narrow bumps stay in x: the run is one x-grid kernel's recorded implicit
        # steps, and each snapshot that kernel's interpolant inside the step that reached
        # it, bit for bit, so the frame's probe leaves the march alone
        steps = {"cartesian": {1.0: 42, 1.5: 44, 2.0: 45},
                 "radial3": {1.0: 42, 1.5: 25, 2.0: 13}}[geometry][p]
        f0, params = _mixture_case(geometry, p, (0.2, 0.5))
        record = record_implicit_steps(monkeypatch)
        reads = _record_interpolants(monkeypatch, record)
        run = rf.evolve(f0, params)
        monkeypatch.undo()
        assert all(f.grid == f0.grid for f in run.fields)
        assert run.step_count == len(record) == steps and run.rejection_count == 0
        assert any(back for _, back in reads)  # some snapshots lie inside a step
        kernel, taken = solver._Kernel(f0.grid, p, f0.values), 0
        for (after, back), got, t in zip(reads, run.fields[1:], params.times()[1:], strict=True):
            for start, dt, _ in record[taken:after]:
                assert kernel.implicit_advance(dt, start) == (dt, 0)
            taken, (start, dt, _) = after, record[after - 1]
            assert 0.0 <= back < dt and start + dt - back == pytest.approx(t, rel=1e-14)
            assert got.values.tobytes() == kernel.interpolant(back).tobytes()
        assert taken == len(record)  # the last step lands on t_end

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("geometry", ["cartesian", "radial3"])
    def test_step_bitwise(self, p, geometry):
        # narrow bumps make max(u) fall fast, so a stale max would change the steps
        f0, params = _mixture_case(geometry, p, (0.2, 0.5))
        fields, steps, rejections = _step_march(f0, params)
        want, want_steps, want_rejections = _reference_fields(f0, params)
        assert (steps, rejections) == (want_steps, want_rejections)
        for got, field in zip(fields, want, strict=True):
            assert got.tobytes() == field.values.tobytes()

    @pytest.mark.filterwarnings("ignore::renyiflow.errors.BoundaryLeakWarning")
    @pytest.mark.parametrize("geometry", ["cartesian", "radial3"])
    def test_fast_diffusion_agrees(self, geometry):
        # p < 1 marches implicitly: it matches the explicit oracle up to time error
        f0, params = _mixture_case(geometry, 0.8, (1.5, 3.0))
        run = rf.evolve(f0, params)
        _assert_agrees_with_reference(run, f0, params)

    @pytest.mark.filterwarnings("ignore::renyiflow.errors.BoundaryLeakWarning")
    @pytest.mark.parametrize("geometry", ["cartesian", "radial3"])
    def test_self_similar_fast_diffusion_agrees(self, geometry, monkeypatch):
        # the same flows marched in y, where they still move: the drift's oracle
        monkeypatch.setattr(solver, "SELF_SIMILAR_RATE", math.inf)
        f0, params = _mixture_case(geometry, 0.8, (1.5, 3.0))
        run = rf.evolve(f0, params)
        assert run.fields[1].grid != f0.grid
        _assert_agrees_with_reference(run, f0, params)

    def test_forced_rejection_step_bitwise(self):
        grid = rf.Grid.cartesian(128, 1.0)
        spike = np.full(128, 1e-9)
        spike[60] = 1.0
        f = rf.DensityField(grid, spike)
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=0.0, t_end=1.0)
        out = step(make_state(f, 0.0), params, dt=1e-2)
        new, dt_used, rejections = _reference_advance(spike, 2.0, 1e-2, grid)
        assert rejections > 0 and out.rejection_count == rejections
        assert np.array_equal(out.values, new)
        assert out.t == dt_used

    @pytest.mark.parametrize("geometry", ["cartesian", "radial3"])
    def test_chord_stiffness_with_plateaus(self, geometry):
        # equal neighbours (du == 0, here also u == 0) drop out of the chord bound
        grid = rf.Grid.cartesian(128, 4.0) if geometry == "cartesian" else rf.Grid.radial(3, 128, 4.0)
        values = np.round(rf.sample_mixture(grid, seed=6, mean_range=(0.0, 1.0)).values, 2)
        assert np.any(np.diff(values) == 0.0) and values.min() == 0.0
        f = rf.DensityField(grid, values)
        params = rf.DiffusionParams(p=0.8, dim=grid.dim, t_start=0.0, t_end=1.0)
        want = solver.CFL_SAFETY / (_max_rate(grid) * _reference_stiffness(values, 0.8))
        assert cfl_dt(f, params) == want


def _count_solves(monkeypatch, nodes, undershoot_first=False):
    """Wrap solver._ReductionPlan.solve; returns the list of its calls on systems of
    `nodes` rows.  With undershoot_first the first such call returns a vector with a
    spike at its maximum, which drives the flux-formed u' of the step below zero there."""
    real, calls = solver._ReductionPlan.solve, []

    def solve(plan):
        x = real(plan)
        if x.size == nodes:
            calls.append(x.size)
            if undershoot_first and len(calls) == 1:
                x[np.argmax(x)] += 1e6 * x.max()
        return x

    monkeypatch.setattr(solver._ReductionPlan, "solve", solve)
    return calls


def _plan_solve(sub, diag, sup, rhs, plan=None):
    """x for (sub, diag, sup) x = rhs by a `_ReductionPlan`, a fresh one unless given."""
    if plan is None:
        plan = solver._ReductionPlan(diag.size)
    np.negative(sub, out=plan.lower)
    np.negative(sup, out=plan.upper)
    plan.diag[:] = diag
    plan.rhs[:] = rhs
    return plan.solve().copy()


class TestImplicitFastDiffusion:
    """The p < 1 march: linearly implicit BDF2, no CFL bound."""

    @pytest.mark.filterwarnings("ignore::renyiflow.errors.BoundaryLeakWarning")
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(geometry=st.sampled_from(["cartesian", "radial3"]),
           p=st.floats(0.62, 0.98), seed=st.integers(0, 10 ** 6),
           blend=st.floats(1e-3, 0.5))
    def test_conservative_positive_max_principle(self, geometry, p, seed, blend):
        f0, params = _mixture_case(geometry, p, (1.0, 3.0), nodes=64, t_end=1.1,
                                   seed=seed, blend=blend)
        run = rf.evolve(f0, params)
        w = f0.grid.weights()
        m0 = float(w @ f0.values)
        for prev, cur in zip(run.fields, run.fields[1:]):
            u = cur.values
            assert abs(float(w @ u) - m0) <= 1e-13 * m0
            assert u.min() > 0.0
            assert u.max() <= prev.values.max() * (1.0 + 1e-14)  # max principle,
            assert u.min() >= prev.values.min() * (1.0 - 1e-14)  # both ways
        _assert_agrees_with_reference(run, f0, params)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 64, 77])
    def test_tridiagonal_solve(self, n):
        rng = np.random.default_rng(n)
        off = -rng.uniform(0.1, 1.0, n - 1)
        diag = rng.uniform(0.0, 0.1, n)  # weakly dominant rows, like u = 0 cells
        diag[1:] -= off
        diag[:-1] -= off
        rhs = rng.standard_normal(n)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        x = _plan_solve(off, diag, off, rhs)
        np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-12, atol=1e-12)

    def test_undershooting_solve_halves_dt(self, monkeypatch):
        f0, params = _mixture_case("radial3", 0.8, (1.5, 3.0))
        kernel = solver._Kernel(f0.grid, 0.8, f0.values)
        dt = 4.0 * _mass_step(kernel)
        _count_solves(monkeypatch, f0.grid.node_count, undershoot_first=True)
        dt_used, rejections = kernel.implicit_advance(dt, 1.0)
        assert rejections == 1 and dt_used == dt / 2
        w = f0.grid.weights()
        assert abs(float(w @ kernel.u) - 1.0) <= 1e-14
        monkeypatch.setattr(solver, "MAX_REJECTIONS", 0)
        _count_solves(monkeypatch, f0.grid.node_count, undershoot_first=True)
        with pytest.raises(StabilityError):
            kernel.implicit_advance(dt, 1.0)

    def test_retry_after_undershoot_reads_the_starting_max(self, monkeypatch):
        # a BDF2 step from a draining cell (u = 0 there, u_prev > 0) whose first solve
        # comes back nan, an undershoot: its retry at dt / 2 still extrapolates below 0
        # there, so it is backward Euler by max(u) at the step's start, not the rejected
        # trial's (nan, which no base is below), and it is that step taken afresh
        eulers, real = [], solver._Kernel._local_error

        def local_error(kernel, dt, theta, gap, euler):
            eulers.append(euler)
            return real(kernel, dt, theta, gap, euler)

        def kernel_and_step():
            grid = rf.Grid.cartesian(128, 8.0)
            f0 = rf.sample_barenblatt(grid, 2.0, 1.0, normalize=True)
            kernel = solver._Kernel(grid, 2.0, f0.values)
            dt = _mass_step(kernel)
            for k in range(2):
                kernel.implicit_advance(dt, 1.0 + k * dt)
            kernel.u_prev[0] = kernel.umax  # the first cell, empty now, drains
            assert kernel.u[0] == 0.0
            eulers.clear()
            return kernel, dt

        monkeypatch.setattr(solver._Kernel, "_local_error", local_error)
        fresh, dt = kernel_and_step()
        assert fresh.implicit_advance(0.5 * dt, 1.0 + 2.0 * dt) == (0.5 * dt, 0)
        assert eulers == [True]
        kernel, dt = kernel_and_step()
        solve, solves = kernel.plan.solve, []

        def nan_first():
            x = solve()
            solves.append(1)
            if len(solves) == 1:
                x[:] = math.nan
            return x

        kernel.plan.solve = nan_first
        assert kernel.implicit_advance(dt, 1.0 + 2.0 * dt) == (0.5 * dt, 1)
        assert eulers == [True]  # the retry: an undershooting try forms no estimate
        assert kernel.u.tobytes() == fresh.u.tobytes() and kernel.umax == fresh.umax

    def test_start_independent_of_grid_stiffness(self):
        # the first implicit step reads the flow's acceleration, which converges with
        # the grid; the CFL step shrinks 260-fold from 384 to 1536 nodes (radius 66: the
        # domain `evolve` sizes for the p = 0.8, n = 3 Barenblatt up to t = 1.25)
        starts = []
        for nodes in (384, 1536):
            grid = rf.Grid.radial(3, nodes, 66.0)
            f0 = rf.sample_barenblatt(grid, 0.8, 1.0, normalize=True)
            starts.append(solver._Kernel(grid, 0.8, f0.values).starting_dt(1e-6))
        assert starts[1] == pytest.approx(starts[0], rel=0.05)

    @pytest.mark.filterwarnings("ignore::renyiflow.errors.BoundaryLeakWarning")
    def test_steps_independent_of_grid_stiffness(self):
        # the explicit step shrinks like h^2; the implicit one follows the flow
        steps = []
        for nodes in (64, 256):
            f0, params = _mixture_case("radial3", 0.8, (1.5, 3.0), nodes=nodes, blend=1e-2)
            steps.append(rf.evolve(f0, params).step_count)
        assert steps[1] <= 1.1 * steps[0]

    # Compact data in x, where no digest config has an empty cell at p < 1 (the CLI's
    # mixtures are blended with a Barenblatt): the floor of g, the rounding of max(u)
    # there, keeps these runs' steps (the least normal float took 293 for 99 and 312 for
    # 119) and their mass (flooring only the empty cells drifted the p = 0.36 run's by
    # 3.9e-14, against 2.2e-16).
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore::renyiflow.errors.BoundaryLeakWarning")
    @pytest.mark.parametrize("p, geometry, steps", [(0.8, "cartesian", 99), (0.8, "radial3", 119),
                                                    (0.36, "radial3", 194)])
    def test_compact_data_floor_in_x(self, p, geometry, steps):
        grid = (rf.Grid.cartesian(512, 12.0) if geometry == "cartesian" else
                rf.Grid.radial(3, 512, 12.0))
        f0 = rf.compact_two_bump(grid, seed=11)
        assert np.any(f0.values == 0.0)
        run = rf.evolve(f0, rf.DiffusionParams(p, grid.dim, 1.0, 2.0, snapshot_count=9))
        assert all(f.grid == grid for f in run.fields)  # the march stayed in x
        assert abs(run.step_count - steps) <= 0.1 * steps
        for fld in run.fields:
            assert abs(float(grid.weights() @ fld.values) - 1.0) <= 1e-14


def _tridiagonal_m_matrix(n, seed):
    """A random nonsymmetric tridiagonal M-matrix whose columns sum to a positive
    weight, like the step's matrix W - theta L diag(p g^{p-1}); about a fifth of
    its columns carry no coupling, as at nodes where g = 0 and p > 1."""
    rng = np.random.default_rng(seed)
    slope = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.0, 2.0, n))
    conductance = rng.uniform(0.1, 1.0, n - 1)
    sub, sup = -conductance * slope[:-1], -conductance * slope[1:]
    diag = rng.uniform(1e-3, 0.1, n)
    diag[:-1] -= sub  # column j holds sub[j] below the diagonal
    diag[1:] -= sup   # and sup[j - 1] above it
    return sub, diag, sup, rng.standard_normal(n)


# The reduction's oracle: the plain recursive cyclic reduction, which slices, allocates
# and negates anew at every level; `_ReductionPlan` must give its bits.
def _recursive_solve(sub, diag, sup, rhs):
    n = diag.size
    if n <= solver.SEQUENTIAL_SIZE:
        return _recursive_eliminate(sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist())
    odd_diag, odd_rhs = diag[1::2], rhs[1::2]
    m = (n - 1) // 2
    odd_left, odd_right = sub[0::2], sup[1::2]
    even_right, even_left = sup[0::2] / odd_diag, sub[1::2] / odd_diag[:m]
    even_diag, even_rhs = diag[0::2].copy(), rhs[0::2].copy()
    even_diag[:odd_diag.size] -= even_right * odd_left
    even_rhs[:odd_diag.size] -= even_right * odd_rhs
    even_diag[1:] -= even_left * odd_right
    even_rhs[1:] -= even_left * odd_rhs[:m]
    x = np.empty(n)
    x[0::2] = even = _recursive_solve(-even_left * odd_left[:m], even_diag,
                                      -even_right[:m] * odd_right, even_rhs)
    odd = odd_rhs - odd_left * even[:odd_diag.size]
    odd[:m] -= odd_right * even[1:]
    x[1::2] = odd / odd_diag
    return x


def _recursive_eliminate(sub, diag, sup, rhs):
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


class TestReductionPlan:
    """The implicit step's prepared cyclic reduction against the plain recursion."""

    # odd sizes at the top level (777 -> 389 -> 195 -> 98 -> 49) and further down
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 63, 64, 65, 66, 129, 130, 777, 1000,
                                   1001, 2047, 2048, 2049, 4097, 8192])
    def test_bitwise_recursive_solve(self, n):
        system = _tridiagonal_m_matrix(n, seed=n)
        got, want = _plan_solve(*system), _recursive_solve(*system)
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()  # signed zeros too

    def test_reused_plan_matches_fresh_plans(self):
        plan = solver._ReductionPlan(1001)
        for seed in (1, 2, 1):
            system = _tridiagonal_m_matrix(1001, seed)
            assert _plan_solve(*system, plan=plan).tobytes() == _plan_solve(*system).tobytes()

    def test_built_on_the_first_implicit_step_only(self, monkeypatch):
        built, real = [], solver._ReductionPlan.__init__

        def init(plan, n):
            built.append(n)
            real(plan, n)

        kernels, real_kernel = [], solver._Kernel.__init__

        def kernel_init(kernel, *args):
            kernels.append(kernel)
            real_kernel(kernel, *args)

        monkeypatch.setattr(solver._ReductionPlan, "__init__", init)
        monkeypatch.setattr(solver._Kernel, "__init__", kernel_init)
        grid = rf.Grid.cartesian(256, 8.0)
        f0 = rf.sample_mixture(grid, seed=2)
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=1.05, snapshot_count=3)
        cfl_dt(f0, params)
        step(make_state(f0), params)
        assert built == [] and kernels == []  # the explicit step is array code
        # from t > 0 the frame's probe on the x-grid, then the march on the frame's grid:
        # the mixture stays in x, the fitted Barenblatt goes to y; the march alone steps
        source, _ = _source_case("cartesian", 2.0, nodes=256)
        for datum in (f0, source):
            built.clear()
            kernels.clear()
            rf.evolve(datum, params)
            assert built == [256] and len(kernels) == 2
            assert [k.work is not None for k in kernels] == [False, True]
            assert kernels[0].drift > 0.0 and (kernels[1].drift > 0.0) == (datum is source)
        # from t = 0 there is no frame to choose: the march's kernel alone
        built.clear()
        kernels.clear()
        rf.evolve(f0, replace(params, t_start=0.0))
        assert built == [256] and len(kernels) == 1 and kernels[0].work is not None
        built.clear()
        kernel = solver._Kernel(grid, 2.0, f0.values)
        works = []
        for _ in range(2):
            kernel.implicit_advance(_mass_step(kernel), 1.0)
            works.append(kernel.work)
        assert built == [256] and works[0] is works[1]
        assert all(a.size == 256 for a in works[0])


def _implicit_march(f0, p, first, longest, t_end):
    """Drive _Kernel.implicit_advance from f0 at t = 1 until t_end: from the step `first`,
    doubling up to `longest` (evolve instead starts from `starting_dt` and sizes each
    step by its local error).  Returns the kernel, the time reached and the fields, f0's
    first."""
    kernel = solver._Kernel(f0.grid, p, f0.values)
    dt, t, fields = first, 1.0, [kernel.u.copy()]
    while t < t_end:
        dt_used, _ = kernel.implicit_advance(min(dt, longest), t)
        t += dt_used
        dt = 2.0 * dt_used
        fields.append(kernel.u.copy())
    return kernel, t, fields


class TestImplicitPorousMedium:
    """The p > 1 march: linearly implicit BDF2, through the degenerate front."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 63, 64, 65, 66, 129, 130, 1000, 1001,
                                   2048, 2049, 4097, 8193])
    def test_tridiagonal_solve_nonsymmetric(self, n):
        sub, diag, sup, rhs = _tridiagonal_m_matrix(n, seed=n)
        banded = np.zeros((3, n))  # LAPACK gbsv's band storage: superdiagonal first
        banded[0, 1:], banded[1], banded[2, :-1] = sup, diag, sub
        want = scipy.linalg.solve_banded((1, 1), banded, rhs)
        x = _plan_solve(sub, diag, sup, rhs)
        np.testing.assert_allclose(x, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(geometry=st.sampled_from(["cartesian", "radial3"]),
           p=st.floats(1.0, 3.0, exclude_min=True), seed=st.integers(0, 10 ** 6),
           compact=st.booleans())
    def test_conservative_positive_agrees(self, geometry, p, seed, compact):
        grid = rf.Grid.cartesian(128, 8.0) if geometry == "cartesian" else rf.Grid.radial(3, 128, 8.0)
        f0 = (rf.compact_two_bump(grid, seed=seed) if compact else
              rf.sample_mixture(grid, seed=seed, mean_range=(0.0, 2.0), var_range=(0.2, 0.5)))
        first = cfl_dt(f0, rf.DiffusionParams(p=p, dim=grid.dim, t_start=1.0, t_end=1.1))
        longest = _mass_step(solver._Kernel(grid, p, f0.values))
        kernel, t_end, fields = _implicit_march(f0, p, first, longest, t_end=1.1)
        w = grid.weights()
        m0 = float(w @ f0.values)
        for u in fields:
            assert abs(float(w @ u) - m0) <= 1e-13 * m0
            assert u.min() >= 0.0
        # on these coarse grids the CFL step is large: shrink it, so that the
        # oracle's own first-order time error stays below the bound
        params = rf.DiffusionParams(p=p, dim=grid.dim, t_start=1.0, t_end=t_end,
                                    snapshot_count=2)
        want = _reference_fields(f0, params, safety=0.05)[0][-1]
        assert float(w @ np.abs(kernel.u - want.values)) <= IMPLICIT_L1_BOUND

    def test_criterion_10_style_run_agrees(self):
        # compact bumps on a grid sized for t = 1000, where a stable step moves 1.7e-3 of
        # the mass: implicit in x from t = 1, within the time error of the explicit march
        spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
        grid = rf.Grid.cartesian(2048, rf.support_radius(spec) * 1000.0 ** (1.0 / 3.0) * 1.25)
        f0 = rf.compact_two_bump(grid, seed=11)
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=1.02,
                                    snapshot_times=tuple(np.geomspace(1.0, 1.02, 3)))
        run = rf.evolve(f0, params)
        assert run.rejection_count == 0 and run.step_count <= 40  # observed: 33
        _assert_agrees_with_reference(run, f0, params)

    def test_sweep_mixture_agrees(self):
        # the sweep's p = 2, n = 3, seed 0 row, where the accuracy step is 49 CFL steps
        grid = rf.Grid.radial(3, 512, 10.0)
        f0 = rf.sample_mixture(grid, seed=0, mean_range=(0.0, 2.0))
        params = rf.DiffusionParams(p=2.0, dim=3, t_start=1.0, t_end=1.15, snapshot_count=7)
        run = rf.evolve(f0, params)
        assert run.rejection_count == 0 and run.step_count <= 12  # observed: 10
        _assert_agrees_with_reference(run, f0, params)

    def test_barenblatt_run_concave_in_few_steps(self):
        # a stable step moves 1.2e-5 of the mass here; explicit steps would take ~37,000
        spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
        grid = rf.Grid.cartesian(1024, rf.support_radius(spec) * 2.0 ** (1.0 / 3.0) * 1.3)
        f0 = rf.sample_barenblatt(grid, 2.0, 1.0, normalize=True)
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=2.0, snapshot_count=17)
        run = rf.evolve(f0, params)
        assert run.step_count < 1000 and run.rejection_count == 0
        assert rf.concavity_report(run.snapshots, 2.0, 1, tol=1e-6).passed


def _operator(grid):
    """(conductance, coupling) of L, formed here from the grid's face areas and
    spacing, so the implicit-step oracles below do not share `Grid.conductances()`."""
    conductance = grid.face_areas()[1:-1] / grid.spacing
    coupling = np.zeros(grid.node_count)
    coupling[:-1] += conductance
    coupling[1:] += conductance  # the walls carry no flux
    return conductance, coupling


def _divergence(conductance, v):
    """(L v)_i: the net flux conductance * dv into cell i, walls closed."""
    flux = np.zeros(v.size + 1)
    flux[1:-1] = conductance * (v[1:] - v[:-1])
    return flux[1:] - flux[:-1]


# The implicit step's oracle, in both frames: the Newton-converged BDF2 step,
# Newton in u on W (u' - b) = theta L u'^p from u (floored at the
# rounding of max(u) for p < 1), until every change is below
# 1e-8 u' + eps max(u'), else retried at dt/2.
NEWTON_RTOL, NEWTON_MAX_ITER = 1e-8, 25


def _newton_solve(kernel, base, theta, conductance, coupling, drift=None):
    """Newton on u'^p; with drift = (open faces, upper cell upwind, share) the drift's
    upwind term share u'_up joins the flux, its share frozen as the step freezes it."""
    p, w, eps = kernel.p, kernel.weights, solver.EPS
    u = kernel.u if p > 1.0 else np.maximum(kernel.u, eps * kernel.umax)
    if drift is not None:
        is_open, up, share = drift
        conductance = conductance * is_open
        coupling = np.append(conductance, 0.0) + np.append(0.0, conductance)
        hi, lo = np.where(up, share, 0.0), np.where(up, 0.0, share)
    off = -theta * conductance
    spring = theta * coupling
    for _ in range(NEWTON_MAX_ITER):
        slope = p * u ** (p - 1.0)
        residual = w * (u - base) - theta * _divergence(conductance, u ** p)
        sub, diag, sup = off * slope[:-1], w + spring * slope, off * slope[1:]
        if drift is not None:
            residual -= theta * _drift_divergence(hi, lo, u)
            sub, sup = sub + theta * lo, sup - theta * hi
            diag = diag - theta * (np.append(lo, 0.0) - np.append(0.0, hi))
        trial = u - _plan_solve(sub, diag, sup, residual)
        trial = np.maximum(trial, 0.0 if p > 1.0 else 0.5 * u)
        done = np.all(np.abs(trial - u) <= NEWTON_RTOL * trial + eps * trial.max())
        u = trial
        if done:
            return u
    return None


def _drift_divergence(hi, lo, u):
    """The net drift flux into each cell for the face flux hi u_{j+1} + lo u_j."""
    flux = np.zeros(u.size + 1)
    flux[1:-1] = hi * u[1:] + lo * u[:-1]
    return flux[1:] - flux[:-1]


def _newton_implicit_advance(kernel, dt, t, grid):
    conductance, coupling = _operator(grid)
    p, floor = kernel.p, kernel._floor()  # the step's floor of g
    rejections = 0
    while True:
        if kernel.u_prev is None:
            base, theta, g = kernel.u, dt, kernel.u
        else:
            omega = dt / kernel.dt_prev
            scale = 1.0 + 2.0 * omega
            base = ((1.0 + omega) ** 2 * kernel.u - omega * omega * kernel.u_prev) / scale
            theta = dt * (1.0 + omega) / scale
            g = kernel.u + omega * (kernel.u - kernel.u_prev)
            if base.min() < -NEGATIVITY_SLACK * kernel.umax:
                base, theta, g = kernel.u, dt, kernel.u  # the step's backward-Euler fallback
        drift = None
        if kernel.drift:  # the upwind side and share at the step's extrapolation g
            _, up, share, is_open = _self_similar_faces(np.maximum(g, floor), p, grid, kernel.drift)
            drift = (is_open, up, share)
        u = _newton_solve(kernel, base, theta, conductance, coupling, drift)
        if u is not None:
            div = _divergence(conductance if drift is None else conductance * drift[0], u ** p)
            if drift is not None:
                div += _drift_divergence(np.where(up, share, 0.0), np.where(up, 0.0, share), u)
            new = base + theta * div / kernel.weights
            umax = new.max()
            if new.min() >= -NEGATIVITY_SLACK * umax:
                break
        rejections += 1
        assert rejections <= MAX_REJECTIONS
        dt *= 0.5
    np.maximum(new, 0.0, out=new)
    # the kernel's three levels, which evolve's snapshots are interpolated from
    kernel.u_prev2, kernel.dt_prev2 = kernel.u_prev, kernel.dt_prev
    kernel.u_prev, kernel.dt_prev = kernel.u, dt
    kernel.u, kernel.umax = new, float(umax)
    return dt, rejections


def _implicit_cases():
    spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
    params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=1.5, snapshot_count=9)
    cases = {"mixture-p0.8-radial3": _mixture_case("radial3", 0.8, (1.5, 3.0))}
    # the front moves about 0.43 cells per step at 1024 nodes, 1.7 at 4096, 3.5 at 8192
    for name, nodes in (("barenblatt-p2", 1024), ("barenblatt-p2-4096", 4096),
                        ("barenblatt-p2-8192", 8192)):
        grid = rf.Grid.cartesian(nodes, rf.support_radius(spec) * 2.0 ** (1.0 / 3.0) * 1.3)
        cases[name] = (_scaled_barenblatt(grid, 2.0), params)
    return cases


def _scaled_barenblatt(grid, p):
    """The sampled Barenblatt at t = 1 scaled to unit grid mass, not fitted: off the
    discrete steady state, so in y it relaxes toward the fitted profile."""
    values = rf.sample_barenblatt(grid, p).values
    return rf.DensityField(grid, values / float(grid.weights() @ values))


# the p = 0.8 mixture on R = 8 holds about 2e-4 of its mass at the wall
MIXTURE_AT_WALL = pytest.param("mixture-p0.8-radial3", marks=pytest.mark.filterwarnings(
    "ignore::renyiflow.errors.BoundaryLeakWarning"))


class TestLinearlyImplicitStep:
    """One linear solve per implicit step where the front stays within a cell,
    relinearized where it outruns one, against the Newton-converged step."""

    # evolve marches the Barenblatt in y, where it nearly stands still, and the mixture
    # in x; "-x" forces x, where the front moves, and "-self-similar" forces y.
    # Observed (L1, N_p): barenblatt-p2 at 1024 / 4096 / 8192 nodes 2.1e-13, 3.0e-14 /
    # 3.2e-12, 7.3e-14 / 1.3e-11, 4.1e-13 in y, 2.3e-7, 2.7e-9 / 2.9e-7, 8.4e-10 /
    # 2.9e-7, 2.5e-10 in x; mixture-p0.8-radial3 5.0e-9, 1.2e-9, and 4.7e-9, 2.5e-9 in y.
    # Without relinearizing, the 4096-node run strayed 1.6e-2 in L1 in x.
    @pytest.mark.parametrize("case", ["barenblatt-p2", "barenblatt-p2-4096",
                                      "barenblatt-p2-8192", "barenblatt-p2-x",
                                      "barenblatt-p2-4096-x", "barenblatt-p2-8192-x",
                                      MIXTURE_AT_WALL,
                                      pytest.param("mixture-p0.8-radial3-self-similar",
                                                   marks=MIXTURE_AT_WALL.marks)])
    def test_agrees_with_newton_oracle(self, case, monkeypatch):
        # the oracle takes the run's own steps, so that only the steps' solves differ
        for suffix, rate in (("-x", 0.0), ("-self-similar", math.inf)):
            if case.endswith(suffix):
                case = case[:-len(suffix)]
                monkeypatch.setattr(solver, "SELF_SIMILAR_RATE", rate)
        f0, params = _implicit_cases()[case]
        with monkeypatch.context() as m:
            record = record_implicit_steps(m)
            run = rf.evolve(f0, params)
        steps = iter([dt for _, dt, _ in record])
        monkeypatch.setattr(solver._Kernel, "implicit_advance", lambda kernel, dt, t:
                            _newton_implicit_advance(kernel, next(steps), t, f0.grid))
        oracle = rf.evolve(f0, params)
        assert run.step_count == oracle.step_count
        for got, want in zip(run.fields, oracle.fields):
            assert got.grid == want.grid  # dilated to their time alike
            w = got.grid.weights()
            l1 = float(w @ np.abs(got.values - want.values))
            assert l1 <= 1e-6 * float(w @ want.values)
        for got, want in zip(run.snapshots, oracle.snapshots):
            assert abs(got.n_p - want.n_p) <= 1e-7 * abs(want.n_p)

    @pytest.mark.parametrize("case", ["barenblatt-p2", MIXTURE_AT_WALL])
    def test_one_solve_per_attempt(self, case, monkeypatch):
        # the first solve undershoots, so the run counts one rejection as well
        f0, params = _implicit_cases()[case]
        calls = _count_solves(monkeypatch, f0.grid.node_count, undershoot_first=True)
        run = rf.evolve(f0, params)
        assert run.rejection_count == 1
        assert len(calls) == run.step_count + run.rejection_count

    def test_front_outrunning_a_cell_relinearizes(self, monkeypatch):
        # in x, where the front outruns a cell per step (in y it stands nearly still)
        monkeypatch.setattr(solver, "SELF_SIMILAR_RATE", 0.0)
        f0, params = _implicit_cases()["barenblatt-p2-4096"]
        calls = _count_solves(monkeypatch, f0.grid.node_count)
        run = rf.evolve(f0, params)
        assert all(f.grid == f0.grid for f in run.fields)
        assert run.rejection_count == 0
        # a solve per step and 113 relinearizations; front nodes counted from u' > 4 g
        # instead took 131 steps and 187 solves
        assert (run.step_count, len(calls)) == (122, 235)

    @pytest.mark.filterwarnings("ignore::renyiflow.errors.BoundaryLeakWarning")
    @pytest.mark.parametrize("p, geometry", [(2.0, "cartesian"), (0.8, "radial3")])
    def test_near_equilibrium_one_solve_per_step(self, p, geometry, monkeypatch):
        # close to the flat state the defect is rounding, as large as the mass the
        # step moves; only front nodes (u' > 2 g) count, so there are none to settle
        grid = (rf.Grid.cartesian(256, 2.0) if geometry == "cartesian" else
                rf.Grid.radial(3, 256, 3.0))
        values = 1.0 + 1e-6 * np.cos(np.linspace(0.0, 3.0 * np.pi, 256))
        f0 = rf.DensityField(grid, values / (grid.weights() @ values))
        params = rf.DiffusionParams(p=p, dim=grid.dim, t_start=1.0, t_end=1000.0, snapshot_count=5)
        calls = _count_solves(monkeypatch, 256)
        run = rf.evolve(f0, params)
        assert len(calls) == run.step_count and run.rejection_count == 0
        u = run.fields[-1].values
        assert u.max() - u.min() <= 1e-9 * u.max()

    def test_unsettled_linearization_raises(self, monkeypatch):
        # a unit spike in cell 0 and a backward-Euler step of 100: the front would cross
        # the grid, a cell per solve, so the step relinearizes once per node, then gives up
        spike = np.zeros(64)
        spike[0] = 1.0
        kernel = solver._Kernel(rf.Grid.cartesian(64, 1.0), 2.0, spike)
        calls = _count_solves(monkeypatch, 64)
        with pytest.raises(StabilityError) as raised:
            kernel.implicit_advance(100.0, 1.0)
        assert str(raised.value) == "implicit step at t = 1.0: linearization did not settle"
        assert len(calls) == 64


def _steps_per_interval(record, times):
    """Implicit steps started in each snapshot interval, and their dt and ratio of local-
    error estimate to tolerance in order."""
    starts, dts, ratios = (np.array(column) for column in zip(*record))
    counts = np.bincount(np.searchsorted(times, starts, side="right") - 1,
                         minlength=times.size - 1)
    return counts, dts, ratios


def _assert_controlled(counts, dts, ratios):
    """The step controller's contract: every accepted step's local-error estimate is at
    most its tolerance and omega <= 2 (up to the rounding of the equal parts); on
    these runs, whose steps are far shorter than an interval, every interval has a step.
    The estimate, not the ramp alone, sizes the steps."""
    assert np.all(ratios <= 1.0) and ratios.max() > 0.5
    assert np.all(dts[1:] <= 2.0 * (1.0 + 1e-12) * dts[:-1])
    assert np.all(counts >= 1)


class TestStepPlacement:
    """How many steps evolve takes and how it sizes them: it splits what remains afresh by
    the last step's proposal (to the next snapshot for the first two steps, to t_end for
    the rest), and every accepted step keeps the controller's contract."""

    def test_barenblatt_768_linear_in_four_steps(self):
        # `evolve --p 2 --dim 1 --nodes 768 --initial barenblatt --t-start 1 --t-end 3
        # --snapshots 9`: in y, where the datum stands still, N_p is linear to rounding
        # (observed 2.5e-13), and two steps that land on the first two snapshots and two
        # that pass the other six make the run
        spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
        grid = rf.Grid.cartesian(768, rf.support_radius(spec) * 3.0 ** (1.0 / 3.0) * 1.3)
        f0 = rf.sample_barenblatt(grid, 2.0, 1.0, normalize=True)
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=3.0, snapshot_count=9)
        run = rf.evolve(f0, params)
        assert run.step_count == 4 and run.rejection_count == 0
        m0 = float(grid.weights() @ f0.values)
        for fld in run.fields:  # each on the grid dilated to its time
            assert abs(float(fld.grid.weights() @ fld.values) - m0) <= 1e-13
            assert fld.values.min() >= 0.0
        report = rf.concavity_report(run.snapshots, 2.0, 1)
        assert report.tolerance - report.margin <= 1e-12

    @pytest.mark.filterwarnings("ignore::renyiflow.errors.BoundaryLeakWarning")
    def test_heat_flow_two_steps_match_kernel(self):
        # p = 1 takes the march every p takes: the heat kernel stands still in y, a step
        # per interval, where explicit steps at h = 1/102 took thousands; observed within
        # 1.6e-12 of the exact kernel, the datum's own normalization
        grid = rf.Grid.cartesian(2048, 10.0)
        f0 = rf.sample_gaussian(grid, 1.0, normalize=True)
        params = rf.DiffusionParams(p=1.0, dim=1, t_start=1.0, t_end=1.25, snapshot_count=3)
        run = rf.evolve(f0, params)
        assert run.step_count == 2
        assert run.fields[-1].grid == grid.scaled(1.25 ** 0.5)
        for fld, snap in zip(run.fields, run.snapshots):  # each on the grid dilated to its time
            exact = rf.sample_gaussian(fld.grid, snap.t)
            assert float(fld.grid.weights() @ np.abs(fld.values - exact.values)) <= 1e-11

    def test_short_intervals_take_ten_steps(self):
        # criterion 5's 768-node radial p = 2 mixture, where a stable step moves 9.7e-6 of
        # the mass at t = 1: however short the intervals, the error sizes the steps
        grid = rf.Grid.radial(3, 768, 8.0)
        f0 = rf.sample_mixture(grid, 22, mean_range=(0.0, 2.0))
        params = rf.DiffusionParams(p=2.0, dim=3, t_start=1.0, t_end=1.3, snapshot_count=9)
        assert rf.evolve(f0, params).step_count == 10

    def test_criterion_10_config(self, criterion_10_run):
        # implicit from t = 1 in x, every step keeps the controller's contract (observed:
        # 434 steps, no rejection)
        run, record = criterion_10_run
        times = run.params.times()
        assert all(f.grid == run.fields[0].grid for f in run.fields)
        assert run.step_count == len(record) <= 500 and run.rejection_count == 0
        _assert_controlled(*_steps_per_interval(record, times))

    @pytest.mark.filterwarnings("ignore::renyiflow.errors.BoundaryLeakWarning")
    def test_fast_diffusion_geometric_snapshots(self, monkeypatch):
        f0, _ = _mixture_case("radial3", 0.8, (1.5, 3.0), nodes=256, blend=1e-2)
        times = np.geomspace(1.0, 10.0, 7)
        params = rf.DiffusionParams(p=0.8, dim=3, t_start=1.0, t_end=10.0,
                                    snapshot_times=tuple(times))
        record = record_implicit_steps(monkeypatch)
        rf.evolve(f0, params)
        counts, dts, ratios = _steps_per_interval(record, times)
        _assert_controlled(counts, dts, ratios)
        assert dts[-1] > 4.0 * dts[counts[0]]  # dt grows with the flow

    @pytest.mark.filterwarnings("ignore::renyiflow.errors.BoundaryLeakWarning")
    def test_explicit_run_bitwise(self):
        # `evolve --p 1 --dim 3 --nodes 512 --initial gaussian`: `step`'s explicit run is
        # the reference's, bit for bit, in 2,920 steps; evolve marches in y, where the
        # heat kernel stands still, in 4 steps
        grid = rf.Grid.radial(3, 512, 8.0 * math.sqrt(4.0) + 4.0)
        f0 = rf.sample_gaussian(grid, 1.0, normalize=True)
        params = rf.DiffusionParams(p=1.0, dim=3, t_start=1.0, t_end=2.0, snapshot_count=9)
        fields, steps, rejections = _step_march(f0, params)
        want, want_steps, want_rejections = _reference_fields(f0, params)
        assert (steps, rejections) == (want_steps, want_rejections) == (2920, 0)
        for got, field in zip(fields, want, strict=True):
            assert got.tobytes() == field.values.tobytes()
        run = rf.evolve(f0, params)
        assert run.step_count == 4
        for fld, snap in zip(run.fields, run.snapshots):
            exact = rf.sample_gaussian(fld.grid, snap.t, normalize=True)
            assert float(fld.grid.weights() @ np.abs(fld.values - exact.values)) <= 1e-11


def _source_case(geometry, p, nodes=128):
    """The source solution at t = 1, which stands still in y: the heat kernel for
    p = 1, else the fitted Barenblatt, on the domain evolve sizes up to t = 1.2."""
    if p == 1.0:
        grid = rf.Grid.cartesian(nodes, 8.0) if geometry == "cartesian" else rf.Grid.radial(3, nodes, 8.0)
        f0 = rf.sample_gaussian(grid, 1.0, normalize=True)
    else:
        f0 = _fitted_barenblatt(p, 1 if geometry == "cartesian" else 3, nodes, 1.2)
    return f0, rf.DiffusionParams(p=p, dim=f0.grid.dim, t_start=1.0, t_end=1.2,
                                  snapshot_count=5)


class TestLocalErrorEstimate:
    """The BDF2 step's local-error estimate against its true local error."""

    # observed estimate / true: 1.16, 1.17, 1.13 and 1.15; the reference's own error,
    # read off halving its step, is at most 8% of the true local error
    @pytest.mark.parametrize("step, omega", [(0.02, 1.0), (0.02, 2.0), (0.04, 1.0), (0.02, 0.5)])
    def test_tracks_true_local_error(self, step, omega):
        # a smooth p < 1 flow; the step starts from three exact levels spaced by step,
        # from t = 1 + step on, and its true local error is taken against a reference
        # marched at step / 128
        grid = rf.Grid.cartesian(128, 8.0)
        f0 = rf.blend_with_barenblatt(rf.sample_mixture(grid, seed=4, var_range=(1.5, 3.0)),
                                      0.8, 1.0, 1e-2)
        w = grid.weights()
        levels = {}
        for sub in (64, 128):  # BDF2 at the constant step step / sub
            h, last = step / sub, round((3.0 + omega) * sub)
            fields = _implicit_march(f0, 0.8, h, h, 1.0 + last * h)[2]
            levels[sub] = [fields[j * sub] for j in (1, 2, 3)] + [fields[last]]
        exact = levels[128]
        kernel = solver._Kernel(grid, 0.8, exact[2])
        for _ in range(2):
            kernel.implicit_advance(step, 1.0)  # makes the step's buffers and history
        for level, value in zip((kernel.u_prev2, kernel.u_prev, kernel.u), exact):
            np.copyto(level, value)
        kernel.dt_prev = kernel.dt_prev2 = step
        kernel.umax, kernel.error_tol = float(exact[2].max()), 1.0  # 1.0: no rejection
        estimates, real = [], solver._Kernel._local_error

        def local_error(k, *args):
            estimates.append(real(k, *args))
            return estimates[-1]

        with pytest.MonkeyPatch.context() as m:
            m.setattr(solver._Kernel, "_local_error", local_error)
            kernel.implicit_advance(omega * step, 1.0 + 3.0 * step)
        true = float(w @ np.abs(kernel.u - exact[3]))
        assert float(w @ np.abs(levels[64][3] - exact[3])) <= 0.1 * true
        assert 0.5 * true <= estimates[-1] <= 2.0 * true

    def test_rejected_step_retries_at_the_controllers_factor(self, monkeypatch):
        # three levels at the step that moves 0.2% of the mass, then a step eight times as
        # long against a tolerance of 1e-12: its estimate is far above it, and so is the
        # first retry's (observed: 2 rejections, no undershoot)
        grid = rf.Grid.cartesian(256, 8.0)
        kernel = solver._Kernel(grid, 1.5, rf.sample_mixture(grid, seed=4).values)
        step = _mass_step(kernel)
        for k in range(2):
            kernel.implicit_advance(step, 1.0 + k * step)
        kernel.error_tol = 1e-12
        tries, real = [], solver._Kernel._local_error

        def local_error(k, dt, *args):
            tries.append((dt, real(k, dt, *args)))
            return tries[-1][1]

        monkeypatch.setattr(solver._Kernel, "_local_error", local_error)
        dt, rejections = kernel.implicit_advance(8.0 * step, 1.0 + 2.0 * step)
        assert rejections == len(tries) - 1 >= 1 and (tries[0][0], tries[-1][0]) == (8.0 * step, dt)
        for (dt_tried, error), (retry, _) in zip(tries, tries[1:]):
            assert error > kernel.error_tol
            assert retry == dt_tried * (0.9 * (kernel.error_tol / error) ** (1.0 / 3.0))
        assert tries[-1][1] <= kernel.error_tol


def _kernel_with_levels(levels, h1, h2):
    """A p = 2 kernel on an 8-node grid whose last three levels are given by hand,
    oldest first, with the steps h2 and then h1 between them."""
    grid = rf.Grid.cartesian(8, 4.0)
    kernel = solver._Kernel(grid, 2.0, levels[-1])
    kernel.u_prev2, kernel.u_prev, kernel.u = (np.array(v, dtype=float) for v in levels)
    kernel.dt_prev, kernel.dt_prev2 = h1, h2
    return kernel


class TestInterpolant:
    """A snapshot inside a step is read from the quadratic through the kernel's last
    three levels, or, where that dips below 0 at a node, from the step's linear
    interpolant."""

    def test_quadratic_through_the_levels(self):
        levels = ([1.0, 2.0, 3.0, 1.0, 0.5, 0.2, 0.1, 0.0],
                  [1.5, 2.0, 2.0, 1.2, 0.6, 0.3, 0.1, 0.0],
                  [1.8, 2.2, 1.5, 1.3, 0.7, 0.3, 0.2, 0.1])
        h1, h2, back = 0.3, 0.2, 0.1
        kernel = _kernel_with_levels(levels, h1, h2)
        assert kernel.interpolant(0.0) is kernel.u  # a landing reads the level itself
        nodes, s = (-h1 - h2, -h1, 0.0), -back
        want = sum(np.array(level) * math.prod((s - b) / (a - b) for b in nodes if b != a)
                   for level, a in zip(levels, nodes))
        got = kernel.interpolant(back)
        assert np.allclose(got, want, rtol=1e-15, atol=1e-16)
        linear = (2 / 3) * kernel.u + (1 / 3) * kernel.u_prev
        assert got.min() >= 0.0 and not np.allclose(got, linear)

    def test_below_zero_reads_the_linear_interpolant(self):
        # at equal steps the quadratic halfway through the last one weighs the levels
        # -1/8, 3/4 and 3/8: node 0's levels 1, 0, 0 read -1/8
        levels = ([1.0] * 8, [0.0] + [1.0] * 7, [0.0] + [2.0] * 7)
        kernel = _kernel_with_levels(levels, 0.5, 0.5)
        got = kernel.interpolant(0.25)
        assert got.tobytes() == (kernel.u * 0.5 + kernel.u_prev * 0.5).tobytes()
        assert got[0] == 0.0 and np.all(got[1:] == 1.5)

    def test_compact_mixture_keeps_mass_and_sign(self, monkeypatch):
        # p = 2 compact two-bump data, which marches in x: observed 153 steps, 23 of the
        # 24 snapshots inside one, no quadratic below 0, the mass within 4.4e-16 of 1
        spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
        grid = rf.Grid.cartesian(512, rf.support_radius(spec) * 2.0 ** (1.0 / 3.0) * 2.6)
        f0 = rf.compact_two_bump(grid, seed=11)
        record = record_implicit_steps(monkeypatch)
        reads = _record_interpolants(monkeypatch, record)
        run = rf.evolve(f0, rf.DiffusionParams(2.0, 1, 1.0, 2.0, snapshot_count=25))
        assert run.fields[-1].grid == grid
        inside = [fld for (_, back), fld in zip(reads, run.fields[1:], strict=True) if back]
        assert len(inside) >= 20
        for fld in inside:
            assert abs(float(grid.weights() @ fld.values) - 1.0) <= 1e-12
            assert fld.values.min() >= 0.0


def _fitted_barenblatt(p, dim, nodes, t_end):
    """The unit-mass Barenblatt, C fitted, at t = 1 on the domain `evolve` sizes up to t_end."""
    radius = cli._default_radius(p, dim, t_end, "barenblatt")
    grid = rf.Grid.cartesian(nodes, radius) if dim == 1 else rf.Grid.radial(dim, nodes, radius)
    return rf.sample_barenblatt(grid, p, normalize=True)


class TestSelfSimilarFrame:
    """The implicit march in y = x / t^{1/mu}, with the clock tau = log t, where the
    Barenblatt stands still."""

    # observed: 4 steps each, two that land on the first two snapshots and two that pass
    # the rest; concavity violation 7.3e-14, 1.4e-14 and 7.4e-14, and the fields within
    # 5.2e-13, 6.8e-15 and 4.9e-16 of the datum (relative to its maximum).
    # p = 0.65, n = 3: 1024 cells 4.3 wide, the profile's core in the first cell or two,
    # and a tail at the wall below the rounding of max(u), which a floor of g at that
    # rounding moved (15 steps, violation 1.3e-4)
    @pytest.mark.parametrize("p, dim, nodes", [(2.0, 1, 512), (0.8, 3, 512), (0.65, 3, 1024)])
    def test_fitted_barenblatt_is_steady(self, p, dim, nodes):
        f0 = _fitted_barenblatt(p, dim, nodes, 3.0)
        params = rf.DiffusionParams(p=p, dim=dim, t_start=1.0, t_end=3.0, snapshot_count=9)
        run = rf.evolve(f0, params)
        assert run.step_count == 4 and run.rejection_count == 0
        dilate = 1.0 / rf.coefficients(p, dim).mu
        for fld, snap in zip(run.fields[1:], run.snapshots[1:]):
            assert fld.grid == f0.grid.scaled(snap.t ** dilate)
            v = rf.rescale(fld, snap.t ** -dilate).values  # back in y
            assert np.abs(v - f0.values).max() <= 1e-11 * f0.values.max()
        report = rf.concavity_report(run.snapshots, p, dim)
        assert report.tolerance - report.margin <= 1e-9

    # the p = 0.65, n = 3 sample scaled to unit mass, not fitted, relaxes in y: the
    # tolerance in N_p's units keeps N_p concave to the bound while steps pass snapshots
    # (observed curvature 5.6e-8 and 2.5e-7; in mass units +4.41e-6 and +2.24e-6)
    @pytest.mark.parametrize("snapshots, steps", [(17, 11), (33, 13)])
    def test_relaxing_datum_keeps_concavity(self, snapshots, steps):
        radius = cli._default_radius(0.65, 3, 2.0, "barenblatt")
        f0 = _scaled_barenblatt(rf.Grid.radial(3, 1024, radius), 0.65)
        run = rf.evolve(f0, rf.DiffusionParams(0.65, 3, 1.0, 2.0, snapshot_count=snapshots))
        assert run.fields[-1].grid != f0.grid  # the march ran in y
        assert run.step_count == steps and run.rejection_count == 0
        report = rf.concavity_report(run.snapshots, 0.65, 3)
        assert report.tolerance == 1e-6 and report.passed

    @pytest.mark.parametrize("p, dim", [(2.0, 1), (0.8, 3), (3.0, 1), (0.65, 3)])
    def test_fitted_barenblatt(self, p, dim):
        # unit grid mass through C, so xi = e'(u) + |y|^2 / (2 mu) stays constant on the
        # support, to the rounding of its two terms (observed spread at most 9e-16 of
        # the larger term)
        f = _fitted_barenblatt(p, dim, 512, 2.0)
        assert float(f.grid.weights() @ f.values) == pytest.approx(1.0, abs=1e-15)
        support = f.values > 0.0
        pressure = p * f.values[support] ** (p - 1.0) / (p - 1.0)
        phi = f.grid.nodes()[support] ** 2 / (2.0 * rf.coefficients(p, dim).mu)
        terms = max(np.abs(pressure).max(), phi.max())
        assert np.ptp(pressure + phi) <= 1e-14 * terms

    def test_closed_faces(self):
        # `evolve_pme`'s datum: every face beyond the support has an empty upwind cell,
        # so it carries no flux, and the field moves only by rounding
        grid = rf.Grid.cartesian(2048, cli._default_radius(2.0, 1, 3.0, "barenblatt"))
        f0 = rf.sample_barenblatt(grid, 2.0, 1.0, normalize=True)
        kernel = solver._Kernel(grid, 2.0, f0.values, drift=1.0 / 3.0)
        moved = kernel.speed()
        empty = f0.values == 0.0
        upwind_empty = np.where(kernel.up, empty[1:], empty[:-1])
        assert np.array_equal(kernel.closed, upwind_empty)
        assert np.array_equal(kernel.closed, empty[1:] | empty[:-1])  # the edge faces too
        assert moved <= 1e-6 * solver._Kernel(grid, 2.0, f0.values).speed()
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=3.0, snapshot_count=33)
        run = rf.evolve(f0, params)
        assert run.rejection_count == 0 and run.step_count == 6

    def test_draining_cell_falls_back_to_backward_euler(self, monkeypatch):
        # compact two-bump data forced into y: the drift drains the thin tails ahead of
        # its fronts, where BDF2's base goes negative, so some steps are backward Euler
        # from u >= 0 instead; the run still conserves mass and keeps u >= 0
        spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
        grid = rf.Grid.cartesian(512, rf.support_radius(spec) * 2.0 ** (1.0 / 3.0) * 2.6)
        f0 = rf.compact_two_bump(grid, seed=11)
        euler_after_first, real = [], solver._Kernel._local_error

        def local_error(kernel, dt, theta, gap, euler):
            euler_after_first.append(euler and kernel.u_prev is not None)
            return real(kernel, dt, theta, gap, euler)

        monkeypatch.setattr(solver, "SELF_SIMILAR_RATE", math.inf)
        monkeypatch.setattr(solver._Kernel, "_local_error", local_error)
        run = rf.evolve(f0, rf.DiffusionParams(2.0, 1, 1.0, 2.0, snapshot_count=5))
        assert run.fields[-1].grid != grid  # the march ran in y
        assert any(euler_after_first) and not all(euler_after_first)
        for fld in run.fields:
            assert float(fld.grid.weights() @ fld.values) == pytest.approx(1.0, abs=1e-13)
            assert fld.values.min() >= 0.0

    @pytest.mark.parametrize("datum", ["fitted", "two_bump"])
    def test_snapshots_are_the_fields(self, datum, monkeypatch):
        # each snapshot is read in y and mapped to x by `rescale_snapshot`; it is the
        # snapshot of the field read in x, every column, D_p included (observed within
        # 1.3e-15 relative)
        if datum == "fitted":
            f0, p = _fitted_barenblatt(0.8, 3, 256, 1.5), 0.8
        else:  # forced into y, as in the test above
            spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
            grid = rf.Grid.cartesian(512, rf.support_radius(spec) * 2.0 ** (1.0 / 3.0) * 2.6)
            f0, p = rf.compact_two_bump(grid, seed=11), 2.0
            monkeypatch.setattr(solver, "SELF_SIMILAR_RATE", math.inf)
        params = rf.DiffusionParams(p, f0.grid.dim, 1.0, 1.5, snapshot_count=5)
        run = rf.evolve(f0, params, with_dissipation=True)
        assert run.fields[-1].grid != f0.grid  # the march ran in y
        for fld, got in zip(run.fields, run.snapshots, strict=True):
            want = rf.snapshot(fld, p, t=got.t, with_dissipation=True)
            assert got.t == want.t and got.e_p is not None and got.d_p is not None
            for column in ("mass", "e_p", "h_p", "n_p", "f_p", "i_p", "d_p", "upsilon"):
                assert getattr(got, column) == pytest.approx(getattr(want, column),
                                                             rel=1e-12), column

    def test_frame_choice(self):
        # the Barenblatt goes to y; a run from t = 0, where log t is undefined, and a
        # p > 1 mixture whose thin tail at the wall the drift would drain stay in x
        spec = rf.barenblatt_spec(0.8, 3, rf.PDE_NORMALIZED)
        grid = rf.Grid.radial(3, 256, cli._default_radius(0.8, 3, 1.0, "barenblatt"))
        f0 = rf.sample_barenblatt(grid, 0.8, 1.0, normalize=True)
        run = rf.evolve(f0, rf.DiffusionParams(0.8, 3, 1.0, 1.1, snapshot_count=3))
        assert run.fields[1].grid == grid.scaled(1.05 ** (1.0 / spec.coeffs.mu))
        run = rf.evolve(f0, rf.DiffusionParams(0.8, 3, 0.0, 0.1, snapshot_count=3))
        assert all(f.grid == grid for f in run.fields)
        grid = rf.Grid.radial(3, 768, 8.0)  # criterion 5's radial mixtures
        f0 = rf.sample_mixture(grid, 22, mean_range=(0.0, 2.0))
        for p, steps in ((2.0, 10), (1.5, 19)):
            run = rf.evolve(f0, rf.DiffusionParams(p, 3, 1.0, 1.3, snapshot_count=9))
            assert all(f.grid == grid for f in run.fields) and run.step_count == steps
        # at every p on both geometries the source solutions, which stand still in y, are
        # dilated, and the mixtures stay in x (R = 8 cuts the p = 0.8 ones' tails)
        for geometry in ("cartesian", "radial3"):
            for p in (0.8, 1.0, 1.5, 2.0):
                f0, params = _source_case(geometry, p)
                assert rf.evolve(f0, params).fields[-1].grid != f0.grid, (geometry, p)
                f0, params = _mixture_case(geometry, p, (1.5, 3.0) if p < 1.0 else (0.2, 0.5))
                with pytest.warns(BoundaryLeakWarning) if p < 1.0 else contextlib.nullcontext():
                    assert rf.evolve(f0, params).fields[-1].grid == f0.grid, (geometry, p)

    def test_x_run_builds_no_dilated_kernel(self, monkeypatch):
        # criterion 5's radial p = 2 mixture stays in x: its march and the frame's probe
        # are kernels on the x-grid, and no field is dilated
        grids, rescaled, real = [], [], solver._Kernel.__init__

        def kernel_init(kernel, grid, *args):
            grids.append(grid)
            real(kernel, grid, *args)

        monkeypatch.setattr(solver._Kernel, "__init__", kernel_init)
        monkeypatch.setattr(solver, "rescale", lambda *args: rescaled.append(args))
        grid = rf.Grid.radial(3, 768, 8.0)
        f0 = rf.sample_mixture(grid, 22, mean_range=(0.0, 2.0))
        rf.evolve(f0, rf.DiffusionParams(2.0, 3, 1.0, 1.3, snapshot_count=9))
        assert grids == [grid, grid] and rescaled == []
