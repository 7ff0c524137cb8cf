"""Finite-volume solver, explicit and implicit: conservation, stability, analytic oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renyiflow as rf
from renyiflow import solver
from renyiflow.errors import BoundaryLeakWarning, DomainError, StabilityError
from renyiflow.solver import MAX_REJECTIONS, NEGATIVITY_SLACK, SolverState, cfl_dt, step

from conftest import record_marches as _record_marches


def make_state(field, t=1.0):
    return SolverState(t=t, grid=field.grid, values=field.values.copy())


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

    def test_nonnegativity_preserved(self):
        grid = rf.Grid.cartesian(256, 6.0)
        f = rf.sample_mixture(grid, seed=0)
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=2.0)
        state = make_state(f)
        for _ in range(200):
            state = step(state, params)
            assert state.values.min() >= -1e-14 * state.values.max()


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
        assert a == b == pytest.approx(params.cfl_safety * grid.spacing ** 2 / 2.0)

    def test_radial_geometry_factor(self):
        grid = rf.Grid.radial(3, 256, 5.0)
        f = rf.sample_mixture(grid, seed=1, mean_range=(0.0, 2.0))
        params3 = rf.DiffusionParams(p=2.0, dim=3, t_start=0.0, t_end=1.0)
        # the factor 2^(n-2) = 2 at n = 3 is set by node 0, whose inner face has zero area
        expected = 0.9 * grid.spacing ** 2 / (2.0 * 2.0 * 2.0 * f.values.max())
        assert cfl_dt(f, params3) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind, dim, factor", [
        ("cartesian", 1, 1.0), ("radial", 1, 1.0), ("radial", 2, 1.0), ("radial", 3, 2.0),
        ("radial", 4, 4.0), ("radial", 5, 8.0), ("radial", 6, 16.0)])
    def test_exact_bound_factor(self, kind, dim, factor):
        # p = 1 has unit stiffness, so cfl_dt = cfl h^2 / (2 factor)
        grid = rf.Grid.cartesian(256, 5.0) if kind == "cartesian" else rf.Grid.radial(dim, 256, 5.0)
        params = rf.DiffusionParams(p=1.0, dim=dim, t_start=0.0, t_end=1.0)
        dt = cfl_dt(rf.sample_gaussian(grid, 0.5), params)
        got = params.cfl_safety * grid.spacing ** 2 / (2.0 * dt)
        assert got == pytest.approx(factor, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_exact_bound_attained(self, dim):
        # at the full bound the update's smallest convex weight 1 - dt D c_i / w_i is 0
        # (D = 1 at p = 1); c_i sums the areas / h of node i's faces that carry flux
        grid = rf.Grid.cartesian(256, 5.0) if dim == 1 else rf.Grid.radial(dim, 256, 5.0)
        params = rf.DiffusionParams(p=1.0, dim=dim, t_start=0.0, t_end=1.0)
        dt = cfl_dt(rf.sample_gaussian(grid, 0.5), params) / params.cfl_safety
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
        run = rf.evolve(f0, params)
        exact = rf.sample_gaussian(grid, 2.0)
        err = float(grid.weights() @ np.abs(run.fields[-1].values - exact.values))
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

    def test_nonunit_mass_rejected(self):
        grid = rf.Grid.cartesian(256, 5.0)
        f = rf.DensityField(grid, rf.sample_mixture(grid, seed=1).values * 1.1)
        params = rf.DiffusionParams(p=1.5, dim=1, t_start=1.0, t_end=1.2)
        with pytest.raises(DomainError):
            rf.evolve(f, params)

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
            rf.evolve(f0, params)

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
            run = rf.evolve(f0, params)
            exact = rf.sample_barenblatt(grid, p, 1.5)
            errs.append(float(grid.weights() @ np.abs(run.fields[-1].values - exact.values)))
        assert errs[0] / errs[1] >= 2.0


class TestDiffusionParams:
    def test_validates_exponent_range(self):
        with pytest.raises(DomainError):
            rf.DiffusionParams(p=0.3, dim=3, t_start=0.0, t_end=1.0)

    def test_validates_times(self):
        with pytest.raises(DomainError):
            rf.DiffusionParams(p=2.0, dim=1, t_start=2.0, t_end=1.0)

    def test_validates_cfl(self):
        with pytest.raises(DomainError):
            rf.DiffusionParams(p=2.0, dim=1, t_start=0.0, t_end=1.0, cfl_safety=1.5)

    def test_validates_snapshot_times(self):
        with pytest.raises(DomainError):
            rf.DiffusionParams(p=2.0, dim=1, t_start=0.0, t_end=1.0,
                               snapshot_times=(0.0, 0.5, 0.4, 1.0))


class TestFastDiffusionGuard:
    def test_radius_grows_toward_critical_p(self):
        params_flat = rf.DiffusionParams(p=0.7, dim=1, t_start=1.0, t_end=1.0001)
        params_steep = rf.DiffusionParams(p=0.9, dim=1, t_start=1.0, t_end=1.0001)
        grid = rf.Grid.cartesian(256, 10.0)
        rec_flat = rf.fast_diffusion_guard(params_flat, grid).recommended_radius
        rec_steep = rf.fast_diffusion_guard(params_steep, grid).recommended_radius
        assert rec_flat > rec_steep

    def test_compact_support_report(self):
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=2.0)
        grid = rf.Grid.cartesian(256, 10.0)
        rep = rf.fast_diffusion_guard(params, grid)
        assert rep.compact_support and rep.tail_mass == 0.0 and rep.adequate

    def test_support_cutting_grid_reports_tail(self):
        # p = 2, n = 1: (1 - s^2) puts 5/16 of its mass beyond half the support edge
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=2.0)
        spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
        edge = rf.support_radius(spec) * 2.0 ** (1.0 / spec.coeffs.mu)
        rep = rf.fast_diffusion_guard(params, rf.Grid.cartesian(256, 0.5 * edge))
        assert rep.compact_support and not rep.adequate
        assert rep.tail_mass == pytest.approx(0.3125, rel=1e-12)
        assert rep.recommended_radius == edge

    def test_recommended_radius_captures_mass(self):
        params = rf.DiffusionParams(p=0.9, dim=1, t_start=1.0, t_end=1.0001)
        grid = rf.Grid.cartesian(256, 10.0)
        rep = rf.fast_diffusion_guard(params, grid)
        sample_grid = rf.Grid.cartesian(8192, rep.recommended_radius)
        f = rf.sample_barenblatt(sample_grid, 0.9)
        assert rf.mass(f) >= 1.0 - 1e-6

    def test_rejects_divergent_second_moment(self):
        params = rf.DiffusionParams(p=0.55, dim=3, t_start=1.0, t_end=2.0)
        grid = rf.Grid.radial(3, 256, 10.0)
        with pytest.raises(DomainError):
            rf.fast_diffusion_guard(params, grid)


class TestConservationLongHaul:
    def test_mass_and_positivity_over_1e4_steps(self):
        grid = rf.Grid.cartesian(512, 6.0)
        f0 = rf.sample_mixture(grid, seed=8)
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=0.0, t_end=1e9)
        state = make_state(f0, 0.0)
        m0 = rf.mass(f0)
        w = grid.weights()
        for _ in range(10_000):
            state = step(state, params)
            assert state.values.min() >= -1e-14 * state.values.max()
        assert abs(float(w @ state.values) - m0) / m0 <= 1e-12


# A frozen copy of the unbuffered march (stiffness, flux update and rejection
# loop as plain array expressions): the buffered kernel must match it bitwise.
def _reference_stiffness(values, p):
    umax = float(values.max())
    if p >= 1.0:
        return p * umax ** (p - 1.0)
    v = values ** p
    du = np.diff(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        chord = np.where(du != 0.0, np.diff(v) / du, 0.0)
    return float(np.max(np.abs(chord), initial=p * umax ** (p - 1.0)))


def _reference_advance(values, p, dt, grid):
    h, weights, areas = grid.spacing, grid.weights(), grid.face_areas()
    rejections = 0
    while True:
        v = np.maximum(values, 0.0) ** p
        flux = np.zeros(values.size + 1)
        flux[1:-1] = (v[1:] - v[:-1]) / h
        new = values + dt * (areas[1:] * flux[1:] - areas[:-1] * flux[:-1]) / weights
        if new.min() >= -NEGATIVITY_SLACK * new.max():
            break
        rejections += 1
        assert rejections <= MAX_REJECTIONS
        dt *= 0.5
    np.maximum(new, 0.0, out=new)
    return new, dt, rejections


def _cfl_factor(grid):
    """max_i (A_{i-1/2} + A_{i+1/2}) h / (2 w_i): 1 on Cartesian grids, 2^(n-2) on radial ones."""
    areas = grid.face_areas()
    return float(np.max((areas[:-1] + areas[1:]) * grid.spacing / (2.0 * grid.weights())))


def _reference_march(f0, params):
    grid = f0.grid
    d_geom = _cfl_factor(grid)
    cfl_scale = params.cfl_safety * grid.spacing * grid.spacing / (2.0 * d_geom)
    times = params.times()
    values, t = f0.values.copy(), float(times[0])
    fields, steps, rejections = [values.copy()], 0, 0
    for target in times[1:]:
        while t < target:
            proposal = cfl_scale / _reference_stiffness(values, params.p)
            remaining = target - t
            parts = max(1, math.ceil(remaining / proposal))
            values, dt_used, rej = _reference_advance(
                values, params.p, remaining / parts, grid)
            t += dt_used
            steps += 1
            rejections += rej
        t = float(target)
        fields.append(values.copy())
    return fields, steps, rejections


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
# O(STEP_CHANGE) in L1; observed at most 3e-4 on these cases.
IMPLICIT_L1_BOUND = 1e-3


def _assert_agrees_with_reference(run, f0, params):
    fields, _, _ = _reference_march(f0, params)
    w = f0.grid.weights()
    assert len(run.fields) == len(fields)
    for got, want in zip(run.fields, fields):
        assert float(w @ np.abs(got.values - want)) <= IMPLICIT_L1_BOUND


class TestKernelMatchesReference:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("geometry", ["cartesian", "radial3"])
    def test_evolve_bitwise(self, p, geometry):
        # narrow bumps make max(u) fall fast, so a stale max would change the steps
        f0, params = _mixture_case(geometry, p, (0.2, 0.5))
        run = rf.evolve(f0, params)
        fields, steps, rejections = _reference_march(f0, params)
        assert len(run.fields) == len(fields)
        for got, want in zip(run.fields, fields):
            assert np.array_equal(got.values, want)
        assert (run.step_count, run.rejection_count) == (steps, rejections)

    @pytest.mark.filterwarnings("ignore::renyiflow.errors.BoundaryLeakWarning")
    @pytest.mark.parametrize("geometry", ["cartesian", "radial3"])
    def test_fast_diffusion_agrees(self, geometry):
        # p < 1 marches implicitly: it matches the explicit oracle up to time error
        f0, params = _mixture_case(geometry, 0.8, (1.5, 3.0))
        run = rf.evolve(f0, params)
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
        d_geom = _cfl_factor(grid)
        want = params.cfl_safety * grid.spacing * grid.spacing / (2.0 * d_geom) / (
            _reference_stiffness(values, 0.8))
        assert cfl_dt(f, params) == want


def _count_solves(monkeypatch, nodes, undershoot_first=False):
    """Wrap solver._solve_tridiagonal; returns the list of its full-size (top-level)
    calls, the recursion's smaller systems not counted.  With undershoot_first the
    first full-size call returns a vector with a spike at its maximum, which drives
    the flux-formed u' of the step below zero there."""
    real, calls = solver._solve_tridiagonal, []

    def solve(sub, diag, sup, rhs):
        x = real(sub, diag, sup, rhs)
        if diag.size == nodes:
            calls.append(diag.size)
            if undershoot_first and len(calls) == 1:
                x[np.argmax(x)] += 1e6 * x.max()
        return x

    monkeypatch.setattr(solver, "_solve_tridiagonal", solve)
    return calls


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
        x = solver._solve_tridiagonal(off, diag, off, rhs)
        np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-12, atol=1e-12)

    def test_undershooting_solve_halves_dt(self, monkeypatch):
        f0, params = _mixture_case("radial3", 0.8, (1.5, 3.0))
        kernel = solver._Kernel(f0.grid, 0.8, f0.values)
        dt = 4.0 * kernel.accuracy_dt(solver.STEP_CHANGE)
        _count_solves(monkeypatch, f0.grid.node_count, undershoot_first=True)
        dt_used, rejections = kernel.implicit_advance(dt, 1.0)
        assert rejections == 1 and dt_used == dt / 2
        w = f0.grid.weights()
        assert abs(float(w @ kernel.u) - 1.0) <= 1e-14
        monkeypatch.setattr(solver, "MAX_REJECTIONS", 0)
        _count_solves(monkeypatch, f0.grid.node_count, undershoot_first=True)
        with pytest.raises(StabilityError):
            kernel.implicit_advance(dt, 1.0)

    @pytest.mark.filterwarnings("ignore::renyiflow.errors.BoundaryLeakWarning")
    def test_steps_independent_of_grid_stiffness(self):
        # the explicit step shrinks like h^2; the implicit one follows the flow
        steps = []
        for nodes in (64, 256):
            f0, params = _mixture_case("radial3", 0.8, (1.5, 3.0), nodes=nodes, blend=1e-2)
            steps.append(rf.evolve(f0, params).step_count)
        assert steps[1] <= 1.1 * steps[0]


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


def _implicit_march(f0, p, t_end):
    """Drive _Kernel.implicit_advance as evolve does: from the CFL step, doubling up
    to the accuracy step.  Returns the kernel, the time reached and the fields."""
    kernel = solver._Kernel(f0.grid, p, f0.values)
    dt_run = kernel.accuracy_dt(solver.STEP_CHANGE)
    dt, t, fields = kernel.cfl_dt(0.9), 1.0, []
    while t < t_end:
        dt_used, _ = kernel.implicit_advance(min(dt, dt_run), t)
        t += dt_used
        dt = 2.0 * dt_used
        fields.append(kernel.u.copy())
    return kernel, t, fields


class TestImplicitPorousMedium:
    """The p > 1 march: linearly implicit BDF2, through the degenerate front."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 63, 64, 65, 66, 129, 130, 1000, 1001,
                                   2048, 2049])
    def test_tridiagonal_solve_nonsymmetric(self, n):
        sub, diag, sup, rhs = _tridiagonal_m_matrix(n, seed=n)
        dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        want = np.linalg.solve(dense, rhs)
        x = solver._solve_tridiagonal(sub, diag, sup, rhs)
        np.testing.assert_allclose(x, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(geometry=st.sampled_from(["cartesian", "radial3"]),
           p=st.floats(1.0, 3.0, exclude_min=True), seed=st.integers(0, 10 ** 6),
           compact=st.booleans())
    def test_conservative_positive_agrees(self, geometry, p, seed, compact):
        grid = rf.Grid.cartesian(128, 8.0) if geometry == "cartesian" else rf.Grid.radial(3, 128, 8.0)
        f0 = (rf.compact_two_bump(grid, seed=seed) if compact else
              rf.sample_mixture(grid, seed=seed, mean_range=(0.0, 2.0), var_range=(0.2, 0.5)))
        kernel, t_end, fields = _implicit_march(f0, p, t_end=1.1)
        w = grid.weights()
        m0 = float(w @ f0.values)
        for u in fields:
            assert abs(float(w @ u) - m0) <= 1e-13 * m0
            assert u.min() >= 0.0
        # on these coarse grids the CFL step is large: shrink it, so that the
        # oracle's own first-order time error stays below the bound
        params = rf.DiffusionParams(p=p, dim=grid.dim, t_start=1.0, t_end=t_end,
                                    snapshot_count=2, cfl_safety=0.05)
        want, _, _ = _reference_march(f0, params)
        assert float(w @ np.abs(kernel.u - want[-1])) <= IMPLICIT_L1_BOUND

    def test_criterion_10_style_run_stays_explicit(self):
        # compact bumps on a grid sized for t = 1000: the CFL step is near the accuracy step
        spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
        grid = rf.Grid.cartesian(2048, rf.support_radius(spec) * 1000.0 ** (1.0 / 3.0) * 1.25)
        f0 = rf.compact_two_bump(grid, seed=11)
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=1.02,
                                    snapshot_times=tuple(np.geomspace(1.0, 1.02, 3)))
        run = rf.evolve(f0, params)
        fields, steps, _ = _reference_march(f0, params)
        assert run.step_count == steps
        assert np.array_equal(run.fields[-1].values, fields[-1])

    def test_sweep_mixture_stays_explicit(self):
        # the sweep's p = 2, n = 3, seed 0 row: the accuracy step is 49 CFL steps
        grid = rf.Grid.radial(3, 512, 10.0)
        f0 = rf.sample_mixture(grid, seed=0, mean_range=(0.0, 2.0))
        params = rf.DiffusionParams(p=2.0, dim=3, t_start=1.0, t_end=1.15, snapshot_count=7)
        run = rf.evolve(f0, params)
        fields, steps, _ = _reference_march(f0, params)
        assert run.step_count == steps
        assert np.array_equal(run.fields[-1].values, fields[-1])

    def test_barenblatt_run_goes_implicit(self):
        # the accuracy step is about 190 CFL steps here; explicit would take ~37,000
        spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
        grid = rf.Grid.cartesian(1024, rf.support_radius(spec) * 2.0 ** (1.0 / 3.0) * 1.3)
        f0 = rf.sample_barenblatt(grid, 2.0, 1.0, normalize=True)
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=2.0, snapshot_count=17)
        run = rf.evolve(f0, params)
        assert run.step_count < 1000 and run.rejection_count == 0
        assert rf.concavity_report(run.snapshots, 2.0, 1, tol=1e-6).passed


# A frozen copy of the Newton-converged BDF2 step the linearly implicit one
# replaced: Newton in u on W (u' - b) = theta L u'^p from u (floored at the
# rounding of max(u) for p < 1), until every change is below
# 1e-8 u' + eps max(u'), else retried at dt/2.
NEWTON_RTOL, NEWTON_MAX_ITER = 1e-8, 25


def _newton_solve(kernel, base, theta):
    p, w, eps = kernel.p, kernel.weights, solver.EPS
    off = -theta * kernel.conductance
    spring = theta * kernel.coupling
    u = kernel.u if p > 1.0 else np.maximum(kernel.u, eps * kernel.umax)
    for _ in range(NEWTON_MAX_ITER):
        slope = p * u ** (p - 1.0)
        residual = w * (u - base) - theta * kernel._divergence(u ** p)
        trial = u - solver._solve_tridiagonal(off * slope[:-1], w + spring * slope,
                                              off * slope[1:], residual)
        trial = np.maximum(trial, 0.0 if p > 1.0 else 0.5 * u)
        done = np.all(np.abs(trial - u) <= NEWTON_RTOL * trial + eps * trial.max())
        u = trial
        if done:
            return u
    return None


def _newton_implicit_advance(kernel, dt, t):
    rejections = 0
    while True:
        if kernel.u_prev is None:
            base, theta = kernel.u, dt
        else:
            omega = dt / kernel.dt_prev
            scale = 1.0 + 2.0 * omega
            base = ((1.0 + omega) ** 2 * kernel.u - omega * omega * kernel.u_prev) / scale
            theta = dt * (1.0 + omega) / scale
        u = _newton_solve(kernel, base, theta)
        if u is not None:
            new = base + theta * kernel._divergence(u ** kernel.p) / kernel.weights
            umax = new.max()
            if new.min() >= -NEGATIVITY_SLACK * umax:
                break
        rejections += 1
        assert rejections <= MAX_REJECTIONS
        dt *= 0.5
    np.maximum(new, 0.0, out=new)
    kernel.u_prev, kernel.dt_prev = kernel.u, dt
    kernel.u, kernel.umax = new, float(umax)
    kernel._faces()
    return dt, rejections


def _implicit_cases():
    spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
    params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=1.5, snapshot_count=9)
    cases = {"mixture-p0.8-radial3": _mixture_case("radial3", 0.8, (1.5, 3.0))}
    # the front moves about 0.43 cells per step at 1024 nodes, 1.7 at 4096, 3.5 at 8192
    for name, nodes in (("barenblatt-p2", 1024), ("barenblatt-p2-4096", 4096),
                        ("barenblatt-p2-8192", 8192)):
        grid = rf.Grid.cartesian(nodes, rf.support_radius(spec) * 2.0 ** (1.0 / 3.0) * 1.3)
        cases[name] = (rf.sample_barenblatt(grid, 2.0, 1.0, normalize=True), params)
    return cases


# the p = 0.8 mixture on R = 8 holds about 2e-4 of its mass at the wall
MIXTURE_AT_WALL = pytest.param("mixture-p0.8-radial3", marks=pytest.mark.filterwarnings(
    "ignore::renyiflow.errors.BoundaryLeakWarning"))


class TestLinearlyImplicitStep:
    """One linear solve per implicit step where the front stays within a cell,
    relinearized where it outruns one, against the Newton-converged step."""

    # observed (L1, N_p): barenblatt-p2 at 1024 / 4096 / 8192 nodes 2.8e-7, 4.5e-9 /
    # 4.8e-7, 1.1e-9 / 3.0e-7, 5.0e-10; mixture-p0.8-radial3 5.9e-10, 4.0e-10.
    # Without relinearizing, the 4096-node run strays 1.6e-2 in L1.
    @pytest.mark.parametrize("case", ["barenblatt-p2", "barenblatt-p2-4096",
                                      "barenblatt-p2-8192", MIXTURE_AT_WALL])
    def test_agrees_with_newton_oracle(self, case, monkeypatch):
        f0, params = _implicit_cases()[case]
        run = rf.evolve(f0, params)
        monkeypatch.setattr(solver._Kernel, "implicit_advance", _newton_implicit_advance)
        oracle = rf.evolve(f0, params)
        assert run.step_count == oracle.step_count
        w = f0.grid.weights()
        for got, want in zip(run.fields, oracle.fields):
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
        f0, params = _implicit_cases()["barenblatt-p2-4096"]
        calls = _count_solves(monkeypatch, f0.grid.node_count)
        run = rf.evolve(f0, params)
        assert run.rejection_count == 0
        assert run.step_count < len(calls) < 3 * run.step_count

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
        # with no tolerance left the step relinearizes once per node, then gives up
        f0, _ = _mixture_case("cartesian", 2.0, (0.2, 0.5), nodes=64)
        kernel = solver._Kernel(f0.grid, 2.0, f0.values)
        monkeypatch.setattr(solver, "LINEARIZATION_TOL", -1.0)
        calls = _count_solves(monkeypatch, 64)
        with pytest.raises(StabilityError):
            kernel.implicit_advance(kernel.accuracy_dt(solver.STEP_CHANGE), 1.0)
        assert len(calls) == 64


# A frozen copy of the implicit step before it dropped the passes it does not use
# (the BDF2 base from both levels, two powers per linearization, the defect built
# on every solve, u'^p refreshed over the whole grid after every step): the lean
# step must take the same dt, rejections and solves, and agree to rounding.
def _reference_implicit_advance(kernel, dt, t):
    p, w = kernel.p, kernel.weights
    floor = 0.0 if p > 1.0 else solver.EPS * kernel.umax
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
        g = np.maximum(g, floor)
        off = -theta * kernel.conductance
        for _ in range(w.size):
            slope = p * g ** (p - 1.0)
            shift = g ** p - slope * g
            sol = solver._solve_tridiagonal(off * slope[:-1], w + theta * kernel.coupling * slope,
                                            off * slope[1:],
                                            w * base + theta * kernel._divergence(shift))
            new = base + theta * kernel._divergence(shift + slope * sol) / w
            umax = new.max()
            undershoot = not new.min() >= -NEGATIVITY_SLACK * umax
            trial = np.maximum(new, floor)
            defect = np.where(trial > 2.0 * g, trial ** p - shift - slope * trial, 0.0)
            if undershoot or theta * np.abs(kernel._divergence(defect)).sum() <= (
                    solver.LINEARIZATION_TOL * (w @ np.abs(new - kernel.u))):
                break
            g = trial
        else:
            raise StabilityError(f"implicit step at t = {t}: linearization did not settle")
        if not undershoot:
            break
        rejections += 1
        assert rejections <= MAX_REJECTIONS
        dt *= 0.5
    np.maximum(new, 0.0, out=new)
    kernel.u_prev, kernel.dt_prev = kernel.u, dt
    kernel.u, kernel.umax = new, float(umax)
    kernel._faces()
    return dt, rejections


class TestLeanImplicitStep:
    """The implicit step against its frozen predecessor, one step at a time."""

    @pytest.mark.parametrize("case", ["mixture-p0.8-radial3", "barenblatt-p2-4096"])
    def test_matches_frozen_step(self, case, monkeypatch):
        f0, params = _implicit_cases()[case]
        nodes = f0.grid.node_count
        lean = solver._Kernel(f0.grid, params.p, f0.values)
        frozen = solver._Kernel(f0.grid, params.p, f0.values)
        dt = lean.accuracy_dt(solver.STEP_CHANGE)
        # backward Euler, BDF2 at omega = 2 and 1, then a step whose first solve
        # undershoots, so that it is rejected and retried at dt/2
        schedule = [(0.5 * dt, False), (dt, False), (dt, False), (dt, True)]
        relinearized = False
        for dt_try, undershoot_first in schedule:
            outcomes = []
            for kernel, advance in ((lean, solver._Kernel.implicit_advance),
                                    (frozen, _reference_implicit_advance)):
                with monkeypatch.context() as m:
                    calls = _count_solves(m, nodes, undershoot_first)
                    outcomes.append((advance(kernel, dt_try, 1.0), len(calls)))
            (got, got_solves), (want, want_solves) = outcomes
            assert got == want and got_solves == want_solves
            assert np.max(np.abs(lean.u - frozen.u)) <= 1e-12 * np.max(frozen.u)
            assert (want[1] > 0) == undershoot_first
            relinearized |= want_solves > 1 + want[1]
        assert relinearized == (params.p > 1.0)  # the p = 2 front outruns a cell per step


def _steps_per_interval(record, times):
    """Implicit steps started in each snapshot interval, and their dt in order."""
    starts = np.array([t for march, t, _ in record if march == "implicit_advance"])
    dts = np.array([dt for march, _, dt in record if march == "implicit_advance"])
    counts = np.bincount(np.searchsorted(times, starts, side="right") - 1,
                         minlength=times.size - 1)
    return counts, dts


class TestRechosenMarch:
    """evolve re-chooses its march and dt at every snapshot; explicit to implicit is one-way."""

    def test_switches_to_implicit_once(self, monkeypatch):
        # `evolve --p 2 --dim 1 --nodes 768 --initial barenblatt --t-start 1 --t-end 3
        # --snapshots 9`: explicit all the way it took 25,187 steps
        spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
        grid = rf.Grid.cartesian(768, rf.support_radius(spec) * 3.0 ** (1.0 / 3.0) * 1.3)
        f0 = rf.sample_barenblatt(grid, 2.0, 1.0, normalize=True)
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=3.0, snapshot_count=9)
        record = _record_marches(monkeypatch)
        run = rf.evolve(f0, params)
        marches = [march for march, _, _ in record]
        switch = marches.index("implicit_advance")
        assert switch > 0 and set(marches[switch:]) == {"implicit_advance"}
        assert record[switch][1] in params.times()[1:-1]  # the switch is at a snapshot
        assert run.step_count == len(record) < 10_000
        w = grid.weights()
        m0 = float(w @ f0.values)
        for fld in run.fields:
            assert abs(float(w @ fld.values) - m0) <= 1e-12
            assert fld.values.min() >= 0.0

    def test_heat_flow_switches_march(self, monkeypatch):
        # p = 1 is re-chosen like every p: at h = 1/102 the CFL step falls below a
        # hundredth of dt_run by the second snapshot
        grid = rf.Grid.cartesian(2048, 10.0)
        f0 = rf.sample_gaussian(grid, 1.0, normalize=True)
        params = rf.DiffusionParams(p=1.0, dim=1, t_start=1.0, t_end=1.25, snapshot_count=3)
        record = _record_marches(monkeypatch)
        run = rf.evolve(f0, params)
        marches = [march for march, _, _ in record]
        switch = marches.index("implicit_advance")
        assert switch > 0 and set(marches[switch:]) == {"implicit_advance"}
        assert abs(float(grid.weights() @ run.fields[-1].values) - 1.0) <= 1e-13
        _assert_agrees_with_reference(run, f0, params)

    def test_criterion_10_config(self, criterion_10_run):
        # explicit with dt fixed at t_start it took 368,555 steps; the march switches
        # partway and takes at least MIN_STEPS_PER_SNAPSHOT steps per geometric interval
        run, record = criterion_10_run
        times = run.params.times()
        assert run.step_count < 50_000
        counts, dts = _steps_per_interval(record, times)
        assert counts[0] == 0 and counts[-1] > 0
        assert np.all(counts[np.flatnonzero(counts)[0]:] >= solver.MIN_STEPS_PER_SNAPSHOT)
        assert np.all(dts[1:] <= 2.0 * (1.0 + 1e-12) * dts[:-1])  # omega <= 2, up to the landing

    @pytest.mark.filterwarnings("ignore::renyiflow.errors.BoundaryLeakWarning")
    def test_fast_diffusion_geometric_snapshots(self, monkeypatch):
        f0, _ = _mixture_case("radial3", 0.8, (1.5, 3.0), nodes=256, blend=1e-2)
        times = np.geomspace(1.0, 10.0, 7)
        params = rf.DiffusionParams(p=0.8, dim=3, t_start=1.0, t_end=10.0,
                                    snapshot_times=tuple(times))
        record = _record_marches(monkeypatch)
        rf.evolve(f0, params)
        counts, dts = _steps_per_interval(record, times)
        assert len(dts) == len(record)  # p < 1 is implicit from the start
        assert np.all(counts >= solver.MIN_STEPS_PER_SNAPSHOT)
        assert np.all(dts[1:] <= 2.0 * (1.0 + 1e-12) * dts[:-1])
        assert dts[-1] > 4.0 * dts[counts[0]]  # dt grows with the flow
