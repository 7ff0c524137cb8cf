import numpy as np
import pytest

import renyiflow as rf
from renyiflow import solver


def record_marches(monkeypatch):
    """Wrap the explicit `solver.step` and `_Kernel.implicit_advance`; returns the list of
    (march, t, dt used, ratio) of every step (of a kernel's first block), ratio the accepted step's local-error
    estimate over its tolerance (0 for an explicit step, and for an implicit one before
    three levels or outside evolve)."""
    record, ratios = [], []
    real_error = solver._Kernel._local_error

    def local_error(self, *args):
        error = real_error(self, *args)
        ratios.append(float(error[0] / self.error_tol[0]))
        return error

    monkeypatch.setattr(solver._Kernel, "_local_error", local_error)
    real_step, real_implicit = solver.step, solver._Kernel.implicit_advance

    def explicit(state, params, dt=None):
        out = real_step(state, params, dt)
        record.append(("step", state.t, out.t - state.t, 0.0))
        return out

    def implicit(self, dt, t):
        ratios.clear()
        out = real_implicit(self, dt, t)
        record.append(("implicit_advance", float(np.ravel(t)[0]), float(out[0][0]),
                       ratios[-1] if ratios else 0.0))
        return out

    monkeypatch.setattr(solver, "step", explicit)
    monkeypatch.setattr(solver._Kernel, "implicit_advance", implicit)
    return record


@pytest.fixture
def tail_calls(monkeypatch):
    """Counts the tail-mass evaluations suggest_domain_radius makes, from an empty memo."""
    calls = []
    original = rf.analytic.barenblatt_tail_mass

    def counted(spec, radius):
        calls.append(radius)
        return original(spec, radius)

    monkeypatch.setattr(rf.analytic, "barenblatt_tail_mass", counted)
    rf.suggest_domain_radius.cache_clear()
    return calls


@pytest.fixture(scope="session")
def barenblatt_run():
    """p=2 Barenblatt marched on [1, 1.5], 512 nodes; exact N_p is linear."""
    p = 2.0
    spec = rf.barenblatt_spec(p, 1, "pde")
    radius = rf.support_radius(spec) * 1.5 ** (1.0 / spec.coeffs.mu) * 1.3
    grid = rf.Grid.cartesian(512, radius)
    f0 = rf.sample_barenblatt(grid, p, 1.0, normalize=True)
    params = rf.DiffusionParams(p=p, dim=1, t_start=1.0, t_end=1.5, snapshot_count=9)
    return rf.evolve(f0, params)


@pytest.fixture(scope="session")
def criterion_10_run():
    """Acceptance criterion 10's run: compact p=2 bumps on t in [1, 1000], 13 geometric
    snapshots, 2048 nodes; with the (march, t, dt used) of each of its steps."""
    spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
    grid = rf.Grid.cartesian(2048, rf.support_radius(spec) * 1000.0 ** (1.0 / 3.0) * 1.25)
    f0 = rf.compact_two_bump(grid, seed=11)
    params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=1000.0,
                                snapshot_times=tuple(np.geomspace(1.0, 1000.0, 13)))
    with pytest.MonkeyPatch.context() as mp:
        record = record_marches(mp)
        run = rf.evolve(f0, params)
    return run, record


@pytest.fixture(scope="session")
def mixture_run():
    """Generic two-bump run, p=1.5 on [1, 1.3]."""
    grid = rf.Grid.cartesian(512, 10.0)
    f0 = rf.sample_mixture(grid, seed=5, components=2)
    params = rf.DiffusionParams(p=1.5, dim=1, t_start=1.0, t_end=1.3, snapshot_count=13)
    return rf.evolve(f0, params, with_dissipation=True)


@pytest.fixture(scope="session")
def fast_diffusion_run():
    """Strictly positive fast-diffusion run, p=0.9 on [1, 1.1], with D_p."""
    grid = rf.Grid.cartesian(1024, 12.0)
    f0 = rf.sample_mixture(grid, seed=3, var_range=(1.5, 3.0))
    params = rf.DiffusionParams(p=0.9, dim=1, t_start=1.0, t_end=1.1, snapshot_count=11)
    return rf.evolve(f0, params, with_dissipation=True)


def linear_series(times, slope, offset=0.0):
    """Synthetic snapshot series with N_p = offset + slope * t."""
    out = []
    for t in times:
        n_p = offset + slope * t
        out.append(rf.FunctionalSnapshot(t=float(t), mass=1.0, e_p=1.0, h_p=np.log(n_p),
                                         n_p=n_p, f_p=1.0, i_p=1.0 / t, d_p=None,
                                         upsilon=n_p / t))
    return out


@pytest.fixture
def make_series():
    return linear_series
