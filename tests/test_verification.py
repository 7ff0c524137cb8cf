"""Verdict operations: positive cases from the flow, negative controls, determinism."""
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

import renyiflow as rf
from renyiflow import verification
from renyiflow.errors import DegenerateError, DomainError, InsufficientData
from renyiflow.reporting import verdict_lines


def series_with_np(times, values):
    return [rf.FunctionalSnapshot(t=float(t), mass=1.0, e_p=1.0, h_p=0.0, n_p=float(v),
                                  f_p=1.0, i_p=1.0, d_p=None, upsilon=float(v))
            for t, v in zip(times, values)]


class TestConcavity:
    def test_linear_series_has_zero_curvature(self, make_series):
        series = make_series(np.linspace(1.0, 2.0, 9), slope=41.6)
        r = rf.concavity_report(series, 2.0, 1)
        assert r.passed and abs(r.margin - r.tolerance) < 1e-12

    def test_solver_mixture_passes(self, mixture_run):
        assert rf.concavity_report(mixture_run.snapshots, 1.5, 1).passed

    def test_convex_series_fails(self):
        t = np.linspace(1.0, 2.0, 9)
        series = series_with_np(t, t * t)
        r = rf.concavity_report(series, 2.0, 1)
        assert not r.passed
        # the bound is inclusive: a violation equal to the tolerance passes
        violation = -rf.concavity_report(series, 2.0, 1, tol=0.0).margin
        assert rf.concavity_report(series, 2.0, 1, tol=violation).passed

    def test_insufficient_data(self, make_series):
        with pytest.raises(InsufficientData):
            rf.concavity_report(make_series([1.0, 2.0], slope=1.0), 2.0, 1)

    def test_nonuniform_times_linear_still_flat(self, make_series):
        times = np.array([1.0, 1.1, 1.35, 1.5, 1.9, 2.0])
        r = rf.concavity_report(make_series(times, slope=3.0), 2.0, 1)
        assert r.passed

    def test_tolerance_monotonicity(self, mixture_run):
        tight = rf.concavity_report(mixture_run.snapshots, 1.5, 1, tol=1e-6)
        loose = rf.concavity_report(mixture_run.snapshots, 1.5, 1, tol=2e-6)
        assert loose.passed or not tight.passed


class TestUpsilonMonotone:
    def test_barenblatt_constant_at_gamma(self, barenblatt_run):
        # equality case: constant up to the 512-node quadrature wiggle
        r = rf.upsilon_monotone(barenblatt_run.snapshots, tol=1e-4)
        assert r.passed
        gamma = rf.gamma_const(2.0, 1)
        ups = np.array([s.upsilon for s in barenblatt_run.snapshots])
        assert np.max(np.abs(ups - gamma)) < 1e-3 * gamma

    def test_mixture_decreases_toward_gamma(self, mixture_run):
        assert rf.upsilon_monotone(mixture_run.snapshots).passed
        ups = np.array([s.upsilon for s in mixture_run.snapshots])
        assert ups[-1] < ups[0]
        assert ups[-1] > rf.gamma_const(1.5, 1) * (1.0 - 1e-3)

    def test_reversed_series_fails(self, mixture_run):
        # Upsilon replayed backwards along the same (increasing) times rises
        series = mixture_run.snapshots
        rising = [dataclasses.replace(s, upsilon=r.upsilon)
                  for s, r in zip(series, reversed(series))]
        assert not rf.upsilon_monotone(rising).passed
        with pytest.raises(DomainError, match="strictly increase"):
            rf.upsilon_monotone(list(reversed(series)))  # times that decrease

    def test_insufficient(self, mixture_run):
        with pytest.raises(InsufficientData):
            rf.upsilon_monotone(mixture_run.snapshots[:1])


class TestDeBruijn:
    def test_heat_flow_gaussian(self):
        # dH/dt = n/(2t) = I exactly on the kernel; residual is the fd error
        grid = rf.Grid.cartesian(1024, 25.0)
        f0 = rf.sample_gaussian(grid, 1.0, normalize=True)
        params = rf.DiffusionParams(p=1.0, dim=1, t_start=1.0, t_end=2.0, snapshot_count=9)
        run = rf.evolve(f0, params)
        r = rf.debruijn_check(run.snapshots, 1.0)
        assert r.passed and "residual" in r.detail

    def test_pme_barenblatt(self, barenblatt_run):
        assert rf.debruijn_check(barenblatt_run.snapshots, 2.0).passed

    def test_second_order_in_snapshot_spacing(self, barenblatt_run):
        import re

        fine = rf.debruijn_check(barenblatt_run.snapshots, 2.0)
        coarse = rf.debruijn_check(barenblatt_run.snapshots[::2], 2.0)
        get = lambda c: float(re.search(r"residual ([\d.eE+-]+)", c.detail).group(1))
        assert get(coarse) / get(fine) > 3.0

    def test_needs_uniform_times(self, make_series):
        series = make_series([1.0, 1.1, 1.3, 1.7], slope=2.0)
        with pytest.raises(InsufficientData):
            rf.debruijn_check(series, 2.0)


class TestDissipation:
    def test_fast_diffusion_residual(self, fast_diffusion_run):
        r = rf.dissipation_check(fast_diffusion_run.snapshots, 0.9, 1)
        assert r.passed and r.margin > 0.0

    def test_trace_bound_every_snapshot(self, fast_diffusion_run):
        for fld in fast_diffusion_run.fields:
            rep = rf.concavity_condition_chain(fld, 0.9, 1)
            assert rep.trace_margin >= -1e-12

    def test_residual_decreases_under_refinement(self):
        residuals = []
        for nodes, snaps in ((512, 6), (1024, 11)):
            grid = rf.Grid.cartesian(nodes, 12.0)
            f0 = rf.sample_mixture(grid, seed=3, var_range=(1.5, 3.0))
            params = rf.DiffusionParams(p=0.9, dim=1, t_start=1.0, t_end=1.1,
                                        snapshot_count=snaps)
            run = rf.evolve(f0, params, with_dissipation=True)
            r = rf.dissipation_check(run.snapshots, 0.9, 1)
            residuals.append(r.tolerance - r.margin)
        assert residuals[1] < residuals[0]

    def test_requires_dissipation_column(self, mixture_run):
        series = [dataclasses.replace(s, d_p=None) for s in mixture_run.snapshots]
        with pytest.raises(InsufficientData):
            rf.dissipation_check(series, 1.5, 1)


class TestConditionChain:
    def test_barenblatt_is_extremal(self):
        spec = rf.barenblatt_spec(2.0, 1)
        grid = rf.Grid.radial(1, 4096, rf.support_radius(spec))
        f = rf.sample_barenblatt_from_spec(grid, spec)
        rep = rf.concavity_condition_chain(f, 2.0, 1)
        # every inequality in the chain is tight on the source solution
        for name, margin in rep.margins().items():
            assert abs(margin) < 1e-5, name

    @pytest.mark.parametrize("seed", range(6))
    def test_mixtures_satisfy_chain(self, seed):
        grid = rf.Grid.cartesian(1024, 12.0)
        f = rf.sample_mixture(grid, seed=seed)
        for p in (0.8, 1.5, 2.0):
            assert rf.concavity_condition_chain(f, p, 1).holds(slack=1e-8)

    def test_chain_agrees_with_concavity_verdict(self, fast_diffusion_run):
        # pointwise sigma-condition >= 0 along the run implies the
        # finite-difference curvature check reaches the same verdict
        margins = [rf.concavity_condition_chain(f, 0.9, 1).concavity_margin
                   for f in fast_diffusion_run.fields]
        assert all(m >= 0.0 for m in margins)
        assert rf.concavity_report(fast_diffusion_run.snapshots, 0.9, 1).passed

    def test_sigma_above_nu_breaks_chain(self):
        spec = rf.barenblatt_spec(2.0, 1)
        grid = rf.Grid.radial(1, 2048, rf.support_radius(spec))
        f = rf.sample_barenblatt_from_spec(grid, spec)
        nu = rf.coefficients(2.0, 1).nu
        rep = rf.concavity_condition_chain(f, 2.0, 1, sigma=nu + 0.1)
        assert not rep.holds()

    @pytest.mark.parametrize("grid", [rf.Grid.cartesian(2048, 12.0), rf.Grid.radial(3, 2048, 12.0)],
                             ids=["cartesian", "radial3"])
    def test_costa_equality_case(self, grid):
        # at p = 1 the chain is Costa's, and a Gaussian meets every link with equality: the
        # concavity and Cauchy-Schwarz margins measure -6.7e-15 / 7.6e-14 (Cartesian / radial)
        rep = rf.concavity_condition_chain(rf.sample_gaussian(grid, 1.0), 1.0)
        assert rep.sigma == 2.0 / grid.dim
        assert all(abs(m) <= 1e-12 for m in rep.margins().values())
        for seed in range(3):
            assert rf.concavity_condition_chain(rf.sample_mixture(grid, seed), 1.0).holds()

    # at the default sigma = nu, sigma + p - 1 = 2/n + 2(p - 1) rounds to exactly 0 here
    @pytest.mark.parametrize("p, n", [(0.75, 4), (0.8, 5)])
    def test_vanishing_coefficient_reads_the_left_side(self, p, n):
        sigma = rf.coefficients(p, n).nu
        assert sigma + p - 1.0 == 0.0
        f = rf.sample_mixture(rf.Grid.radial(n, 256, 10.0), 1)
        rep = rf.concavity_condition_chain(f, p, n)
        d_val, s_p = rf.d_p(f, p, n), rf.p_norm_integral(f, p)
        # both right sides vanish, so each margin is its left side over its own size
        assert rep.concavity_margin == math.copysign(1.0, d_val * s_p)
        assert rep.sufficient_margin == math.copysign(1.0, d_val)
        assert all(type(m) is float and math.isfinite(m) for m in rep.margins().values())
        assert rep.holds()

    # at p = 1 - 1/n the same sum is 0 only up to rounding: 2.2e-16 at n = 3 and 7,
    # -1.1e-16 at n = 9 and at p = 6/7, and each margin is again an O(1) ratio
    @pytest.mark.parametrize("p, n", [(1.0 - 1.0 / 3, 3), (1.0 - 1.0 / 7, 7), (6.0 / 7, 7),
                                      (1.0 - 1.0 / 9, 9)])
    def test_rounded_coefficient_reads_the_left_side(self, p, n):
        sigma = rf.coefficients(p, n).nu
        assert 0.0 < abs(sigma + p - 1.0) < 4e-16
        f = rf.sample_mixture(rf.Grid.radial(n, 256, 10.0), 1)
        rep = rf.concavity_condition_chain(f, p, n)
        assert rep.concavity_margin == pytest.approx(1.0, abs=1e-12)
        assert rep.sufficient_margin == pytest.approx(1.0, abs=1e-12)
        assert rep.holds()

    @pytest.mark.parametrize("grid", [rf.Grid.cartesian(64, 4.0), rf.Grid.radial(3, 64, 8.0)],
                             ids=["cartesian", "radial3"])
    @pytest.mark.parametrize("p", [0.75, 2.0])
    def test_flat_field_is_degenerate(self, grid, p):
        # spacing 1/8 and q = p/(p-1) exact: every difference quotient of the constant
        # pressure is exactly 0, so F_p = D_p = int u^p (Lap e_p')^2 = 0 and no margin
        # has a scale
        f = rf.DensityField(grid, np.ones(grid.node_count))
        assert rf.fisher_p(f, p)[0] == rf.d_p(f, p) == rf.pressure_laplacian_integral(f, p) == 0.0
        with pytest.raises(DegenerateError, match="vanishes"):
            rf.concavity_condition_chain(f, p)


def _moment_range_callers(n):
    """Each caller of the Barenblatt moment range, and its wording for the range."""
    grid = rf.Grid.cartesian(64, 4.0) if n == 1 else rf.Grid.radial(n, 64, 8.0)
    f = rf.sample_mixture(grid, 0)
    return {
        "domain": (lambda p: verification.CHECKS["isoperimetric"].domain(p, n),
                   "isoperimetric bound"),
        "gn": (lambda p: rf.gn_lhs_rhs(f, p, n), "Gagliardo-Nirenberg bound"),
        "gamma": (lambda p: rf.gamma_const(p, n), "a finite second moment"),
    }


class TestMomentRange:
    """p != 1 and p > n/(n+2) is stated once (analytic); every caller raises its error."""

    @pytest.mark.parametrize("caller", ["domain", "gn", "gamma"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_outside_the_range_raises(self, caller, n):
        call, subject = _moment_range_callers(n)[caller]
        with pytest.raises(DomainError, match="^p = 1 has no Barenblatt profile"):
            call(1.0)
        edge = n / (n + 2.0)
        with pytest.raises(DomainError, match="^" + re.escape(
                f"{subject} needs p > n/(n+2) = {edge}; got p = {edge}") + "$"):
            call(edge)


class TestIsoperimetric:
    def test_barenblatt_margin_near_zero(self):
        spec = rf.barenblatt_spec(1.5, 1)
        grid = rf.Grid.radial(1, 4096, rf.support_radius(spec))
        f = rf.sample_barenblatt_from_spec(grid, spec)
        r = rf.isoperimetric_check(f, 1.5, 1)
        assert r.passed and abs(r.margin) < 1e-4 * rf.gamma_const(1.5, 1)

    @pytest.mark.parametrize("p", [0.8, 1.5, 2.0])
    def test_seeded_mixtures(self, p):
        grid = rf.Grid.cartesian(1024, 12.0)
        gamma = rf.gamma_const(p, 1)
        for seed in range(10):
            f = rf.sample_mixture(grid, seed=seed)
            r = rf.isoperimetric_check(f, p, 1)
            assert r.margin >= -1e-3 * gamma

    def test_margin_dilation_invariant(self):
        grid = rf.Grid.cartesian(1024, 10.0)
        f = rf.sample_mixture(grid, seed=4)
        base = rf.isoperimetric_check(f, 1.5, 1).margin
        for a in (0.5, 2.0):
            scaled = rf.isoperimetric_check(rf.rescale(f, a), 1.5, 1).margin
            assert scaled == pytest.approx(base, rel=1e-6)

    def test_wrong_gamma_fails(self):
        # inflating the tolerance reference: a mixture fails against gamma * 2
        grid = rf.Grid.cartesian(512, 10.0)
        f = rf.sample_mixture(grid, seed=4)
        margin = rf.upsilon(f, 1.5) - 2.0 * rf.gamma_const(1.5, 1)
        assert margin < 0.0  # the doctored bound is violated, check is falsifiable

    def test_out_of_range_rejected(self):
        grid = rf.Grid.radial(3, 256, 8.0)
        f = rf.sample_mixture(grid, seed=0, mean_range=(0.0, 2.0))
        with pytest.raises(DomainError):
            rf.isoperimetric_check(f, 0.58, 3)


class TestBarenblattConvergence:
    def test_barenblatt_data_is_fixed_point(self, barenblatt_run):
        d = rf.rescaled_l1_distances(barenblatt_run, 2.0, 1)
        assert np.all(d < 1e-3)  # stays at scheme-error level
        # the distance floor wiggles at quadrature level, hence the wider slack
        r = rf.barenblatt_convergence(barenblatt_run, 2.0, 1, target=1e-2, slack=1e-4)
        assert r.passed

    def test_insufficient_snapshots(self, barenblatt_run):
        import dataclasses as dc

        short = dc.replace(barenblatt_run, snapshots=barenblatt_run.snapshots[:2],
                           fields=barenblatt_run.fields[:2])
        with pytest.raises(InsufficientData):
            rf.barenblatt_convergence(short, 2.0, 1)

    def test_run_from_zero_has_no_self_similar_frame(self):
        f0 = rf.sample_mixture(rf.Grid.cartesian(256, 8.0), seed=1)
        run = rf.evolve(f0, rf.DiffusionParams(2.0, 1, 0.0, 0.05, snapshot_count=3))
        with pytest.raises(DomainError, match="^rescaling time must be positive$"):
            rf.rescaled_l1_distances(run, 2.0, 1)


class TestSobolevCheck:
    def test_extremal_and_bumps(self):
        n = 3
        spec = rf.barenblatt_spec((n - 1.0) / n, n)
        grid = rf.Grid.radial(n, 131072, 4000.0)
        b = rf.sample_barenblatt_from_spec(grid, spec)
        extremal = rf.DensityField(grid, b.values ** ((n - 2.0) / (2.0 * n)))
        r = rf.sobolev_check([extremal], n)
        assert r.passed and abs(r.margin) < 1e-3
        bump_grid = rf.Grid.radial(n, 2048, 15.0)
        bumps = []
        for seed in range(3):
            m = rf.sample_mixture(bump_grid, seed=seed, mean_range=(0.0, 2.0))
            bumps.append(rf.DensityField(bump_grid, m.values ** (1.0 / 6.0)))
        r2 = rf.sobolev_check(bumps, n)
        assert r2.passed and r2.margin > 0.0

    def test_low_dimension_rejected(self):
        with pytest.raises(DomainError):
            rf.sobolev_check([], 2)


class TestRunChecks:
    def test_series_verdicts_in_order(self, fast_diffusion_run):
        names = ["concavity", "upsilon", "debruijn", "dissipation"]
        checks = rf.run_checks(names, fast_diffusion_run.snapshots, 0.9, 1, {})
        assert list(checks) == names
        assert all(c.passed for c in checks.values())
        # Upsilon never rises on this run: the margin is the whole tolerance
        assert checks["upsilon"].margin >= checks["upsilon"].tolerance

    def test_dissipation_needs_dp(self, mixture_run):
        series = [dataclasses.replace(s, d_p=None) for s in mixture_run.snapshots]
        checks = rf.run_checks(["concavity", "upsilon"], series, 1.5, 1, {})
        assert all(c.passed for c in checks.values())
        with pytest.raises(InsufficientData):
            rf.run_checks(["dissipation"], series, 1.5, 1, {})

    def test_tolerance_override_and_default(self, mixture_run):
        series = mixture_run.snapshots
        default = rf.run_checks(["concavity"], series, 1.5, 1, {})["concavity"]
        assert default.tolerance == rf.CHECKS["concavity"].tol
        tight = rf.run_checks(["concavity"], series, 1.5, 1, {"concavity": -1.0})["concavity"]
        assert tight.tolerance == -1.0 and not tight.passed

    def test_isoperimetric_takes_worst_field(self, mixture_run):
        checks = rf.run_checks(["isoperimetric"], mixture_run.snapshots, 1.5, 1, {})
        each = [rf.isoperimetric_check(f, 1.5, 1) for f in mixture_run.fields]
        assert checks["isoperimetric"] == min(each, key=lambda r: r.margin)

    def test_isoperimetric_reads_the_series(self, mixture_run):
        # a snapshot's Upsilon_p is the field's, bit for bit, so the series decides as
        # the fields did; a series with no snapshot has no verdict
        assert [s.upsilon for s in mixture_run.snapshots] == [
            rf.upsilon(f, 1.5, 1) for f in mixture_run.fields]
        with pytest.raises(InsufficientData, match="isoperimetric needs at least 1 snapshot"):
            rf.run_checks(["isoperimetric"], [], 1.5, 1, {})

    def test_unknown_name_runs_nothing(self, mixture_run, monkeypatch):
        # entries look their check up by module-global name, so this stub is what runs
        def not_called(*args):
            raise AssertionError("a check ran before the names were validated")

        monkeypatch.setattr(verification, "upsilon_monotone", not_called)
        with pytest.raises(AssertionError):
            rf.run_checks(["upsilon"], mixture_run.snapshots, 1.5, 1, {})
        with pytest.raises(DomainError, match="unknown check 'concavty'"):
            rf.run_checks(["upsilon", "concavty"], mixture_run.snapshots, 1.5, 1, {})

    @pytest.mark.parametrize("p, n", [(1.0, 1), (0.6, 3), (0.5, 3)])
    def test_undefined_isoperimetric_runs_nothing(self, mixture_run, monkeypatch, p, n):
        def not_called(*args):
            raise AssertionError("a check ran before the (p, n) domain was validated")

        concavity = dataclasses.replace(verification.CHECKS["concavity"], run=not_called)
        monkeypatch.setitem(verification.CHECKS, "concavity", concavity)
        with pytest.raises(DomainError):
            rf.run_checks(["concavity", "isoperimetric"], mixture_run.snapshots, p, n, {})

    def test_validate_checks_domain(self):
        verification.validate_checks(["isoperimetric"], 1.5, 1)
        verification.validate_checks(["concavity", "upsilon"], 1.0, 1)
        with pytest.raises(DomainError, match="p = 1 has no Barenblatt profile"):
            verification.validate_checks(["isoperimetric"], 1.0, 1)
        with pytest.raises(DomainError, match=r"needs p > n/\(n\+2\) = 0.6"):
            verification.validate_checks(["isoperimetric"], 0.6, 3)

    @pytest.mark.parametrize("p, n, message", [
        (-5.0, 0, "dimension must be a positive integer, got 0"),
        (2.0, -3, "dimension must be a positive integer, got -3"),
        (math.nan, 1, "need a finite p; got p = nan"),
        (math.inf, 1, "need a finite p; got p = inf"),
        (0.2, 3, "need p > 1 - 2/n = 0.33333333333333337; got p = 0.2"),
    ])
    def test_inadmissible_exponent_runs_nothing(self, mixture_run, monkeypatch, p, n, message):
        # the equation's own rule, as DiffusionParams applies it, before any name or check
        def not_called(*args):
            raise AssertionError("a check ran at a (p, n) the equation does not admit")

        monkeypatch.setitem(verification.CHECKS, "upsilon", dataclasses.replace(
            verification.CHECKS["upsilon"], run=not_called))
        for names in ([], ["upsilon"], ["concavty"]):
            with pytest.raises(DomainError) as err:
                verification.validate_checks(names, p, n)
            assert str(err.value) == message
        with pytest.raises(DomainError, match=re.escape(message)):
            rf.run_checks(["upsilon"], mixture_run.snapshots, p, n, {})

    def test_margins_are_python_floats(self, mixture_run):
        # verdicts.txt prints repr(margin), which for a numpy scalar reads np.float64(...)
        checks = rf.run_checks(list(rf.CHECKS), mixture_run.snapshots, 1.5, 1, {})
        assert {name: type(c.margin) for name, c in checks.items()} == dict.fromkeys(
            rf.CHECKS, float)
        assert not any("np." in line for line in verdict_lines(checks))

    def test_default_tolerances(self):
        # the per-check defaults the CLI used before the registry existed
        assert {name: c.tol for name, c in rf.CHECKS.items()} == {
            "concavity": 1e-6, "upsilon": 1e-8, "debruijn": 1e-2,
            "dissipation": 5e-2, "isoperimetric": 1e-3}


class TestSeriesValidation:
    """A NaN or a time that does not increase ends in DomainError, and a vanishing
    denominator in DegenerateError, not in a NaN verdict."""

    RUNS = {
        "concavity": (lambda s: rf.concavity_report(s, 1.5, 1), "n_p"),
        "upsilon": (lambda s: rf.upsilon_monotone(s), "upsilon"),
        "debruijn": (lambda s: rf.debruijn_check(s, 1.5), "i_p"),
        "dissipation": (lambda s: rf.dissipation_check(s, 1.5, 1), "d_p"),
    }

    @pytest.mark.parametrize("check", list(RUNS))
    @pytest.mark.parametrize("defect", ["nan", "inf", "nan_t", "repeated_t", "decreasing_t"])
    def test_bad_series_raises(self, mixture_run, check, defect):
        run, attr = self.RUNS[check]
        series = list(mixture_run.snapshots)
        t = series[3].t
        changes = {"nan": {attr: float("nan")}, "inf": {attr: float("inf")},
                   "nan_t": {"t": float("nan")}, "repeated_t": {"t": series[2].t},
                   "decreasing_t": {"t": series[1].t}}[defect]
        series[3] = dataclasses.replace(series[3], **changes)
        assert series[3].t != t or defect in ("nan", "inf")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="snapshot 3"):
                run(series)

    # the denominator of each relative measure: Upsilon_p at the first snapshot,
    # I_p and D_p at the interior ones
    @pytest.mark.parametrize("check, k, attr", [
        ("upsilon", 0, "upsilon"), ("debruijn", 3, "i_p"), ("dissipation", 3, "d_p")])
    def test_zero_denominator_raises(self, mixture_run, check, k, attr):
        series = list(mixture_run.snapshots)
        series[k] = dataclasses.replace(series[k], **{attr: 0.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateError, match="vanishes"):
                self.RUNS[check][0](series)

    def test_flat_series_keeps_its_concavity_scale(self):
        # a constant N_p has no slope to scale by; the check falls back to 1, not to 0
        report = rf.concavity_report(series_with_np([1.0, 1.5, 2.0, 2.5], [3.0] * 4), 2.0, 1)
        assert report.passed and report.margin == report.tolerance

    @pytest.mark.parametrize("check", list(RUNS))
    def test_clean_series_unchanged(self, mixture_run, check):
        run, _ = self.RUNS[check]
        assert run(mixture_run.snapshots).passed


class TestDeterminism:
    def test_same_series_same_verdicts(self, mixture_run):
        a = rf.concavity_report(mixture_run.snapshots, 1.5, 1)
        b = rf.concavity_report(mixture_run.snapshots, 1.5, 1)
        assert a == b

    def test_seeded_mixture_reproducible(self):
        grid = rf.Grid.cartesian(512, 10.0)
        f1 = rf.sample_mixture(grid, seed=33)
        f2 = rf.sample_mixture(grid, seed=33)
        np.testing.assert_array_equal(f1.values, f2.values)
