"""Discrete functionals: definitions, closed-form matches, scaling laws."""
import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renyiflow as rf
from renyiflow.errors import DomainError
from renyiflow.functionals import (_dissipation_terms, _integrals, _passes, _pressure,
                                   rescale_snapshot)
from renyiflow.grids import CARTESIAN, gradient, second_derivative
from renyiflow.verification import TOL_ISOPERIMETRIC


@pytest.fixture(scope="module")
def uniform_field():
    grid = rf.Grid.cartesian(256, 3.0)
    return rf.DensityField(grid, np.full(256, 1.0 / 6.0)), 3.0


@pytest.fixture(scope="module")
def mixture():
    grid = rf.Grid.cartesian(2048, 12.0)
    return rf.sample_mixture(grid, seed=42)


@pytest.fixture(scope="module")
def barenblatt_p2():
    spec = rf.barenblatt_spec(2.0, 1)
    grid = rf.Grid.radial(1, 4096, rf.support_radius(spec))
    return rf.sample_barenblatt_from_spec(grid, spec), spec


class TestMass:
    def test_uniform(self, uniform_field):
        f, _ = uniform_field
        assert rf.mass(f) == pytest.approx(1.0, rel=1e-14)

    def test_sampled_gaussian(self):
        f = rf.sample_gaussian(rf.Grid.cartesian(4096, 20.0), 1.0)
        assert abs(rf.mass(f) - 1.0) < 1e-10

    def test_sampled_barenblatt(self, barenblatt_p2):
        f, _ = barenblatt_p2
        assert abs(rf.mass(f) - 1.0) < 1e-8


class TestRenyiEntropy:
    @pytest.mark.parametrize("p", [0.5, 2.0, 3.0])
    def test_uniform_density(self, uniform_field, p):
        f, half_width = uniform_field
        assert rf.renyi_entropy(f, p) == pytest.approx(math.log(2.0 * half_width), rel=1e-12)

    def test_barenblatt_closed_form(self, barenblatt_p2):
        f, spec = barenblatt_p2
        assert rf.renyi_entropy(f, 2.0) == pytest.approx(rf.barenblatt_entropy(spec), abs=1e-6)

    def test_rescale_shift(self, mixture):
        for a in (0.5, 2.0):
            shifted = rf.renyi_entropy(rf.rescale(mixture, a), 1.5)
            assert shifted - rf.renyi_entropy(mixture, 1.5) == pytest.approx(
                math.log(a), abs=1e-8)

    def test_mass_shifts_by_its_log(self, mixture):
        # H_p = log(int u^p / m)/(1 - p): doubling u lowers H_p by log 2 at every p,
        # p = 1 included, while int u^p scales by 2^p
        double = rf.DensityField(mixture.grid, 2.0 * mixture.values)
        for p in (0.8, 1.0, 1.0 + 1e-12, 1.5):
            assert rf.renyi_entropy(double, p) == pytest.approx(
                rf.renyi_entropy(mixture, p) - math.log(2.0), abs=1e-14)
            assert rf.p_norm_integral(double, p) == pytest.approx(
                2.0 ** p * rf.p_norm_integral(mixture, p), rel=1e-14)

    def test_rejects_nonpositive(self, mixture):
        with pytest.raises(DomainError):
            rf.renyi_entropy(mixture, 0.0)


class TestEntropyPower:
    def test_gaussian_shannon_route(self):
        for t in (0.5, 1.0):
            f = rf.sample_gaussian(rf.Grid.cartesian(4096, 20.0), t)
            assert rf.entropy_power(f, 1.0) == pytest.approx(
                4.0 * math.pi * math.e * t, rel=1e-3)

    def test_dilation_power_law(self, mixture):
        mu = rf.coefficients(1.5, 1).mu
        base = rf.entropy_power(mixture, 1.5)
        for a in (0.5, 2.0):
            assert rf.entropy_power(rf.rescale(mixture, a), 1.5) == pytest.approx(
                a ** mu * base, rel=1e-8)

    def test_barenblatt_definition(self, barenblatt_p2):
        f, _ = barenblatt_p2
        # nu = 3 at (p, n) = (2, 1)
        assert rf.entropy_power(f, 2.0) == pytest.approx(
            math.exp(3.0 * rf.renyi_entropy(f, 2.0)), rel=1e-12)

    def test_dimension_mismatch(self, mixture):
        with pytest.raises(DomainError):
            rf.entropy_power(mixture, 1.5, n=2)


class TestFisher:
    def test_barenblatt_value(self, barenblatt_p2):
        f, _ = barenblatt_p2
        assert rf.fisher_p(f, 2.0)[1] == pytest.approx(4.0, rel=1e-3)

    def test_dilation_power_law(self, mixture):
        mu = rf.coefficients(1.5, 1).mu
        base = rf.fisher_p(mixture, 1.5)[1]
        for a in (0.5, 2.0):
            assert rf.fisher_p(rf.rescale(mixture, a), 1.5)[1] == pytest.approx(
                a ** (-mu) * base, rel=1e-6)

    def test_translation_invariance(self, mixture):
        rolled = rf.DensityField(mixture.grid, np.roll(mixture.values, 1))
        assert rf.fisher_p(rolled, 1.5)[1] == pytest.approx(
            rf.fisher_p(mixture, 1.5)[1], rel=1e-10)

    def test_ratio_definition(self, mixture):
        f_val, i_val = rf.fisher_p(mixture, 0.8)
        assert i_val == pytest.approx(f_val / rf.p_norm_integral(mixture, 0.8), rel=1e-14)

    def test_rejects_nonpositive(self, mixture):
        with pytest.raises(DomainError):
            rf.fisher_p(mixture, -0.5)


class TestShannon:
    """p = 1 is the family's Shannon member: H_1 = -int u log u, I_1 = int |grad u|^2 / u."""

    def test_gaussian_entropy(self):
        f = rf.sample_gaussian(rf.Grid.cartesian(4096, 20.0), 1.0)
        assert rf.renyi_entropy(f, 1.0) == pytest.approx(
            0.5 * math.log(4.0 * math.pi * math.e), rel=1e-6)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_gaussian_fisher_n_over_2t(self, t):
        # grad M = -x/(2t) M makes I = n/(2t) for the heat kernel
        f = rf.sample_gaussian(rf.Grid.cartesian(4096, 25.0), t)
        assert rf.fisher_p(f, 1.0)[1] == pytest.approx(1.0 / (2.0 * t), rel=1e-6)

    def test_gaussian_entropy_power_to_rounding(self):
        # the midpoint rule is spectrally exact on the kernel, so N_1 = 4 pi e t holds to rounding
        for t in (0.5, 1.0):
            f = rf.sample_gaussian(rf.Grid.cartesian(2048, 12.0), t)
            assert abs(rf.entropy_power(f, 1.0) - 4.0 * math.pi * math.e * t) <= 1e-13

    # The gate on continuity at p = 1: on the sampled Gaussian and on a mixture
    # (2048 nodes, R = 12) the relative gaps of H_p, I_p and Upsilon_p to their
    # p = 1 values stay within K |p - 1| + 2e-15 for |p - 1| from 1e-4 down to
    # 1e-15, K their slope at 1e-4 plus 0.1%.  Measured, they sit within 5e-16
    # of that line all the way down.
    DELTAS = [10.0 ** -k for k in range(4, 16)]

    @staticmethod
    def _gaps(field, p, at_one):
        s = rf.snapshot(field(), p)
        return np.array([abs(s.h_p / at_one.h_p - 1.0), abs(s.i_p / at_one.i_p - 1.0),
                         abs(s.upsilon / at_one.upsilon - 1.0)])

    def test_renyi_continuity_at_one(self):
        grid = rf.Grid.cartesian(2048, 12.0)
        for field in (lambda: rf.sample_gaussian(grid, 1.0), lambda: rf.sample_mixture(grid, 42)):
            at_one = rf.snapshot(field(), 1.0)
            for sign in (1.0, -1.0):
                slope = self._gaps(field, 1.0 + sign * 1e-4, at_one) / 1e-4 * 1.001
                for delta in self.DELTAS:
                    gaps = self._gaps(field, 1.0 + sign * delta, at_one)
                    assert np.all(gaps <= slope * delta + 2e-15), (sign * delta, gaps)


class TestEpIntegral:
    def test_uniform_p2(self, uniform_field):
        f, half_width = uniform_field
        assert rf.e_p_integral(f, 2.0) == pytest.approx(1.0 / (2.0 * half_width), rel=1e-12)

    def test_algebraic_identity_random_fields(self):
        # H_p = log((p-1) E_p)/(1-p) for any field
        grid = rf.Grid.cartesian(256, 8.0)
        for seed in range(50):
            f = rf.sample_mixture(grid, seed=seed)
            p = 1.5 if seed % 2 else 0.7
            e = rf.e_p_integral(f, p)
            assert rf.renyi_entropy(f, p) == pytest.approx(
                math.log((p - 1.0) * e) / (1.0 - p), rel=1e-12)

    def test_barenblatt_p_integral(self, barenblatt_p2):
        f, spec = barenblatt_p2
        # E_2 = integral B^2 = (4/5) C_p at (p, n) = (2, 1)
        assert rf.e_p_integral(f, 2.0) == pytest.approx(0.8 * spec.c_const, rel=1e-6)


class TestDissipationFunctional:
    @pytest.mark.parametrize("seed", range(5))
    def test_nonnegative_for_p_above_one(self, seed):
        grid = rf.Grid.cartesian(512, 10.0)
        f = rf.sample_mixture(grid, seed=seed)
        assert rf.d_p(f, 1.5) >= 0.0
        assert rf.d_p(f, 2.0) >= 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_lower_bound(self, seed):
        # D_p >= 2 (1/n + p - 1) integral u^p (Lap e_p')^2
        grid = rf.Grid.cartesian(512, 10.0)
        f = rf.sample_mixture(grid, seed=seed)
        for p in (0.8, 1.5, 2.0):
            bound = 2.0 * (1.0 + p - 1.0) * rf.pressure_laplacian_integral(f, p)
            assert rf.d_p(f, p) >= bound - 1e-12 * abs(bound)

    def test_radial_trace_bound(self):
        grid = rf.Grid.radial(3, 512, 8.0)
        f = rf.sample_mixture(grid, seed=2, mean_range=(0.0, 2.0))
        p = 1.5
        bound = 2.0 * (1.0 / 3.0 + p - 1.0) * rf.pressure_laplacian_integral(f, p)
        assert rf.d_p(f, p) >= bound - 1e-12 * abs(bound)


def dissipation_terms(f, p):
    return _dissipation_terms(f, p, *_pressure(f.values, p))


class TestDissipationTerms:
    """The nodewise integrands u^p |D^2 g|^2 and u^p (Lap g)^2, g = e_p'(u)."""

    def test_cartesian_hessian_is_laplacian(self):
        grid = rf.Grid.cartesian(128, 2.0)
        f = rf.DensityField(grid, np.exp(-grid.nodes() ** 2))
        for p in (0.8, 1.5, 2.0):
            hess, lap = dissipation_terms(f, p)
            assert np.array_equal(hess, lap)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_trace_inequality_nodewise(self, dim):
        # |D^2 g|^2 >= (Lap g)^2 / n holds algebraically on (g'', g'/r) pairs
        rng = np.random.default_rng(7)
        grid = rf.Grid.radial(dim, 256, 5.0)
        for _ in range(20):
            v = rng.uniform(0.1, 1.0, 256)
            v = np.convolve(v, np.ones(9) / 9.0, mode="same")  # keep it resolvable
            for p in (0.8, 1.5, 2.0):
                hess, lap = dissipation_terms(rf.DensityField(grid, v), p)
                assert np.all(hess >= lap / dim - 1e-12 * np.abs(hess) - 1e-300)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_exact_laplacian_on_barenblatt_p2(self, dim):
        # at p = 2, g = 2u = 2(C - kappa r^2) inside the support: Lap g = -4 n kappa,
        # and the stencils are exact on quadratics, so (Lap g)^2 = 16 n^2 kappa^2
        spec = rf.barenblatt_spec(2.0, dim, rf.PDE_NORMALIZED)
        edge = rf.support_radius(spec)
        grid = rf.Grid.cartesian(256, 1.5 * edge) if dim == 1 else rf.Grid.radial(dim, 256, 1.5 * edge)
        f = rf.sample_barenblatt_from_spec(grid, spec)
        _, lap = dissipation_terms(f, 2.0)
        inside = np.abs(grid.nodes()) <= edge - 2.0 * grid.spacing
        assert inside.sum() > 100
        np.testing.assert_allclose(lap[inside] / f.values[inside] ** 2,
                                   16.0 * dim * dim * spec.kappa ** 2, rtol=1e-9)


class TestUpsilon:
    def test_dilation_invariance(self, mixture):
        base = rf.upsilon(mixture, 1.5)
        for a in (0.5, 2.0, 10.0):
            assert rf.upsilon(rf.rescale(mixture, a), 1.5) == pytest.approx(base, rel=1e-6)

    def test_barenblatt_attains_gamma(self, barenblatt_p2):
        f, _ = barenblatt_p2
        assert rf.upsilon(f, 2.0) == pytest.approx(rf.gamma_const(2.0, 1), rel=1e-4)

    @pytest.mark.parametrize("seed", range(8))
    def test_mixtures_above_gamma(self, seed):
        grid = rf.Grid.cartesian(1024, 12.0)
        f = rf.sample_mixture(grid, seed=seed)
        for p in (0.8, 1.5, 2.0):
            assert rf.upsilon(f, p) >= rf.gamma_const(p, 1)


class TestRescale:
    def test_identity(self, mixture):
        out = rf.rescale(mixture, 1.0)
        np.testing.assert_array_equal(out.values, mixture.values)
        assert out.grid == mixture.grid

    def test_mass_exact(self, mixture):
        assert rf.mass(rf.rescale(mixture, 3.0)) == pytest.approx(rf.mass(mixture), rel=1e-12)

    def test_entropy_shift(self, mixture):
        out = rf.rescale(mixture, 4.0)
        assert rf.renyi_entropy(out, 2.0) - rf.renyi_entropy(mixture, 2.0) == pytest.approx(
            math.log(4.0), abs=1e-10)

    def test_rejects_nonpositive(self, mixture):
        with pytest.raises(DomainError):
            rf.rescale(mixture, 0.0)


# the property tests' grids: Cartesian, and radial in n = 3
PROPERTY_GRIDS = {"cartesian": rf.Grid.cartesian(1024, 12.0),
                  "radial3": rf.Grid.radial(3, 1024, 12.0)}
PROPERTY_SEEDS = st.integers(0, 10 ** 6)
PROPERTY_GEOMETRIES = st.sampled_from(sorted(PROPERTY_GRIDS))


class TestDilationProperties:
    """Seeded mixtures: `rescale` moves the grid, not the samples, so the dilation laws
    hold to rounding at every p, p = 1 included (measured worst: 3.6e-15 relative; 8.6e-15
    for D_p), and `rescale_snapshot` maps a snapshot by them."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=PROPERTY_SEEDS, geometry=PROPERTY_GEOMETRIES,
           p=st.sampled_from([0.8, 1.0, 1.5, 2.0]), a=st.floats(0.25, 4.0))
    def test_dilation_laws_to_rounding(self, seed, geometry, p, a):
        f = rf.sample_mixture(PROPERTY_GRIDS[geometry], seed=seed)
        g = rf.rescale(f, a)
        n, mu = f.grid.dim, rf.coefficients(p, f.grid.dim).mu
        h, shift = rf.renyi_entropy(f, p), n * math.log(a)
        assert abs(rf.renyi_entropy(g, p) - (h + shift)) <= 1e-13 * (abs(h) + abs(shift))
        assert rf.entropy_power(g, p) == pytest.approx(a ** mu * rf.entropy_power(f, p),
                                                       rel=1e-13)
        assert rf.fisher_p(g, p)[1] == pytest.approx(a ** -mu * rf.fisher_p(f, p)[1], rel=1e-13)
        assert rf.upsilon(g, p) == pytest.approx(rf.upsilon(f, p), rel=1e-13)
        # the rest of the snapshot's columns, which `rescale_snapshot` maps by these laws
        spread = n * (p - 1.0)
        assert rf.mass(g) == pytest.approx(rf.mass(f), rel=1e-13)
        assert rf.p_norm_integral(g, p) == pytest.approx(
            a ** -spread * rf.p_norm_integral(f, p), rel=1e-13)
        assert rf.fisher_p(g, p)[0] == pytest.approx(
            a ** (2.0 - 2.0 * mu) * rf.fisher_p(f, p)[0], rel=1e-13)
        assert rf.d_p(g, p) == pytest.approx(a ** (-4.0 - 3.0 * spread) * rf.d_p(f, p), rel=1e-13)
        assert rf.pressure_laplacian_integral(g, p) == pytest.approx(
            a ** (-4.0 - 3.0 * spread) * rf.pressure_laplacian_integral(f, p), rel=1e-13)
        if p != 1.0:
            assert rf.e_p_integral(g, p) == pytest.approx(
                a ** -spread * rf.e_p_integral(f, p), rel=1e-13)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=PROPERTY_SEEDS, geometry=PROPERTY_GEOMETRIES,
           p=st.sampled_from([0.8, 1.0, 1.5, 2.0]), a=st.floats(0.25, 4.0))
    def test_rescale_snapshot_is_the_rescaled_fields(self, seed, geometry, p, a):
        f = rf.sample_mixture(PROPERTY_GRIDS[geometry], seed=seed)
        n = f.grid.dim
        got = rescale_snapshot(rf.snapshot(f, p, t=2.0, with_dissipation=True), a, p, n)
        want = rf.snapshot(rf.rescale(f, a), p, t=2.0, with_dissipation=True)
        assert got.t == want.t and (got.e_p is None) == (want.e_p is None) == (p == 1.0)
        for column in ("mass", "e_p", "n_p", "f_p", "i_p", "d_p", "upsilon"):
            assert getattr(got, column) == pytest.approx(getattr(want, column), rel=1e-13), column
        shift = n * math.log(a)  # H_p may pass near 0, so its bound is in H_p and the shift
        assert abs(got.h_p - want.h_p) <= 1e-13 * (abs(got.h_p - shift) + abs(shift))

    def test_rescale_snapshot_at_one_is_the_identity(self, mixture):
        s = rf.snapshot(mixture, 1.5, t=1.0, with_dissipation=True)
        assert rescale_snapshot(s, 1.0, 1.5, 1) == s

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=PROPERTY_SEEDS, geometry=PROPERTY_GEOMETRIES, p=st.sampled_from([0.8, 1.5, 2.0]))
    def test_upsilon_above_gamma(self, seed, geometry, p):
        # gamma(n, p) is the Barenblatt's Upsilon_p, so p = 1, with no Barenblatt, is left
        # out; the smallest measured margin is 4.8e-2 gamma (Cartesian, p = 0.8)
        f = rf.sample_mixture(PROPERTY_GRIDS[geometry], seed=seed)
        gamma = rf.gamma_const(p, f.grid.dim)
        assert rf.upsilon(f, p) >= gamma * (1.0 - TOL_ISOPERIMETRIC)


class TestSelfSimilarRescale:
    def test_identity_at_t_one(self, mixture):
        out = rf.self_similar_rescale(mixture, 1.0, 1.5)
        np.testing.assert_array_equal(out.values, mixture.values)

    def test_upsilon_invariant(self, mixture):
        base = rf.upsilon(mixture, 1.5)
        for t in (2.0, 17.0):
            out = rf.self_similar_rescale(mixture, t, 1.5)
            assert rf.upsilon(out, 1.5) == pytest.approx(base, rel=1e-8)

    def test_inverts_self_similar_spreading(self):
        # M_p(., t) pulled back at time t is the t = 1 profile
        spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
        t = 5.0
        radius = rf.support_radius(spec) * t ** (1.0 / spec.coeffs.mu) * 1.1
        grid = rf.Grid.cartesian(2048, radius)
        spread = rf.sample_barenblatt(grid, 2.0, t)
        back = rf.self_similar_rescale(spread, t, 2.0)
        ref = rf.sample_barenblatt(back.grid, 2.0, 1.0)
        np.testing.assert_allclose(back.values, ref.values, rtol=0.0, atol=1e-12)

    def test_rejects_nonpositive_time(self, mixture):
        with pytest.raises(DomainError):
            rf.self_similar_rescale(mixture, 0.0, 1.5)


class TestGagliardoNirenberg:
    def test_sign_equivalence_with_upsilon(self):
        grid = rf.Grid.cartesian(512, 10.0)
        p = 1.5
        gamma = rf.gamma_const(p, 1)
        for seed in range(50):
            f = rf.sample_mixture(grid, seed=seed)
            lhs, rhs = rf.gn_lhs_rhs(f, p)
            assert np.sign(lhs - rhs) == np.sign(rf.upsilon(f, p) - gamma)

    def test_barenblatt_equality(self, barenblatt_p2):
        f, _ = barenblatt_p2
        lhs, rhs = rf.gn_lhs_rhs(f, 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_sobolev_case_rhs_constant(self):
        # at p = (n-1)/n the integral exponent vanishes
        n = 3
        p = (n - 1.0) / n
        grid = rf.Grid.radial(n, 1024, 20.0)
        gamma = rf.gamma_const(p, n)
        for seed in (0, 1):
            f = rf.sample_mixture(grid, seed=seed, mean_range=(0.0, 2.0))
            _, rhs = rf.gn_lhs_rhs(f, p)
            assert rhs == pytest.approx(gamma, rel=1e-12)

    def test_out_of_range(self, mixture):
        with pytest.raises(DomainError):
            rf.gn_lhs_rhs(mixture, 1.0)


class TestSobolevPair:
    def test_extremal_near_equality(self):
        n = 3
        spec = rf.barenblatt_spec((n - 1.0) / n, n)
        grid = rf.Grid.radial(n, 131072, 4000.0)
        b = rf.sample_barenblatt_from_spec(grid, spec)
        g = rf.DensityField(grid, b.values ** ((n - 2.0) / (2.0 * n)))
        dirichlet, rhs = rf.sobolev_pair(g, n)
        assert abs(dirichlet - rhs) < 1e-3 * max(dirichlet, rhs)

    def test_random_bump_inequality(self):
        grid = rf.Grid.radial(3, 2048, 15.0)
        for seed in range(4):
            m = rf.sample_mixture(grid, seed=seed, mean_range=(0.0, 2.0))
            g = rf.DensityField(grid, m.values ** (1.0 / 6.0))
            dirichlet, rhs = rf.sobolev_pair(g, 3)
            assert dirichlet >= rhs

    def test_both_sides_scale_identically(self):
        grid = rf.Grid.radial(3, 1024, 12.0)
        m = rf.sample_mixture(grid, seed=9, mean_range=(0.0, 2.0))
        g = rf.DensityField(grid, m.values ** (1.0 / 6.0))
        d1, r1 = rf.sobolev_pair(g, 3)
        d2, r2 = rf.sobolev_pair(rf.DensityField(grid, 2.5 * g.values), 3)
        assert d2 / d1 == pytest.approx(2.5 ** 2, rel=1e-12)
        assert r2 / r1 == pytest.approx(2.5 ** 2, rel=1e-12)

    def test_substitution_identity_factor(self):
        # integral |grad f^{(n-1)/n}|^2/f = ((2n-2)/(n-2))^2 integral |grad g|^2
        n = 3
        spec = rf.barenblatt_spec((n - 1.0) / n, n)
        grid = rf.Grid.radial(n, 8192, 60.0)
        b = rf.sample_barenblatt_from_spec(grid, spec)
        g = rf.DensityField(grid, b.values ** ((n - 2.0) / (2.0 * n)))
        lhs = rf.fisher_p(b, (n - 1.0) / n)[0]
        dirichlet = rf.sobolev_pair(g, n)[0]
        assert lhs / dirichlet == pytest.approx(((2.0 * n - 2.0) / (n - 2.0)) ** 2, rel=1e-3)

    def test_low_dimension_rejected(self, mixture):
        with pytest.raises(DomainError):
            rf.sobolev_pair(mixture, 1)


class TestSnapshot:
    def test_internal_consistency(self, mixture):
        for p in (0.8, 1.5, 2.0):
            s = rf.snapshot(mixture, p, t=3.0, with_dissipation=True)
            nu = rf.coefficients(p, 1).nu
            assert s.n_p == pytest.approx(math.exp(nu * s.h_p), rel=1e-12)
            assert s.i_p == pytest.approx(s.f_p / ((p - 1.0) * s.e_p), rel=1e-12)
            assert s.upsilon == pytest.approx(s.n_p * s.i_p, rel=1e-12)
            assert s.d_p is not None and s.t == 3.0

    def test_shannon_route(self, mixture):
        s = rf.snapshot(mixture, 1.0)
        assert s.e_p is None and s.d_p is None
        assert s.h_p == rf.renyi_entropy(mixture, 1.0)
        assert s.i_p == rf.fisher_p(mixture, 1.0)[1]
        assert s.upsilon == pytest.approx(s.n_p * s.i_p, rel=1e-14)
        # D_1 comes from the same pass as every p's, and E_1 stays undefined
        assert rf.snapshot(mixture, 1.0, with_dissipation=True).d_p == rf.d_p(mixture, 1.0) > 0.0
        with pytest.raises(DomainError):
            rf.e_p_integral(mixture, 1.0)


def _rolled_trust_mask(m):
    """The p <= 1 trust mask as four np.roll erosions with the wrap undone."""
    eroded = m.copy()
    for shift in (1, 2, -1, -2):
        rolled = np.roll(m, shift)
        if shift > 0:
            rolled[:shift] = m[:shift]
        else:
            rolled[shift:] = m[shift:]
        eroded &= rolled
    return eroded


class TestMemo:
    """snapshot, isoperimetric_check and the chain share one pass per (field, p)."""

    @staticmethod
    def _field(n):
        grid = rf.Grid.cartesian(1024, 12.0) if n == 1 else rf.Grid.radial(3, 1024, 12.0)
        return rf.sample_mixture(grid, seed=11)

    @staticmethod
    def _run_all(f, p, n, order):
        out = {"chain": lambda: rf.concavity_condition_chain(f, p, n),
               "snapshot": lambda: rf.snapshot(f, p, n, with_dissipation=True),
               "isoperimetric": lambda: rf.isoperimetric_check(f, p, n)}
        return {name: out[name]() for name in order}

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("p", [0.8, 1.5, 2.0])
    def test_results_independent_of_call_order(self, p, n):
        order = ("chain", "snapshot", "isoperimetric")
        forward = self._run_all(self._field(n), p, n, order)
        backward = self._run_all(self._field(n), p, n, order[::-1])
        assert forward == backward

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("p", [0.8, 1.5, 2.0])
    def test_memo_keeps_no_field_alive(self, p, n):
        f = self._field(n)
        ref = weakref.ref(f)
        gc.disable()
        try:
            self._run_all(f, p, n, ("chain", "snapshot", "isoperimetric"))
            del f
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("p", [0.8, 1.0, 2.0])
    def test_entropy_alone_fills_the_whole_entry(self, p):
        f, fresh = self._field(1), self._field(1)
        h = rf.renyi_entropy(f, p)
        s = f._memo[p][0]
        assert f._memo[p] == (s, h, rf.fisher_p(fresh, p)[0], None, None)
        assert s == pytest.approx(float(f.grid.weights() @ f.values ** p), rel=1e-14)
        assert rf.fisher_p(f, p) == rf.fisher_p(fresh, p)
        assert (rf.p_norm_integral(f, p), rf.renyi_entropy(f, p)) == (s, h) == f._memo[p][:2]

    @pytest.mark.parametrize("first, then", [
        (rf.renyi_entropy, rf.fisher_p), (rf.fisher_p, rf.renyi_entropy),
        (rf.entropy_power, rf.upsilon), (rf.p_norm_integral, rf.snapshot)],
        ids=["entropy-fisher", "fisher-entropy", "power-upsilon", "norm-snapshot"])
    @pytest.mark.parametrize("p", [0.8, 1.0, 2.0])
    def test_one_pressure_pass_in_any_order(self, first, then, p, monkeypatch):
        calls = []

        def counted(values, p):
            calls.append(p)
            return _pressure(values, p)

        monkeypatch.setattr(rf.functionals, "_pressure", counted)
        f = self._field(3)
        first(f, p)
        then(f, p)
        assert calls == [p]

    def test_snapshot_after_dissipation_omits_it(self, mixture):
        rf.d_p(mixture, 1.5)
        assert rf.snapshot(mixture, 1.5).d_p is None


class TestSharedPasses:
    """A field's p-independent passes (max u, the positivity mask, log(u/c), sqrt(u), the
    mass) are formed once for every p, and leave every functional's bits unchanged."""

    PS = (0.8, 1.0, 1.5, 2.0)
    GRIDS = (rf.Grid.cartesian(512, 6.0), rf.Grid.radial(3, 512, 6.0))

    @staticmethod
    def _functionals(f, p):
        snap = rf.snapshot(f, p, with_dissipation=True)
        chain = rf.concavity_condition_chain(f, p)
        return (snap, chain, rf.pressure_laplacian_integral(f, p), rf.p_norm_integral(f, p),
                rf.renyi_entropy(f, p), rf.fisher_p(f, p), rf.d_p(f, p), rf.upsilon(f, p))

    def _alone(self, f, p):
        return self._functionals(rf.DensityField(f.grid, f.values.copy()), p)

    @pytest.mark.parametrize("grid", GRIDS, ids=["cartesian", "radial3"])
    @pytest.mark.parametrize("sample", [rf.sample_mixture, rf.compact_two_bump],
                             ids=["mixture", "two_bump"])
    def test_every_order_matches_a_fresh_field(self, grid, sample):
        f, other = sample(grid, 1), sample(grid, 2)
        assert np.all(f.values > 0.0) == (sample is rf.sample_mixture)
        want = {p: self._alone(f, p) for p in self.PS}
        want_other = {p: self._alone(other, p) for p in self.PS}
        for ps in (self.PS, self.PS[::-1]):
            g = rf.DensityField(grid, f.values)
            assert {p: self._functionals(g, p) for p in ps} == want
        g, h = rf.DensityField(grid, f.values), rf.DensityField(grid, other.values)
        for p in self.PS:  # each field's passes push the other's out of the cache
            assert self._functionals(g, p) == want[p]
            assert self._functionals(h, p) == want_other[p]

    def test_passes_are_shared_and_read_only(self):
        f = rf.sample_mixture(self.GRIDS[1], 3)
        passes = _passes(f.values)
        assert _passes(f.values) is passes
        assert all(not a.flags.writeable for a in passes[2:])
        assert _pressure(f.values, 1.0)[0] is passes[2]  # P is log(u/c) at p = 1
        with pytest.raises(ValueError):
            passes[2][0] = 0.0

    def test_writable_arrays_are_not_cached(self):
        v = rf.sample_mixture(self.GRIDS[0], 4).values.copy()
        first = _passes(v)
        assert _passes(v) is not first and first[2].flags.writeable
        v *= 2.0  # a writable array may change, so nothing of it is kept
        assert _pressure(v, 1.5)[2] == math.log(float(v.max()))

    def test_evolve_keeps_no_arrays(self):
        grid = rf.Grid.cartesian(128, 6.0)
        params = rf.DiffusionParams(p=2.0, dim=1, t_start=1.0, t_end=1.1, snapshot_count=4)
        result = rf.evolve(rf.compact_two_bump(grid, 0), params, with_dissipation=True)
        for fld in result.fields:
            for key, entry in fld._memo.items():
                entries = entry if isinstance(entry, tuple) else (entry,)
                assert all(x is None or type(x) is float for x in entries), key
        (ref, passes), = rf.functionals._last_passes
        assert any(ref() is fld.values for fld in result.fields)
        assert all(a is None or a.shape == (grid.node_count,) for a in passes[1:])
        del result, fld
        assert rf.functionals._last_passes[0][1] is None  # freed with the last field's values


class TestVanishingRegions:
    def test_trust_mask_matches_rolled_erosion(self):
        rng = np.random.default_rng(3)
        for trial in range(200):
            m = rng.random(64) < rng.uniform(0.2, 0.9)
            if trial % 2:
                m[[0, -1]] = False
            j = rng.integers(2, 62)
            m[j - 1:j + 2] = (False, True, False)  # an isolated positive node
            v = np.where(m, rng.uniform(0.1, 1.0, 64), 0.0)
            for p in (0.8, 1.0):
                assert np.array_equal(_pressure(v, p)[1], _rolled_trust_mask(m))

    @pytest.mark.parametrize("grid", [rf.Grid.cartesian(512, 6.0), rf.Grid.radial(3, 512, 6.0)],
                             ids=["cartesian", "radial3"])
    @pytest.mark.parametrize("p", [0.8, 1.0, 1.5, 2.0])
    def test_vanishing_nodes_raise_no_warning(self, grid, p):
        # log 0 is never formed: an exact zero takes log(u/c) = -inf at p > 1 and sits
        # outside the trust mask at p <= 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(3):
                f = rf.compact_two_bump(grid, seed)
                assert np.any(f.values == 0.0)
                s = rf.snapshot(f, p, with_dissipation=True)
                chain = rf.concavity_condition_chain(f, p)
                assert all(math.isfinite(x) for x in (s.h_p, s.n_p, s.f_p, s.i_p, s.d_p, s.upsilon,
                                                      *chain.margins().values()))

    def test_fast_diffusion_integrands_skip_exact_zeros(self):
        # an interior dead zone must not poison the p < 1 pressure stencils
        grid = rf.Grid.cartesian(512, 10.0)
        v = rf.sample_mixture(grid, seed=6).values.copy()
        v[200:240] = 0.0
        f = rf.DensityField(grid, v)
        f_val, i_val = rf.fisher_p(f, 0.8)
        assert math.isfinite(f_val) and math.isfinite(i_val) and f_val > 0.0
        assert math.isfinite(rf.d_p(f, 0.8))


def _frozen_pressure(values, p):
    """`_pressure` as it was before the all-trusted case returned no mask."""
    if p > 1.0:
        return values ** (p - 1.0), np.ones(values.shape, dtype=bool)
    m = values > 0.0
    g = np.zeros_like(values)
    g[m] = values[m] ** (p - 1.0)
    eroded = m.copy()
    eroded[1:] &= m[:-1]
    eroded[2:] &= m[:-2]
    eroded[:-1] &= m[1:]
    eroded[:-2] &= m[2:]
    return g, eroded


def _frozen_dissipation_terms(f, p, pressure, ok):
    """`_dissipation_terms` with its mask always applied and no shared products."""
    v = f.values
    g = p / (p - 1.0) * pressure
    damp = np.where(ok, v ** (p / 2.0), 0.0)
    a = second_derivative(g, f.grid) * damp
    if f.grid.kind == CARTESIAN or f.grid.dim == 1:
        return a * a, a * a
    x = f.grid.origin + f.grid.spacing * np.arange(f.grid.node_count)
    b = gradient(g, f.grid) / x * damp
    m = f.grid.dim - 1
    return a * a + m * b * b, (a + m * b) ** 2


def _frozen_integrals(f, p):
    """`_integrals(f, p, dissipation=True)` recomputed with the masked arithmetic, no memo."""
    v, w = f.values, f.grid.weights()
    q = p / (p - 1.0)
    pressure, ok = _frozen_pressure(v, p)
    damped = gradient(pressure, f.grid) * np.sqrt(v)
    f_p = q * q * float(w[ok] @ (damped[ok] ** 2))
    hess_term, lap_term = _frozen_dissipation_terms(f, p, pressure, ok)
    return (float(w @ v ** p), f_p, 2.0 * float(w @ (hess_term + (p - 1.0) * lap_term)),
            float(w @ lap_term))


def _frozen_mixture_values(grid, seed):
    """`sample_mixture(grid, seed).values` as the bump-by-bump loop formed them."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    weights = rng.uniform(0.2, 1.0, size=k)
    weights /= weights.sum()
    lo, hi = (-2.0, 2.0) if grid.kind == CARTESIAN else (0.0, 2.0)
    means = rng.uniform(lo, hi, size=k)
    variances = rng.uniform(0.5, 2.0, size=k)
    x = grid.origin + grid.spacing * np.arange(grid.node_count)
    vals = np.zeros_like(x)
    for w, m, s2 in zip(weights, means, variances):
        vals += w * np.exp(-((x - m) ** 2) / (2.0 * s2))
        if grid.kind != CARTESIAN:
            vals += w * np.exp(-((x + m) ** 2) / (2.0 * s2))
    return vals / float(grid.weights() @ vals)


def _frozen_two_bump_values(grid, seed):
    """`compact_two_bump(grid, seed).values` as the two per-geometry loops formed them."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.3, 1.0, size=2)
    m1 = rng.uniform(0.4, 2.0)
    widths = rng.uniform(0.8, 1.6, size=2)
    x = grid.origin + grid.spacing * np.arange(grid.node_count)
    vals = np.zeros_like(x)
    if grid.kind == CARTESIAN:
        m2 = -weights[0] * widths[0] * m1 / (weights[1] * widths[1])
        for w, m, s in zip(weights, (m1, m2), widths):
            vals += w * np.maximum(1.0 - ((x - m) / s) ** 2, 0.0) ** 3
    else:
        for w, m, s in zip(weights, (0.0, m1), widths):
            vals += w * np.maximum(1.0 - ((x - m) / s) ** 2, 0.0) ** 3
            vals += w * np.maximum(1.0 - ((x + m) / s) ** 2, 0.0) ** 3
    return vals / float(grid.weights() @ vals)


_GRID_KINDS = pytest.mark.parametrize("kind", [1, 2, 3, 4, 5],
                                     ids=["cartesian", "radial2", "radial3", "radial4", "radial5"])
_NODE_COUNTS = pytest.mark.parametrize("nodes", [9, 101, 4096])


class TestFrozenArithmetic:
    """The shared-data functionals and the buffered mixture and bump samplers against the
    arithmetic they replaced (kept above as `_frozen_*`): the samplers and the trust mask
    bit for bit, the integrals to a measured relative bound.  Radial n = 4 is the one
    whose n - 1 is not a power of two, so only it sees how (n-1) b b is grouped."""

    PS = (0.8, 0.9, 1.5, 2.0, 3.0)

    @staticmethod
    def _grid(kind, nodes):
        return rf.Grid.cartesian(nodes, 6.0) if kind == 1 else rf.Grid.radial(kind, nodes, 6.0)

    @staticmethod
    def _fields(grid):
        yield from (rf.sample_mixture(grid, seed) for seed in range(3))
        yield from (rf.compact_two_bump(grid, seed) for seed in range(2))
        yield from (rf.sample_barenblatt(grid, p) for p in (0.8, 2.0, 3.0))

    @_NODE_COUNTS
    @_GRID_KINDS
    def test_nodes_and_mixtures(self, kind, nodes):
        grid = self._grid(kind, nodes)
        x = grid.origin + grid.spacing * np.arange(grid.node_count)
        assert grid.nodes().tobytes() == x.tobytes()
        for seed in range(6):
            want = _frozen_mixture_values(grid, seed)
            assert rf.sample_mixture(grid, seed).values.tobytes() == want.tobytes()

    @_NODE_COUNTS
    @_GRID_KINDS
    def test_two_bumps(self, kind, nodes):
        grid = self._grid(kind, nodes)
        for seed in range(6):
            want = _frozen_two_bump_values(grid, seed)
            assert rf.compact_two_bump(grid, seed).values.tobytes() == want.tobytes()

    # The pressure of u / max u is an affine map of u^{p-1}, so the integrals agree with the
    # frozen ones to rounding, not bit for bit.  Worst relative gaps measured over these
    # fields and p: 6e-15 for int u^p, H_p and F_p, 4e-12 for int u^p (Lap g)^2, and 1.1e-12
    # for D_p taken against 2 int u^p (|D^2 g|^2 + |p-1| (Lap g)^2), the size of its two
    # terms before they cancel (at p < 1 on the 5-D fields D_p is 1e-15 of that size).
    TOL = 1e-11

    @_NODE_COUNTS
    @_GRID_KINDS
    def test_functionals(self, kind, nodes):
        masked = 0
        for f in self._fields(self._grid(kind, nodes)):
            for p in self.PS:
                ok = _pressure(f.values, p)[1]
                frozen, frozen_ok = _frozen_pressure(f.values, p)
                # no mask exactly where the frozen one trusts every node
                assert (ok is None) == bool(frozen_ok.all())
                if ok is not None:
                    masked += 1
                    assert np.array_equal(ok, frozen_ok)
                hess, lap = _frozen_dissipation_terms(f, p, frozen, frozen_ok)
                d_scale = 2.0 * float(f.grid.weights() @ (hess + abs(p - 1.0) * lap))
                s, h, f_p, d, lap_int = _integrals(rf.DensityField(f.grid, f.values), p,
                                                   dissipation=True)
                want_s, want_f, want_d, want_lap = _frozen_integrals(f, p)
                want_h = math.log(want_s / rf.mass(f)) / (1.0 - p)
                assert s == pytest.approx(want_s, rel=self.TOL, abs=0.0)
                assert h == pytest.approx(want_h, rel=self.TOL, abs=self.TOL)
                assert f_p == pytest.approx(want_f, rel=self.TOL, abs=0.0)
                assert abs(d - want_d) <= self.TOL * d_scale
                assert lap_int == pytest.approx(want_lap, rel=self.TOL, abs=0.0)
        assert masked > 0  # the compact bumps' zeros keep the masked p < 1 path


class TestQuadratureConvergence:
    def test_halving_spacing_improves_entropy_and_fisher(self):
        spec = rf.barenblatt_spec(2.0, 1)
        h_exact = rf.barenblatt_entropy(spec)
        errs_h, errs_i = [], []
        for nodes in (256, 512):
            grid = rf.Grid.cartesian(nodes, 1.3)  # radius not support-aligned
            f = rf.sample_barenblatt_from_spec(grid, spec)
            errs_h.append(abs(rf.renyi_entropy(f, 2.0) - h_exact))
            errs_i.append(abs(rf.fisher_p(f, 2.0)[1] - 4.0))
        assert errs_h[0] / errs_h[1] >= 2.0
        assert errs_i[0] / errs_i[1] >= 2.0
