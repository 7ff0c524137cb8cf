"""Closed-form constants against independent quadrature and special-function oracles."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc, gammaln

import renyiflow as rf
from renyiflow.errors import DomainError


def radial_integral(func, n, upper, lower=0.0):
    """Oracle: integral of func(|x|) over lower < |x| < upper in R^n by adaptive quadrature."""
    surf = 2.0 * math.pi ** (n / 2.0) / math.exp(gammaln(n / 2.0))
    val, _ = quad(lambda r: r ** (n - 1) * func(r), lower, upper, limit=400)
    return surf * val


class TestCoefficients:
    def test_p_one(self):
        c = rf.coefficients(1.0, 3)
        assert c.mu == 2.0
        assert c.nu == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_p_two_n_one(self):
        c = rf.coefficients(2.0, 1)
        assert (c.mu, c.nu) == (3.0, 3.0)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            rf.coefficients(1.0 / 3.0, 3)

    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
    def test_non_finite_p_rejected(self, p):
        with pytest.raises(DomainError, match="need a finite p"):
            rf.coefficients(p, 3)

    @pytest.mark.parametrize("p", [0.0, -0.5])
    def test_nonpositive_p_rejected_in_one_dimension(self, p):
        # mu = 1 + p is positive down to p = -1, but u^p needs p > 0
        with pytest.raises(DomainError, match="need p > 0"):
            rf.coefficients(p, 1)

    @pytest.mark.parametrize("p", [0.4, 0.8, 1.0, 1.7, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_nu_identity(self, p, n):
        if p <= 1.0 - 2.0 / n:
            return
        c = rf.coefficients(p, n)
        assert c.nu == pytest.approx(2.0 / n + (p - 1.0), rel=1e-14)
        assert c.mu > 0.0 and c.nu > 0.0

    def test_memo_hands_out_python_numbers(self):
        # equal arguments of numpy types share a memo entry, so whichever type comes
        # first, every caller gets Python numbers (a numpy 2 scalar reprs as np.float64(...))
        c = rf.coefficients(np.float64(1.2345), np.int64(6))
        assert rf.coefficients(1.2345, 6) is c
        assert [type(v) for v in (c.p, c.n, c.mu, c.nu)] == [float, int, float, float]
        assert "np." not in repr(c)
        g = rf.gamma_const(np.float64(1.2345), np.int64(6))
        assert type(g) is float and rf.gamma_const(1.2345, 6) == g


class TestHeatKernel:
    def test_center_value_normalizes_prefactor(self):
        spec = rf.HeatKernelSpec(1, 1.0 / (4.0 * math.pi))
        assert rf.gaussian_density(0.0, spec) == pytest.approx(1.0, rel=1e-14)

    def test_decay(self):
        spec = rf.HeatKernelSpec(2, 0.7)
        assert rf.gaussian_density(50.0, spec) < 1e-200

    def test_unit_mass_on_grid(self):
        grid = rf.Grid.cartesian(4096, 20.0)
        f = rf.sample_gaussian(grid, 1.0)
        assert abs(rf.mass(f) - 1.0) < 1e-10

    def test_variance_is_2nt(self):
        spec = rf.HeatKernelSpec(3, 0.8)
        second = radial_integral(lambda r: r * r * rf.gaussian_density(r, spec), 3, np.inf)
        assert second == pytest.approx(2.0 * 3 * 0.8, rel=1e-9)

    def test_entropy_power_linear_in_t(self):
        h, n_pow = rf.heat_kernel_entropy_power(rf.HeatKernelSpec(1, 1.0))
        assert n_pow == pytest.approx(4.0 * math.pi * math.e, rel=1e-15)

    def test_entropy_zero_time(self):
        h, _ = rf.heat_kernel_entropy_power(rf.HeatKernelSpec(2, 1.0 / (4.0 * math.pi * math.e)))
        assert h == pytest.approx(0.0, abs=1e-13)

    def test_against_grid_functionals(self):
        spec = rf.HeatKernelSpec(3, 2.0)
        grid = rf.Grid.radial(3, 4096, 30.0)
        f = rf.sample_gaussian(grid, 2.0)
        h_exact, n_exact = rf.heat_kernel_entropy_power(spec)
        assert rf.renyi_entropy(f, 1.0) == pytest.approx(h_exact, rel=1e-8)
        assert rf.entropy_power(f, 1.0) == pytest.approx(n_exact, rel=1e-7)

    def test_bad_time(self):
        with pytest.raises(DomainError):
            rf.HeatKernelSpec(1, 0.0)


class TestBarenblattNormalization:
    def test_a_p2_n1_is_four_thirds(self):
        oracle = quad(lambda x: (1.0 - x * x), -1.0, 1.0)[0]
        assert oracle == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert rf.barenblatt_a(2.0, 1) == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_a_p2_n3_vs_radial_quadrature(self):
        oracle = radial_integral(lambda r: max(1.0 - r * r, 0.0), 3, 1.0)
        assert rf.barenblatt_a(2.0, 3) == pytest.approx(oracle, rel=1e-10)

    def test_a_fast_diffusion_vs_quadrature(self):
        # (1 + x^2)^{-2} integrates to pi/2 on the line
        oracle = quad(lambda x: (1.0 + x * x) ** -2.0, -np.inf, np.inf)[0]
        assert oracle == pytest.approx(math.pi / 2.0, rel=1e-12)
        assert rf.barenblatt_a(0.5, 1) == pytest.approx(math.pi / 2.0, rel=1e-13)

    @pytest.mark.parametrize("p,n", [(1.7, 2), (3.0, 1), (0.8, 1), (0.75, 3)])
    def test_a_matches_quadrature(self, p, n):
        if p > 1:
            oracle = radial_integral(lambda r: max(1.0 - r * r, 0.0) ** (1.0 / (p - 1.0)), n, 1.0)
        else:
            oracle = radial_integral(lambda r: (1.0 + r * r) ** (1.0 / (p - 1.0)), n, np.inf)
        assert rf.barenblatt_a(p, n) == pytest.approx(oracle, rel=1e-9)

    def test_a_out_of_range(self):
        with pytest.raises(DomainError):
            rf.barenblatt_a(1.0, 2)
        with pytest.raises(DomainError):
            rf.barenblatt_a(0.2, 3)  # below 1 - 2/n
        with pytest.raises(DomainError):
            rf.barenblatt_a(0.5, 4)  # Gamma argument 1/(1-p) - n/2 = 0

    def test_c_p2_n1(self):
        assert rf.barenblatt_c(2.0, 1) == pytest.approx((4.0 / 3.0) ** (-2.0 / 3.0), rel=1e-14)

    def test_unit_mass_p2_n2(self):
        spec = rf.barenblatt_spec(2.0, 2)
        oracle = radial_integral(lambda r: rf.barenblatt_profile(r, spec), 2,
                                 rf.support_radius(spec))
        assert oracle == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("p,n", [(2.0, 1), (1.5, 2), (0.9, 1), (0.75, 2)])
    def test_unit_mass_both_conventions(self, p, n):
        for conv in (rf.UNIT_COEFF, rf.PDE_NORMALIZED):
            spec = rf.barenblatt_spec(p, n, conv)
            upper = rf.support_radius(spec) if p > 1 else np.inf
            oracle = radial_integral(lambda r: rf.barenblatt_profile(r, spec), n, upper)
            assert oracle == pytest.approx(1.0, rel=1e-8)

    def test_exponent_identity_at_unit_a(self):
        # if A_p were 1 the mass constant would be 1 regardless of (p, n)
        assert 1.0 ** (-2.0 * (1.7 - 1.0) / rf.coefficients(1.7, 2).mu) == 1.0


class TestBarenblattProfile:
    def test_zero_at_support_edge(self):
        spec = rf.barenblatt_spec(2.0, 1)
        edge = rf.support_radius(spec)
        assert rf.barenblatt_profile(edge, spec) == 0.0
        assert rf.barenblatt_profile(edge + 0.5, spec) == 0.0

    def test_center_value(self):
        spec = rf.barenblatt_spec(3.0, 2)
        expected = spec.c_const ** (1.0 / (3.0 - 1.0))
        assert rf.barenblatt_profile(0.0, spec) == pytest.approx(expected, rel=1e-14)

    def test_kappa_formula(self):
        spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
        mu = spec.coeffs.mu
        assert spec.kappa == pytest.approx((2.0 - 1.0) / (2.0 * mu * 2.0), rel=1e-15)

    @pytest.mark.parametrize("p,n", [(2.0, 1), (0.9, 1), (1.5, 3)])
    def test_conventions_share_upsilon(self, p, n):
        # the two normalizations differ by a dilation, and Upsilon is invariant
        vals = []
        for conv in (rf.UNIT_COEFF, rf.PDE_NORMALIZED):
            spec = rf.barenblatt_spec(p, n, conv)
            radius = rf.support_radius(spec) if p > 1 else rf.suggest_domain_radius(p, n, 1e-10, conv)
            grid = rf.Grid.radial(n, 4096, radius)
            vals.append(rf.upsilon(rf.sample_barenblatt_from_spec(grid, spec), p))
        assert vals[0] == pytest.approx(vals[1], rel=1e-7)


class TestSelfSimilar:
    def test_time_one_is_profile(self):
        spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
        x = np.linspace(0.0, 3.0, 50)
        np.testing.assert_allclose(rf.barenblatt_self_similar(x, 1.0, spec),
                                   rf.barenblatt_profile(x, spec), rtol=0.0)

    def test_mass_preserved_at_t5(self):
        spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
        upper = rf.support_radius(spec) * 5.0 ** (1.0 / spec.coeffs.mu)
        oracle = radial_integral(lambda r: rf.barenblatt_self_similar(r, 5.0, spec), 1, upper)
        assert oracle == pytest.approx(1.0, rel=1e-9)

    def test_entropy_power_linear_in_time(self):
        spec = rf.barenblatt_spec(1.5, 1, rf.PDE_NORMALIZED)
        slope = rf.barenblatt_entropy_power(spec)
        for t in (2.0, 7.0):
            grid = rf.Grid.cartesian(8192, rf.support_radius(spec) * t ** (1.0 / spec.coeffs.mu) * 1.01)
            f = rf.DensityField(grid, rf.barenblatt_self_similar(np.abs(grid.nodes()), t, spec))
            assert rf.entropy_power(f, 1.5) == pytest.approx(slope * t, rel=1e-5)

    def test_negative_time(self):
        spec = rf.barenblatt_spec(2.0, 1)
        with pytest.raises(DomainError):
            rf.barenblatt_self_similar(0.0, -1.0, spec)


class TestBarenblattMoments:
    def test_second_moment_p2_n1(self):
        # n(p-1)/((n+2)p - n) C_p = C_p/5 here
        spec = rf.barenblatt_spec(2.0, 1)
        assert rf.barenblatt_second_moment(spec) == pytest.approx(spec.c_const / 5.0, rel=1e-14)

    def test_second_moment_fast_diffusion(self):
        spec = rf.barenblatt_spec(0.9, 1)
        expected = (0.1 / 1.7) * spec.c_const
        assert rf.barenblatt_second_moment(spec) == pytest.approx(expected, rel=1e-13)

    def test_second_moment_vs_quadrature_p2_n2(self):
        spec = rf.barenblatt_spec(2.0, 2)
        oracle = radial_integral(lambda r: r * r * rf.barenblatt_profile(r, spec), 2,
                                 rf.support_radius(spec))
        assert rf.barenblatt_second_moment(spec) == pytest.approx(oracle, rel=1e-6)

    def test_p_integral_p2_n1(self):
        # 2p/((n+2)p - n) C_p = 4 C_p / 5 here
        spec = rf.barenblatt_spec(2.0, 1)
        assert rf.barenblatt_p_integral(spec) == pytest.approx(0.8 * spec.c_const, rel=1e-14)

    def test_p_integral_vs_quadrature(self):
        spec = rf.barenblatt_spec(1.5, 2)
        oracle = radial_integral(lambda r: rf.barenblatt_profile(r, spec) ** 1.5, 2,
                                 rf.support_radius(spec))
        assert rf.barenblatt_p_integral(spec) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("p,n", [(2.0, 1), (1.5, 2), (3.0, 3), (0.9, 1), (0.75, 2)])
    def test_consistency_triangle(self, p, n):
        # integral B^p = (C_p -+ |x|^2) against B; sign flips with the branch
        spec = rf.barenblatt_spec(p, n)
        mom = rf.barenblatt_second_moment(spec)
        po = rf.barenblatt_p_integral(spec)
        if p > 1:
            assert spec.c_const - mom == pytest.approx(po, rel=1e-10)
        else:
            assert spec.c_const + mom == pytest.approx(po, rel=1e-10)

    def test_divergent_moment_rejected(self):
        with pytest.raises(DomainError):
            rf.barenblatt_second_moment(rf.barenblatt_spec(0.58, 3))  # below n/(n+2)


class TestBarenblattEntropyFisher:
    def test_fisher_p2_n1(self):
        assert rf.barenblatt_fisher(rf.barenblatt_spec(2.0, 1)) == pytest.approx(4.0, rel=1e-14)

    def test_fisher_fast_diffusion(self):
        assert rf.barenblatt_fisher(rf.barenblatt_spec(0.9, 1)) == pytest.approx(18.0, rel=1e-13)

    def test_entropy_is_log_p_integral(self):
        spec = rf.barenblatt_spec(1.5, 2)
        expected = math.log(rf.barenblatt_p_integral(spec)) / (1.0 - 1.5)
        assert rf.barenblatt_entropy(spec) == pytest.approx(expected, rel=1e-13)

    def test_discrete_fisher_matches(self):
        spec = rf.barenblatt_spec(2.0, 1)
        grid = rf.Grid.radial(1, 4096, rf.support_radius(spec))
        f = rf.sample_barenblatt_from_spec(grid, spec)
        assert rf.fisher_p(f, 2.0)[1] == pytest.approx(4.0, rel=1e-3)


class TestGammaConstant:
    def test_p2_n1_vs_quadrature_upsilon(self):
        spec = rf.barenblatt_spec(2.0, 1)
        grid = rf.Grid.radial(1, 8192, rf.support_radius(spec))
        ups = rf.upsilon(rf.sample_barenblatt_from_spec(grid, spec), 2.0)
        assert rf.gamma_const(2.0, 1) == pytest.approx(ups, rel=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [0.7, 0.9, 1.2, 2.0, 4.0])
    def test_strictly_positive(self, p, n):
        if not p > n / (n + 2.0):
            return
        assert rf.gamma_const(p, n) > 0.0

    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_sobolev_case_closed_form(self, n):
        expected = n * math.pi * 4.0 * (n - 1.0) ** 2 / (n - 2.0) * math.exp(
            (gammaln(n / 2.0) - gammaln(float(n))) * 2.0 / n)
        assert rf.gamma_const((n - 1.0) / n, n) == pytest.approx(expected, rel=1e-12)

    def test_assembled_from_parts(self):
        # gamma = exp(nu H_p(B)) I_p(B), assembled from the closed forms
        for (p, n) in [(2.0, 1), (1.5, 2), (0.9, 1), (0.75, 3)]:
            spec = rf.barenblatt_spec(p, n)
            nu = spec.coeffs.nu
            assembled = math.exp(nu * rf.barenblatt_entropy(spec)) * rf.barenblatt_fisher(spec)
            assert rf.gamma_const(p, n) == pytest.approx(assembled, rel=1e-12)


class TestSobolevConstant:
    def test_n3_value(self):
        expected = 3.0 * math.pi * math.exp((gammaln(1.5) - gammaln(3.0)) * 2.0 / 3.0)
        assert rf.sobolev_constant(3) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_relation_to_gamma(self, n):
        lhs = rf.sobolev_constant(n)
        rhs = ((n - 2.0) / (2.0 * n - 2.0)) ** 2 * rf.gamma_const((n - 1.0) / n, n)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_n2_rejected(self):
        with pytest.raises(DomainError):
            rf.sobolev_constant(2)


class TestGammaEvaluator:
    def test_half_integer(self):
        assert math.exp(rf.analytic.lgamma(0.5)) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    @pytest.mark.parametrize("k", range(2, 12))
    def test_factorials(self, k):
        assert math.exp(rf.analytic.lgamma(float(k))) == pytest.approx(
            math.factorial(k - 1), rel=1e-12)


class TestModuleInvariants:
    @pytest.mark.parametrize("p,n", [(2.0, 1), (1.5, 2), (0.9, 1), (2.0 / 3.0 + 0.05, 3)])
    def test_grid_mass_at_4096_nodes(self, p, n):
        spec = rf.barenblatt_spec(p, n)
        radius = rf.support_radius(spec) if p > 1 else rf.suggest_domain_radius(p, n, 1e-10)
        grid = rf.Grid.radial(n, 4096, radius)
        f = rf.sample_barenblatt_from_spec(grid, spec)
        # even n keeps an O(h^2) midpoint boundary term at r = 0 (odd volume power)
        tol = 1e-8 if n % 2 else 3e-8
        assert abs(rf.mass(f) - 1.0) < tol

    def test_evaluated_triangle_tight(self):
        spec = rf.barenblatt_spec(2.0, 1)
        resid = spec.c_const - rf.barenblatt_second_moment(spec) - rf.barenblatt_p_integral(spec)
        assert abs(resid) < 1e-10

    def test_scale_bridge(self):
        # Upsilon through either convention agrees (dilation invariance)
        for (p, n) in [(2.0, 1), (0.9, 1)]:
            specs = [rf.barenblatt_spec(p, n, c) for c in (rf.UNIT_COEFF, rf.PDE_NORMALIZED)]
            ups = []
            for spec in specs:
                radius = rf.support_radius(spec) if p > 1 else 40.0
                grid = rf.Grid.radial(n, 8192, radius)
                ups.append(rf.upsilon(rf.sample_barenblatt_from_spec(grid, spec), p))
            assert ups[0] == pytest.approx(ups[1], rel=1e-8)


class TestTailMassClosedForm:
    @pytest.mark.parametrize("p", (0.45, 0.6, 0.8, 0.95, 1.5, 2.0, 3.0))
    @pytest.mark.parametrize("n", (1, 2, 3))
    @pytest.mark.parametrize("convention", (rf.UNIT_COEFF, rf.PDE_NORMALIZED))
    def test_matches_incomplete_beta(self, p, n, convention):
        spec = rf.barenblatt_spec(p, n, convention)
        c, q = spec.c_const, 1.0 if convention == rf.UNIT_COEFF else abs(spec.kappa)
        if p < 1:
            radii = np.geomspace(1.0, 300.0, 12)
            want = betainc(1.0 / (1.0 - p) - n / 2.0, n / 2.0, c / (c + q * radii ** 2))
        else:
            radii = rf.support_radius(spec) * np.array([0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999])
            want = betainc(1.0 / (p - 1.0) + 1.0, n / 2.0, (c - q * radii ** 2) / c)
        got = [rf.barenblatt_tail_mass(spec, float(r)) for r in radii]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("p,n", [(0.45, 3), (0.8, 2), (0.95, 1), (1.5, 3), (2.0, 1)])
    def test_matches_radial_quadrature(self, p, n):
        spec = rf.barenblatt_spec(p, n, rf.PDE_NORMALIZED)
        upper = rf.support_radius(spec)
        for radius in ((2.0, 20.0) if p < 1 else (0.5 * upper, 0.999 * upper)):
            oracle = radial_integral(lambda r: rf.barenblatt_profile(r, spec), n, upper, radius)
            assert rf.barenblatt_tail_mass(spec, radius) == pytest.approx(oracle, rel=1e-8)

    def test_zero_from_the_support_edge_on(self):
        spec = rf.barenblatt_spec(2.0, 3, rf.PDE_NORMALIZED)
        edge = rf.support_radius(spec)
        assert rf.barenblatt_tail_mass(spec, edge) == 0.0
        assert rf.barenblatt_tail_mass(spec, 2.0 * edge) == 0.0

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            rf.barenblatt_tail_mass(rf.barenblatt_spec(0.8, 1), 0.0)


def _reference_radius(p, n, tail, convention):
    """The sizing it replaces: doubling from [1, 2], then 60 bisection steps."""
    spec = rf.barenblatt_spec(p, n, convention)
    lo, hi = 1.0, 2.0
    while rf.barenblatt_tail_mass(spec, hi) > tail:
        lo, hi = hi, hi * 2.0
        if hi > 1e9:
            raise DomainError("tail target unreachable")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if rf.barenblatt_tail_mass(spec, mid) > tail:
            lo = mid
        else:
            hi = mid
    return hi


SIZING_P = (0.45, 0.6, 0.8, 0.95)
SIZING_N = (1, 2, 3)
SIZING_TAILS = (1e-10, 1e-8, 1e-6, 3e-6)
SIZING_CONVENTIONS = (rf.UNIT_COEFF, rf.PDE_NORMALIZED)
# every p, n, tail and convention, and each tail with both conventions
SIZING_COVER = [(SIZING_P[i // 2], SIZING_N[i % 3], SIZING_TAILS[i % 4], SIZING_CONVENTIONS[i // 4])
                for i in range(8)]


@pytest.fixture
def tail_calls(monkeypatch):
    """Counts the tail-mass evaluations suggest_domain_radius makes."""
    calls = []
    original = rf.analytic.barenblatt_tail_mass

    def counted(spec, radius):
        calls.append(radius)
        return original(spec, radius)

    monkeypatch.setattr(rf.analytic, "barenblatt_tail_mass", counted)
    return calls


class TestSuggestDomainRadius:
    @pytest.mark.parametrize("p,n,tail,convention", SIZING_COVER)
    def test_matches_bisection_bitwise(self, p, n, tail, convention, tail_calls):
        try:
            want = _reference_radius(p, n, tail, convention)
        except DomainError:
            with pytest.raises(DomainError):
                rf.suggest_domain_radius(p, n, tail, convention)
        else:
            assert rf.suggest_domain_radius(p, n, tail, convention) == want
        assert len(tail_calls) <= 16

    @pytest.mark.parametrize("p", SIZING_P)
    @pytest.mark.parametrize("n", SIZING_N)
    def test_smallest_float_radius(self, p, n, tail_calls):
        # what the bisection returns: r >= 1 with T(r) <= tail < T(r - ulp),
        # or r = 1 when T(1) <= tail already; unreachable iff T(2^29) > tail
        for convention in SIZING_CONVENTIONS:
            spec = rf.barenblatt_spec(p, n, convention)
            for tail in SIZING_TAILS:
                tail_calls.clear()
                try:
                    r = rf.suggest_domain_radius(p, n, tail, convention)
                except DomainError:
                    assert rf.barenblatt_tail_mass(spec, 2.0 ** 29) > tail
                    continue
                assert len(tail_calls) <= 16
                assert 1.0 <= r <= 2.0 ** 29 and rf.barenblatt_tail_mass(spec, r) <= tail
                if r > 1.0:
                    assert rf.barenblatt_tail_mass(spec, math.nextafter(r, 0.0)) > tail

    def test_unreachable_exactly_beyond_far_radius(self):
        spec = rf.barenblatt_spec(0.45, 3, rf.UNIT_COEFF)
        far_tail = rf.barenblatt_tail_mass(spec, 2.0 ** 29)
        assert rf.suggest_domain_radius(0.45, 3, far_tail) <= 2.0 ** 29
        with pytest.raises(DomainError, match="unreachable"):
            rf.suggest_domain_radius(0.45, 3, math.nextafter(far_tail, 0.0))

    def test_root_below_one_returns_one(self, tail_calls):
        spec = rf.barenblatt_spec(0.95, 1, rf.UNIT_COEFF)
        assert rf.barenblatt_tail_mass(spec, 0.9) < 3e-6  # the root lies below 1
        assert rf.suggest_domain_radius(0.95, 1, 3e-6) == 1.0
        assert len(tail_calls) <= 16

    def test_support_edge_for_porous_medium(self):
        spec = rf.barenblatt_spec(2.0, 3, rf.PDE_NORMALIZED)
        assert rf.suggest_domain_radius(2.0, 3, 1e-6, rf.PDE_NORMALIZED) == rf.support_radius(spec)

    @pytest.mark.parametrize("tail", [0.0, 1.0])
    def test_tail_target_range(self, tail):
        with pytest.raises(DomainError):
            rf.suggest_domain_radius(0.8, 1, tail)
