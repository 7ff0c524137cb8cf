"""Grid construction, quadrature weights, and difference operators."""
import math

import numpy as np
import pytest

import renyiflow as rf
from renyiflow.errors import DomainError
from renyiflow.grids import gradient, hessian_invariants, second_derivative


class TestSphereSurface:
    def test_known_dimensions(self):
        assert rf.sphere_surface(1) == pytest.approx(2.0, rel=1e-15)
        assert rf.sphere_surface(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert rf.sphere_surface(3) == pytest.approx(4.0 * math.pi, rel=1e-15)


class TestGrid:
    def test_cartesian_nodes_symmetric(self):
        g = rf.Grid.cartesian(64, 2.0)
        x = g.nodes()
        np.testing.assert_allclose(x + x[::-1], 0.0, atol=1e-14)
        assert g.spacing == pytest.approx(4.0 / 64)

    def test_radial_starts_at_half_spacing(self):
        g = rf.Grid.radial(3, 32, 8.0)
        assert g.nodes()[0] == pytest.approx(g.spacing / 2.0)

    def test_radial_weights_formula(self):
        g = rf.Grid.radial(3, 32, 8.0)
        r = g.nodes()
        np.testing.assert_allclose(g.weights(), 4.0 * math.pi * r ** 2 * g.spacing, rtol=1e-14)

    @pytest.mark.parametrize("grid", [rf.Grid.cartesian(64, 2.0), rf.Grid.radial(3, 32, 8.0)])
    def test_weights_computed_once_read_only(self, grid):
        w = grid.weights()
        assert grid.weights() is w and not w.flags.writeable
        if grid.kind == "radial":
            want = rf.sphere_surface(3) * grid.nodes() ** 2 * grid.spacing
        else:
            want = np.full(64, grid.spacing)
        assert np.array_equal(w, want)
        with pytest.raises(ValueError):
            w[0] = 1.0

    def test_cartesian_uniform_density_mass(self):
        g = rf.Grid.cartesian(128, 3.0)
        f = rf.DensityField(g, np.full(128, 1.0 / 6.0))
        assert rf.mass(f) == pytest.approx(1.0, rel=1e-14)

    def test_ball_volume(self):
        g = rf.Grid.radial(3, 4096, 1.0)
        assert g.weights().sum() == pytest.approx(4.0 * math.pi / 3.0, rel=1e-7)

    def test_scaled(self):
        g = rf.Grid.cartesian(64, 2.0)
        s = g.scaled(3.0)
        np.testing.assert_allclose(s.nodes(), 3.0 * g.nodes(), rtol=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            rf.Grid("hexagonal", 2, 64, 0.1, 0.0)
        with pytest.raises(DomainError):
            rf.Grid.cartesian(4, 1.0)
        with pytest.raises(DomainError):
            rf.Grid.radial(0, 64, 1.0)
        with pytest.raises(DomainError):
            rf.Grid.radial(2, 64, -1.0)


class TestDensityField:
    def test_rejects_negative(self):
        g = rf.Grid.cartesian(16, 1.0)
        with pytest.raises(DomainError):
            rf.DensityField(g, np.linspace(-0.1, 1.0, 16))

    def test_rejects_nan(self):
        g = rf.Grid.cartesian(16, 1.0)
        v = np.ones(16)
        v[3] = np.nan
        with pytest.raises(DomainError):
            rf.DensityField(g, v)

    def test_rejects_zero_mass(self):
        g = rf.Grid.cartesian(16, 1.0)
        with pytest.raises(DomainError):
            rf.DensityField(g, np.zeros(16))

    def test_rejects_shape_mismatch(self):
        g = rf.Grid.cartesian(16, 1.0)
        with pytest.raises(DomainError):
            rf.DensityField(g, np.ones(8))


class TestDerivatives:
    @pytest.mark.parametrize("nodes", [256, 512])
    def test_cartesian_gradient_second_order(self, nodes):
        g = rf.Grid.cartesian(nodes, 2.0)
        x = g.nodes()
        err = np.max(np.abs(gradient(np.sin(x), g) - np.cos(x)))
        assert err < 5.0 * g.spacing ** 2

    def test_cartesian_second_derivative(self):
        g = rf.Grid.cartesian(512, 2.0)
        x = g.nodes()
        err = np.max(np.abs(second_derivative(np.sin(x), g) + np.sin(x)))
        assert err < 50.0 * g.spacing ** 2

    def test_gradient_exact_for_quadratic(self):
        g = rf.Grid.cartesian(64, 2.0)
        x = g.nodes()
        np.testing.assert_allclose(gradient(x * x, g), 2.0 * x, rtol=1e-12, atol=1e-12)

    def test_radial_ghost_even_extension(self):
        # derivative of an even profile vanishes at the origin
        g = rf.Grid.radial(3, 512, 4.0)
        r = g.nodes()
        d = gradient(np.exp(-r * r), g)
        assert abs(d[0] + 2.0 * r[0] * np.exp(-r[0] ** 2)) < 1e-4

    def test_radial_second_derivative_quadratic(self):
        g = rf.Grid.radial(2, 128, 4.0)
        r = g.nodes()
        np.testing.assert_allclose(second_derivative(3.0 - r * r, g), -2.0, rtol=1e-10)

    def test_refinement_halves_gradient_error(self):
        errs = []
        for nodes in (128, 256):
            g = rf.Grid.radial(3, nodes, 3.0)
            r = g.nodes()
            errs.append(np.max(np.abs(gradient(np.cos(r), g) + np.sin(r))))
        assert errs[0] / errs[1] > 2.0


class TestHessianInvariants:
    def test_cartesian_reduces_to_second_derivative(self):
        g = rf.Grid.cartesian(128, 2.0)
        v = np.exp(-g.nodes() ** 2)
        hess_sq, lap = hessian_invariants(v, g)
        d2 = second_derivative(v, g)
        np.testing.assert_allclose(hess_sq, d2 * d2, rtol=1e-13)
        np.testing.assert_allclose(lap, d2, rtol=1e-13)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_trace_inequality_nodewise(self, dim):
        # |D^2 g|^2 >= (Lap g)^2 / n holds algebraically on (g'', g'/r) pairs
        rng = np.random.default_rng(7)
        g = rf.Grid.radial(dim, 256, 5.0)
        for _ in range(20):
            v = rng.uniform(0.1, 1.0, 256)
            v = np.convolve(v, np.ones(9) / 9.0, mode="same")  # keep it resolvable
            hess_sq, lap = hessian_invariants(v, g)
            assert np.all(hess_sq >= lap * lap / dim - 1e-12 * np.abs(hess_sq) - 1e-300)

    def test_radial_laplacian_of_r_squared(self):
        # Lap |x|^2 = 2n everywhere
        for dim in (2, 3):
            g = rf.Grid.radial(dim, 128, 4.0)
            _, lap = hessian_invariants(g.nodes() ** 2, g)
            np.testing.assert_allclose(lap, 2.0 * dim, rtol=1e-9)
