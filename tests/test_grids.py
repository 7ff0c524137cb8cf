"""Grid construction, quadrature weights, and difference operators."""
import copy
import math
import pickle

import numpy as np
import pytest

import renyiflow as rf
from renyiflow.errors import DomainError
from renyiflow.grids import EXTENT_BITS, gradient, second_derivative


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

    @pytest.mark.parametrize("grid", [rf.Grid.cartesian(64, 2.0), rf.Grid.radial(3, 32, 8.0)])
    def test_nodes_computed_once_read_only(self, grid):
        x = grid.nodes()
        assert grid.nodes() is x and not x.flags.writeable
        assert np.array_equal(x, grid.origin + grid.spacing * np.arange(grid.node_count))
        with pytest.raises(ValueError):
            x[0] = 1.0
        scaled = grid.scaled(2.0)
        assert scaled.nodes() is not x and np.array_equal(scaled.nodes(), 2.0 * x)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))])
    def test_clone_makes_its_own_read_only_caches(self, clone):
        grid = rf.Grid.radial(3, 32, 8.0)
        grid.nodes(), grid.weights(), grid.conductances()
        twin = clone(grid)
        assert twin == grid
        for got, want in ((twin.nodes(), grid.nodes()), (twin.weights(), grid.weights()),
                          *zip(twin.conductances()[:2], grid.conductances()[:2])):
            assert got is not want and not got.flags.writeable and np.array_equal(got, want)

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

    @pytest.mark.parametrize("make", [lambda: rf.Grid.cartesian(64, math.inf),
                                      lambda: rf.Grid.radial(3, 64, math.nan),
                                      lambda: rf.Grid("radial", 3, 64, math.inf, math.inf)])
    def test_non_finite_extent_rejected(self, make):
        with pytest.raises(DomainError, match="must be positive and finite"):
            make()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("make", [lambda: rf.Grid.cartesian(512, 1e-300),
                                      lambda: rf.Grid.cartesian(512, 1e300),
                                      lambda: rf.Grid.radial(3, 512, 1e-300),
                                      lambda: rf.Grid.radial(3, 512, 1e300),
                                      lambda: rf.Grid.radial(3, 8, 2.0 ** 251)])
    def test_extent_out_of_range_rejected(self, make):
        with pytest.raises(DomainError, match=r"must lie within 2\*\*-\d+ and 2\*\*\d+ in dim"):
            make()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_extent_bounds_keep_the_grid_arithmetic_finite(self, dim):
        bits = EXTENT_BITS // (dim + 1)
        make = (lambda r: rf.Grid.cartesian(8, r)) if dim == 1 else \
            (lambda r: rf.Grid.radial(dim, 8, r))
        smallest = make(8 * 2.0 ** -bits / (2 if dim == 1 else 1))
        largest = make(2.0 ** bits)
        assert smallest.spacing == 2.0 ** -bits and largest.radius() == 2.0 ** bits
        for grid in (smallest, largest):
            conductance, coupling, max_rate = grid.conductances()
            assert np.all(grid.weights() >= np.finfo(float).tiny)
            assert np.all(np.isfinite(grid.weights())) and math.isfinite(max_rate)
            assert np.all(conductance > 0.0) and np.all(np.isfinite(coupling))
            assert np.all(np.isfinite(grid.nodes() ** 2))
        with pytest.raises(DomainError):
            make(math.nextafter(2.0 ** bits, math.inf))


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

    def test_values_are_a_read_only_copy(self):
        g = rf.Grid.cartesian(16, 1.0)
        src = np.full(16, 0.5)
        f = rf.DensityField(g, src)
        assert not f.values.flags.writeable
        with pytest.raises(ValueError):
            f.values[0] = 1.0
        src[:] = 2.0
        assert np.array_equal(f.values, np.full(16, 0.5))

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))])
    def test_clones_stay_read_only(self, clone):
        f = rf.sample_mixture(rf.Grid.cartesian(64, 5.0), seed=1)
        rf.snapshot(f, 2.0)
        g = clone(f)
        assert not g.values.flags.writeable and np.array_equal(g.values, f.values)
        assert g.grid == f.grid and not g._memo


class TestSamplerInputs:
    @pytest.mark.parametrize("sample", [rf.sample_mixture, rf.compact_two_bump])
    def test_negative_seed_refused(self, sample):
        with pytest.raises(DomainError, match="seed must be nonnegative; got -1"):
            sample(rf.Grid.cartesian(64, 5.0), -1)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_barenblatt_at_nonpositive_time_refused(self, t, normalize):
        with pytest.raises(DomainError, match="self-similar time must be positive"):
            rf.sample_barenblatt(rf.Grid.cartesian(64, 5.0), 2.0, t, normalize=normalize)


class TestDerivatives:
    @pytest.mark.parametrize("nodes", [256, 512])
    def test_cartesian_gradient_second_order(self, nodes):
        g = rf.Grid.cartesian(nodes, 2.0)
        x = g.nodes()
        err = np.max(np.abs(gradient(np.sin(x), g) - np.cos(x)))
        assert err < 5.0 * g.spacing ** 2

    @pytest.mark.parametrize("nodes", [8, 512, 4096])
    @pytest.mark.parametrize("kind", ["cartesian", "radial"])
    def test_gradient_bitwise_numpy(self, kind, nodes):
        # the radial inner end is np.gradient's central difference over a mirror node
        rng = np.random.default_rng(nodes)
        for _ in range(20):
            radius = rng.uniform(0.5, 20.0)
            g = rf.Grid.cartesian(nodes, radius) if kind == "cartesian" \
                else rf.Grid.radial(3, nodes, radius)
            v = rng.standard_normal(nodes) * 10.0 ** rng.uniform(-5.0, 5.0)
            ext = v if kind == "cartesian" else np.concatenate(([v[0]], v))
            want = np.gradient(ext, g.spacing, edge_order=2)[ext.size - nodes:]
            assert np.array_equal(gradient(v, g).view(np.int64), want.view(np.int64))

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

