"""Uniform grids on R^n with midpoint quadrature weights and difference operators.

Two geometries are supported: a 1-D Cartesian interval and a radially
symmetric n-D half-line.  Radial grids are cell centered, starting at
r = spacing/2, and carry the volume weight |S^{n-1}| r^{n-1} spacing per
node, with |S^{n-1}| = 2 pi^{n/2} / Gamma(n/2).  The solver's kernel reads
a grid only as these weights and its faces' conductances (`Grid.conductances`).
Nodes, weights and conductances are computed once per grid and shared, so
the arrays are read-only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError

CARTESIAN = "cartesian1d"
RADIAL = "radial"
EXTENT_BITS = 1000  # of the double exponent's 1022 below 1 and 1023 above


def sphere_surface(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1}."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _require_nodes(node_count: int) -> None:
    if not node_count >= 8:
        raise DomainError("grid needs at least 8 nodes")


@dataclass(frozen=True)
class Grid:
    kind: str
    dim: int
    node_count: int
    spacing: float
    origin: float  # coordinate of the first node

    def __post_init__(self):
        if self.kind not in (CARTESIAN, RADIAL):
            raise DomainError(f"unknown grid kind {self.kind!r}")
        if self.kind == CARTESIAN and self.dim != 1:
            raise DomainError("cartesian1d grids are one-dimensional")
        if self.kind == RADIAL and self.dim < 1:
            raise DomainError("radial dimension must be a positive integer")
        _require_nodes(self.node_count)
        if not 0.0 < self.spacing < math.inf:  # so is radius(), a multiple of it
            raise DomainError("domain radius and grid spacing must be positive and finite")
        # weights r^{n-1} h, rates 1/h^2 and squared coordinates are products of at most
        # dim + 1 powers of the spacing or the radius, so these bounds keep them finite
        # and normal, with room for the sphere's constant
        bits = EXTENT_BITS // (self.dim + 1)
        if not (2.0 ** -bits <= self.spacing and self.radius() <= 2.0 ** bits):
            raise DomainError(f"grid spacing {self.spacing!r} and domain radius "
                              f"{self.radius()!r} must lie within 2**-{bits} and 2**{bits} "
                              f"in dimension {self.dim}")
        if self.kind == RADIAL and self.origin != self.spacing / 2.0:  # first face at r = 0
            raise DomainError(f"radial origin {self.origin!r} is not half the spacing")
        # the walls at -radius() and radius(), up to the rounding of a dilated a * origin
        centered = self.spacing / 2.0 - self.radius()
        if self.kind == CARTESIAN and not math.isclose(self.origin, centered, rel_tol=1e-12):
            raise DomainError(f"cartesian origin {self.origin!r} is not {centered!r}, "
                              "half a spacing in from -radius: the grid is not centered at 0")

    @classmethod
    def cartesian(cls, node_count: int, radius: float) -> Grid:
        """Cell-centered grid covering [-radius, radius]."""
        _require_nodes(node_count)  # before dividing by it
        h = 2.0 * radius / node_count
        return cls(CARTESIAN, 1, node_count, h, -radius + h / 2.0)

    @classmethod
    def radial(cls, dim: int, node_count: int, radius: float) -> Grid:
        """Cell-centered radial grid covering [0, radius] in dimension dim."""
        _require_nodes(node_count)  # before dividing by it
        h = radius / node_count
        return cls(RADIAL, dim, node_count, h, h / 2.0)

    def nodes(self) -> np.ndarray:
        """Node coordinates (radii on radial grids).

        Computed once per grid; the array is shared, so it is read-only, like `weights`.
        """
        return self._nodes

    @cached_property
    def _nodes(self) -> np.ndarray:
        x = self.origin + self.spacing * np.arange(self.node_count)
        x.flags.writeable = False
        return x

    def weights(self) -> np.ndarray:
        """Quadrature weight per node (length, or shell volume for radial grids).

        Computed once per grid; the array is shared, so it is read-only.
        """
        return self._weights

    @cached_property
    def _weights(self) -> np.ndarray:
        if self.kind == CARTESIAN:
            w = np.full(self.node_count, self.spacing)
        else:
            w = sphere_surface(self.dim) * self.nodes() ** (self.dim - 1) * self.spacing
        w.flags.writeable = False
        return w

    def face_areas(self) -> np.ndarray:
        """Areas of the node_count+1 cell faces, from which `conductances` is formed."""
        if self.kind == CARTESIAN:
            return np.ones(self.node_count + 1)
        faces = self.spacing * np.arange(self.node_count + 1)
        return sphere_surface(self.dim) * faces ** (self.dim - 1)

    def conductances(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(conductance, coupling, max_rate): the interior faces' area / spacing, each
        node's sum of them (the walls carry no flux), and the largest coupling / weight.

        Computed once per grid; the arrays are shared, so they are read-only.
        """
        return self._conductances

    @cached_property
    def _conductances(self) -> tuple[np.ndarray, np.ndarray, float]:
        conductance = self.face_areas()[1:-1] / self.spacing
        coupling = np.append(conductance, 0.0)
        coupling[1:] += conductance
        conductance.flags.writeable = coupling.flags.writeable = False
        return conductance, coupling, float(np.maximum.reduce(coupling / self.weights()))

    def __reduce__(self):
        # pickle and copy rebuild from the fields, so a clone makes its own read-only caches
        return Grid, (self.kind, self.dim, self.node_count, self.spacing, self.origin)

    def radius(self) -> float:
        """Outer edge of the covered domain (half-width for Cartesian grids)."""
        if self.kind == CARTESIAN:
            return self.node_count * self.spacing / 2.0
        return self.node_count * self.spacing

    def scaled(self, a: float) -> Grid:
        """Grid dilated by a > 0 about the origin (node i maps to a*x_i)."""
        if not a > 0.0:
            raise DomainError("dilation factor must be positive")
        return Grid(self.kind, self.dim, self.node_count, a * self.spacing, a * self.origin)


@dataclass(frozen=True)
class DensityField:
    """Nonnegative samples of a density on a grid.

    values is a read-only copy of the array passed in, so nothing computed
    from a field (see _memo) can go stale.
    """

    grid: Grid
    values: np.ndarray
    # the mass and, per p, every integral of one pressure pass (functionals._integrals),
    # floats only: a kept field holds no extra arrays (`_passes` keeps those of the last
    # field only) and no reference to itself, so the cyclic collector need not free it
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=float, order="C")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.node_count,):
            raise DomainError("values shape does not match the grid")
        # two passes: min >= 0, then (so never inf - inf) a finite weighted sum: no NaN or inf
        if not (v.min() >= 0.0 and (total := float(self.grid.weights() @ v)) < math.inf):
            if not np.all(np.isfinite(v)):
                raise DomainError("density values must be finite")
            if v.min() < 0.0:
                raise DomainError("density values must be nonnegative")
        if not total > 0.0:
            raise DomainError("density must have positive mass")

    def __reduce__(self):
        # pickle and copy rebuild through __post_init__: read-only values, empty memo
        return DensityField, (self.grid, self.values)


def gradient(values: np.ndarray, grid: Grid) -> np.ndarray:
    """First derivative: central in the interior, one-sided second order at ends.

    Radial grids use the even-extension ghost (g'(0) = 0) at the inner end: with
    a mirror node at -h/2, node 0's central difference is (v_1 - v_0) / (2h).
    The stencils and their operation order are `np.gradient(v, h, edge_order=2)`'s,
    so the result is bitwise its.
    """
    h, v = grid.spacing, values
    d = np.empty_like(v, dtype=float)
    inner = d[1:-1]
    np.subtract(v[2:], v[:-2], out=inner)
    np.divide(inner, 2.0 * h, out=inner)
    a, b, c = -1.5 / h, 2.0 / h, -0.5 / h  # one-sided weights, mirrored at the far end
    v0, v1, v2 = v[:3].tolist()
    d[0] = a * v0 + b * v1 + c * v2 if grid.kind == CARTESIAN else (v1 - v0) / (2.0 * h)
    far = v[-3:].tolist()
    d[-1] = -c * far[0] + -b * far[1] + -a * far[2]
    return d


def second_derivative(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Second derivative with the same boundary treatment as `gradient`.

    Like `gradient` it writes into its result, with the operation order of
    (v[2:] - 2 v[1:-1] + v[:-2]) / h^2, so the bits are that expression's.
    """
    h2 = grid.spacing ** 2
    v = values
    d2 = np.empty_like(v, dtype=float)
    inner = d2[1:-1]
    np.multiply(v[1:-1], 2.0, out=inner)
    np.subtract(v[2:], inner, out=inner)
    np.add(inner, v[:-2], out=inner)
    np.divide(inner, h2, out=inner)
    v0, v1, v2, v3 = v[:4].tolist()
    far = v[-4:].tolist()
    d2[-1] = (2.0 * far[3] - 5.0 * far[2] + 4.0 * far[1] - far[0]) / h2
    if grid.kind == CARTESIAN:
        d2[0] = (2.0 * v0 - 5.0 * v1 + 4.0 * v2 - v3) / h2
    else:
        d2[0] = (v1 - v0) / h2  # mirror ghost: v[-1] == v[0]
    return d2
