"""Initial-data menu: sampled source solutions and seeded Gaussian mixtures."""
from __future__ import annotations

import numpy as np

from .analytic import (
    PDE_NORMALIZED,
    BarenblattSpec,
    HeatKernelSpec,
    barenblatt_self_similar,
    barenblatt_spec,
    gaussian_density,
)
from .errors import DomainError
from .grids import CARTESIAN, DensityField, Grid


def _maybe_normalize(grid: Grid, values: np.ndarray, normalize: bool) -> DensityField:
    if normalize:
        values = values / float(grid.weights() @ values)
    return DensityField(grid, values)


def sample_gaussian(grid: Grid, t: float, normalize: bool = False) -> DensityField:
    """Heat kernel at time t sampled on the grid.

    normalize=True rescales to exact unit grid mass (solver precondition);
    leave it off when comparing functionals against the analytic values.
    """
    spec = HeatKernelSpec(grid.dim, t)
    return _maybe_normalize(grid, gaussian_density(np.abs(grid.nodes()), spec), normalize)


def sample_barenblatt(grid: Grid, p: float, t: float = 1.0,
                      convention: str = PDE_NORMALIZED, normalize: bool = False) -> DensityField:
    """Barenblatt source solution at time t sampled on the grid.

    The default pde convention is the one whose time orbit solves
    u_t = Lap(u^p), so it is the right initial datum for the solver.
    """
    spec = barenblatt_spec(p, grid.dim, convention)
    vals = barenblatt_self_similar(np.abs(grid.nodes()), t, spec)
    return _maybe_normalize(grid, vals, normalize)


def sample_barenblatt_from_spec(grid: Grid, spec: BarenblattSpec, t: float = 1.0,
                                normalize: bool = False) -> DensityField:
    if spec.n != grid.dim:
        raise DomainError("spec dimension does not match the grid")
    vals = barenblatt_self_similar(np.abs(grid.nodes()), t, spec)
    return _maybe_normalize(grid, vals, normalize)


def sample_mixture(grid: Grid, seed: int, components: int | None = None,
                   mean_range: tuple[float, float] = (-2.0, 2.0),
                   var_range: tuple[float, float] = (0.5, 2.0)) -> DensityField:
    """Seeded Gaussian mixture, renormalized to unit mass on the grid.

    components defaults to a seeded draw from {2,...,5}.  Radial grids get an
    evenly symmetrized profile (bumps mirrored through the origin) so the
    density is smooth at r = 0; the mean range is then folded to [0, max).

    For fast-diffusion (p < 1) solver runs, pass a variance range with a
    floor around 1.5 so the truncated-domain tails stay near the envelope.
    """
    rng = np.random.default_rng(seed)
    k = int(components) if components is not None else int(rng.integers(2, 6))
    if k < 1:
        raise DomainError("mixture needs at least one component")
    weights = rng.uniform(0.2, 1.0, size=k)
    weights /= weights.sum()
    lo, hi = mean_range
    if grid.kind != CARTESIAN:
        lo, hi = 0.0, max(abs(lo), abs(hi))
    means = rng.uniform(lo, hi, size=k)
    variances = rng.uniform(var_range[0], var_range[1], size=k)
    x = grid.nodes()
    vals = np.zeros_like(x)
    bump = np.empty_like(x)
    mirrored = grid.kind != CARTESIAN
    for w, m, s2 in zip(weights.tolist(), means.tolist(), variances.tolist()):
        # w exp((x - c)^2 / (-2 s2)) in one buffer: the sign sits in the divisor, which
        # IEEE division passes through exactly, and x - (-m) is x + m exactly
        for c in (m, -m) if mirrored else (m,):
            np.subtract(x, c, out=bump)
            np.square(bump, out=bump)
            np.divide(bump, -2.0 * s2, out=bump)
            np.exp(bump, out=bump)
            np.multiply(bump, w, out=bump)
            np.add(vals, bump, out=vals)
    total = float(grid.weights() @ vals)
    if not total > 0.0:
        raise DomainError("mixture has no mass on this grid")
    return DensityField(grid, vals / total)


def blend_with_barenblatt(f: DensityField, p: float, t: float = 1.0,
                          weight: float = 1e-2) -> DensityField:
    """(1-weight) f + weight * Barenblatt(., t), renormalized to unit mass.

    Fast-diffusion (p < 1) runs on a truncated domain need initial tails at
    the level of the self-similar envelope: the whole-space flow lifts thin
    (e.g. Gaussian) tails to the fat envelope almost instantly, a transient
    that the closed wall distorts.  Blending in a small Barenblatt provides
    those tails while keeping the datum smooth, strictly positive and
    rapidly decaying.
    """
    if not 0.0 < weight < 1.0:
        raise DomainError("blend weight must lie in (0, 1)")
    base = sample_barenblatt(f.grid, p, t)
    vals = (1.0 - weight) * f.values + weight * base.values
    return DensityField(f.grid, vals / float(f.grid.weights() @ vals))


def compact_two_bump(grid: Grid, seed: int,
                     mean_range: tuple[float, float] = (0.4, 2.0),
                     width_range: tuple[float, float] = (0.8, 1.6)) -> DensityField:
    """Two compactly supported C^2 bumps (1 - s^2)_+^3, unit mass.

    Compact data is the natural companion of the p > 1 flow, whose solutions
    keep compact support.  On Cartesian grids the second bump is placed so
    the center of mass sits exactly at the origin: the source solution the
    flow approaches is origin-centered, and an off-center datum would leave
    a slowly decaying (t^{-1/mu}) translation mode in the rescaled distance.
    """
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.3, 1.0, size=2)
    lo, hi = mean_range
    m1 = rng.uniform(lo, hi)
    widths = rng.uniform(width_range[0], width_range[1], size=2)
    x = grid.nodes()
    vals = np.zeros_like(x)
    if grid.kind == CARTESIAN:
        # each bump has mass proportional to weight * width
        m2 = -weights[0] * widths[0] * m1 / (weights[1] * widths[1])
        for w, m, s in zip(weights, (m1, m2), widths):
            vals += w * np.maximum(1.0 - ((x - m) / s) ** 2, 0.0) ** 3
    else:
        means = (0.0, m1)
        for w, m, s in zip(weights, means, widths):
            vals += w * np.maximum(1.0 - ((x - m) / s) ** 2, 0.0) ** 3
            vals += w * np.maximum(1.0 - ((x + m) / s) ** 2, 0.0) ** 3
    total = float(grid.weights() @ vals)
    if not total > 0.0:
        raise DomainError("bumps have no mass on this grid")
    return DensityField(grid, vals / total)
