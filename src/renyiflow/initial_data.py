"""Initial-data menu: sampled source solutions and seeded Gaussian mixtures."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .analytic import (
    PDE_NORMALIZED,
    BarenblattSpec,
    HeatKernelSpec,
    _quadratic_coefficient,
    _require_self_similar_time,
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
    return sample_barenblatt_from_spec(grid, barenblatt_spec(p, grid.dim, convention), t, normalize)


def sample_barenblatt_from_spec(grid: Grid, spec: BarenblattSpec, t: float = 1.0,
                                normalize: bool = False) -> DensityField:
    """The spec's profile at time t sampled on the grid.

    normalize=True fits the profile's constant C to unit grid mass instead of
    scaling the sample.  A scaled sample would scale e'(u) = p u^{p-1} / (p-1) by a
    power of the factor; the fitted one stays a Barenblatt profile, whose u^{p-1} is
    C less a multiple of |x|^2, so under the pde convention it is a steady state of
    the solver's self-similar frame.  C comes from Newton's method on the grid mass,
    which is monotone in C, from the spec's own C until a step moves it by at most
    4 ulps; the rounding left is divided out.
    """
    if spec.n != grid.dim:
        raise DomainError("spec dimension does not match the grid")
    _require_self_similar_time(t)  # before the fit raises t to a negative power
    if normalize:
        spec = replace(spec, c_const=_unit_mass_constant(grid, spec, t))
    return _maybe_normalize(grid, barenblatt_self_similar(np.abs(grid.nodes()), t, spec),
                            normalize)


def _unit_mass_constant(grid: Grid, spec: BarenblattSpec, t: float) -> float:
    """The constant C that gives the spec's profile at time t unit grid mass."""
    p, mu = spec.p, spec.coeffs.mu
    quad = _quadratic_coefficient(spec) * (np.abs(grid.nodes()) * t ** (-1.0 / mu)) ** 2
    height, w, c = t ** (-spec.n / mu), grid.weights(), spec.c_const
    for _ in range(50):
        base = np.maximum(c - quad, 0.0)  # 0 outside the support for p > 1
        u = base ** (1.0 / (p - 1.0))
        rate = np.divide(u, base, out=np.zeros_like(u), where=base > 0.0)  # base^{1/(p-1) - 1}
        slope = height * float(w @ rate) / (p - 1.0)  # d(mass) / dC: 0 with no node in the support
        step = (height * float(w @ u) - 1.0) / slope if slope else np.inf
        c -= step
        if not c > 0.0:  # a step past C = 0: the nodes hold too little of any profile
            raise DomainError("the grid's nodes miss the Barenblatt profile: no C gives it unit mass")
        if abs(step) <= 4.0 * np.finfo(float).eps * abs(c):
            return c
    raise DomainError("no Barenblatt constant gives this grid unit mass")


def _generator(seed: int) -> np.random.Generator:
    """numpy's generator for a seed, which must be nonnegative."""
    if seed < 0:
        raise DomainError(f"seed must be nonnegative; got {seed}")
    return np.random.default_rng(seed)


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
    rng = _generator(seed)
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
    vals = np.empty_like(x)
    bump = np.empty_like(x)
    mirrored = grid.kind != CARTESIAN
    out = vals  # the first bump is formed in vals itself, as 0 + bump is bump
    for w, m, s2 in zip(weights.tolist(), means.tolist(), variances.tolist()):
        # w exp((x - c)^2 / (-2 s2)) in one buffer: the sign sits in the divisor, which
        # IEEE division passes through exactly, and x - (-m) is x + m exactly
        for c in (m, -m) if mirrored else (m,):
            np.subtract(x, c, out=out)
            np.square(out, out=out)
            np.divide(out, -2.0 * s2, out=out)
            np.exp(out, out=out)
            np.multiply(out, w, out=out)
            if out is bump:
                np.add(vals, bump, out=vals)
            out = bump
    total = float(grid.weights() @ vals)
    if not total > 0.0:
        raise DomainError("mixture has no mass on this grid")
    return DensityField(grid, np.divide(vals, total, out=vals))


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
    rng = _generator(seed)
    weights = rng.uniform(0.3, 1.0, size=2)
    lo, hi = mean_range
    m1 = rng.uniform(lo, hi)
    widths = rng.uniform(width_range[0], width_range[1], size=2)
    mirrored = grid.kind != CARTESIAN
    # each Cartesian bump has mass proportional to weight * width
    means = (0.0, m1) if mirrored else (m1, -weights[0] * widths[0] * m1 / (weights[1] * widths[1]))
    x = grid.nodes()
    vals = np.zeros_like(x)
    for w, m, s in zip(weights, means, widths):
        for c in (m, -m) if mirrored else (m,):  # x - (-m) is x + m exactly
            vals += w * np.maximum(1.0 - ((x - c) / s) ** 2, 0.0) ** 3
    total = float(grid.weights() @ vals)
    if not total > 0.0:
        raise DomainError("bumps have no mass on this grid")
    return DensityField(grid, vals / total)
