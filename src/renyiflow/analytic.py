"""Closed-form source solutions and sharp constants for nonlinear diffusion.

Everything here is exact arithmetic on (p, n): the Gaussian point-source
solution of the linear heat equation, the Barenblatt source solution of
u_t = Lap(u^p) in its two common normalizations, their moments, entropies
and Fisher informations, the isoperimetric constant gamma(n, p), and the
sharp Sobolev constant.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grids import sphere_surface

# Profile normalizations, both unit mass.  "unit" has quadratic coefficient
# one: (C_p - |x|^2)^{1/(p-1)}.  "pde" is (C - kappa |x|^2)^{1/(p-1)} with
# kappa fixed by the diffusion equation, so its self-similar orbit solves
# u_t = Lap(u^p).  They differ by a mass-preserving dilation.
UNIT_COEFF = "unit"
PDE_NORMALIZED = "pde"

_FAR_RADIUS = 2.0 ** 29  # suggest_domain_radius: tail targets needing more are unreachable


def lgamma(x: float) -> float:
    if x <= 0.0:
        raise DomainError(f"log-Gamma argument must be positive, got {x}")
    return math.lgamma(x)


@dataclass(frozen=True)
class Coefficients:
    """Scaling exponents of the p-nonlinear heat flow in dimension n."""

    p: float
    n: int
    mu: float  # 2 + n(p-1), the space-time scaling exponent
    nu: float  # mu/n = 2/n + (p-1), the entropy-power exponent


def coefficients(p: float, n: int) -> Coefficients:
    """Exponents (mu, nu); requires p > 1 - 2/n so both are positive."""
    if int(n) != n or n < 1:
        raise DomainError(f"dimension must be a positive integer, got {n}")
    n = int(n)
    mu = 2.0 + n * (p - 1.0)
    if not mu > 0.0:
        raise DomainError(f"need p > 1 - 2/n = {1.0 - 2.0 / n}; got p = {p}")
    return Coefficients(p, n, mu, mu / n)


@dataclass(frozen=True)
class HeatKernelSpec:
    """Point-source solution of the linear heat equation at time t > 0."""

    n: int
    t: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise DomainError("dimension must be a positive integer")
        if not self.t > 0.0:
            raise DomainError("heat kernel time must be positive")


def gaussian_density(x, spec: HeatKernelSpec):
    """(4 pi t)^{-n/2} exp(-|x|^2 / 4t); x is a coordinate or radius array."""
    x = np.asarray(x, dtype=float)
    return (4.0 * math.pi * spec.t) ** (-spec.n / 2.0) * np.exp(-x * x / (4.0 * spec.t))


def heat_kernel_entropy_power(spec: HeatKernelSpec) -> tuple[float, float]:
    """Shannon entropy and entropy power of the heat kernel: N = 4 pi e t."""
    h = 0.5 * spec.n * math.log(4.0 * math.pi * math.e * spec.t)
    return h, 4.0 * math.pi * math.e * spec.t


def barenblatt_a(p: float, n: int) -> float:
    """Normalization integral A_p of the reference profile.

    p > 1: integral of (1-|x|^2)_+^{1/(p-1)}, via the Beta function.
    p < 1: integral of (1+|x|^2)^{1/(p-1)}; needs p > 1 - 2/n to converge.
    """
    coeffs = coefficients(p, n)
    n = coeffs.n
    if p > 1.0:
        a = 1.0 / (p - 1.0)
        return math.pi ** (n / 2.0) * math.exp(lgamma(a + 1.0) - lgamma(n / 2.0 + a + 1.0))
    if p < 1.0:
        b = 1.0 / (1.0 - p)
        if not b - n / 2.0 > 0.0:
            raise DomainError(f"profile not integrable: 1/(1-p) - n/2 = {b - n / 2.0} <= 0")
        return math.pi ** (n / 2.0) * math.exp(lgamma(b - n / 2.0) - lgamma(b))
    raise DomainError("p = 1 has no Barenblatt profile; use the heat kernel")


def barenblatt_c(p: float, n: int) -> float:
    """Unit-mass constant C_p = A_p^{-2(p-1)/(n(p-1)+2)}."""
    coeffs = coefficients(p, n)
    return barenblatt_a(p, n) ** (-2.0 * (p - 1.0) / coeffs.mu)


@dataclass(frozen=True)
class BarenblattSpec:
    """A unit-mass Barenblatt profile in one of the two normalizations."""

    coeffs: Coefficients
    kappa: float     # (p-1)/(2 mu p); negative for p < 1
    a_const: float   # A_p
    c_const: float   # the constant C in the stored convention
    convention: str

    @property
    def p(self) -> float:
        return self.coeffs.p

    @property
    def n(self) -> int:
        return self.coeffs.n


def barenblatt_spec(p: float, n: int, convention: str = UNIT_COEFF) -> BarenblattSpec:
    if convention not in (UNIT_COEFF, PDE_NORMALIZED):
        raise DomainError(f"unknown Barenblatt convention {convention!r}")
    coeffs = coefficients(p, n)
    a_const = barenblatt_a(p, n)
    c_p = a_const ** (-2.0 * (p - 1.0) / coeffs.mu)
    kappa = (p - 1.0) / (2.0 * coeffs.mu * p)
    if convention == UNIT_COEFF:
        c = c_p
    else:
        # the pde form is the dilation R_a of the unit form, a = |kappa|^{-1/mu}
        c = abs(kappa) ** (n * (p - 1.0) / coeffs.mu) * c_p
    return BarenblattSpec(coeffs, kappa, a_const, c, convention)


def _bridge_dilation(spec: BarenblattSpec) -> float:
    """Dilation factor a sending the unit form to the stored one (1 for unit)."""
    if spec.convention == UNIT_COEFF:
        return 1.0
    return abs(spec.kappa) ** (-1.0 / spec.coeffs.mu)


def _quadratic_coefficient(spec: BarenblattSpec) -> float:
    # profile = (c_const - k |x|^2)^{1/(p-1)}, positive part when p > 1
    if spec.convention == PDE_NORMALIZED:
        return spec.kappa
    return 1.0 if spec.p > 1.0 else -1.0


def barenblatt_profile(x, spec: BarenblattSpec):
    """Profile value at |x| (array friendly); 0 outside the support for p > 1."""
    x = np.asarray(x, dtype=float)
    base = spec.c_const - _quadratic_coefficient(spec) * x * x
    if spec.p > 1.0:
        return np.maximum(base, 0.0) ** (1.0 / (spec.p - 1.0))
    return base ** (1.0 / (spec.p - 1.0))


def barenblatt_self_similar(x, t: float, spec: BarenblattSpec):
    """t^{-n/mu} profile(x t^{-1/mu}): the dilation orbit through the profile.

    Under the pde convention this is the source solution of u_t = Lap(u^p);
    under the unit convention it is the same dilation family (unit mass and
    linear entropy power in t) but not a solution of the equation.
    """
    if not t > 0.0:
        raise DomainError("self-similar time must be positive")
    x = np.asarray(x, dtype=float)
    mu = spec.coeffs.mu
    s = t ** (-1.0 / mu)
    return t ** (-spec.n / mu) * barenblatt_profile(x * s, spec)


def support_radius(spec: BarenblattSpec) -> float:
    """Edge of the support for p > 1; infinity for the fat-tailed p < 1 case."""
    if spec.p < 1.0:
        return math.inf
    return math.sqrt(spec.c_const / _quadratic_coefficient(spec))


def _require_second_moment(p: float, n: int) -> None:
    if not p > n / (n + 2.0):
        raise DomainError(f"second moment diverges for p <= n/(n+2) = {n / (n + 2.0)}; got p = {p}")


def barenblatt_second_moment(spec: BarenblattSpec) -> float:
    """Integral of |x|^2 against the profile; finite only for p > n/(n+2)."""
    p, n = spec.p, spec.n
    _require_second_moment(p, n)
    c_p = barenblatt_c(p, n)
    base = n * abs(p - 1.0) / ((n + 2.0) * p - n) * c_p
    return _bridge_dilation(spec) ** 2 * base


def barenblatt_p_integral(spec: BarenblattSpec) -> float:
    """Integral of profile^p = 2p C_p / ((n+2)p - n) under the unit convention."""
    p, n = spec.p, spec.n
    _require_second_moment(p, n)
    c_p = barenblatt_c(p, n)
    base = 2.0 * p / ((n + 2.0) * p - n) * c_p
    return _bridge_dilation(spec) ** (-n * (p - 1.0)) * base


def barenblatt_entropy(spec: BarenblattSpec) -> float:
    """Renyi entropy H_p of the profile."""
    p, n = spec.p, spec.n
    _require_second_moment(p, n)
    c_p = barenblatt_c(p, n)
    h = math.log(2.0 * p * c_p / ((n + 2.0) * p - n)) / (1.0 - p)
    return h + n * math.log(_bridge_dilation(spec))


def barenblatt_fisher(spec: BarenblattSpec) -> float:
    """p-Fisher information of the profile: 2np/|p-1| under the unit convention."""
    p, n = spec.p, spec.n
    _require_second_moment(p, n)
    return 2.0 * n * p / abs(p - 1.0) * _bridge_dilation(spec) ** (-spec.coeffs.mu)


def barenblatt_entropy_power(spec: BarenblattSpec) -> float:
    """Entropy power exp(nu H_p) of the profile (slope of N_p along the flow)."""
    return math.exp(spec.coeffs.nu * barenblatt_entropy(spec))


def gamma_const(p: float, n: int) -> float:
    """Sharp isoperimetric constant gamma(n, p) = N_p I_p of the Barenblatt.

    Assembled as 2np/|p-1| * A_p^{2/n} * (((n+2)p-n)/(2p))^{mu/(n(p-1))},
    which is the closed form with the Beta-formula Gamma arguments.
    """
    coeffs = coefficients(p, n)
    _require_second_moment(p, n)
    a_pow = barenblatt_a(p, n) ** (2.0 / n)
    ratio = ((n + 2.0) * p - n) / (2.0 * p)
    return 2.0 * n * p / abs(p - 1.0) * a_pow * ratio ** (coeffs.mu / (n * (p - 1.0)))


def sobolev_constant(n: int) -> float:
    """Sharp Sobolev constant S_n = n(n-2) pi (Gamma(n/2)/Gamma(n))^{2/n}."""
    if int(n) != n or n <= 2:
        raise DomainError(f"Sobolev constant requires integer n > 2, got {n}")
    n = int(n)
    return n * (n - 2.0) * math.pi * math.exp((lgamma(n / 2.0) - lgamma(float(n))) * 2.0 / n)


def barenblatt_tail_mass(spec: BarenblattSpec, radius: float) -> float:
    """Mass of the profile outside |x| > radius (0 beyond the support for p > 1).

    Evaluated by midpoint quadrature in the substituted variable s = 1/r, which
    makes the integrand a bounded smooth function near s = 0.
    """
    p, n = spec.p, spec.n
    if p > 1.0:
        edge = support_radius(spec)
        if radius >= edge:
            return 0.0
        r = np.linspace(radius, edge, 4001)
        r = 0.5 * (r[1:] + r[:-1])
        dr = (edge - radius) / 4000.0
        vals = barenblatt_profile(r, spec) * r ** (n - 1)
        return float(sphere_surface(n) * vals.sum() * dr)
    if not radius > 0.0:
        raise DomainError("tail radius must be positive")
    # s = 1/r: integral over (0, 1/radius] of s^{-n-1} profile(1/s)
    m = 200_000
    ds = (1.0 / radius) / m
    s = (np.arange(m) + 0.5) * ds
    vals = s ** (-n - 1) * barenblatt_profile(1.0 / s, spec)
    return float(sphere_surface(n) * vals.sum() * ds)


@functools.lru_cache(maxsize=256)
def _domain_radius(p: float, n: int, tail_mass: float, convention: str) -> float:
    spec = barenblatt_spec(p, n, convention)
    if p > 1.0:
        return support_radius(spec)
    if not 0.0 < tail_mass < 1.0:
        raise DomainError("tail mass target must lie in (0, 1)")
    surface, r = sphere_surface(n), 2.0
    tail = barenblatt_tail_mass(spec, r)
    for _ in range(40):
        # slope = -d log T / d log r; a step moves r by at most a factor e^3
        slope = surface * r ** n * float(barenblatt_profile(r, spec)) / tail if tail > 0.0 else 0.0
        step = math.log(tail / tail_mass) / slope if slope > 0.0 else math.copysign(3.0, tail - tail_mass)
        nxt = min(max(r * math.exp(min(max(step, -3.0), 3.0)), 1.0), _FAR_RADIUS)
        if nxt == r:
            break
        r, tail = nxt, barenblatt_tail_mass(spec, nxt)
        if abs(step) < 2.0 ** -49:
            break
    while tail > tail_mass:
        if r >= _FAR_RADIUS:
            raise DomainError("tail target unreachable; p too close to n/(n+2)?")
        r = math.nextafter(r, math.inf)
        tail = barenblatt_tail_mass(spec, r)
    while r > 1.0 and barenblatt_tail_mass(spec, math.nextafter(r, 0.0)) <= tail_mass:
        r = math.nextafter(r, 0.0)
    return r


def suggest_domain_radius(p: float, n: int, tail_mass: float = 1e-6,
                          convention: str = UNIT_COEFF) -> float:
    """Smallest float radius r >= 1 whose profile tail mass is at most tail_mass.

    For p > 1 this is just the support edge.  For p < 1, Newton's method on
    log T against log r, with the exact slope -|S^{n-1}| r^n profile(r) / T,
    lands within a few ulps of the root of T(r) = tail_mass, where T is
    `barenblatt_tail_mass`; a nextafter walk then finds the smallest float r
    with T(r) <= tail_mass (the first such r below the Newton landing point
    where rounding makes T wobble within ulps of the target).

    Results are memoized on all four arguments (``cache_clear`` empties the cache).
    """
    return _domain_radius(p, n, tail_mass, convention)


suggest_domain_radius.cache_clear = _domain_radius.cache_clear
