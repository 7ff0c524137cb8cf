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
_NO_PROFILE = "p = 1 has no Barenblatt profile; use the heat kernel"


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


@functools.cache
def coefficients(p: float, n: int) -> Coefficients:
    """Exponents (mu, nu); requires a finite p > 0, and p > 1 - 2/n so both are positive.

    Memoized per (p, n).  Equal arguments of other numeric types share an
    entry, so the fields are always a Python float and int.
    """
    if int(n) != n or n < 1:
        raise DomainError(f"dimension must be a positive integer, got {n}")
    p, n = float(p), int(n)
    if not math.isfinite(p):
        raise DomainError(f"need a finite p; got p = {p}")
    if not p > 0.0:  # the equation's u^p; n = 1 admits p in (-1, 0] otherwise
        raise DomainError(f"need p > 0; got p = {p}")
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
        return math.pi ** (n / 2.0) * math.exp(lgamma(b - n / 2.0) - lgamma(b))
    raise DomainError(_NO_PROFILE)


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
    _require_self_similar_time(t)
    x = np.asarray(x, dtype=float)
    mu = spec.coeffs.mu
    s = t ** (-1.0 / mu)
    return t ** (-spec.n / mu) * barenblatt_profile(x * s, spec)


def _require_self_similar_time(t: float) -> None:
    """DomainError unless t > 0, a time on the self-similar orbit."""
    if not t > 0.0:
        raise DomainError("self-similar time must be positive")


def support_radius(spec: BarenblattSpec) -> float:
    """Edge of the support for p > 1; infinity for the fat-tailed p < 1 case."""
    if spec.p < 1.0:
        return math.inf
    return math.sqrt(spec.c_const / _quadratic_coefficient(spec))


def _has_second_moment(p: float, n: int) -> bool:
    """Whether a Barenblatt profile (p != 1) has a finite second moment (p > n/(n+2))."""
    return p != 1.0 and p > n / (n + 2.0)


def _require_second_moment(p: float, n: int, subject: str = "a finite second moment") -> None:
    """DomainError unless _has_second_moment(p, n); the range's message names subject."""
    if p == 1.0:
        raise DomainError(_NO_PROFILE)
    if not _has_second_moment(p, n):
        raise DomainError(f"{subject} needs p > n/(n+2) = {n / (n + 2.0)}; got p = {p}")


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


@functools.cache
def gamma_const(p: float, n: int) -> float:
    """Sharp isoperimetric constant gamma(n, p) = N_p I_p of the Barenblatt.

    Assembled as 2np/|p-1| * A_p^{2/n} * (((n+2)p-n)/(2p))^{mu/(n(p-1))},
    which is the closed form with the Beta-formula Gamma arguments.
    Memoized per (p, n), and a Python float for arguments of any numeric type.
    """
    coeffs = coefficients(p, n)
    p, n = coeffs.p, coeffs.n
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


def _incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete Beta function I_x(a, b) for a, b > 0.

    Lentz's method on the continued fraction of Numerical Recipes (6.4.5),
    which converges in a few terms for x < (a+1)/(a+b+2); above that point
    (x >= 1 included) the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) is used.
    """
    if x <= 0.0:
        return 0.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _incomplete_beta(b, a, 1.0 - x)
    tiny = 1e-300  # stands in for a zero denominator
    frac, c, d = 1.0, 1.0, 0.0
    for j in range(1, 1000):
        m = j // 2
        if j % 2:
            coeff = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        else:
            coeff = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        d = 1.0 + coeff * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + coeff / c
        c = c if abs(c) > tiny else tiny
        frac *= c * d
        if abs(c * d - 1.0) <= 2.0 ** -52:
            log_front = (lgamma(a + b) - lgamma(a) - lgamma(b)
                         + a * math.log(x) + b * math.log1p(-x))
            return math.exp(log_front) / (a * frac)
    raise DomainError(f"incomplete Beta I_{x}({a}, {b}) did not converge")


def barenblatt_tail_mass(spec: BarenblattSpec, radius: float) -> float:
    """Mass of the unit-mass profile (C - q |x|^2)^{1/(p-1)} in |x| > radius.

    A regularized incomplete Beta function (Vazquez 2007, ch. 2): for p < 1
    I_w(1/(1-p) - n/2, n/2) with w = C/(C - q r^2); for p > 1
    I_{1-z}(1/(p-1) + 1, n/2) with z = q r^2/C, 0 from the support edge on.
    """
    if not radius > 0.0:
        raise DomainError("tail radius must be positive")
    p, half_n = spec.p, spec.n / 2.0
    c, qr2 = spec.c_const, _quadratic_coefficient(spec) * radius * radius
    if p > 1.0:
        return _incomplete_beta(1.0 / (p - 1.0) + 1.0, half_n, (c - qr2) / c)
    return _incomplete_beta(1.0 / (1.0 - p) - half_n, half_n, c / (c - qr2))


def suggest_domain_radius(p: float, n: int, tail_mass: float = 1e-6,
                          convention: str = UNIT_COEFF) -> float:
    """Smallest float radius r >= 1 whose profile tail mass is at most tail_mass.

    For p > 1 this is just the support edge.  For p < 1, Newton's method on
    log T against log r, with the exact slope -|S^{n-1}| r^n profile(r) / T,
    lands within an ulp or so of the root of T(r) = tail_mass, where T is
    `barenblatt_tail_mass`; a nextafter walk then steps to the smallest
    float r with T(r) <= tail_mass.  Raises DomainError when T(2^29) is
    still above the target.
    """
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
