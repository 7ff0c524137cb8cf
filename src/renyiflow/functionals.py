"""Discrete functionals of grid densities along the nonlinear heat flow.

Implements the Renyi entropy H_p, entropy power N_p = exp(nu H_p), the
p-Fisher information pair (F_p, I_p), the entropy integral E_p, the
dissipation functional D_p, the dilation-invariant product Upsilon_p, and
the mass-preserving dilation operators, as one family for every p > 0:
p = 1 is its Shannon member (H_1 = -integral u log u,
F_1 = integral |grad u|^2 / u), evaluated by the same code.

Each functional comes from one shifted pressure, P = expm1(x)/(p-1) with
x = (p-1) log(u/c) and c = max u, which tends to log(u/c) at p = 1 (see
`_pressure` and `_power_terms`).  F_p is evaluated in the pressure form
p^2 integral |grad c^{p-1} P|^2 u: for p > 1 the pressure stays smooth
across the free boundary, which is what keeps I_p of a Barenblatt finite on
the grid.  For p <= 1 it blows up where u vanishes, so the integrands are
summed over a trust mask there; a field with no vanishing node, and every
field at p > 1, is summed over all nodes, unmasked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import _require_second_moment, coefficients, gamma_const, sobolev_constant
from .errors import DomainError
from .grids import CARTESIAN, DensityField, gradient, second_derivative


def _dim(f: DensityField, n: int | None) -> int:
    if n is None:
        return f.grid.dim
    if n != f.grid.dim:
        raise DomainError(f"requested dimension {n} but the grid has dim {f.grid.dim}")
    return n


def mass(f: DensityField) -> float:
    return float(f.grid.weights() @ f.values)


def _quotient(num, den: float, limit):
    """num / den, and limit where den is 0: the family's two removable singularities,
    expm1(x)/(p-1) -> log(u/c) at p = 1 and log1p(r)/r -> 1 at r = 0."""
    return num / den if den != 0.0 else limit


def _pressure(values: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray | None, float]:
    """The shifted pressure P of u/c, the trust mask, and log c, for c = max u.

    P = ((u/c)^{p-1} - 1)/(p-1) = expm1(x)/(p-1), x = (p-1) log(u/c), and
    log(u/c) at p = 1; the pressure of u is c^{p-1} P plus a constant.  The
    level c, not 1, keeps P's differences to rounding at any scale of u.
    log 0 is never formed.  The mask is None where every node may be trusted:
    at p > 1, where a vanishing node takes log(u/c) = -inf and so
    P = -1/(p-1) exactly, and at p <= 1 when no node vanishes.  Where one
    does, P blows up there, so it is set to 0 and the mask is eroded by the
    stencil width, so difference quotients never touch a fabricated node.
    """
    if not p > 0.0:
        raise DomainError("p must be positive")
    c = values.max()
    positive = values > 0.0
    every = positive.all()
    scaled = values * (1.0 / c)
    log_uc = np.log(scaled) if every else np.log(
        scaled, out=np.full_like(values, -np.inf if p > 1.0 else 0.0), where=positive)
    x = (p - 1.0) * log_uc
    pressure = _quotient(np.expm1(x, out=x), p - 1.0, log_uc)
    if every or p > 1.0:
        return pressure, None, math.log(c)
    eroded = positive.copy()
    eroded[1:] &= positive[:-1]
    eroded[2:] &= positive[:-2]
    eroded[:-1] &= positive[1:]
    eroded[:-2] &= positive[2:]
    return pressure, eroded, math.log(c)


def _power_terms(f: DensityField, p: float, pressure: np.ndarray,
                 log_c: float) -> tuple[float, float]:
    """(integral u^p, H_p) from `_pressure`'s P and log c, with no gradient.

    With r = (p-1) integral u P / m, integral u^p = c^{p-1} m (1 + r) and
    H_p = -log c - log1p(r)/(p-1) = -log c - (log1p(r)/r) integral u P / m,
    which passes through p = 1.  The mass m is divided out rather than
    differenced with 1, so it is never divided by p - 1: the family is
    continuous at p = 1 for every m, and dH_p/dt = I_p holds along a
    mass-conserving flow whatever m is.
    """
    m = mass(f)
    u_p = float(f.grid.weights() @ (f.values * pressure))
    r = (p - 1.0) * u_p / m
    s = math.exp((p - 1.0) * log_c) * (m + (p - 1.0) * u_p)
    if not s > 0.0:
        raise DomainError("integral of u^p vanishes")
    return s, -log_c - _quotient(math.log1p(r), r, 1.0) * u_p / m


def _power_pair(f: DensityField, p: float) -> tuple:
    """f._memo[p] with at least (integral u^p, H_p) filled, the rest None until a
    gradient pass fills them."""
    got = f._memo.get(p)
    if got is None:
        pressure, _, log_c = _pressure(f.values, p)
        got = f._memo[p] = _power_terms(f, p, pressure, log_c) + (None, None, None)
    return got


def p_norm_integral(f: DensityField, p: float) -> float:
    """Integral of u^p for p > 0 (zero values contribute zero)."""
    return _power_pair(f, p)[0]


def renyi_entropy(f: DensityField, p: float) -> float:
    """H_p = log(integral u^p / m) / (1 - p) for p > 0, m the mass; -integral u log u / m at p = 1.

    At unit mass this is log(integral u^p) / (1 - p).  A mass m != 1 shifts H_p
    by -log m at every p (Renyi's entropy of an incomplete distribution), where
    log(integral u^p) / (1 - p) would shift it by p log(m) / (1 - p), which has
    no limit at p = 1.
    """
    return _power_pair(f, p)[1]


def entropy_power(f: DensityField, p: float, n: int | None = None) -> float:
    """N_p = exp(nu H_p)."""
    return math.exp(coefficients(p, _dim(f, n)).nu * renyi_entropy(f, p))


def fisher_p(f: DensityField, p: float) -> tuple[float, float]:
    """(F_p, I_p) with F_p = integral |grad u^p|^2 / u and I_p = F_p / integral u^p."""
    s, _, f_p = _integrals(f, p)[:3]
    return f_p, f_p / s


def e_p_integral(f: DensityField, p: float) -> float:
    """E_p = integral u^p / (p-1); H_p = log((p-1) E_p)/(1-p) at unit mass."""
    if p == 1.0:
        raise DomainError("E_p is undefined at p = 1")
    return p_norm_integral(f, p) / (p - 1.0)


def _dissipation_terms(f: DensityField, p: float, pressure: np.ndarray, ok: np.ndarray | None,
                       log_c: float) -> tuple[np.ndarray, np.ndarray]:
    """(u^p |D^2 g|^2, u^p (Lap g)^2) from `_pressure`'s triple, u^{p/2} folded in early.

    g = p c^{p-1} P differs by a constant from e_p'(u) = p u^{p-1}/(p-1), and at
    p = 1 from log u + 1, the derivative of u log u, so its derivatives are those.
    For a radial profile the Hessian eigenvalues are g'' and g'/r, so with
    a = g'' u^{p/2} and b = (g'/r) u^{p/2} the two integrands are
    a^2 + (n-1) b^2 and (a + (n-1) b)^2; the nodewise trace inequality
    |D^2 g|^2 >= (Lap g)^2 / n is preserved exactly by this grouping.
    """
    v = f.values
    g = p * math.exp((p - 1.0) * log_c) * pressure
    damp = v ** (p / 2.0)
    if ok is not None:
        damp = np.where(ok, damp, 0.0)
    a = second_derivative(g, f.grid) * damp
    if f.grid.kind == CARTESIAN or f.grid.dim == 1:
        aa = a * a
        return aa, aa
    b = gradient(g, f.grid) / f.grid.nodes() * damp
    mb = (f.grid.dim - 1) * b
    return a * a + mb * b, (a + mb) ** 2


def _integrals(f: DensityField, p: float,
               dissipation: bool = False) -> tuple[float, float, float, float | None, float | None]:
    """(integral u^p, H_p, F_p, D_p, integral u^p (Lap g)^2) of f for p > 0.

    One pressure pass per (field, p), kept in f._memo next to `_power_pair`'s
    first two entries: the last two come from the same pressure as F_p, and
    only once asked for (None until then).
    """
    got = f._memo.get(p)
    if got is not None and got[2] is not None and (got[3] is not None or not dissipation):
        return got
    v, w = f.values, f.grid.weights()
    pressure, ok, log_c = _pressure(v, p)
    s, h = _power_terms(f, p, pressure, log_c) if got is None else got[:2]
    # |grad P|^2 u written as (grad P * sqrt(u))^2 so huge P never squares alone
    damped = gradient(pressure, f.grid) * np.sqrt(v)
    scale = p * math.exp((p - 1.0) * log_c)
    f_p = scale * scale * float(w @ (damped ** 2) if ok is None else w[ok] @ (damped[ok] ** 2))
    d = lap = None
    if dissipation:
        hess_term, lap_term = _dissipation_terms(f, p, pressure, ok, log_c)
        d = 2.0 * float(w @ (hess_term + (p - 1.0) * lap_term))
        lap = float(w @ lap_term)
    got = f._memo[p] = (s, h, f_p, d, lap)
    return got


def d_p(f: DensityField, p: float, n: int | None = None) -> float:
    """Dissipation of F_p: 2 integral u^p (|D^2 e_p'|^2 + (p-1)(Lap e_p')^2)."""
    _dim(f, n)
    return _integrals(f, p, dissipation=True)[3]


def pressure_laplacian_integral(f: DensityField, p: float) -> float:
    """integral u^p (Lap e_p'(u))^2, the Cauchy-Schwarz side of the chain."""
    return _integrals(f, p, dissipation=True)[4]


def upsilon(f: DensityField, p: float, n: int | None = None) -> float:
    """The dilation invariant N_p(f) I_p(f)."""
    i_p = fisher_p(f, p)[1]  # first, so that one pressure pass also serves H_p
    return entropy_power(f, p, n) * i_p


def rescale(f: DensityField, a: float) -> DensityField:
    """Mass-preserving dilation (R_a f)(x) = a^{-n} f(x/a).

    Implemented as exact index remapping: the grid spacing is multiplied by a
    and the values by a^{-n}, so the dilation identities hold to rounding.
    """
    return DensityField(f.grid.scaled(a), f.values * a ** (-f.grid.dim))


def self_similar_rescale(f: DensityField, t: float, p: float, n: int | None = None) -> DensityField:
    """Send u(., t) to its self-similar frame, undoing the t^{1/mu} spreading."""
    if not t > 0.0:
        raise DomainError("rescaling time must be positive")
    n = _dim(f, n)
    mu = coefficients(p, n).mu
    return rescale(f, t ** (-1.0 / mu))


def gn_lhs_rhs(f: DensityField, p: float, n: int | None = None) -> tuple[float, float]:
    """Both sides of the Gagliardo-Nirenberg form of the isoperimetric bound.

    lhs = integral |grad f^p|^2 / f (pressure form), rhs = gamma(n,p) times
    (integral f^p)^{(2+2n(p-1))/(n(p-1))}.  At p = (n-1)/n the exponent is 0
    and the right side is the bare constant.
    """
    n = _dim(f, n)
    _require_second_moment(p, n, "Gagliardo-Nirenberg bound")
    lhs = fisher_p(f, p)[0]
    expo = (2.0 + 2.0 * n * (p - 1.0)) / (n * (p - 1.0))
    rhs = gamma_const(p, n) * p_norm_integral(f, p) ** expo
    return lhs, rhs


def sobolev_pair(g: DensityField, n: int | None = None) -> tuple[float, float]:
    """(integral |grad g|^2, S_n (integral g^{2*})^{2/2*}) with 2* = 2n/(n-2)."""
    n = _dim(g, n)
    if n <= 2:
        raise DomainError("Sobolev pair requires n > 2")
    two_star = 2.0 * n / (n - 2.0)
    grad = gradient(g.values, g.grid)
    dirichlet = float(g.grid.weights() @ (grad * grad))
    norm = float(g.grid.weights() @ g.values ** two_star)
    return dirichlet, sobolev_constant(n) * norm ** (2.0 / two_star)


@dataclass(frozen=True)
class FunctionalSnapshot:
    """All functionals of one density at one time.

    p = 1 is the Shannon member, where e_p is None: E_p = integral u^p / (p-1)
    is undefined there.
    """

    t: float
    mass: float
    e_p: float | None
    h_p: float
    n_p: float
    f_p: float
    i_p: float
    d_p: float | None
    upsilon: float


def snapshot(f: DensityField, p: float, n: int | None = None, t: float = 0.0,
             with_dissipation: bool = False) -> FunctionalSnapshot:
    """Evaluate every functional of f at once (shared integrals, one pass)."""
    n = _dim(f, n)
    s, h, f_val, d_val, _ = _integrals(f, p, with_dissipation)
    n_p = math.exp(coefficients(p, n).nu * h)
    i_val = f_val / s
    return FunctionalSnapshot(t, mass(f), None if p == 1.0 else s / (p - 1.0), h, n_p, f_val,
                              i_val, d_val if with_dissipation else None, n_p * i_val)
