"""Discrete functionals of grid densities along the nonlinear heat flow.

Implements the Renyi entropy H_p, entropy power N_p = exp(nu H_p), the
p-Fisher information pair (F_p, I_p), the entropy integral E_p, the
dissipation functional D_p, the dilation-invariant product Upsilon_p, the
Shannon pair, and the mass-preserving dilation operators.

F_p is evaluated in the pressure form q^2 integral |grad u^{p-1}|^2 u with
q = p/(p-1): for p > 1 the pressure u^{p-1} stays smooth across the free
boundary, which is what keeps I_p of a Barenblatt finite on the grid.
For p < 1 the pressure blows up where u vanishes, so the integrands are
summed over a trust mask there (see `_pressure`); a field with no vanishing
node, and every field at p > 1, is summed over all nodes, unmasked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import coefficients, gamma_const, sobolev_constant
from .errors import DomainError
from .grids import CARTESIAN, DensityField, gradient, second_derivative

# Nodes below this fraction of the max value contribute nothing to the
# Shannon integrands (u log u and |grad u|^2/u); the p != 1 pressure-form
# integrands only need strict positivity, handled in _pressure.
EPS_SUPPORT = 1e-12


def support_mask(values: np.ndarray) -> np.ndarray:
    return values > EPS_SUPPORT * values.max()


def _dim(f: DensityField, n: int | None) -> int:
    if n is None:
        return f.grid.dim
    if n != f.grid.dim:
        raise DomainError(f"requested dimension {n} but the grid has dim {f.grid.dim}")
    return n


def mass(f: DensityField) -> float:
    return float(f.grid.weights() @ f.values)


def p_norm_integral(f: DensityField, p: float) -> float:
    """Integral of u^p (safe for all p > 0: zero values contribute zero).

    Kept in f._memo as the first entry of _integrals' tuple, the rest None
    until a pressure pass fills them.
    """
    if not p > 0.0:
        raise DomainError("p must be positive")
    got = f._memo.get(p)
    if got is None:
        got = f._memo[p] = (float(f.grid.weights() @ f.values ** p), None, None, None)
    return got[0]


def renyi_entropy(f: DensityField, p: float) -> float:
    """H_p = log(integral u^p) / (1 - p) for p > 0, p != 1."""
    if not p > 0.0:
        raise DomainError("Renyi order p must be positive")
    if p == 1.0:
        raise DomainError("p = 1 is the Shannon limit; use shannon_entropy")
    s = p_norm_integral(f, p)
    if not s > 0.0:
        raise DomainError("integral of u^p vanishes")
    return math.log(s) / (1.0 - p)


def shannon_entropy(f: DensityField) -> float:
    """-integral u log u, with sub-threshold nodes contributing zero."""
    v = f.values
    m = support_mask(v)
    return -float(f.grid.weights()[m] @ (v[m] * np.log(v[m])))


def shannon_fisher(f: DensityField) -> float:
    """integral |grad u|^2 / u over the supported nodes."""
    v = f.values
    g = gradient(v, f.grid)
    m = support_mask(v)
    return float(f.grid.weights()[m] @ (g[m] ** 2 / v[m]))


def entropy_power(f: DensityField, p: float, n: int | None = None) -> float:
    """N_p = exp(nu H_p); p = 1 is routed through the Shannon entropy."""
    n = _dim(f, n)
    nu = coefficients(p, n).nu
    h = shannon_entropy(f) if p == 1.0 else renyi_entropy(f, p)
    return math.exp(nu * h)


def _pressure(values: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray | None]:
    """u^{p-1} and the mask on which derived integrands may be trusted.

    The mask is None where every node may be trusted: for p > 1 the power is
    exact everywhere (0^{p-1} = 0), and for p < 1 when no node vanishes.  Where
    one does, u^{p-1} blows up there, so it is evaluated only where u > 0 and
    the mask is eroded by the stencil width, so difference quotients never
    touch a fabricated node.
    """
    if p > 1.0:
        return values ** (p - 1.0), None
    m = values > 0.0
    if m.all():
        return values ** (p - 1.0), None
    g = np.zeros_like(values)
    g[m] = values[m] ** (p - 1.0)
    eroded = m.copy()
    eroded[1:] &= m[:-1]
    eroded[2:] &= m[:-2]
    eroded[:-1] &= m[1:]
    eroded[:-2] &= m[2:]
    return g, eroded


def fisher_p(f: DensityField, p: float) -> tuple[float, float]:
    """(F_p, I_p) with F_p = q^2 integral |grad u^{p-1}|^2 u, I_p = F_p / integral u^p."""
    if p == 1.0:
        raise DomainError("p = 1 is the Shannon limit; use shannon_fisher")
    s, f_p = _integrals(f, p)[:2]
    return f_p, f_p / s


def e_p_integral(f: DensityField, p: float) -> float:
    """E_p = integral u^p / (p-1); H_p = log((p-1) E_p)/(1-p) by construction."""
    if p == 1.0:
        raise DomainError("E_p is undefined at p = 1")
    s = p_norm_integral(f, p)
    if not s > 0.0:
        raise DomainError("integral of u^p vanishes")
    return s / (p - 1.0)


def _dissipation_terms(f: DensityField, p: float, pressure: np.ndarray,
                       ok: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(u^p |D^2 e_p'(u)|^2, u^p (Lap e_p'(u))^2) from `_pressure`'s pair, u^{p/2} folded in early.

    For a radial profile the Hessian eigenvalues are g'' and g'/r, so with
    a = g'' u^{p/2} and b = (g'/r) u^{p/2} the two integrands are
    a^2 + (n-1) b^2 and (a + (n-1) b)^2; the nodewise trace inequality
    |D^2 g|^2 >= (Lap g)^2 / n is preserved exactly by this grouping.
    """
    v = f.values
    q = p / (p - 1.0)
    g = q * pressure
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
               dissipation: bool = False) -> tuple[float, float, float | None, float | None]:
    """(integral u^p, F_p, D_p, integral u^p (Lap e_p')^2) of f for p > 0, p != 1.

    One pressure pass per (field, p), kept in f._memo next to p_norm_integral's
    first entry: the last two come from the same pressure as F_p, and only
    once asked for (None until then).
    """
    s = p_norm_integral(f, p)
    got = f._memo[p]
    if got[1] is not None and (got[2] is not None or not dissipation):
        return got
    v, w = f.values, f.grid.weights()
    q = p / (p - 1.0)
    pressure, ok = _pressure(v, p)
    # |grad g|^2 u written as (grad g * sqrt(u))^2 so huge g never squares alone
    damped = gradient(pressure, f.grid) * np.sqrt(v)
    f_p = q * q * float(w @ (damped ** 2) if ok is None else w[ok] @ (damped[ok] ** 2))
    d = lap = None
    if dissipation:
        hess_term, lap_term = _dissipation_terms(f, p, pressure, ok)
        d = 2.0 * float(w @ (hess_term + (p - 1.0) * lap_term))
        lap = float(w @ lap_term)
    got = f._memo[p] = (s, f_p, d, lap)
    return got


def d_p(f: DensityField, p: float, n: int | None = None) -> float:
    """Dissipation of F_p: 2 integral u^p (|D^2 e_p'|^2 + (p-1)(Lap e_p')^2)."""
    if p == 1.0:
        raise DomainError("dissipation functional is defined for p != 1")
    _dim(f, n)
    return _integrals(f, p, dissipation=True)[2]


def pressure_laplacian_integral(f: DensityField, p: float) -> float:
    """integral u^p (Lap e_p'(u))^2, the Cauchy-Schwarz side of the chain."""
    return _integrals(f, p, dissipation=True)[3]


def upsilon(f: DensityField, p: float, n: int | None = None) -> float:
    """The dilation invariant N_p(f) I_p(f)."""
    n = _dim(f, n)
    if p == 1.0:
        return entropy_power(f, 1.0, n) * shannon_fisher(f)
    return entropy_power(f, p, n) * fisher_p(f, p)[1]


def rescale(f: DensityField, a: float) -> DensityField:
    """Mass-preserving dilation (R_a f)(x) = a^{-n} f(x/a).

    Implemented as exact index remapping: the grid spacing is multiplied by a
    and the values by a^{-n}, so the dilation identities hold to rounding.
    """
    if not a > 0.0:
        raise DomainError("dilation factor must be positive")
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
    if p == 1.0:
        raise DomainError("the exponent degenerates at p = 1")
    if not p > n / (n + 2.0):
        raise DomainError(f"requires p > n/(n+2) = {n / (n + 2.0)}")
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

    At p = 1 the Shannon quantities fill h_p/i_p/f_p and e_p/d_p are None.
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
    nu = coefficients(p, n).nu
    m = mass(f)
    if p == 1.0:
        h = shannon_entropy(f)
        n_p = math.exp(nu * h)
        i = shannon_fisher(f)
        return FunctionalSnapshot(t, m, None, h, n_p, i * m, i, None, n_p * i)
    s, f_val, d_val, _ = _integrals(f, p, with_dissipation)
    if not s > 0.0:
        raise DomainError("integral of u^p vanishes")
    h = math.log(s) / (1.0 - p)
    n_p = math.exp(nu * h)
    i_val = f_val / s
    return FunctionalSnapshot(t, m, s / (p - 1.0), h, n_p, f_val, i_val,
                              d_val if with_dissipation else None, n_p * i_val)
