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
import weakref
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
    got = f._memo.get("mass")
    if got is None:
        got = f._memo["mass"] = float(f.grid.weights() @ f.values)
    return got


# The p-independent passes over the last read-only values array evaluated, in one
# slot: a weak reference to the array and its `_passes`, a pair that the next array's
# replaces whole.  The arrays go with the values they came from (`_drop_passes`), so
# nothing holds them between fields: held on, they raised a 2048-node evolve run's
# peak resident memory by 0.6 MB.
_NO_PASSES = (lambda: None, None)
_last_passes = [_NO_PASSES]


def _drop_passes(ref: weakref.ref) -> None:
    if _last_passes[0][0] is ref:
        _last_passes[0] = _NO_PASSES


def _passes(values: np.ndarray) -> tuple[float, np.ndarray | None, np.ndarray, np.ndarray]:
    """(c, positive, log(u/c), sqrt(u)) for c = max u: what every p's pressure shares.

    positive is the mask of nodes u > 0, None where every node is; log(u/c) is 0 at
    the others, so log 0 is never formed.  A field's values are read-only, so their
    passes cannot go stale: they are formed once for every p and kept, read-only,
    until the passes of another array replace them or the values are freed.  A
    writable array's are formed afresh on every call.
    """
    ref, got = _last_passes[0]
    if ref() is values:
        return got
    c = values.max()
    positive = values > 0.0
    if positive.all():
        positive = None
    scaled = np.multiply(values, 1.0 / c)
    log_uc = np.log(scaled, out=scaled) if positive is None else np.log(
        scaled, out=np.zeros_like(values), where=positive)
    got = (c, positive, log_uc, np.sqrt(values))
    if not values.flags.writeable:
        for a in got[1:]:
            if a is not None:
                a.flags.writeable = False
        _last_passes[0] = (weakref.ref(values, _drop_passes), got)
    return got


def _pressure(values: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray | None, float]:
    """The shifted pressure P of u/c, the trust mask, and log c, for c = max u.

    P = ((u/c)^{p-1} - 1)/(p-1) = expm1(x)/(p-1), x = (p-1) log(u/c), and
    log(u/c) at p = 1, where P is `_passes`' shared, read-only array; the pressure
    of u is c^{p-1} P plus a constant.  The level c, not 1, keeps P's differences to
    rounding at any scale of u.  log 0 is never formed.  The mask is None where
    every node may be trusted: at p > 1, where a vanishing node takes
    log(u/c) = -inf and so P = -1/(p-1) exactly, and at p <= 1 when no node
    vanishes.  Where one does, P is 0 there, and the mask is eroded by the stencil
    width, so difference quotients never touch a fabricated node.
    """
    if not p > 0.0:
        raise DomainError("p must be positive")
    c, positive, log_uc, _ = _passes(values)
    if p == 1.0:
        pressure = log_uc
    else:
        if positive is None or p < 1.0:
            x = np.multiply(log_uc, p - 1.0)
        else:  # (p-1) log 0 = -inf where u vanishes
            x = np.multiply(log_uc, p - 1.0, out=np.full_like(values, -np.inf), where=positive)
        pressure = np.divide(np.expm1(x, out=x), p - 1.0, out=x)
    if positive is None or p > 1.0:
        return pressure, None, math.log(c)
    eroded = positive.copy()
    eroded[1:] &= positive[:-1]
    eroded[2:] &= positive[:-2]
    eroded[:-1] &= positive[1:]
    eroded[:-2] &= positive[2:]
    return pressure, eroded, math.log(c)


def _power_terms(f: DensityField, p: float, pressure: np.ndarray, log_c: float,
                 out: np.ndarray) -> tuple[float, float]:
    """(integral u^p, H_p) from `_pressure`'s P and log c, with no gradient; u P is
    formed in out.

    With r = (p-1) integral u P / m, integral u^p = c^{p-1} m (1 + r) and
    H_p = -log c - log1p(r)/(p-1) = -log c - (log1p(r)/r) integral u P / m,
    which passes through p = 1.  The mass m is divided out rather than
    differenced with 1, so it is never divided by p - 1: the family is
    continuous at p = 1 for every m, and dH_p/dt = I_p holds along a
    mass-conserving flow whatever m is.
    """
    m = mass(f)
    u_p = float(f.grid.weights() @ np.multiply(f.values, pressure, out=out))
    r = (p - 1.0) * u_p / m
    s = math.exp((p - 1.0) * log_c) * (m + (p - 1.0) * u_p)
    if not s > 0.0:
        raise DomainError("integral of u^p vanishes")
    ratio = math.log1p(r) / r if r != 0.0 else 1.0  # its limit at r = 0, as at p = 1
    return s, -log_c - ratio * u_p / m


def p_norm_integral(f: DensityField, p: float) -> float:
    """Integral of u^p for p > 0 (zero values contribute zero)."""
    return _integrals(f, p)[0]


def renyi_entropy(f: DensityField, p: float) -> float:
    """H_p = log(integral u^p / m) / (1 - p) for p > 0, m the mass; -integral u log u / m at p = 1.

    At unit mass this is log(integral u^p) / (1 - p).  A mass m != 1 shifts H_p
    by -log m at every p (Renyi's entropy of an incomplete distribution), where
    log(integral u^p) / (1 - p) would shift it by p log(m) / (1 - p), which has
    no limit at p = 1.
    """
    return _integrals(f, p)[1]


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
    |D^2 g|^2 >= (Lap g)^2 / n is preserved exactly by this grouping.  Past g, u^{p/2}
    and the two derivatives, every pass writes into one of those arrays, with the
    operands and operation order of the plain expressions, so the bits are theirs.
    """
    v = f.values
    g = np.multiply(pressure, p * math.exp((p - 1.0) * log_c))
    damp = v ** (p / 2.0)
    if ok is not None:
        np.copyto(damp, 0.0, where=~ok)
    a = second_derivative(g, f.grid)
    np.multiply(a, damp, out=a)
    if f.grid.kind == CARTESIAN or f.grid.dim == 1:
        aa = np.multiply(a, a, out=a)
        return aa, aa
    b = gradient(g, f.grid)
    np.divide(b, f.grid.nodes(), out=b)
    np.multiply(b, damp, out=b)
    mb = np.multiply(b, f.grid.dim - 1, out=damp)
    hess = np.multiply(mb, b, out=b)  # (n-1) b b, then a a added below
    lap = np.add(a, mb, out=mb)
    np.add(np.multiply(a, a, out=a), hess, out=hess)
    return hess, np.square(lap, out=lap)


def _integrals(f: DensityField, p: float,
               dissipation: bool = False) -> tuple[float, float, float, float | None, float | None]:
    """(integral u^p, H_p, F_p, D_p, integral u^p (Lap g)^2) of f for p > 0.

    One pressure pass per (field, p), whichever functional asks first, kept in
    f._memo: the last two come from the same pressure as F_p, and only once asked
    for (None until then; asking then passes over the pressure again).  The
    p-independent passes (max u, the positivity mask, log(u/c), sqrt(u), the mass)
    are formed once per field for every p (`_passes`, `mass`), and each later pass
    writes into an array the evaluation already holds.
    """
    got = f._memo.get(p)
    if got is not None and (got[3] is not None or not dissipation):
        return got
    v, w = f.values, f.grid.weights()
    pressure, ok, log_c = _pressure(v, p)
    # |grad P|^2 u written as (grad P * sqrt(u))^2 so huge P never squares alone
    damped = gradient(pressure, f.grid)
    np.multiply(damped, _passes(v)[3], out=damped)
    if ok is None:
        sum_sq = float(w @ np.square(damped, out=damped))
    else:
        trusted = damped[ok]
        sum_sq = float(w[ok] @ np.square(trusted, out=trusted))
    scale = p * math.exp((p - 1.0) * log_c)
    f_p = scale * scale * sum_sq
    s, h = _power_terms(f, p, pressure, log_c, out=damped) if got is None else got[:2]
    d = lap = None
    if dissipation:
        hess_term, lap_term = _dissipation_terms(f, p, pressure, ok, log_c)
        lap = float(w @ lap_term)
        # hess_term is lap_term in one dimension, so (p-1) lap_term goes to a third array
        weighted = np.multiply(lap_term, p - 1.0, out=damped)
        d = 2.0 * float(w @ np.add(hess_term, weighted, out=weighted))
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
    return entropy_power(f, p, n) * fisher_p(f, p)[1]


def rescale(f: DensityField, a: float) -> DensityField:
    """Mass-preserving dilation (R_a f)(x) = a^{-n} f(x/a).

    Implemented as exact index remapping: the grid spacing is multiplied by a
    and the values by a^{-n}, so the dilation identities hold to rounding.
    """
    return DensityField(f.grid.scaled(a), f.values * a ** (-f.grid.dim))


def rescale_snapshot(s: FunctionalSnapshot, a: float, p: float, n: int) -> FunctionalSnapshot:
    """`snapshot(rescale(f, a))` from s = `snapshot(f)`, each column by its dilation law
    (the mass and Upsilon_p are invariant); at a = 1 every value is unchanged."""
    mu, spread = coefficients(p, n).mu, n * (p - 1.0)
    return FunctionalSnapshot(
        s.t, s.mass, None if s.e_p is None else s.e_p * a ** -spread, s.h_p + n * math.log(a),
        s.n_p * a ** mu, s.f_p * a ** (2.0 - 2.0 * mu), s.i_p * a ** -mu,
        None if s.d_p is None else s.d_p * a ** (-4.0 - 3.0 * spread), s.upsilon)


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
