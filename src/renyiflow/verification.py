"""Pass/fail verdicts for the headline claims on solver time series.

Every check is a deterministic function of (series, tolerances) and each one
is falsifiable: the test suite feeds constructed counter-series (convex
entropy power, increasing Upsilon) to prove the verdicts are non-vacuous.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .analytic import _require_second_moment, barenblatt_spec, coefficients, gamma_const
from .errors import DegenerateError, DomainError, InsufficientData
from .functionals import _dim, _integrals, sobolev_pair, upsilon
from .grids import DensityField
from .initial_data import sample_barenblatt_from_spec

# Default tolerances: first-order scheme error dominates the identities that
# involve discrete Hessians, hence the looser dissipation bound.
TOL_CONCAVITY = 1e-6
TOL_DEBRUIJN = 1e-2
TOL_DISSIPATION = 5e-2
TOL_ISOPERIMETRIC = 1e-3
TOL_UPSILON = 1e-8
# The fewest snapshots each check reads, by its name: a second or central difference
# takes three, a rise two, a least value one.
LEAST_SNAPSHOTS = {"concavity": 3, "upsilon": 2, "debruijn": 3, "dissipation": 3,
                   "isoperimetric": 1, "convergence": 3}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float       # signed; negative means violation for inequality checks
    tolerance: float
    detail: str = ""


def _times_values(series, attr: str) -> tuple[np.ndarray, np.ndarray]:
    """Times and one functional of a series; DomainError unless both are finite
    and the times strictly increase, so no verdict is computed from NaN."""
    t = np.array([s.t for s in series], dtype=float)
    y = np.array([getattr(s, attr) for s in series], dtype=float)
    bad = np.flatnonzero(~(np.isfinite(t) & np.isfinite(y)))
    if bad.size:
        k = int(bad[0])
        raise DomainError(f"snapshot {k} has a non-finite value (t = {t[k]}, {attr} = {y[k]})")
    ordered = np.diff(t) > 0.0
    if not ordered.all():
        k = int(np.argmin(ordered)) + 1
        raise DomainError(f"snapshot times must strictly increase: t = {t[k]} "
                          f"follows t = {t[k - 1]} at snapshot {k}")
    return t, y


def _denominator(values, name: str):
    """|values| as a relative measure's denominator; DegenerateError where it vanishes.

    A float stays a float: the chain's scalars take no numpy call.
    """
    scale = abs(values)
    if np.any(scale < 1e-300) if isinstance(scale, np.ndarray) else scale < 1e-300:
        raise DegenerateError(f"{name} vanishes (below 1e-300); a relative measure is meaningless")
    return scale


def require_snapshots(count: int, what: str) -> None:
    """InsufficientData unless count reaches LEAST_SNAPSHOTS[what]."""
    if count < LEAST_SNAPSHOTS[what]:
        raise InsufficientData(f"{what} needs at least {LEAST_SNAPSHOTS[what]} snapshots")


def second_differences(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Three-point second-derivative estimates, safe for non-uniform times."""
    dt_fwd = t[2:] - t[1:-1]
    dt_bwd = t[1:-1] - t[:-2]
    slope_fwd = (y[2:] - y[1:-1]) / dt_fwd
    slope_bwd = (y[1:-1] - y[:-2]) / dt_bwd
    return 2.0 * (slope_fwd - slope_bwd) / (t[2:] - t[:-2])


def concavity_report(series, p: float, n: int, tol: float = TOL_CONCAVITY) -> CheckResult:
    """All second differences of N_p must stay below tol in curvature units.

    The curvature scale is max|dN/dt| / mean(dt), so tol is dimensionless.
    """
    require_snapshots(len(series), "concavity")
    t, y = _times_values(series, "n_p")
    d2 = second_differences(t, y)
    slopes = np.diff(y) / np.diff(t)
    scale = float(np.max(np.abs(slopes))) / float(np.mean(np.diff(t)))
    if not scale > 0.0:
        scale = 1.0
    worst = int(np.argmax(d2))
    violation = float(d2[worst]) / scale
    return CheckResult("concavity", violation <= tol, tol - violation, tol,
                       f"max normalized curvature {violation:.3e} at t={t[worst + 1]:.6g}")


def upsilon_monotone(series, tol: float = TOL_UPSILON) -> CheckResult:
    """Upsilon_p(t) must be nonincreasing up to tol (relative to its start)."""
    require_snapshots(len(series), "upsilon")
    t, y = _times_values(series, "upsilon")
    rises = np.diff(y)
    worst = int(np.argmax(rises))
    violation = float(rises[worst] / _denominator(y[0], "Upsilon_p at the first snapshot"))
    return CheckResult("upsilon_monotone", violation <= tol, tol - violation, tol,
                       f"max relative rise {violation:.3e} at t={t[worst + 1]:.6g}")


def _require_uniform(t: np.ndarray) -> float:
    dt = np.diff(t)
    if dt.size < 2 or np.max(np.abs(dt - dt[0])) > 1e-8 * dt[0]:
        raise InsufficientData("check needs uniformly spaced snapshots")
    return float(dt[0])


def _flow_identity(name: str, t: np.ndarray, y: np.ndarray, rate: np.ndarray, label: str,
                   tol: float) -> CheckResult:
    """Central-difference dy/dt against rate (named label) at the interior snapshots;
    passes while the max relative residual stays below tol."""
    dt = _require_uniform(t)
    dy = (y[2:] - y[:-2]) / (2.0 * dt)
    res = np.abs(dy - rate[1:-1]) / _denominator(rate[1:-1], label)
    worst = int(np.argmax(res))
    value = float(res[worst])
    return CheckResult(name, value < tol, tol - value, tol,
                       f"max relative residual {value:.3e} at t={t[worst + 1]:.6g}")


def debruijn_check(series, p: float, tol: float = TOL_DEBRUIJN) -> CheckResult:
    """Central-difference dH_p/dt against I_p; max relative residual.

    At p = 1 this is de Bruijn's identity for the Shannon entropy and Fisher
    information, which the snapshots carry as the family's p = 1 member.
    """
    require_snapshots(len(series), "debruijn")
    t, h = _times_values(series, "h_p")
    return _flow_identity("debruijn", t, h, _times_values(series, "i_p")[1], "I_p", tol)


def dissipation_check(series, p: float, n: int, tol: float = TOL_DISSIPATION) -> CheckResult:
    """-dF_p/dt against the closed-form dissipation integrand D_p."""
    require_snapshots(len(series), "dissipation")
    if any(s.d_p is None for s in series):
        raise InsufficientData("series lacks D_p; evolve with dissipation enabled")
    t, f = _times_values(series, "f_p")
    # (-f)[2:] - (-f)[:-2] is -(f[2:] - f[:-2]) exactly
    return _flow_identity("dissipation", t, -f, _times_values(series, "d_p")[1], "D_p", tol)


@dataclass(frozen=True)
class ChainReport:
    """Margins of the inequality chain that proves entropy-power concavity.

    All integrals come from one evaluation of the field.  Margins are normalized
    by the magnitude of their own right-hand side; nonnegative means the
    inequality holds.  Where sigma + p - 1 is 0 up to rounding, the concavity and
    sufficient margins are normalized by their left side instead, so they read
    its sign.  A scale that vanishes raises DegenerateError.
    """

    sigma: float
    concavity_margin: float       # sigma-condition: D E - F^2 >= (sigma/(p-1)) F^2 form
    cauchy_schwarz_margin: float  # F^2 <= (int u^p)(int u^p (Lap e_p')^2)
    trace_margin: float           # D_p >= 2(1/n + p - 1) int u^p (Lap e_p')^2
    sufficient_margin: float      # D_p >= (sigma + p - 1) int u^p (Lap e_p')^2

    def margins(self) -> dict[str, float]:
        return {
            "concavity_condition": self.concavity_margin,
            "cauchy_schwarz": self.cauchy_schwarz_margin,
            "trace_bound": self.trace_margin,
            "sufficient_condition": self.sufficient_margin,
        }

    def holds(self, slack: float = 1e-8) -> bool:
        return all(v >= -slack for v in self.margins().values())


def concavity_condition_chain(f: DensityField, p: float, n: int | None = None,
                              sigma: float | None = None) -> ChainReport:
    """Evaluate the proof's inequality chain on one density.

    sigma defaults to its optimal value nu = 2/n + (p - 1); any larger sigma
    breaks the chain already on the Barenblatt extremal.  At p = 1 it is the
    chain behind Costa's concavity, and a Gaussian meets every link with equality.
    """
    n = f.grid.dim if n is None else n
    nu = coefficients(p, n).nu
    sigma = nu if sigma is None else sigma
    if not sigma > 0.0:
        raise DomainError("sigma must be positive")
    _dim(f, n)
    s_p, _, f_val, d_val, lap_int = _integrals(f, p, dissipation=True)
    # eq-condition with (p-1) E_p = int u^p: D int u^p >= (sigma + p - 1) F^2
    coeff = sigma + p - 1.0
    lhs = d_val * s_p
    rhs = coeff * f_val ** 2
    suff_rhs = coeff * lap_int
    # where the coefficient is 0 up to its sum's rounding (sigma = nu at p = 1 - 1/n) both
    # right sides vanish, and these two margins are normalized by their left side's size
    vanishes = abs(coeff) <= 2.0 ** -52 * (abs(sigma) + abs(p) + 1.0)
    conc_scale, suff_scale = (lhs, d_val) if vanishes else (rhs, suff_rhs)
    concavity_margin = (lhs - rhs) / _denominator(conc_scale, "the concavity condition's scale")
    cs_scale = _denominator(s_p * lap_int, "int u^p times int u^p (Lap e_p')^2")
    cs = (s_p * lap_int - f_val ** 2) / cs_scale
    trace = (d_val - 2.0 * (1.0 / n + p - 1.0) * lap_int) / _denominator(d_val, "D_p")
    sufficient = (d_val - suff_rhs) / _denominator(suff_scale, "the sufficient condition's scale")
    return ChainReport(sigma, concavity_margin, cs, trace, sufficient)


def _isoperimetric_gamma(p: float, n: int) -> float:
    """gamma(n, p); DomainError where the bound is undefined (no finite second moment)."""
    _require_second_moment(p, n, "isoperimetric bound")
    return gamma_const(p, n)


def _isoperimetric_verdict(ups: float, gamma: float, rel_tol: float) -> CheckResult:
    """The margin ups - gamma, required >= -rel_tol * gamma."""
    margin = ups - gamma
    return CheckResult("isoperimetric", margin >= -rel_tol * gamma, margin,
                       rel_tol * gamma, f"Upsilon - gamma = {margin:.6e} (gamma {gamma:.6e})")


def isoperimetric_check(f: DensityField, p: float, n: int | None = None,
                        rel_tol: float = TOL_ISOPERIMETRIC) -> CheckResult:
    """Margin Upsilon_p(f) - gamma(n,p), required >= -rel_tol * gamma."""
    n = f.grid.dim if n is None else n
    gamma = _isoperimetric_gamma(p, n)
    return _isoperimetric_verdict(upsilon(f, p, n), gamma, rel_tol)


def _least_upsilon_check(series, p: float, n: int, tol: float) -> CheckResult:
    """isoperimetric_check of a series: its first snapshot of least Upsilon_p decides."""
    require_snapshots(len(series), "isoperimetric")
    gamma = _isoperimetric_gamma(p, n)
    least = int(np.argmin(_times_values(series, "upsilon")[1]))
    return _isoperimetric_verdict(series[least].upsilon, gamma, tol)


@dataclass(frozen=True)
class Check:
    """One entry of CHECKS, named as the verdict it gives: run(series, p, n, tol) ->
    CheckResult on a snapshot series, the default tol, and domain(p, n), which raises
    DomainError where the check is undefined."""

    run: Callable[..., CheckResult]
    tol: float
    domain: Callable[[float, int], object] | None = None


# The one table of verdicts behind `evolve --verify`, `verify --checks`, `sweep`
# and the --tol-* flags.  The entries that adapt a check's signature call it by its
# module-global name, so rebinding it (for instrumentation) reaches every caller.
CHECKS: dict[str, Check] = {
    "concavity": Check(concavity_report, TOL_CONCAVITY),
    "upsilon": Check(lambda s, p, n, tol: upsilon_monotone(s, tol), TOL_UPSILON),
    "debruijn": Check(lambda s, p, n, tol: debruijn_check(s, p, tol), TOL_DEBRUIJN),
    "dissipation": Check(dissipation_check, TOL_DISSIPATION),
    "isoperimetric": Check(_least_upsilon_check, TOL_ISOPERIMETRIC,
                           domain=_isoperimetric_gamma),
}


def validate_checks(names, p: float, n: int, snapshots: int | None = None) -> None:
    """Raise DomainError for a (p, n) the equation does not admit, a name not in CHECKS
    or one undefined at (p, n), and InsufficientData for one that needs more than
    `snapshots` snapshots (when given): what no solve could make verifiable."""
    coefficients(p, n)
    for name in names:
        if name not in CHECKS:
            raise DomainError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
        if CHECKS[name].domain is not None:
            CHECKS[name].domain(p, n)
        if snapshots is not None:
            require_snapshots(snapshots, name)


def run_checks(names, series, p: float, n: int, tols: dict[str, float]) -> dict[str, CheckResult]:
    """Run the named CHECKS in order; tols[name] overrides a check's default tolerance."""
    validate_checks(names, p, n)
    return {name: CHECKS[name].run(series, p, n, tols.get(name, CHECKS[name].tol))
            for name in names}


def rescaled_l1_distances(run, p: float, n: int) -> np.ndarray:
    """L1 distance of each field, read in the self-similar frame, to the Barenblatt profile."""
    spec, dilate = barenblatt_spec(p, n, "pde"), 1.0 / coefficients(p, n).mu
    if not run.snapshots[0].t > 0.0:  # the earliest: at t = 0 there is no such frame
        raise DomainError("rescaling time must be positive")
    out = []
    for k in range(len(run.snapshots)):
        u = run.fields.in_frame(k, dilate)
        ref = sample_barenblatt_from_spec(u.grid, spec, 1.0)
        out.append(float(u.grid.weights() @ np.abs(u.values - ref.values)))
    return np.array(out)


def barenblatt_convergence(run, p: float, n: int, target: float = 1e-2,
                           slack: float = 1e-6, upsilon_tol: float = 1e-2) -> CheckResult:
    """Long-horizon convergence to the self-similar profile.

    The rescaled L1 distance must be nonincreasing (within slack), end below
    target, and Upsilon must end within upsilon_tol * gamma of gamma.
    """
    require_snapshots(len(run.snapshots), "convergence")
    d = rescaled_l1_distances(run, p, n)
    rises = np.diff(d)
    monotone = bool(np.all(rises <= slack))
    gamma = gamma_const(p, n)
    ups_gap = abs(run.snapshots[-1].upsilon - gamma) / gamma
    ok = monotone and d[-1] < target and ups_gap < upsilon_tol
    return CheckResult(
        "barenblatt_convergence", ok, target - float(d[-1]), target,
        f"final L1 {d[-1]:.3e}, max rise {float(np.max(rises)):.3e}, "
        f"relative Upsilon gap {ups_gap:.3e}")


def sobolev_check(g_samples, n: int, rel_tol: float = 1e-3) -> CheckResult:
    """Sobolev deficits integral|grad g|^2 - S_n (integral g^{2*})^{2/2*} >= -tol."""
    if n <= 2:
        raise DomainError("Sobolev check requires n > 2")
    worst_margin = math.inf
    worst_detail = ""
    for k, g in enumerate(g_samples):
        dirichlet, rhs = sobolev_pair(g, n)
        scale = max(abs(dirichlet), abs(rhs))
        margin = (dirichlet - rhs) / scale
        if margin < worst_margin:
            worst_margin = margin
            worst_detail = f"sample {k}: deficit {dirichlet - rhs:.4e} of scale {scale:.4e}"
    if not math.isfinite(worst_margin):
        raise InsufficientData("no samples provided")
    return CheckResult("sobolev", worst_margin >= -rel_tol, worst_margin, rel_tol, worst_detail)
