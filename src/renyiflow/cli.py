"""Batch front-end: constants tables, profile dumps, evolution runs, sweeps.

Configuration comes from an INI-style file (key = value under sections, all
sections are merged) plus command-line flags; flags win.  Exit codes are the
machine contract: 0 success, 1 configuration or domain error, 2 stability
failure, 3 failed verdict.
"""
from __future__ import annotations

import argparse
import configparser
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import analytic
from .errors import DomainError, InsufficientData, StabilityError
from .grids import Grid
from .initial_data import blend_with_barenblatt, sample_barenblatt, sample_gaussian, sample_mixture
from .reporting import (
    config_hash,
    read_profile,
    read_snapshots,
    summary_table,
    write_profile,
    write_run_meta,
    write_snapshots,
    write_verdicts,
)
from .solver import DiffusionParams, evolve, fast_diffusion_guard
from .verification import CHECKS, run_checks, validate_checks

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STABILITY = 2
EXIT_VERDICT = 3

CONSTANTS_HEADER = "p,n,mu,nu,A_p,C_p,Hp_B,Ip_B,gamma,Sn,error"

# the checks that need only a snapshot series, so `verify` can run them
SERIES_CHECKS = tuple(name for name, check in CHECKS.items() if not check.needs_fields)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="renyiflow",
                                  description="entropy-power experiments for u_t = Lap(u^p)")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--config", type=str, default=None, help="INI config file; flags win")
        sp.add_argument("--out", type=str, default=None, help="output directory")

    c = sub.add_parser("constants", help="closed-form constants table")
    common(c)
    c.add_argument("--pair", action="append", default=None, metavar="P,N",
                   help="a (p, n) pair; repeatable")

    b = sub.add_parser("barenblatt", help="dump a Barenblatt profile and its values")
    common(b)
    b.add_argument("--p", type=float, default=None)
    b.add_argument("--dim", type=int, default=None)
    b.add_argument("--nodes", type=int, default=None)
    b.add_argument("--radius", type=float, default=None)
    b.add_argument("--t", type=float, default=None)
    b.add_argument("--convention", choices=["unit", "pde"], default=None)

    e = sub.add_parser("evolve", help="run the solver and verify requested claims")
    common(e)
    e.add_argument("--p", type=float, default=None)
    e.add_argument("--dim", type=int, default=None)
    e.add_argument("--geometry", choices=["cartesian1d", "radial"], default=None)
    e.add_argument("--nodes", type=int, default=None)
    e.add_argument("--radius", type=float, default=None)
    e.add_argument("--t-start", dest="t_start", type=float, default=None)
    e.add_argument("--t-end", dest="t_end", type=float, default=None)
    e.add_argument("--snapshots", type=int, default=None)
    e.add_argument("--initial", type=str, default=None,
                   help="barenblatt | gaussian | mixture | file:PATH")
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--cfl", type=float, default=None)
    e.add_argument("--verify", type=str, default=None, help="comma list: " + ",".join(CHECKS))
    for name in CHECKS:
        e.add_argument(f"--tol-{name}", dest=f"tol_{name}", type=float, default=None)

    v = sub.add_parser("verify", help="run checks on an existing snapshot CSV")
    common(v)
    v.add_argument("--snapshots-csv", dest="snapshots_csv", type=str, default=None)
    v.add_argument("--p", type=float, default=None)
    v.add_argument("--dim", type=int, default=None)
    v.add_argument("--checks", type=str, default=None,
                   help="comma list: " + ",".join(SERIES_CHECKS))
    for name in SERIES_CHECKS:
        v.add_argument(f"--tol-{name}", dest=f"tol_{name}", type=float, default=None)

    s = sub.add_parser("sweep", help="verdict table over (p, dim, seed) triples")
    common(s)
    s.add_argument("--p", type=str, default=None, help="comma list of p values")
    s.add_argument("--dim", type=str, default=None, help="comma list of dimensions")
    s.add_argument("--seeds", type=int, default=None, help="seeds 0..count-1")
    s.add_argument("--nodes", type=int, default=None)
    s.add_argument("--t-start", dest="t_start", type=float, default=None)
    s.add_argument("--t-end", dest="t_end", type=float, default=None)
    s.add_argument("--snapshots", type=int, default=None)
    s.add_argument("--cfl", type=float, default=None)
    s.add_argument("--workers", type=int, default=None)
    return top


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise DomainError(f"config file {path} not found")
    merged: dict[str, str] = {}
    for section in parser.sections():
        merged.update(dict(parser[section]))
    merged.update(dict(parser.defaults()))
    return merged


def _effective(args: argparse.Namespace, config: dict, key: str, default, cast=None):
    """Flag value if given, else config value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    raw = config.get(key.replace("_", "-"), config.get(key))
    if raw is None:
        return default
    if cast is not None:
        return cast(raw)
    if default is not None and not isinstance(default, str):
        return type(default)(raw)
    return raw


def _outdir(base: str | None, config: dict, fallback: str = "out") -> Path:
    root = Path(base) if base else Path(fallback)
    d = root / f"exp-{config_hash(config)}"
    d.mkdir(parents=True, exist_ok=True)
    return d


# ---------------------------------------------------------------- constants

def _constants_row(p: float, n: int) -> str:
    cells: list[str] = [repr(p), str(n)]
    try:
        coeffs = analytic.coefficients(p, n)
        cells += [repr(coeffs.mu), repr(coeffs.nu)]
        spec = analytic.barenblatt_spec(p, n)
        cells += [repr(spec.a_const), repr(spec.c_const)]
        cells += [repr(analytic.barenblatt_entropy(spec)), repr(analytic.barenblatt_fisher(spec))]
        cells += [repr(analytic.gamma_const(p, n))]
        cells += [repr(analytic.sobolev_constant(n)) if n > 2 else ""]
        cells += [""]
    except DomainError as err:
        cells += [""] * (11 - len(cells) - 1)
        cells += [str(err).replace(",", ";")]
    return ",".join(cells)


def run_constants(args, config) -> int:
    pairs_raw = _effective(args, config, "pair", None)
    if pairs_raw is None:
        print("constants: need at least one --pair P,N", file=sys.stderr)
        return EXIT_CONFIG
    if isinstance(pairs_raw, str):
        pairs_raw = [tok for tok in pairs_raw.split(";") if tok.strip()]
    rows = [CONSTANTS_HEADER]
    for tok in pairs_raw:
        try:
            p_str, n_str = tok.split(",")
            rows.append(_constants_row(float(p_str), int(n_str)))
        except (ValueError, TypeError):
            print(f"constants: malformed pair {tok!r}", file=sys.stderr)
            return EXIT_CONFIG
    text = "\n".join(rows)
    print(text)
    out = getattr(args, "out", None) or config.get("out")
    if out:
        d = _outdir(out, {"subcommand": "constants", "pairs": list(pairs_raw)})
        (d / "constants.csv").write_text(text + "\n")
        print(f"wrote {d / 'constants.csv'}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- barenblatt

def run_barenblatt(args, config) -> int:
    p = _effective(args, config, "p", None, float)
    dim = _effective(args, config, "dim", 1, int)
    if p is None:
        print("barenblatt: --p is required", file=sys.stderr)
        return EXIT_CONFIG
    nodes = _effective(args, config, "nodes", 2048, int)
    t = _effective(args, config, "t", 1.0, float)
    convention = _effective(args, config, "convention", "pde")
    spec = analytic.barenblatt_spec(p, dim, convention)
    radius = _effective(args, config, "radius", None, float)
    if radius is None:
        if p > 1.0:
            radius = analytic.support_radius(spec) * t ** (1.0 / spec.coeffs.mu) * 1.05
        else:
            radius = analytic.suggest_domain_radius(p, dim, 1e-8, convention) \
                * t ** (1.0 / spec.coeffs.mu)
    grid = Grid.cartesian(nodes, radius) if dim == 1 else Grid.radial(dim, nodes, radius)
    from .initial_data import sample_barenblatt_from_spec

    fld = sample_barenblatt_from_spec(grid, spec, t)
    print(f"p={p} n={dim} convention={convention} t={t}")
    print(f"A_p={spec.a_const!r} C={spec.c_const!r} kappa={spec.kappa!r}")
    print(f"Hp={analytic.barenblatt_entropy(spec)!r} Ip={analytic.barenblatt_fisher(spec)!r}")
    print(f"Np={analytic.barenblatt_entropy_power(spec)!r} "
          f"gamma={analytic.gamma_const(p, dim)!r}")
    out = getattr(args, "out", None) or config.get("out")
    if out:
        d = _outdir(out, {"subcommand": "barenblatt", "p": p, "dim": dim, "t": t,
                          "nodes": nodes, "radius": radius, "convention": convention})
        write_profile(d / "profile.csv", fld)
        print(f"wrote {d / 'profile.csv'}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- evolve

def _default_radius(p: float, dim: int, t_end: float, initial: str) -> float:
    if initial.startswith("gaussian") or p == 1.0:
        return 8.0 * math.sqrt(2.0 * t_end) + 4.0
    mu = analytic.coefficients(p, dim).mu
    spread = max(t_end, 1.0) ** (1.0 / mu)
    if p > 1.0:
        base = analytic.support_radius(analytic.barenblatt_spec(p, dim, "pde"))
    else:
        base = analytic.suggest_domain_radius(p, dim, 1e-6, "pde")
    radius = 1.3 * base * spread
    # mixtures put bumps out to |mean| + a few sigmas regardless of p
    return max(radius, 10.0) if initial == "mixture" else radius


def _initial_field(kind: str, grid: Grid, p: float, t_start: float, seed: int):
    if kind == "barenblatt":
        return sample_barenblatt(grid, p, t_start, normalize=True)
    if kind == "gaussian":
        return sample_gaussian(grid, t_start, normalize=True)
    if kind == "mixture":
        if p < 1.0:
            # fat envelope tails keep the truncated-domain flow honest
            mix = sample_mixture(grid, seed, var_range=(1.5, 3.0))
            return blend_with_barenblatt(mix, p, t_start, 1e-2)
        return sample_mixture(grid, seed)
    if kind.startswith("file:"):
        return read_profile(kind[5:])
    raise DomainError(f"unknown initial data kind {kind!r}")


def _check_names(raw: str, p: float, dim: int, with_fields: bool) -> list[str]:
    names = [n for n in raw.split(",") if n] if raw else []
    validate_checks(names, p, dim, with_fields)
    return names


def _tolerances(args, config, names) -> dict[str, float]:
    """The --tol-NAME overrides given for the checks in names."""
    tols = {}
    for name in names:
        val = _effective(args, config, f"tol_{name}", None, float)
        if val is not None:
            tols[name] = val
    return tols


def run_evolve(args, config) -> int:
    p = _effective(args, config, "p", None, float)
    dim = _effective(args, config, "dim", 1, int)
    if p is None:
        print("evolve: --p is required", file=sys.stderr)
        return EXIT_CONFIG
    geometry = _effective(args, config, "geometry",
                          "cartesian1d" if dim == 1 else "radial")
    nodes = _effective(args, config, "nodes", 1024, int)
    t_start = _effective(args, config, "t_start", 1.0, float)
    t_end = _effective(args, config, "t_end", 2.0, float)
    snapshots = _effective(args, config, "snapshots", 9, int)
    initial = _effective(args, config, "initial", "mixture")
    seed = _effective(args, config, "seed", 0, int)
    cfl = _effective(args, config, "cfl", 0.9, float)
    names = _check_names(_effective(args, config, "verify", ""), p, dim, with_fields=True)
    tols = _tolerances(args, config, CHECKS)
    radius = _effective(args, config, "radius", None, float)
    if radius is None:
        radius = _default_radius(p, dim, t_end, initial)

    cfg = {"subcommand": "evolve", "p": p, "dim": dim, "geometry": geometry,
           "nodes": nodes, "radius": radius, "t_start": t_start, "t_end": t_end,
           "snapshots": snapshots, "initial": initial, "seed": seed, "cfl": cfl,
           "verify": names, "tols": tols}
    if geometry == "cartesian1d" and dim != 1:
        print("evolve: cartesian1d requires dim = 1 (DiffusionParams precondition)",
              file=sys.stderr)
        return EXIT_CONFIG
    grid = Grid.cartesian(nodes, radius) if geometry == "cartesian1d" \
        else Grid.radial(dim, nodes, radius)
    params = DiffusionParams(p=p, dim=dim, t_start=t_start, t_end=t_end,
                             snapshot_count=snapshots, cfl_safety=cfl)
    f0 = _initial_field(initial, grid, p, t_start, seed)
    sizing = None
    if p > 1.0 or dim / (dim + 2.0) < p < 1.0:
        rep = fast_diffusion_guard(params, grid)
        sizing = {"compact_support": rep.compact_support, "tail_mass": rep.tail_mass,
                  "recommended_radius": rep.recommended_radius, "adequate": rep.adequate}
    result = evolve(f0, params, with_dissipation="dissipation" in names)
    checks = run_checks(names, result.snapshots, p, dim, tols, result.fields)

    d = _outdir(getattr(args, "out", None) or config.get("out"), cfg)
    write_snapshots(d / "snapshots.csv", result.snapshots)
    write_profile(d / "profile_final.csv", result.fields[-1])
    write_run_meta(d / "run_meta.json", {
        "config": cfg, "steps": result.step_count,
        "rejections": result.rejection_count,
        "leak_estimate": result.leak_estimate,
        "final_mass": result.snapshots[-1].mass,
        "domain_sizing": sizing,
    })
    if checks:
        write_verdicts(d / "verdicts.txt", checks)
        print(summary_table(checks))
    print(f"wrote {d}", file=sys.stderr)
    return EXIT_OK if all(c.passed for c in checks.values()) else EXIT_VERDICT


# ---------------------------------------------------------------- verify

def run_verify(args, config) -> int:
    csv_path = _effective(args, config, "snapshots_csv", None)
    p = _effective(args, config, "p", None, float)
    dim = _effective(args, config, "dim", 1, int)
    if csv_path is None or p is None:
        print("verify: --snapshots-csv and --p are required", file=sys.stderr)
        return EXIT_CONFIG
    names = _check_names(_effective(args, config, "checks", "concavity,upsilon"), p, dim,
                         with_fields=False)
    tols = _tolerances(args, config, SERIES_CHECKS)
    checks = run_checks(names, read_snapshots(csv_path), p, dim, tols)
    print(summary_table(checks))
    out = getattr(args, "out", None) or config.get("out")
    if out:
        d = _outdir(out, {"subcommand": "verify", "csv": str(csv_path), "checks": names})
        write_verdicts(d / "verdicts.txt", checks)
    return EXIT_OK if all(c.passed for c in checks.values()) else EXIT_VERDICT


# ---------------------------------------------------------------- sweep

def _sweep_row(job: tuple) -> dict:
    p, dim, seed, nodes, t_start, t_end, snapshots, cfl, outdir = job
    row = {"p": p, "dim": dim, "seed": seed}
    try:
        geometry = "cartesian1d" if dim == 1 else "radial"
        radius = _default_radius(p, dim, t_end, "mixture")
        grid = Grid.cartesian(nodes, radius) if geometry == "cartesian1d" \
            else Grid.radial(dim, nodes, radius)
        f0 = _initial_field("mixture", grid, p, t_start, seed)
        params = DiffusionParams(p=p, dim=dim, t_start=t_start, t_end=t_end,
                                 snapshot_count=snapshots, cfl_safety=cfl)
        result = evolve(f0, params)
        names = ["concavity", "upsilon"]
        if p != 1.0 and p > dim / (dim + 2.0):
            names.append("isoperimetric")
        checks = run_checks(names, result.snapshots, p, dim, {}, result.fields)
        row["passed"] = all(c.passed for c in checks.values())
        row["margins"] = {k: c.margin for k, c in checks.items()}
        row["error"] = ""
        if outdir is not None:
            d = Path(outdir) / f"row-p{p}-n{dim}-s{seed}"
            d.mkdir(parents=True, exist_ok=True)
            write_snapshots(d / "snapshots.csv", result.snapshots)
            write_verdicts(d / "verdicts.txt", checks)
    except StabilityError as err:
        row.update(passed=False, margins={}, error=f"stability: {err}")
    except (DomainError, InsufficientData) as err:
        row.update(passed=False, margins={}, error=str(err))
    return row


def run_sweep(args, config) -> int:
    p_list = _effective(args, config, "p", "0.8,1.5,2")
    dim_list = _effective(args, config, "dim", "1")
    seeds = _effective(args, config, "seeds", 3, int)
    nodes = _effective(args, config, "nodes", 512, int)
    t_start = _effective(args, config, "t_start", 1.0, float)
    t_end = _effective(args, config, "t_end", 1.15, float)
    snapshots = _effective(args, config, "snapshots", 7, int)
    cfl = _effective(args, config, "cfl", 0.9, float)
    workers = _effective(args, config, "workers", 1, int)
    try:
        ps = [float(x) for x in str(p_list).split(",") if x]
        dims = [int(x) for x in str(dim_list).split(",") if x]
    except ValueError:
        print("sweep: malformed --p or --dim list", file=sys.stderr)
        return EXIT_CONFIG
    cfg = {"subcommand": "sweep", "p": ps, "dim": dims, "seeds": seeds,
           "nodes": nodes, "t_start": t_start, "t_end": t_end,
           "snapshots": snapshots, "cfl": cfl}
    d = _outdir(getattr(args, "out", None) or config.get("out"), cfg)
    jobs = [(p, dim, seed, nodes, t_start, t_end, snapshots, cfl, str(d))
            for p in ps for dim in dims for seed in range(seeds)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, jobs))
    else:
        rows = [_sweep_row(j) for j in jobs]
    lines = ["p,n,seed,passed,error"]
    for r in rows:
        lines.append(f"{r['p']!r},{r['dim']},{r['seed']},"
                     f"{str(r['passed']).lower()},{r['error'].replace(',', ';')}")
    (d / "sweep.csv").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"wrote {d / 'sweep.csv'}", file=sys.stderr)
    return EXIT_OK if all(r["passed"] for r in rows) else EXIT_VERDICT


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.subcommand == "constants":
            return run_constants(args, config)
        if args.subcommand == "barenblatt":
            return run_barenblatt(args, config)
        if args.subcommand == "evolve":
            return run_evolve(args, config)
        if args.subcommand == "verify":
            return run_verify(args, config)
        if args.subcommand == "sweep":
            return run_sweep(args, config)
        raise DomainError(f"unknown subcommand {args.subcommand}")
    except StabilityError as err:
        print(f"stability failure: {err}", file=sys.stderr)
        return EXIT_STABILITY
    except (DomainError, InsufficientData, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
