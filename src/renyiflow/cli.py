"""Batch front-end: constants tables, profile dumps, evolution runs, sweeps.

Configuration comes from an INI-style file (key = value under sections, all
sections merged: a section's key wins over `[DEFAULT]`'s, a later section's over an
earlier one's), read as `--name=value` tokens before the command-line flags, which
win.  Exit codes are the machine contract: 0 success, 1 configuration
or domain error, 2 stability failure, 3 failed verdict (for `evolve`, also a wall
that held more than DOMAIN_TOL of the mass).
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import analytic
from .errors import DegenerateError, DomainError, InsufficientData, StabilityError
from .grids import Grid
from .initial_data import (
    blend_with_barenblatt,
    sample_barenblatt,
    sample_barenblatt_from_spec,
    sample_gaussian,
    sample_mixture,
)
from .reporting import (
    config_hash,
    read_profile,
    read_snapshots,
    snapshot_csv_lines,
    summary_table,
    write_profile,
    write_run_meta,
    write_snapshots,
    write_verdicts,
)
from .solver import _ROW_ERRORS, DOMAIN_TOL, DiffusionParams, _march, evolve
from .verification import CHECKS, require_snapshots, run_checks, validate_checks

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STABILITY = 2
EXIT_VERDICT = 3

CONSTANTS_HEADER = "p,n,mu,nu,A_p,C_p,Hp_B,Ip_B,gamma,Sn,error"


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors (exit 1)."""
    def error(self, message):
        raise DomainError(message)


class _Given(argparse.Action):
    """Stores an option's value, flag or config, and notes it in the namespace's `given`."""
    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = {*getattr(namespace, "given", ()), self.dest}


def _constants_options(c: argparse.ArgumentParser) -> None:
    c.add_argument("--pair", action="append", default=None, metavar="P,N",
                   help="a (p, n) pair; repeatable")


def _barenblatt_options(b: argparse.ArgumentParser) -> None:
    b.add_argument("--p", type=float, default=None)
    b.add_argument("--dim", type=int, default=1)
    b.add_argument("--nodes", type=int, default=2048)
    b.add_argument("--radius", type=float, default=None)
    b.add_argument("--t", type=float, default=1.0)
    b.add_argument("--convention", choices=["unit", "pde"], default="pde")


def _evolve_options(e: argparse.ArgumentParser) -> None:
    e.add_argument("--p", type=float, default=None)
    e.add_argument("--dim", type=int, default=1, action=_Given)
    e.add_argument("--nodes", type=int, default=1024, action=_Given)
    e.add_argument("--radius", type=float, default=None, action=_Given)
    e.add_argument("--t-start", dest="t_start", type=float, default=1.0)
    e.add_argument("--t-end", dest="t_end", type=float, default=2.0)
    e.add_argument("--snapshots", type=int, default=9)
    e.add_argument("--initial", type=str, default="mixture",
                   help="barenblatt | gaussian | mixture | file:PATH")
    e.add_argument("--seed", type=int, default=0)
    _check_options(e, "--verify", "")


def _verify_options(v: argparse.ArgumentParser) -> None:
    v.add_argument("--snapshots-csv", dest="snapshots_csv", type=str, default=None)
    v.add_argument("--p", type=float, default=None)
    v.add_argument("--dim", type=int, default=1)
    _check_options(v, "--checks", "concavity,upsilon")


def _check_options(command: argparse.ArgumentParser, flag: str, default: str) -> None:
    """flag, the comma list of CHECKS to run, and a --tol-NAME option for each check."""
    command.add_argument(flag, type=str, default=default, help="comma list: " + ",".join(CHECKS))
    for name in CHECKS:
        command.add_argument(f"--tol-{name}", dest=f"tol_{name}", type=float, default=None)


def _sweep_options(s: argparse.ArgumentParser) -> None:
    s.add_argument("--p", type=str, default="0.8,1.5,2", help="comma list of p values")
    s.add_argument("--dim", type=str, default="1", help="comma list of dimensions")
    s.add_argument("--seeds", type=int, default=3, help="seeds 0..count-1")
    s.add_argument("--nodes", type=int, default=512)
    s.add_argument("--t-start", dest="t_start", type=float, default=1.0)
    s.add_argument("--t-end", dest="t_end", type=float, default=1.15)
    s.add_argument("--snapshots", type=int, default=7)
    s.add_argument("--workers", type=int, default=1)


def _config_tokens(command: argparse.ArgumentParser, argv: list[str], path: str) -> list[str]:
    """`--name=value` tokens of the values of the INI file at path that name an option of
    command, as `t-end` or `t_end`, and that no flag of argv sets, in full or abbreviated; a
    repeatable option gets one token per `;`-separated value.  A key set in a section wins
    over `[DEFAULT]`, and a later section over an earlier one."""
    import configparser  # only a run with --config pays its import

    ini = configparser.ConfigParser()
    # [DEFAULT] read as a section of its own: each section with only the keys it sets
    own = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        if not ini.read(path):
            raise DomainError(f"config file {path} not found")
        own.read(path)
        config = dict(ini.defaults())
        for name in ini.sections():
            config.update((key, ini[name][key]) for key in own[name])
    except configparser.Error as err:
        raise DomainError(f"config file {path}: {err}") from None
    flags = {tok.split("=", 1)[0] for tok in argv if tok.startswith("--")}
    abbreviated = tuple(flags.difference(*(action.option_strings for action in command._actions)))
    tokens = []
    for action in command._actions:
        raw = config.get(action.dest.replace("_", "-"), config.get(action.dest))
        given = any(opt in flags or opt.startswith(abbreviated) for opt in action.option_strings)
        if raw is None or given or action.default is argparse.SUPPRESS:
            continue
        repeated = isinstance(action, argparse._AppendAction)
        values = [tok for tok in raw.split(";") if tok.strip()] if repeated else [raw]
        tokens += [f"{action.option_strings[0]}={value}" for value in values]
    return tokens


def _outdir(base: str | None, config: dict) -> Path:
    d = Path(base or "out") / f"exp-{config_hash(config)}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _exit_code(passed) -> int:
    return EXIT_OK if all(passed) else EXIT_VERDICT


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


def run_constants(args) -> int:
    if args.pair is None:
        raise DomainError("constants: need at least one --pair P,N")
    rows = [CONSTANTS_HEADER]
    for tok in args.pair:
        try:
            p_str, n_str = tok.split(",")
            rows.append(_constants_row(float(p_str), int(n_str)))
        except (ValueError, TypeError):
            raise DomainError(f"constants: malformed pair {tok!r}") from None
    text = "\n".join(rows)
    print(text)
    if args.out:
        d = _outdir(args.out, {"subcommand": "constants", "pairs": args.pair})
        (d / "constants.csv").write_text(text + "\n")
        print(f"wrote {d / 'constants.csv'}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- barenblatt

def run_barenblatt(args) -> int:
    p, dim, t, convention = args.p, args.dim, args.t, args.convention
    if p is None:
        raise DomainError("barenblatt: --p is required")
    spec = analytic.barenblatt_spec(p, dim, convention)
    analytic._require_self_similar_time(t)
    radius = args.radius
    if radius is None:
        radius = analytic.suggest_domain_radius(p, dim, 1e-8, convention) \
            * t ** (1.0 / spec.coeffs.mu) * (1.05 if p > 1.0 else 1.0)
    fld = sample_barenblatt_from_spec(_grid(dim, args.nodes, radius), spec, t)
    print(f"p={p} n={dim} convention={convention} t={t}")
    print(f"A_p={spec.a_const!r} C={spec.c_const!r} kappa={spec.kappa!r}")
    print(f"Hp={analytic.barenblatt_entropy(spec)!r} Ip={analytic.barenblatt_fisher(spec)!r}")
    print(f"Np={analytic.barenblatt_entropy_power(spec)!r} "
          f"gamma={analytic.gamma_const(p, dim)!r}")
    if args.out:
        d = _outdir(args.out, {"subcommand": "barenblatt", "p": p, "dim": dim, "t": t,
                               "nodes": args.nodes, "radius": radius,
                               "convention": convention})
        write_profile(d / "profile.csv", fld)
        print(f"wrote {d / 'profile.csv'}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- evolve

def _grid(dim: int, nodes: int, radius: float) -> Grid:  # the line in 1-D, else the half-line
    return Grid.cartesian(nodes, radius) if dim == 1 else Grid.radial(dim, nodes, radius)


def _envelope(p: float, dim: int, t_end: float) -> tuple[analytic.BarenblattSpec, float, float]:
    """The domain sizing's Barenblatt envelope, the pde source solution at max(t_end, 1):
    its spec, the radius at t = 1 outside which it holds DOMAIN_TOL of its mass (the
    support edge for p > 1), and its spread t^{1/mu}, by which that radius grows."""
    spec = analytic.barenblatt_spec(p, dim, "pde")
    spread = max(t_end, 1.0) ** (1.0 / spec.coeffs.mu)
    return spec, analytic.suggest_domain_radius(p, dim, DOMAIN_TOL, "pde"), spread


def _default_radius(p: float, dim: int, t_end: float, initial: str) -> float:
    if initial.startswith("gaussian") or p == 1.0:
        return 8.0 * math.sqrt(2.0 * t_end) + 4.0
    _, r, spread = _envelope(p, dim, t_end)
    radius = 1.3 * r * spread
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
    raise DomainError(f"unknown initial data kind {kind!r}")


def _profile_grid(args):
    """The --initial file:PATH profile's grid (dim, nodes, radius) and the profile.

    The profile brings its own grid, so a --dim, --nodes or --radius value given
    (flag or config) other than the grid's own, a radius to its rounding, is an error.
    """
    field = read_profile(args.initial[len("file:"):])
    own = {"dim": field.grid.dim, "nodes": field.grid.node_count, "radius": field.grid.radius()}
    for name, value in own.items():
        given, tol = getattr(args, name), 1e-12 if name == "radius" else 0.0
        if name in getattr(args, "given", ()) and not math.isclose(given, value, rel_tol=tol):
            raise DomainError(f"--{name} {given!r} differs from the {value!r} of the "
                              f"grid of {args.initial}")
    return own, field


def _requested_checks(args, raw: str,
                      snapshots: int | None = None) -> tuple[list[str], dict[str, float]]:
    """The check names in the comma list raw, validated at (args.p, args.dim) and any
    snapshot count given, and the finite --tol-NAME values given."""
    names = [n for n in raw.split(",") if n]
    validate_checks(names, args.p, args.dim, snapshots)
    tols = {key[len("tol_"):]: val for key, val in vars(args).items()
            if key.startswith("tol_") and val is not None}
    for name, tol in tols.items():
        if not math.isfinite(tol):
            raise DomainError(f"--tol-{name} must be finite; got {tol}")
    return names, tols


def _datum(cfg: dict, f0=None) -> tuple:
    """The datum (f0 if given), params and with_dissipation of the run an evolve cfg
    describes: `solver.evolve`'s arguments."""
    p, dim = cfg["p"], cfg["dim"]
    params = DiffusionParams(p=p, dim=dim, t_start=cfg["t_start"], t_end=cfg["t_end"],
                             snapshot_count=cfg["snapshots"])
    if f0 is None:
        f0 = _initial_field(cfg["initial"], _grid(dim, cfg["nodes"], cfg["radius"]), p,
                            cfg["t_start"], cfg["seed"])
    return f0, params, "dissipation" in cfg["verify"]


def _run(cfg: dict, f0=None):
    """The result and checks of the run an evolve cfg describes, from f0 if given."""
    result = evolve(*_datum(cfg, f0))
    checks = run_checks(cfg["verify"], result.snapshots, cfg["p"], cfg["dim"], cfg["tols"])
    return result, checks


def run_evolve(args) -> int:
    if args.p is None:
        raise DomainError("evolve: --p is required")
    domain, f0 = {"dim": args.dim, "nodes": args.nodes, "radius": args.radius}, None
    if args.initial.startswith("file:"):
        domain, f0 = _profile_grid(args)
        args.dim = domain["dim"]  # the checks are validated in the profile's dimension
    p, dim = args.p, domain["dim"]
    names, tols = _requested_checks(args, args.verify, args.snapshots)
    if domain["radius"] is None:
        domain["radius"] = _default_radius(p, dim, args.t_end, args.initial)
    cfg = {"subcommand": "evolve", "p": p, **domain, "t_start": args.t_start,
           "t_end": args.t_end, "snapshots": args.snapshots, "initial": args.initial,
           "seed": args.seed, "verify": names, "tols": tols}
    result, checks = _run(cfg, f0=f0)
    cfg["geometry"] = result.fields[0].grid.kind  # the profile's, or the one --dim gives
    sizing = None  # the envelope's mass outside the grid, where it has a second moment
    if analytic._has_second_moment(p, dim):
        spec, r, spread = _envelope(p, dim, args.t_end)
        tail = analytic.barenblatt_tail_mass(spec, result.fields[0].grid.radius() / spread)
        sizing = {"compact_support": p > 1.0, "tail_mass": tail,
                  "recommended_radius": r * spread, "adequate": tail <= DOMAIN_TOL}

    d = _outdir(args.out, cfg)
    write_snapshots(d / "snapshots.csv", result.snapshots)
    write_profile(d / "profile_final.csv", result.fields[-1])
    write_run_meta(d / "run_meta.json", {
        "config": cfg, "steps": result.step_count,
        "rejections": result.rejection_count,
        "edge_mass": result.edge_mass,
        "final_mass": result.snapshots[-1].mass,
        "domain_sizing": sizing,
    })
    if checks:
        write_verdicts(d / "verdicts.txt", checks)
        print(summary_table(checks))
    print(f"wrote {d}", file=sys.stderr)
    passed = [c.passed for c in checks.values()]
    if result.domain_cut:
        print(f"evolve: edge mass {result.edge_mass:.3e} exceeds {DOMAIN_TOL}; the domain "
              "cuts the flow", file=sys.stderr)
        passed.append(False)
    return _exit_code(passed)


# ---------------------------------------------------------------- verify

def run_verify(args) -> int:
    if args.snapshots_csv is None or args.p is None:
        raise DomainError("verify: --snapshots-csv and --p are required")
    names, tols = _requested_checks(args, args.checks)
    series = read_snapshots(args.snapshots_csv)
    checks = run_checks(names, series, args.p, args.dim, tols)
    print(summary_table(checks))
    if args.out:
        # named from what decides the verdicts, not from the path the series was read at
        d = _outdir(args.out, {"subcommand": "verify", "series": snapshot_csv_lines(series),
                               "p": args.p, "dim": args.dim, "checks": names, "tols": tols})
        write_verdicts(d / "verdicts.txt", checks)
    return _exit_code(c.passed for c in checks.values())


# ---------------------------------------------------------------- sweep

def _sweep_row(job: tuple) -> dict:
    """The sweep row of job, a group of one (`_sweep_group`)."""
    return _sweep_group([job])[0]


def _sweep_group(jobs: list[tuple]) -> list[dict]:
    """The sweep rows of jobs, which share p: their runs march together (`solver._march`,
    which steps the runs of one frame and node count as one kernel), and each row's
    datum, result, checks, error and artifacts are its own, as its `evolve` run's."""
    rows, runs = [], []
    for p, dim, seed, nodes, t_start, t_end, snapshots, outdir in jobs:
        rows.append({"p": p, "dim": dim, "seed": seed, "passed": False, "edge_mass": ""})
        names = ["concavity", "upsilon"]
        if analytic._has_second_moment(p, dim):
            names.append("isoperimetric")
        try:
            cfg = {"p": p, "dim": dim, "nodes": nodes,
                   "radius": _default_radius(p, dim, t_end, "mixture"), "t_start": t_start,
                   "t_end": t_end, "snapshots": snapshots, "initial": "mixture", "seed": seed,
                   "verify": names, "tols": {}}
            runs.append((rows[-1], cfg, outdir, _datum(cfg)))
        except _ROW_ERRORS as err:
            rows[-1]["error"] = _row_error(err)
    for (row, cfg, outdir, _), result in zip(runs, _march([datum for *_, datum in runs])):
        try:
            if isinstance(result, Exception):
                raise result
            checks = run_checks(cfg["verify"], result.snapshots, cfg["p"], cfg["dim"], cfg["tols"])
            row.update(passed=all(c.passed for c in checks.values()), error="",
                       edge_mass=repr(result.edge_mass))
            if outdir is not None:
                d = Path(outdir) / f"row-p{cfg['p']}-n{cfg['dim']}-s{cfg['seed']}"
                d.mkdir(parents=True, exist_ok=True)
                write_snapshots(d / "snapshots.csv", result.snapshots)
                write_verdicts(d / "verdicts.txt", checks)
        except _ROW_ERRORS as err:
            row["error"] = _row_error(err)
    return rows


def _row_error(err: Exception) -> str:
    """A sweep row's error cell."""
    return f"stability: {err}" if isinstance(err, StabilityError) else str(err)


def run_sweep(args) -> int:
    try:
        ps = [float(x) for x in args.p.split(",") if x]
        dims = [int(x) for x in args.dim.split(",") if x]
    except ValueError:
        raise DomainError("sweep: malformed --p or --dim list") from None
    if not (ps and dims and args.seeds > 0):
        raise DomainError("sweep: --p, --dim and --seeds select no run")
    if args.workers < 1:
        raise DomainError("sweep: --workers must be at least 1")
    # a value no row could run with fails before any row, checked by the rule's owner
    # (p = 1 in one dimension is defined) and by concavity, which every row checks
    Grid.cartesian(args.nodes, 1.0)
    DiffusionParams(1.0, 1, args.t_start, args.t_end, args.snapshots)
    require_snapshots(args.snapshots, "concavity")
    cfg = {"subcommand": "sweep", "p": ps, "dim": dims, "seeds": args.seeds,
           "nodes": args.nodes, "t_start": args.t_start, "t_end": args.t_end,
           "snapshots": args.snapshots}
    d = _outdir(args.out, cfg)
    jobs = [(p, dim, seed, args.nodes, args.t_start, args.t_end, args.snapshots, str(d))
            for p in ps for dim in dims for seed in range(args.seeds)]
    groups: dict = {}  # the jobs of each p, by their index: a group marches together
    for index, job in enumerate(jobs):
        groups.setdefault(job[0], []).append(index)
    grouped = [[jobs[index] for index in group] for group in groups.values()]
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # no other command pays its import

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            done = list(pool.map(_sweep_group, grouped))
    else:
        done = [_sweep_group(group) for group in grouped]
    rows = [None] * len(jobs)
    for group, group_rows in zip(groups.values(), done):
        for index, row in zip(group, group_rows):
            rows[index] = row
    lines = ["p,n,seed,passed,error,edge_mass"]
    for r in rows:
        lines.append(f"{r['p']!r},{r['dim']},{r['seed']},{str(r['passed']).lower()},"
                     f"{r['error'].replace(',', ';')},{r['edge_mass']}")
    (d / "sweep.csv").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"wrote {d / 'sweep.csv'}", file=sys.stderr)
    return _exit_code(r["passed"] for r in rows)


# name -> (run, help, the options beyond --config and --out)
_COMMANDS = {
    "constants": (run_constants, "closed-form constants table", _constants_options),
    "barenblatt": (run_barenblatt, "dump a Barenblatt profile and its values",
                   _barenblatt_options),
    "evolve": (run_evolve, "run the solver and verify requested claims", _evolve_options),
    "verify": (run_verify, "run checks on an existing snapshot CSV", _verify_options),
    "sweep": (run_sweep, "verdict table over (p, dim, seed) triples", _sweep_options),
}


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and each subcommand's, by name: built on the first call, never changed."""
    top = _Parser(prog="renyiflow", description="entropy-power experiments for u_t = Lap(u^p)")
    sub = top.add_subparsers(dest="subcommand", required=True)
    for name, (_, help, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help)
        command.add_argument("--config", type=str, default=None, help="INI config file; flags win")
        command.add_argument("--out", type=str, default=None, help="output directory")
        options(command)
    return top, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            at = argv.index(args.subcommand) + 1
            tokens = _config_tokens(commands[args.subcommand], argv[at:], args.config)
            args = parser.parse_args(argv[:at] + tokens + argv[at:])
        return _COMMANDS[args.subcommand][0](args)
    except StabilityError as err:
        print(f"stability failure: {err}", file=sys.stderr)
        return EXIT_STABILITY
    except (DomainError, InsufficientData, DegenerateError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
