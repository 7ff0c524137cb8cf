"""Serialization: snapshot CSV, two-column profile files, verdicts, run metadata.

Floats are written with repr (shortest round-trip) so identical runs produce
byte-identical files and reloaded values compare exactly.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .errors import DomainError
from .functionals import FunctionalSnapshot
from .grids import CARTESIAN, RADIAL, DensityField, Grid
from .verification import CheckResult

SNAPSHOT_HEADER = "t,mass,Ep,Hp,Np,Fp,Ip,Dp,upsilon"


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def snapshot_csv_lines(series) -> list[str]:
    lines = [SNAPSHOT_HEADER]
    for s in series:
        lines.append(",".join(_fmt(v) for v in (
            s.t, s.mass, s.e_p, s.h_p, s.n_p, s.f_p, s.i_p, s.d_p, s.upsilon)))
    return lines


def write_snapshots(path, series) -> None:
    Path(path).write_text("\n".join(snapshot_csv_lines(series)) + "\n")


def read_snapshots(path) -> list[FunctionalSnapshot]:
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != SNAPSHOT_HEADER:
        raise DomainError(f"{path} is not a snapshot CSV (bad header)")
    out = []
    for row, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != 9:
            raise DomainError(f"malformed snapshot row: {line!r}")
        vals = []
        for cell in cells:
            try:
                vals.append(None if cell == "" else float(cell))
            except ValueError:
                raise DomainError(
                    f"{path}: snapshot row {row} has a non-numeric cell {cell!r}") from None
        if not all(v is None or math.isfinite(v) for v in vals):
            raise DomainError(f"{path}: snapshot row {row} has a non-finite cell: {line!r}")
        if vals[0] is None or (out and not vals[0] > out[-1].t):
            raise DomainError(f"{path}: snapshot row {row}: t = {cells[0]!r} does not increase")
        out.append(FunctionalSnapshot(*vals))
    return out


def write_profile(path, f: DensityField) -> None:
    """Two-column x,u (cartesian) or r,u (radial) text with a geometry header."""
    g = f.grid
    head = (f"# geometry={g.kind} dim={g.dim} "
            f"spacing={float(g.spacing)!r} origin={float(g.origin)!r}")
    col = "x" if g.kind == CARTESIAN else "r"
    rows = map(",".join, zip(map(repr, g.nodes().tolist()), map(repr, f.values.tolist())))
    Path(path).write_text("\n".join([head, f"{col},u", *rows]) + "\n")


def read_profile(path) -> DensityField:
    lines = Path(path).read_text().strip().splitlines()
    meta = {}
    rows = []
    for line in lines:
        if line.startswith("#"):
            for tok in line[1:].split():
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    meta[k] = v
        elif line and not line[0].isalpha():
            x_str, u_str = line.split(",")
            rows.append((float(x_str), float(u_str)))
    if len(rows) < 8:
        raise DomainError(f"{path}: too few samples for a grid")
    xs = np.array([r[0] for r in rows])
    us = np.array([r[1] for r in rows])
    spacing = float(meta.get("spacing", np.diff(xs).mean()))
    kind = meta.get("geometry", CARTESIAN)
    dim = int(meta.get("dim", 1))
    if kind not in (CARTESIAN, RADIAL):
        raise DomainError(f"unknown geometry {kind!r} in {path}")
    grid = Grid(kind, dim, xs.size, spacing, float(meta.get("origin", xs[0])))
    if not np.allclose(grid.nodes(), xs, rtol=0.0, atol=1e-9 * spacing):
        raise DomainError(f"{path}: coordinates are not a uniform grid")
    return DensityField(grid, us)


def verdict_lines(checks: dict[str, CheckResult]) -> list[str]:
    """Machine-readable one-line-per-check record."""
    out = []
    for name, c in checks.items():
        out.append(f"check={name} pass={str(c.passed).lower()} "
                   f"margin={c.margin!r} tolerance={c.tolerance!r} detail={c.detail!r}")
    return out


def summary_table(checks: dict[str, CheckResult]) -> str:
    width = max((len(n) for n in checks), default=5)
    rows = [f"{'check'.ljust(width)}  verdict  margin        tolerance"]
    for name, c in checks.items():
        rows.append(f"{name.ljust(width)}  {'PASS' if c.passed else 'FAIL':7s}  "
                    f"{c.margin: .6e}  {c.tolerance:.3e}")
    return "\n".join(rows)


def write_verdicts(path, checks: dict[str, CheckResult]) -> None:
    Path(path).write_text("\n".join(verdict_lines(checks)) + "\n")


def write_run_meta(path, meta: dict) -> None:
    Path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def config_hash(config: dict) -> str:
    """Stable short hash of a config mapping, used to name experiment dirs."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
