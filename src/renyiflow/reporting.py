"""Serialization: snapshot CSV, two-column profile files, verdicts, run metadata.

Floats are written with repr (shortest round-trip) so identical runs produce
byte-identical files and reloaded values compare exactly.
"""
from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import DomainError
from .functionals import FunctionalSnapshot
from .grids import CARTESIAN, DensityField, Grid
from .verification import CheckResult

# CPython's built-in module first, as random.py takes sha512: hashlib maps OpenSSL (3.4 MB)
try:
    from _sha2 import sha256 as _sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

SNAPSHOT_HEADER = "t,mass,Ep,Hp,Np,Fp,Ip,Dp,upsilon"
_PROFILE_HEADER = r"# geometry=(\S+) dim=(\S+) spacing=(\S+) origin=(\S+)"


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
    try:
        lines = Path(path).read_text().strip().splitlines()
    except ValueError as err:  # bytes that are not text
        raise DomainError(f"{path}: {err}") from None
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
    rows = [f"{x!r},{u!r}" for x, u in zip(g.nodes().tolist(), f.values.tolist())]
    Path(path).write_text("\n".join([head, f"{col},u", *rows]) + "\n")


def read_profile(path) -> DensityField:
    """The field `write_profile` wrote to path: the header line is its grid, and each row
    below the column line a node of that grid and the value there.  Any other text is a
    DomainError that names path and, where it can, the line."""
    try:
        return _parse_profile(Path(path).read_text().rstrip().splitlines())
    except ValueError as err:  # a DomainError, or bytes that are not text
        raise DomainError(f"{path}: {err}") from None


def _parse_profile(lines: list[str]) -> DensityField:
    head = re.fullmatch(_PROFILE_HEADER, lines[0] if lines else "")
    if head is None:
        raise DomainError("line 1 is not a '# geometry= dim= spacing= origin=' header")
    try:
        kind, dim, spacing, origin = head[1], int(head[2]), float(head[3]), float(head[4])
    except ValueError as err:
        raise DomainError(f"line 1: {err}") from None
    grid = Grid(kind, dim, len(lines) - 2, spacing, origin)
    col = "x" if kind == CARTESIAN else "r"
    if lines[1] != f"{col},u":
        raise DomainError(f"line 2 is {lines[1]!r}, not the column line '{col},u'")
    xs, us = np.empty(grid.node_count), np.empty(grid.node_count)
    for i, text in enumerate(lines[2:]):
        try:
            xs[i], us[i] = map(float, text.split(","))
        except ValueError:
            raise DomainError(f"line {i + 3}: {text!r} is not two numbers {col},u") from None
    off = np.flatnonzero(~np.isclose(xs, grid.nodes(), rtol=0.0, atol=1e-9 * spacing))
    if off.size:
        raise DomainError(f"line {off[0] + 3}: {col} = {xs[off[0]]} is off the header's grid")
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
    return _sha256(canon.encode()).hexdigest()[:12]
