"""The four benchmark workloads, each with the checks that verify its outputs.

A workload is run as repeated *iterations* in one process; an iteration is
one time-to-verified-verdict at the stated input size.  Inside it, the unit
of latency (an *op*) is what a user waits for: a snapshot interval of an
evolve run, a row of a sweep, a density of the survey.  The unit of
correctness (``attempted``) is an evolve run, a sweep row or a survey density.

Tolerances are the package's own, unchanged:

* mass: relative drift at most 1e-12 (acceptance criterion 11);
* ``np_rel_err`` at most 1e-3 (criterion 4's linear-fit residual bound);
* survey margins: ``Upsilon - gamma >= -TOL_ISOPERIMETRIC * gamma`` and
  ``ChainReport.holds()`` at its default slack.
"""
from __future__ import annotations

import contextlib
import io
import json
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracer import bytes_per_step_computed

MASS_DRIFT_TOL = 1e-12
NP_REL_TOL = 1e-3
# The package's isoperimetric margin and the same margin recomputed from the
# reference gamma differ only by rounding; a wrong gamma breaks this at once.
MARGIN_AGREE_TOL = 1e-12
README_VERIFY = ["--verify", "concavity,upsilon,debruijn", "--tol-upsilon", "1e-4"]


@dataclass
class Iteration:
    samples: list            # op latencies in seconds
    attempted: int
    failures: list = field(default_factory=list)   # (op id, message)
    np_rel_err: float | None = None
    leak_warnings: int = 0

    @property
    def failed(self) -> int:
        return min(self.attempted, len({op for op, _ in self.failures}))


def call_cli(rf, argv):
    """renyiflow.cli.main with its console output captured.

    Returns (exit code or None if it raised, captured stderr, warnings seen).
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = rf.cli.main(argv)
        except Exception:  # a crash of the program under test is a failed op
            rc = None
            err.write(traceback.format_exc())
    return rc, err.getvalue().strip(), len(caught)


def read_snapshot_csv(path: Path) -> list[dict]:
    """Parse a snapshots.csv independently of the package's reader."""
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [{k: float(v) if v else None for k, v in zip(header, line.split(","))}
            for line in lines[1:]]


def mass_drift(rows: list[dict]) -> float:
    m0 = rows[0]["mass"]
    return max(abs(r["mass"] - m0) for r in rows) / m0


def only_dir(parent: Path, pattern: str) -> Path:
    found = sorted(parent.glob(pattern))
    if len(found) != 1:
        raise ValueError(f"expected one {pattern} under {parent.name}, found {len(found)}")
    return found[0]


def verdict_lines(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        name = line.split(" ", 1)[0].removeprefix("check=")
        out[name] = line
    return out


class Evolve:
    """One ``renyiflow evolve`` run from the Barenblatt datum at t = 1."""

    seed_used = False
    op = "snapshot interval"
    tail_q = 75

    def __init__(self, name, p, dim, nodes, t_end, snapshots, min_iters):
        self.name = name
        self.p, self.dim, self.nodes = p, dim, nodes
        self.min_iters = min_iters
        self.argv = ["evolve", "--p", repr(p), "--dim", str(dim), "--nodes", str(nodes),
                     "--initial", "barenblatt", "--t-start", "1", "--t-end", repr(t_end),
                     "--snapshots", str(snapshots)] + README_VERIFY
        self.checks = {"concavity", "upsilon", "debruijn"}

    def sizes(self):
        return {"nodes": self.nodes, "array_bytes": self.nodes * 8,
                "bytes_per_step_computed": bytes_per_step_computed(self.nodes, self.p)}

    def setup(self, rf, ref, seed):
        return {"argv": list(self.argv),
                "slope": ref["entropy_power_slope"][f"{self.p!r},{self.dim}"]}

    def iterate(self, rf, inputs, k, out: Path, probe) -> Iteration:
        d = out / f"it{k}"
        rc, err, leaks = call_cli(rf, inputs["argv"] + ["--out", str(d)])
        it = Iteration(samples=list(probe.intervals), attempted=1, leak_warnings=leaks)
        if rc != 0:
            it.failures.append((0, f"exit code {rc}: {err[-300:]}"))
        try:
            exp = only_dir(d, "exp-*")
            verdicts = verdict_lines(exp / "verdicts.txt")
            if set(verdicts) != self.checks:
                it.failures.append((0, f"verdicts for {sorted(verdicts)}"))
            for name, line in verdicts.items():
                if " pass=true " not in line:
                    it.failures.append((0, f"verdict failed: {line}"))
            rows = read_snapshot_csv(exp / "snapshots.csv")
            drift = mass_drift(rows)
            if not drift <= MASS_DRIFT_TOL:
                it.failures.append((0, f"mass drift {drift:.3e} > {MASS_DRIFT_TOL}"))
            slope = inputs["slope"]
            it.np_rel_err = max(abs(r["Np"] / (slope * r["t"]) - 1.0) for r in rows)
            if not it.np_rel_err <= NP_REL_TOL:
                it.failures.append((0, f"np_rel_err {it.np_rel_err:.3e} > {NP_REL_TOL}"))
            meta = json.loads((exp / "run_meta.json").read_text())
            if meta["steps"] != probe.steps:
                it.failures.append((0, f"run_meta steps {meta['steps']} != {probe.steps}"))
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            it.failures.append((0, f"output check: {exc!r}"))
        return it


class Sweep:
    """``renyiflow sweep`` then a ``renyiflow verify`` replay of every row."""

    seed_used = False   # the sweep CLI fixes its seeds at 0..k-1
    op = "sweep row"
    tail_q = 75

    def __init__(self, name, ps, dims, seeds, nodes, min_iters):
        self.name = name
        self.nodes, self.min_iters = nodes, min_iters
        self.rows = [(p, n, s) for p in ps for n in dims for s in range(seeds)]
        self.argv = ["sweep", "--p", ",".join(repr(p) for p in ps),
                     "--dim", ",".join(map(str, dims)), "--seeds", str(seeds),
                     "--nodes", str(nodes), "--workers", "1"]

    def sizes(self):
        return {"nodes": self.nodes, "array_bytes": self.nodes * 8, "rows": len(self.rows)}

    def setup(self, rf, ref, seed):
        return {"argv": list(self.argv)}

    def iterate(self, rf, inputs, k, out: Path, probe) -> Iteration:
        d = out / f"it{k}"
        rc, err, leaks = call_cli(rf, inputs["argv"] + ["--out", str(d)])
        it = Iteration(samples=list(probe.rows), attempted=len(self.rows), leak_warnings=leaks)
        if rc != 0:
            it.failures.append(("sweep", f"exit code {rc}: {err[-300:]}"))
        try:
            exp = only_dir(d, "exp-*")
            table = (exp / "sweep.csv").read_text().strip().splitlines()[1:]
        except (OSError, ValueError) as exc:
            it.failures.extend((row, f"sweep output: {exc!r}") for row in self.rows)
            return it
        listed = {}
        for line in table:
            p, n, s, passed, error = line.split(",", 4)
            listed[(float(p), int(n), int(s))] = (passed, error)
        for row in self.rows:
            self._check_row(rf, row, listed.get(row), exp, d / "replay", it)
        return it

    def _check_row(self, rf, row, listed, exp, replay_root, it):
        p, n, s = row
        if listed is None:
            it.failures.append((row, "row missing from sweep.csv"))
            return
        if listed[0] != "true":
            it.failures.append((row, f"row verdict {listed}"))
        name = f"row-p{p}-n{n}-s{s}"
        try:
            csv_path = exp / name / "snapshots.csv"
            drift = mass_drift(read_snapshot_csv(csv_path))
            if not drift <= MASS_DRIFT_TOL:
                it.failures.append((row, f"mass drift {drift:.3e}"))
            original = verdict_lines(exp / name / "verdicts.txt")
            replay_out = replay_root / name
            rc, err, _ = call_cli(rf, ["verify", "--snapshots-csv", str(csv_path),
                                       "--p", repr(p), "--dim", str(n),
                                       "--checks", "concavity,upsilon",
                                       "--out", str(replay_out)])
            if rc != 0:
                it.failures.append((row, f"replay exit code {rc}: {err[-300:]}"))
            replayed = verdict_lines(only_dir(replay_out, "exp-*") / "verdicts.txt")
            for check in ("concavity", "upsilon"):
                if replayed.get(check) != original.get(check):
                    it.failures.append((row, f"replayed {check} verdict differs"))
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            it.failures.append((row, f"row output: {exc!r}"))


class Survey:
    """Library loop, no solver: Upsilon_p >= gamma(n, p) over seeded mixtures."""

    seed_used = True
    op = "survey density"
    tail_q = 99
    ps = (0.8, 1.5, 2.0)
    dims = (1, 3)
    radius = 12.0

    def __init__(self, name, nodes, per_dim, min_iters):
        self.name = name
        self.nodes, self.per_dim, self.min_iters = nodes, per_dim, min_iters

    def sizes(self):
        return {"nodes": self.nodes, "array_bytes": self.nodes * 8,
                "densities_per_iteration": self.per_dim * len(self.dims)}

    def setup(self, rf, ref, seed):
        grids = {1: rf.Grid.cartesian(self.nodes, self.radius),
                 3: rf.Grid.radial(3, self.nodes, self.radius)}
        gammas = {(p, n): ref["gamma"][f"{p!r},{n}"] for p in self.ps for n in self.dims}
        return {"grids": grids, "gammas": gammas, "base": seed * 10 ** 6}

    def iterate(self, rf, inputs, k, out: Path, probe) -> Iteration:
        it = Iteration(samples=[], attempted=0)
        for di, n in enumerate(self.dims):
            grid = inputs["grids"][n]
            for i in range(self.per_dim):
                mseed = inputs["base"] + (k * len(self.dims) + di) * self.per_dim + i
                it.attempted += 1
                try:
                    start = perf_counter()
                    f = rf.sample_mixture(grid, mseed)
                    results = [(p, rf.snapshot(f, p, n, with_dissipation=True),
                                rf.isoperimetric_check(f, p, n),
                                rf.concavity_condition_chain(f, p, n)) for p in self.ps]
                    it.samples.append(perf_counter() - start)
                except Exception as exc:  # a crash of the program under test is a failed op
                    it.failures.append((mseed, f"raised {exc!r}"))
                    continue
                for p, snap, iso, chain in results:
                    self._check(p, n, mseed, snap, iso, chain, inputs["gammas"][(p, n)],
                                rf.verification.TOL_ISOPERIMETRIC, it)
        return it

    @staticmethod
    def _check(p, n, mseed, snap, iso, chain, gamma, tol, it):
        where = f"seed {mseed} p={p} n={n}"
        margin = snap.upsilon - gamma
        if not iso.passed or not margin >= -tol * gamma:
            it.failures.append((mseed, f"{where}: Upsilon - gamma = {margin:.3e}"))
        if not abs(iso.margin - margin) <= MARGIN_AGREE_TOL * gamma:
            it.failures.append((mseed, f"{where}: margin {iso.margin!r} disagrees with "
                                       f"reference gamma ({margin!r})"))
        if not chain.holds():
            it.failures.append((mseed, f"{where}: condition chain {chain.margins()}"))
        if not abs(snap.mass - 1.0) <= MASS_DRIFT_TOL:
            it.failures.append((mseed, f"{where}: mass {snap.mass!r}"))


def build(size: str) -> dict:
    """Workloads by name (why each was chosen: BENCHMARK.json and README.md).

    ``tiny`` shrinks every input for the benchmark's own tests.
    """
    full = size == "full"
    items = [
        Evolve("evolve_pme", 2.0, 1, 2048 if full else 1024, 3.0 if full else 1.1,
               33 if full else 5, min_iters=2 if full else 1),
        Evolve("evolve_fd", 0.8, 3, 768 if full else 128, 1.25 if full else 1.05,
               17 if full else 9, min_iters=3 if full else 1),
        Sweep("sweep_mixed", (0.8, 1.0, 1.5, 2.0) if full else (1.0, 2.0), (1, 3),
              3 if full else 1, 512 if full else 128, min_iters=2 if full else 1),
        Survey("survey_upsilon", 4096 if full else 512, 200 if full else 4,
               min_iters=3 if full else 1),
    ]
    return {w.name: w for w in items}
