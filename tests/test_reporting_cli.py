"""Serialization round trips and the command-line contract (exit codes, determinism)."""
import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import renyiflow as rf
from renyiflow import cli, reporting, solver
from renyiflow.cli import main
from renyiflow.errors import BoundaryLeakWarning, DegenerateError, DomainError, StabilityError
from renyiflow.reporting import (
    read_profile,
    read_snapshots,
    snapshot_csv_lines,
    write_profile,
    write_snapshots,
)
from renyiflow.solver import DOMAIN_TOL
from renyiflow.verification import CHECKS


def _tool(name):
    """tools/NAME.py, as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unsettled(monkeypatch):
    """Every implicit step fails as one whose linearization does not settle, at the t
    evolve gives it (`test_unsettled_linearization_raises` reaches that failure through
    an input)."""
    def advance(kernel, dt, t):
        raise solver._failure({b: f"implicit step at t = {at}: linearization did not settle"
                               for b, at in enumerate(t)})

    monkeypatch.setattr(solver._Kernel, "implicit_advance", advance)


def _digest_configs() -> dict:
    """The CLI configs of tools/artifact_digests.py, label -> argv."""
    return _tool("artifact_digests").CONFIGS


def _corrupt(series, defect):
    """Snapshot CSV lines with one defect in data row 3, or in data row 1 for a zero
    Upsilon_p, since only the first one is a denominator."""
    lines = snapshot_csv_lines(series)
    row = 1 if defect == "zero_upsilon" else 3
    cells = lines[row].split(",")
    if defect in ("nan", "inf", "abc"):
        cells[4] = defect  # the Np column
    elif defect in ("zero_ip", "zero_upsilon"):
        cells[6 if defect == "zero_ip" else 8] = "0.0"
    elif defect == "repeated_t":
        cells[0] = lines[2].split(",")[0]
    else:  # decreasing_t
        cells[0] = lines[1].split(",")[0]
    lines[row] = ",".join(cells)
    return lines


@pytest.fixture(scope="module")
def short_run():
    grid = rf.Grid.cartesian(256, 8.0)
    f0 = rf.sample_mixture(grid, seed=12)
    params = rf.DiffusionParams(p=1.5, dim=1, t_start=1.0, t_end=1.2, snapshot_count=5)
    return rf.evolve(f0, params)


RUN_FACTS = Path(__file__).resolve().parent / "data" / "run_facts.txt"


def test_mutants_name_text_in_src():
    # each mutation of tools/mutants.py replaces text that occurs exactly once in its
    # file, on one line, so the list cannot silently stop mutating as src/ changes
    tool = _tool("mutants")
    assert len(tool.MUTANTS) >= 24
    for what, name, original, mutated in tool.MUTANTS:
        assert (tool.SRC / name).read_text().count(original) == 1, what
        assert original != mutated and "\n" not in original + mutated, what


@pytest.mark.filterwarnings("error::UserWarning")
def test_run_facts_ledger(tmp_path, capsys):
    # the digest configs' exit codes, steps, rejections, verdicts and margins (4
    # significant figures) against the committed ledger, whatever numpy is installed:
    # a mismatch names the first line that differs and both numpy versions.  The tool
    # runs as its command line does, so a BoundaryLeakWarning (the package's only
    # UserWarning) on a default-sized config fails it, as a floating-point warning does
    header, *want = RUN_FACTS.read_text().splitlines()
    assert _tool("artifact_digests").main([str(tmp_path)]) == 0
    listing = capsys.readouterr().out.splitlines()
    assert len(listing) == 82 and all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in listing)
    _, *got = (tmp_path / "facts.txt").read_text().splitlines()
    for number, (line, recorded) in enumerate(itertools.zip_longest(got, want), start=2):
        if line != recorded:
            pytest.fail(f"{RUN_FACTS.name} line {number}: the runs give {line!r}, the ledger "
                        f"{recorded!r}; numpy {np.__version__} here, ledger header {header!r}")


class TestSnapshotCsv:
    def test_round_trip_exact(self, short_run, tmp_path):
        path = tmp_path / "snapshots.csv"
        write_snapshots(path, short_run.snapshots)
        back = read_snapshots(path)
        assert len(back) == len(short_run.snapshots)
        for a, b in zip(back, short_run.snapshots):
            assert a == b  # repr round-trips float64 exactly

    def test_reloaded_values_internally_consistent(self, short_run, tmp_path):
        path = tmp_path / "snapshots.csv"
        write_snapshots(path, short_run.snapshots)
        nu = rf.coefficients(1.5, 1).nu
        for s in read_snapshots(path):
            assert s.n_p == pytest.approx(math.exp(nu * s.h_p), rel=1e-12)
            assert s.upsilon == pytest.approx(s.n_p * s.i_p, rel=1e-12)

    def test_missing_dissipation_column_is_none(self, short_run, tmp_path):
        path = tmp_path / "snapshots.csv"
        write_snapshots(path, short_run.snapshots)
        assert all(s.d_p is None for s in read_snapshots(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(rf.DomainError):
            read_snapshots(path)

    @pytest.mark.parametrize("defect", ["nan", "inf", "abc", "repeated_t", "decreasing_t"])
    def test_bad_rows_rejected_by_row(self, short_run, tmp_path, defect):
        path = tmp_path / "snapshots.csv"
        path.write_text("\n".join(_corrupt(short_run.snapshots, defect)) + "\n")
        with pytest.raises(rf.DomainError, match="row 3"):
            read_snapshots(path)


class TestProfileFiles:
    @pytest.mark.parametrize("geometry", ["cartesian", "radial"])
    def test_round_trip(self, geometry, tmp_path):
        if geometry == "cartesian":
            grid = rf.Grid.cartesian(256, 6.0)
            f = rf.sample_mixture(grid, seed=3)
        else:
            grid = rf.Grid.radial(3, 256, 6.0)
            f = rf.sample_mixture(grid, seed=3, mean_range=(0.0, 2.0))
        path = tmp_path / "profile.csv"
        write_profile(path, f)
        back = read_profile(path)
        assert back.grid == f.grid
        np.testing.assert_array_equal(back.values, f.values)

    def test_recomputed_functionals_match_stored(self, short_run, tmp_path):
        # profile dump -> reload -> recompute must reproduce the stored snapshot
        write_profile(tmp_path / "final.csv", short_run.fields[-1])
        back = read_profile(tmp_path / "final.csv")
        stored = short_run.snapshots[-1]
        fresh = rf.snapshot(back, 1.5, t=stored.t)
        assert fresh.h_p == pytest.approx(stored.h_p, rel=1e-12)
        assert fresh.n_p == pytest.approx(stored.n_p, rel=1e-12)
        assert fresh.i_p == pytest.approx(stored.i_p, rel=1e-12)
        assert fresh.mass == pytest.approx(stored.mass, rel=1e-12)


class TestConstantsCommand:
    def test_table_contents(self, capsys, tmp_path):
        code = main(["constants", "--pair", "2,1", "--pair", "0.333333,3",
                     "--pair", "1.5,3", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        header = rows[0]
        by_p = {r[0]: dict(zip(header, r)) for r in rows[1:]}
        assert float(by_p["2.0"]["Ip_B"]) == pytest.approx(4.0, rel=1e-12)
        assert float(by_p["2.0"]["gamma"]) > 0.0
        assert by_p["0.333333"]["error"] != ""  # out-of-range row annotated, run continued
        assert float(by_p["1.5"]["Sn"]) == pytest.approx(rf.sobolev_constant(3), rel=1e-12)

    def test_gamma_positive_across_rows(self, capsys):
        main(["constants", "--pair", "0.8,1", "--pair", "1.2,2", "--pair", "3,3"])
        out = capsys.readouterr().out
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        gammas = [float(r[8]) for r in rows if r[8]]
        assert len(gammas) == 3 and all(g > 0.0 for g in gammas)

    def test_missing_pair_is_config_error(self, capsys):
        assert main(["constants"]) == 1

    @pytest.mark.parametrize("p", ["inf", "nan"])
    def test_non_finite_p_row_records_its_error(self, capsys, p):
        assert main(["constants", "--pair", f"{p},1"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == \
            f"{p},1,,,,,,,,,need a finite p; got p = {p}"


class TestEvolveCommand:
    def test_barenblatt_concavity_exit_zero(self, tmp_path):
        # the extremal flow is flat, so upsilon monotonicity needs the
        # 512-node quadrature tolerance rather than the strict default
        code = main(["evolve", "--p", "2", "--dim", "1", "--nodes", "512",
                     "--t-start", "1", "--t-end", "1.5", "--snapshots", "5",
                     "--initial", "barenblatt", "--verify", "concavity,upsilon,debruijn",
                     "--tol-debruijn", "0.05", "--tol-upsilon", "1e-4",
                     "--out", str(tmp_path)])
        assert code == 0
        exp_dirs = list(tmp_path.glob("exp-*"))
        assert len(exp_dirs) == 1
        assert (exp_dirs[0] / "snapshots.csv").exists()
        assert (exp_dirs[0] / "run_meta.json").exists()
        assert (exp_dirs[0] / "verdicts.txt").exists()

    def test_barenblatt_concavity_exit_zero_forced_implicit(self, tmp_path):
        # the same config, which marches implicitly from t = 1 in y, where the Barenblatt
        # stands still: 3 steps, the third passing two snapshots, where explicit steps
        # took 5,111 and implicit ones in x failed concavity (-1.05e-6)
        code = main(["evolve", "--p", "2", "--dim", "1", "--nodes", "512",
                     "--t-start", "1", "--t-end", "1.5", "--snapshots", "5",
                     "--initial", "barenblatt", "--verify", "concavity,upsilon,debruijn",
                     "--tol-debruijn", "0.05", "--tol-upsilon", "1e-4",
                     "--out", str(tmp_path)])
        assert code == 0
        (meta,) = tmp_path.glob("exp-*/run_meta.json")
        assert json.loads(meta.read_text())["steps"] == 3

    def test_mixture_concavity_debruijn_exit_zero(self, tmp_path):
        code = main(["evolve", "--p", "1.5", "--dim", "1", "--nodes", "384",
                     "--t-start", "1", "--t-end", "1.2", "--snapshots", "9",
                     "--initial", "mixture", "--seed", "4",
                     "--verify", "concavity,debruijn", "--out", str(tmp_path)])
        assert code == 0

    def test_gaussian_p1_dissipation_and_debruijn_exit_zero(self, tmp_path):
        # the p = 1 snapshots carry D_1 from the same functionals as every p: residuals
        # 3.5e-3 and 1.2e-3 against 5e-2 and 1e-2
        code = main(["evolve", "--p", "1", "--dim", "1", "--nodes", "512", "--initial", "gaussian",
                     "--t-start", "1", "--t-end", "1.5", "--snapshots", "9",
                     "--verify", "dissipation,debruijn", "--out", str(tmp_path)])
        assert code == 0
        (verdicts,) = tmp_path.glob("exp-*/verdicts.txt")
        lines = verdicts.read_text().splitlines()
        assert [line.split()[:2] for line in lines] == [["check=dissipation", "pass=true"],
                                                        ["check=debruijn", "pass=true"]]

    def test_barenblatt_dump(self, tmp_path, capsys):
        code = main(["barenblatt", "--p", "2", "--dim", "1", "--nodes", "512",
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "gamma=" in out and "A_p=" in out
        profile = next(tmp_path.glob("exp-*/profile.csv"))
        f = read_profile(profile)
        assert abs(rf.mass(f) - 1.0) < 1e-4  # 512-node dump, kink mid-cell

    def test_invalid_times_exit_one(self, capsys):
        code = main(["evolve", "--p", "2", "--t-start", "2", "--t-end", "1"])
        assert code == 1
        assert "t_end > t_start" in capsys.readouterr().err

    def test_bad_exponent_exit_one(self, capsys):
        code = main(["evolve", "--p", "0.2", "--dim", "3"])
        assert code == 1

    def test_nonpositive_exponent_exit_one(self, capsys):
        assert main(["evolve", "--p", "0", "--dim", "1"]) == 1
        assert capsys.readouterr().err == "configuration error: need p > 0; got p = 0.0\n"

    @pytest.mark.parametrize("command", [["evolve", "--p", "2"], ["sweep"]])
    def test_cfl_is_no_option(self, command, capsys):
        # the CFL step is solver.CFL_SAFETY of the stable step, and no option moves it
        assert main([*command, "--cfl", "0.5"]) == 1
        assert capsys.readouterr().err == \
            "configuration error: unrecognized arguments: --cfl 0.5\n"

    def test_stability_failure_exit_two(self, monkeypatch, tmp_path, capsys):
        # p < 1 marches implicitly from its first step
        _unsettled(monkeypatch)
        code = main(["evolve", "--p", "0.8", "--nodes", "64", "--t-end", "1.05",
                     "--snapshots", "3", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == \
            "stability failure: implicit step at t = 1.0: linearization did not settle\n"
        assert not any(tmp_path.iterdir())

    def test_self_similar_stability_failure_reads_t(self, monkeypatch, tmp_path, capsys):
        # the Barenblatt marches in y = x / t^{1/mu} with the clock log t; the message
        # gives the step's start in t
        _unsettled(monkeypatch)
        code = main(["evolve", "--p", "0.8", "--dim", "3", "--nodes", "64",
                     "--initial", "barenblatt", "--t-start", "1.5", "--t-end", "1.6",
                     "--snapshots", "3", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == \
            "stability failure: implicit step at t = 1.5: linearization did not settle\n"

    # each snapshot is read on the y-grid the march ran on and mapped to x by the
    # functionals' dilation laws: one grid for the march, one for the final profile, and
    # a DensityField per snapshot (dilating each snapshot to x, with its own grid and a
    # second field, made 34, 66 and 33, and 18, 34 and 17)
    @pytest.mark.parametrize("label, grids, fields", [("evolve_pme", 3, 35),
                                                      ("evolve_fd", 3, 19)])
    def test_snapshots_build_no_dilated_grids(self, label, grids, fields, tmp_path,
                                              monkeypatch):
        counts = {"Grid": 0, "DensityField": 0, "rescale": 0}

        def counted(name, real):
            def call(*args):
                counts[name] += 1
                return real(*args)
            return call

        for cls in (rf.Grid, rf.DensityField):
            monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
        rescale = counted("rescale", rf.functionals.rescale)
        monkeypatch.setattr(rf.functionals, "rescale", rescale)
        monkeypatch.setattr(solver, "rescale", rescale)
        assert main(_digest_configs()[label] + ["--out", str(tmp_path)]) == 0
        # the datum's grid, its dilation onto the y-grid and the final profile's map to x
        assert counts == {"Grid": grids, "DensityField": fields, "rescale": 2}

    def test_byte_identical_reruns(self, tmp_path):
        args = ["evolve", "--p", "1.5", "--dim", "1", "--nodes", "256",
                "--t-start", "1", "--t-end", "1.1", "--snapshots", "3",
                "--initial", "mixture", "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = next((tmp_path / "a").glob("exp-*/snapshots.csv")).read_bytes()
        b = next((tmp_path / "b").glob("exp-*/snapshots.csv")).read_bytes()
        assert a == b

    def test_file_initial_data(self, tmp_path, short_run):
        src = tmp_path / "initial.csv"
        write_profile(src, short_run.fields[0])
        code = main(["evolve", "--p", "1.5", "--dim", "1", "--radius", "8",
                     "--nodes", "256", "--t-start", "1", "--t-end", "1.05",
                     "--snapshots", "3", "--initial", f"file:{src}",
                     "--out", str(tmp_path / "run")])
        assert code == 0

    def test_file_initial_records_its_grid(self, tmp_path, short_run):
        # the profile's 256-node, radius-8 grid is the run's grid, given or not
        src = tmp_path / "initial.csv"
        write_profile(src, short_run.fields[0])
        base = ["evolve", "--p", "1.5", "--dim", "1", "--t-start", "1", "--t-end", "1.05",
                "--snapshots", "3", "--initial", f"file:{src}"]
        assert main(base + ["--out", str(tmp_path / "bare")]) == 0
        assert main(base + ["--nodes", "256", "--radius", "8",
                            "--out", str(tmp_path / "given")]) == 0
        (bare,) = (tmp_path / "bare").glob("exp-*")
        (given,) = (tmp_path / "given").glob("exp-*")
        assert bare.name == given.name
        meta = json.loads((bare / "run_meta.json").read_text())
        config = meta["config"]
        assert (config["nodes"], config["radius"], config["geometry"]) == (256, 8.0, "cartesian1d")
        spec, r, spread = cli._envelope(1.5, 1, 1.05)
        tail = rf.barenblatt_tail_mass(spec, short_run.fields[0].grid.radius() / spread)
        assert meta["domain_sizing"]["tail_mass"] == tail
        assert meta["domain_sizing"]["recommended_radius"] == r * spread

    def test_radial_line_profile_runs(self, tmp_path):
        # the half-line r >= 0 in one dimension: a grid only a profile's header can give
        src = tmp_path / "initial.csv"
        write_profile(src, rf.sample_barenblatt(rf.Grid.radial(1, 128, 4.0), 2.0, normalize=True))
        assert main(["evolve", "--p", "2", "--t-end", "1.05", "--snapshots", "3",
                     "--initial", f"file:{src}", "--out", str(tmp_path / "run")]) == 0
        (meta,) = (tmp_path / "run").glob("exp-*/run_meta.json")
        config = json.loads(meta.read_text())["config"]
        assert (config["geometry"], config["dim"], config["nodes"]) == ("radial", 1, 128)

    def test_profile_dimension_from_its_header(self, tmp_path):
        # a radial n = 3 profile written by `barenblatt --dim 3` runs in three dimensions
        # with no --dim; --dim 3 agrees with it, and --dim 2 names the file
        assert main(["barenblatt", "--p", "2", "--dim", "3", "--nodes", "1024",
                     "--out", str(tmp_path / "profile")]) == 0
        (src,) = (tmp_path / "profile").glob("exp-*/profile.csv")
        base = ["evolve", "--p", "2", "--t-end", "1.05", "--snapshots", "3",
                "--initial", f"file:{src}", "--verify", "isoperimetric"]
        assert main(base + ["--out", str(tmp_path / "bare")]) == 0
        assert main(base + ["--dim", "3", "--out", str(tmp_path / "given")]) == 0
        (bare,) = (tmp_path / "bare").glob("exp-*")
        (given,) = (tmp_path / "given").glob("exp-*")
        assert bare.name == given.name
        config = json.loads((bare / "run_meta.json").read_text())["config"]
        assert (config["geometry"], config["dim"], config["nodes"]) == ("radial", 3, 1024)

    def test_profile_dimension_conflict_names_the_file(self, tmp_path, capsys):
        src = tmp_path / "initial.csv"
        write_profile(src, rf.sample_barenblatt(rf.Grid.radial(3, 128, 4.0), 2.0, normalize=True))
        assert main(["evolve", "--p", "2", "--dim", "2", "--initial", f"file:{src}",
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            f"configuration error: --dim 2 differs from the 3 of the grid of file:{src}\n")
        assert not (tmp_path / "run").exists()

    def test_file_initial_read_once(self, tmp_path, short_run, monkeypatch):
        reads = []

        def counted(path):
            reads.append(path)
            return read_profile(path)

        monkeypatch.setattr(cli, "read_profile", counted)
        src = tmp_path / "initial.csv"
        write_profile(src, short_run.fields[0])
        assert main(["evolve", "--p", "1.5", "--dim", "1", "--t-start", "1", "--t-end", "1.05",
                     "--snapshots", "3", "--initial", f"file:{src}",
                     "--out", str(tmp_path / "run")]) == 0
        assert reads == [str(src)]

    @pytest.mark.parametrize("flags", [["--nodes", "512"], ["--radius", "30"],
                                       ["--config", "radius = 30"], ["--config", "nodes = 512"],
                                       # the options' defaults, against a 128-node radial
                                       # n = 3 profile
                                       ["--dim", "1", "radial3"], ["--nodes", "1024", "radial3"]])
    def test_file_initial_conflicting_grid_exit_one(self, tmp_path, short_run, monkeypatch,
                                                    capsys, flags):
        def no_solve(*args, **kwargs):
            raise AssertionError("evolve ran on a grid the profile does not have")

        monkeypatch.setattr(cli, "evolve", no_solve)
        src, profile = tmp_path / "initial.csv", short_run.fields[0]
        base = ["evolve", "--p", "1.5", "--dim", "1"]
        if flags[-1] == "radial3":
            profile = rf.sample_barenblatt(rf.Grid.radial(3, 128, 4.0), 2.0, normalize=True)
            base, flags = ["evolve", "--p", "2"], flags[:-1]
        write_profile(src, profile)
        if flags[0] == "--config":
            (tmp_path / "run.ini").write_text(f"[grid]\n{flags[1]}\n")
            flags = ["--config", str(tmp_path / "run.ini")]
        code = main(base + ["--initial", f"file:{src}", "--out", str(tmp_path / "run")] + flags)
        assert code == 1
        assert capsys.readouterr().err.startswith("configuration error: --")
        assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("error::renyiflow.errors.BoundaryLeakWarning")
    @pytest.mark.parametrize("label", ["evolve_fd", "mixture_p0.8", "mixture_p0.8_777"])
    def test_default_domain_does_not_warn(self, label, tmp_path):
        # default-sized p < 1 runs: their edge mass is 3.8e-8, 1.3e-8 and 1.2e-8
        assert main(_digest_configs()[label] + ["--out", str(tmp_path)]) == 0

    def test_small_domain_warns(self, tmp_path, capsys):
        # the p = 2 support reaches |x| = 2.08 at t = 1: a radius of 0.5 cuts it off, and
        # the run exits 3, a failed verdict, with no check requested
        with pytest.warns(BoundaryLeakWarning):
            code = main(["evolve", "--p", "2", "--dim", "1", "--nodes", "512",
                         "--initial", "barenblatt", "--t-start", "1", "--radius", "0.5",
                         "--out", str(tmp_path)])
        assert code == 3
        assert "the domain cuts the flow" in capsys.readouterr().err
        (meta,) = tmp_path.glob("exp-*/run_meta.json")
        meta = json.loads(meta.read_text())
        assert meta["edge_mass"] >= 1e-2
        assert set(meta) == {"config", "steps", "rejections", "edge_mass", "final_mass",
                             "domain_sizing"}

    @pytest.mark.filterwarnings("ignore::renyiflow.errors.BoundaryLeakWarning")
    def test_cut_domain_fails_passing_checks(self, tmp_path):
        # radius 1.5 < 2.08 at t = 1: the concavity check alone would pass
        args = ["evolve", "--p", "2", "--dim", "1", "--nodes", "512", "--initial", "barenblatt",
                "--t-start", "1", "--t-end", "1.5", "--snapshots", "5", "--verify", "concavity"]
        assert main(args + ["--radius", "1.5", "--out", str(tmp_path / "cut")]) == 3
        (verdicts,) = (tmp_path / "cut").glob("exp-*/verdicts.txt")
        assert " pass=true " in verdicts.read_text()
        assert main(args + ["--out", str(tmp_path / "sized")]) == 0

    def test_failed_verdict_exit_three(self, tmp_path):
        # debruijn at an absurdly tight tolerance must fail with exit 3
        code = main(["evolve", "--p", "2", "--dim", "1", "--nodes", "256",
                     "--t-start", "1", "--t-end", "1.2", "--snapshots", "5",
                     "--initial", "barenblatt", "--verify", "debruijn",
                     "--tol-debruijn", "1e-12", "--out", str(tmp_path)])
        assert code == 3

    def test_unknown_check_exits_before_solving(self, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("evolve ran for a run that cannot be verified")

        monkeypatch.setattr(cli, "evolve", no_solve)
        code = main(["evolve", "--p", "2", "--dim", "1", "--nodes", "2048", "--t-end", "3",
                     "--initial", "barenblatt", "--verify", "concavty"])
        assert code == 1
        assert "unknown check 'concavty'" in capsys.readouterr().err

    @pytest.mark.parametrize("check", ["concavity", "debruijn"])
    def test_too_few_snapshots_exits_before_solving(self, monkeypatch, capsys, check):
        calls = []
        monkeypatch.setattr(cli, "evolve", lambda *args, **kwargs: calls.append(args))
        code = main(["evolve", "--p", "2", "--nodes", "1024", "--t-end", "2",
                     "--snapshots", "2", "--verify", check])
        assert code == 1 and calls == []
        assert capsys.readouterr().err == \
            f"configuration error: {check} needs at least 3 snapshots\n"

    def test_upsilon_runs_on_two_snapshots(self, tmp_path):
        assert main(["evolve", "--p", "2", "--nodes", "256", "--t-end", "1.05",
                     "--snapshots", "2", "--verify", "upsilon", "--out", str(tmp_path)]) == 0

    def test_shifted_radial_profile_exit_one(self, tmp_path, capsys):
        # node 0 written 10.5 spacings out, where the kernel's first face stays at r = 0
        h, nodes = 0.0234375, 256
        r = 10.5 * h + h * np.arange(nodes)
        u = np.exp(-r * r)
        u /= rf.sphere_surface(3) * h * (r * r) @ u
        head = f"# geometry=radial dim=3 spacing={h!r} origin={float(r[0])!r}"
        rows = (f"{x!r},{v!r}" for x, v in zip(r.tolist(), u.tolist()))
        src = tmp_path / "shifted.csv"
        src.write_text("\n".join([head, "r,u", *rows]) + "\n")
        code = main(["evolve", "--p", "2", "--dim", "3", "--t-end", "1.05", "--snapshots", "3",
                     "--initial", f"file:{src}", "--out", str(tmp_path / "run")])
        assert code == 1
        assert "radial origin 0.24609375 is not half the spacing" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_shifted_cartesian_profile_exit_one(self, tmp_path, capsys):
        # the header origin and the x column moved 8 out: the grid spans [0.03, 16], where
        # its radius() and the run's sizing read [-8, 8]
        grid = rf.Grid.cartesian(256, 8.0)
        x = grid.nodes() + 8.0
        u = rf.sample_gaussian(grid, 1.0, normalize=True).values
        head = f"# geometry=cartesian1d dim=1 spacing={grid.spacing!r} origin={float(x[0])!r}"
        rows = (f"{a!r},{b!r}" for a, b in zip(x.tolist(), u.tolist()))
        src = tmp_path / "shifted.csv"
        src.write_text("\n".join([head, "x,u", *rows]) + "\n")
        code = main(["evolve", "--p", "2", "--t-end", "1.05", "--snapshots", "3",
                     "--initial", f"file:{src}", "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"configuration error: {src}: cartesian origin 0.03125 is not -7.96875, half a "
            "spacing in from -radius: the grid is not centered at 0\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_p_near_one_sizes_quickly(self, tmp_path, tail_calls):
        # Newton stops 2.6e-9 off the tail root here, where the sizing walked an ulp per
        # tail-mass call, more than 10,000 calls in 8 s
        code = main(["evolve", "--p", "0.9999999999", "--dim", "2", "--initial", "barenblatt",
                     "--out", str(tmp_path)])
        assert code == 0 and len(tail_calls) <= 200

    @pytest.mark.parametrize("defect, where", [
        ("spacing=abc", "line 1"), ("origin=np.float64(0.24609375)", "line 1"),
        ("headerless", "line 1"), ("no origin", "line 1"), ("three cells", "line 5"),
        ("non-numeric cell", "line 7"), ("off the grid", "line 9"),
        ("dim=3", "cartesian1d grids are one-dimensional")])
    def test_malformed_profile_exit_one(self, tmp_path, short_run, monkeypatch, capsys,
                                        defect, where):
        def no_solve(*args, **kwargs):
            raise AssertionError("evolve ran from a profile that does not parse")

        monkeypatch.setattr(cli, "evolve", no_solve)
        src = tmp_path / "initial.csv"
        write_profile(src, short_run.fields[0])
        lines = src.read_text().splitlines()
        if defect.startswith(("dim=", "spacing=", "origin=")):
            lines[0] = re.sub(defect.split("=")[0] + r"=\S+", defect, lines[0])
        elif defect == "no origin":
            lines[0] = re.sub(r" origin=\S+", "", lines[0])
        elif defect == "headerless":
            del lines[0]
        elif defect == "three cells":
            lines[4] += ",1.0"
        elif defect == "non-numeric cell":
            lines[6] = lines[6].split(",")[0] + ",abc"
        else:
            lines[8] = "0.5," + lines[8].split(",")[1]
        src.write_text("\n".join(lines) + "\n")
        code = main(["evolve", "--p", "1.5", "--t-end", "1.05", "--snapshots", "3",
                     "--initial", f"file:{src}", "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {src}: {where}")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--p", "1", "--dim", "1", "--initial", "gaussian"], "p = 1 has no Barenblatt profile"),
        (["--p", "0.6", "--dim", "3"], "isoperimetric bound needs p > n/(n+2) = 0.6"),
    ])
    def test_undefined_isoperimetric_exits_before_solving(self, monkeypatch, capsys, argv,
                                                          message):
        def no_solve(*args, **kwargs):
            raise AssertionError("the run was set up for a check undefined at its p")

        monkeypatch.setattr(cli, "evolve", no_solve)
        monkeypatch.setattr(cli, "_default_radius", no_solve)  # runs before the grid
        code = main(["evolve", *argv, "--verify", "concavity,isoperimetric"])
        assert code == 1
        assert message in capsys.readouterr().err


class TestDomainSizing:
    """`evolve` sizes its domain against the pde Barenblatt envelope at max(t_end, 1)
    (`cli._envelope`) and records the envelope's mass outside the grid in run_meta.json."""

    BARENBLATT = ["evolve", "--initial", "barenblatt", "--t-start", "1", "--snapshots", "3"]

    # the default radius and the record, pinned bit for bit so that any change to the
    # sizing shows: a compact envelope, and a fat-tailed one that leaves 1.6e-7 of its mass out
    @pytest.mark.parametrize("argv, radius, sizing", [
        (["--p", "2", "--dim", "1", "--nodes", "256", "--t-end", "1.5"], 3.0954320513379896,
         {"compact_support": True, "tail_mass": 0.0, "recommended_radius": 2.3811015779522995,
          "adequate": True}),
        (["--p", "0.8", "--dim", "3", "--nodes", "128", "--t-end", "1.25"], 66.42904486700604,
         {"compact_support": False, "tail_mass": 1.6326824159512175e-07,
          "recommended_radius": 51.09926528231234, "adequate": True}),
    ], ids=["pme", "fd"])
    def test_default_domain_record(self, tmp_path, argv, radius, sizing):
        assert main([*self.BARENBLATT, *argv, "--out", str(tmp_path)]) == 0
        meta = json.loads(next(tmp_path.glob("exp-*/run_meta.json")).read_text())
        assert meta["config"]["radius"] == radius
        assert meta["domain_sizing"] == sizing

    @pytest.mark.filterwarnings("ignore::renyiflow.errors.BoundaryLeakWarning")
    def test_support_cutting_grid_records_its_tail(self, tmp_path):
        # p = 2, n = 1: (1 - s^2) puts 5/16 of its mass beyond half the support edge
        spec = rf.barenblatt_spec(2.0, 1, rf.PDE_NORMALIZED)
        edge = rf.support_radius(spec) * 2.0 ** (1.0 / spec.coeffs.mu)
        assert main([*self.BARENBLATT, "--p", "2", "--dim", "1", "--nodes", "256", "--t-end",
                     "2", "--radius", repr(0.5 * edge), "--out", str(tmp_path)]) == 3
        meta = json.loads(next(tmp_path.glob("exp-*/run_meta.json")).read_text())
        assert meta["domain_sizing"] == {"compact_support": True, "tail_mass": 0.3124999999999998,
                                         "recommended_radius": edge, "adequate": False}
        assert meta["domain_sizing"]["tail_mass"] == pytest.approx(0.3125, rel=1e-12)

    @staticmethod
    def _recommended(p, dim, t_end):
        _, r, spread = cli._envelope(p, dim, t_end)
        return r * spread

    def test_radius_grows_toward_critical_p(self):
        assert self._recommended(0.7, 1, 1.0001) > self._recommended(0.9, 1, 1.0001)

    def test_recommended_radius_captures_mass(self):
        grid = rf.Grid.cartesian(8192, self._recommended(0.9, 1, 1.0001))
        assert rf.mass(rf.sample_barenblatt(grid, 0.9)) >= 1.0 - 1e-6


class TestVerifyCommand:
    def test_checks_on_existing_csv(self, short_run, tmp_path, capsys):
        csv_path = tmp_path / "snapshots.csv"
        write_snapshots(csv_path, short_run.snapshots)
        code = main(["verify", "--snapshots-csv", str(csv_path), "--p", "1.5",
                     "--dim", "1", "--checks", "concavity,upsilon"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_convex_series_fails(self, tmp_path, make_series=None):
        t = np.linspace(1.0, 2.0, 9)
        series = [rf.FunctionalSnapshot(float(tt), 1.0, 1.0, 0.0, float(tt * tt),
                                        1.0, 1.0, None, 1.0) for tt in t]
        csv_path = tmp_path / "convex.csv"
        write_snapshots(csv_path, series)
        code = main(["verify", "--snapshots-csv", str(csv_path), "--p", "2",
                     "--dim", "1", "--checks", "concavity"])
        assert code == 3

    def test_replay_matches_evolve_on_every_check(self, tmp_path):
        # every check reads only the series, so verify gives evolve's verdicts, line for line
        argv = _digest_configs()["mixture_p1.5"]
        checks = argv[argv.index("--verify") + 1]
        assert checks.split(",") == list(CHECKS)
        assert main([*argv, "--out", str(tmp_path / "run")]) == 0
        (csv_path,) = (tmp_path / "run").glob("exp-*/snapshots.csv")
        assert main(["verify", "--snapshots-csv", str(csv_path), "--p", "1.5", "--dim", "1",
                     "--checks", checks, "--out", str(tmp_path / "replay")]) == 0
        (replayed,) = (tmp_path / "replay").glob("exp-*/verdicts.txt")
        want = (csv_path.parent / "verdicts.txt").read_text().splitlines()
        assert replayed.read_text().splitlines() == want and len(want) == len(CHECKS)

    def test_header_only_csv_exit_one(self, tmp_path, capsys):
        csv_path = tmp_path / "snapshots.csv"
        write_snapshots(csv_path, [])
        assert read_snapshots(csv_path) == []
        code = main(["verify", "--snapshots-csv", str(csv_path), "--p", "1.5",
                     "--dim", "1", "--checks", "isoperimetric"])
        assert code == 1
        assert capsys.readouterr().err == \
            "configuration error: isoperimetric needs at least 1 snapshots\n"

    def test_missing_csv_exit_one(self):
        assert main(["verify", "--snapshots-csv", "/nonexistent.csv", "--p", "2"]) == 1

    def test_non_text_csv_exit_one(self, tmp_path, capsys):
        csv_path = tmp_path / "snapshots.csv"
        csv_path.write_bytes(b"\xff\xfe\x00\x81t,N_p")
        assert main(["verify", "--snapshots-csv", str(csv_path), "--p", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {csv_path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("defect", ["nan", "abc", "repeated_t", "zero_ip", "zero_upsilon"])
    def test_bad_csv_exit_one_without_warnings(self, short_run, tmp_path, capsys, defect):
        # the reader takes a zero; the check that divides by it rejects the series
        checks, named = {"zero_ip": ("debruijn", "I_p vanishes"),
                         "zero_upsilon": ("upsilon", "Upsilon_p at the first snapshot vanishes"),
                         }.get(defect, ("concavity,upsilon", "row 3"))
        csv_path = tmp_path / "snapshots.csv"
        csv_path.write_text("\n".join(_corrupt(short_run.snapshots, defect)) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["verify", "--snapshots-csv", str(csv_path), "--p", "1.5",
                         "--dim", "1", "--checks", checks])
        assert code == 1
        captured = capsys.readouterr()
        assert named in captured.err and "FAIL" not in captured.out
        assert captured.err.startswith("configuration error")

    def test_vanishing_dissipation_exit_one(self, short_run, tmp_path, capsys):
        csv_path = tmp_path / "snapshots.csv"
        write_snapshots(csv_path, [dataclasses.replace(s, d_p=0.0) for s in short_run.snapshots])
        code = main(["verify", "--snapshots-csv", str(csv_path), "--p", "1.5",
                     "--dim", "1", "--checks", "dissipation"])
        assert code == 1
        assert capsys.readouterr().err == "configuration error: D_p vanishes (below 1e-300); " \
            "a relative measure is meaningless\n"

    def test_replay_writes_the_run_verdicts(self, tmp_path):
        # the same checks on the same series: verify --out writes evolve's verdicts.txt
        checks = "concavity,upsilon,debruijn"
        run = main(["evolve", "--p", "1.5", "--dim", "1", "--nodes", "384",
                    "--t-start", "1", "--t-end", "1.2", "--snapshots", "9",
                    "--initial", "mixture", "--seed", "4", "--verify", checks,
                    "--out", str(tmp_path / "run")])
        (csv_path,) = (tmp_path / "run").glob("exp-*/snapshots.csv")
        replay = main(["verify", "--snapshots-csv", str(csv_path), "--p", "1.5", "--dim", "1",
                       "--checks", checks, "--out", str(tmp_path / "replay")])
        assert run == replay == 0
        (replayed,) = (tmp_path / "replay").glob("exp-*/verdicts.txt")
        assert replayed.read_bytes() == (csv_path.parent / "verdicts.txt").read_bytes()
        # the directory is named from the series, p, dim, checks and tolerances: one
        # per configuration under one root, and the same for the same series at another path
        main(["evolve", "--p", "2", "--nodes", "256", "--initial", "barenblatt",
              "--t-start", "1", "--snapshots", "5", "--out", str(tmp_path / "line")])
        (csv_path,) = (tmp_path / "line").glob("exp-*/snapshots.csv")
        replays = [["--p", "2"], ["--p", "1.5"], ["--p", "2", "--tol-concavity", "1e-30"]]
        named = []
        for flags in replays:
            main(["verify", "--snapshots-csv", str(csv_path), *flags, "--checks", "concavity",
                  "--out", str(tmp_path / "one")])
            (new,) = set((tmp_path / "one").glob("exp-*")).difference(named)
            named.append(new)
        verdicts = [(d / "verdicts.txt").read_text() for d in named]
        assert "pass=true" in verdicts[0] and "pass=false" in verdicts[2]
        moved = tmp_path / "elsewhere" / "snapshots.csv"
        moved.parent.mkdir()
        moved.write_bytes(csv_path.read_bytes())
        main(["verify", "--snapshots-csv", str(moved), *replays[0], "--checks", "concavity",
              "--out", str(tmp_path / "two")])
        assert [d.name for d in (tmp_path / "two").glob("exp-*")] == [named[0].name]

    def test_non_numeric_cell_named(self, short_run, tmp_path):
        path = tmp_path / "snapshots.csv"
        path.write_text("\n".join(_corrupt(short_run.snapshots, "abc")) + "\n")
        with pytest.raises(rf.DomainError, match="row 3 has a non-numeric cell 'abc'"):
            read_snapshots(path)


class TestCheckRegistry:
    @staticmethod
    def _tol_flags(subcommand):
        return [opt[len("--tol-"):] for a in cli._build_parser()[1][subcommand]._actions
                for opt in a.option_strings if opt.startswith("--tol-")]

    def test_evolve_flags_are_the_registry(self):
        assert self._tol_flags("evolve") == list(CHECKS)

    def test_verify_flags_are_the_series_checks(self):
        # every check reads only the snapshot series, so verify offers the whole table
        assert self._tol_flags("verify") == list(CHECKS)
        assert self._tol_flags("verify") == ["concavity", "upsilon", "debruijn", "dissipation",
                                             "isoperimetric"]


class TestSweepCommand:
    def test_row_count_and_aggregate(self, tmp_path, capsys):
        code = main(["sweep", "--p", "1.5,2", "--dim", "1", "--seeds", "2",
                     "--nodes", "256", "--t-end", "1.1", "--snapshots", "5",
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        rows = [r for r in out.strip().splitlines() if r and not r.startswith("p,")]
        assert len(rows) == 4
        assert code == 0
        sweep_csv = next(tmp_path.glob("exp-*/sweep.csv"))
        assert sweep_csv.read_text().count("true") == 4

    def test_deterministic_reruns(self, tmp_path):
        args = ["sweep", "--p", "1.5", "--dim", "1", "--seeds", "2",
                "--nodes", "256", "--t-end", "1.1", "--snapshots", "5"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        a = next((tmp_path / "a").glob("exp-*/sweep.csv")).read_bytes()
        b = next((tmp_path / "b").glob("exp-*/sweep.csv")).read_bytes()
        assert a == b

    def test_parallel_workers_match_serial(self, tmp_path):
        # p = 1 sizes its domain for the heat kernel at t_end = 0.02 (radius 5.6), which
        # cuts the mixture's tails; p >= 1.5 keeps the mixture's radius of 10.  The
        # workers take the groups of one p, each marching its two seeds together
        args = ["sweep", "--p", "1,1.5,2", "--dim", "1", "--seeds", "2",
                "--nodes", "256", "--t-start", "0.01", "--t-end", "0.02", "--snapshots", "3"]
        with pytest.warns(BoundaryLeakWarning):
            main(args + ["--workers", "1", "--out", str(tmp_path / "serial")])
        main(args + ["--workers", "2", "--out", str(tmp_path / "par")])  # warns in a worker
        (serial,), (par,) = ((tmp_path / run).glob("exp-*") for run in ("serial", "par"))
        files = sorted(path.relative_to(serial) for path in serial.rglob("*") if path.is_file())
        assert len(files) == 1 + 2 * 6  # sweep.csv, and each row's snapshots and verdicts
        assert files == sorted(path.relative_to(par) for path in par.rglob("*") if path.is_file())
        for name in files:
            assert (serial / name).read_bytes() == (par / name).read_bytes(), name
        header, *rows = (serial / "sweep.csv").read_text().splitlines()
        assert header == "p,n,seed,passed,error,edge_mass"
        edge = {row.split(",")[0]: float(row.split(",")[5]) for row in rows}
        assert edge["1.0"] > DOMAIN_TOL >= max(edge["1.5"], edge["2.0"])

    def test_error_row_has_no_edge_mass(self, tmp_path):
        # p = 0.2 is undefined in three dimensions and p = 2 is not: an error of the
        # row's own p stays that row's, and the next row still runs
        code = main(["sweep", "--p", "0.2,2", "--dim", "3", "--seeds", "1",
                     "--out", str(tmp_path)])
        assert code == 3
        bad, good = next(tmp_path.glob("exp-*/sweep.csv")).read_text().splitlines()[1:]
        assert bad == "0.2,3,0,false,need p > 1 - 2/n = 0.33333333333333337; got p = 0.2,"
        assert good.startswith("2.0,3,0,true,,") and float(good.split(",")[5]) <= DOMAIN_TOL

    def test_nonpositive_p_row_records_its_error(self, tmp_path):
        code = main(["sweep", "--p=-0.5,2", "--dim", "1", "--seeds", "1", "--nodes", "64",
                     "--out", str(tmp_path)])
        assert code == 3
        bad, good = next(tmp_path.glob("exp-*/sweep.csv")).read_text().splitlines()[1:]
        assert bad == "-0.5,1,0,false,need p > 0; got p = -0.5,"
        assert good.startswith("2.0,1,0,true,,")

    def test_stability_row_records_its_error(self, monkeypatch, tmp_path):
        _unsettled(monkeypatch)
        code = main(["sweep", "--p", "0.8", "--seeds", "1", "--nodes", "64", "--t-end", "1.05",
                     "--snapshots", "3", "--out", str(tmp_path)])
        assert code == 3
        row = next(tmp_path.glob("exp-*/sweep.csv")).read_text().splitlines()[1]
        assert row == \
            "0.8,1,0,false,stability: implicit step at t = 1.0: linearization did not settle,"

    @pytest.mark.parametrize("shared, message", [
        (["--p", "2,0.8", "--seeds", "2", "--nodes", "4"],
         "grid needs at least 8 nodes"),
        (["--t-end", "0.5"], "need t_end > t_start >= 0"),
        (["--t-start", "-1"], "need t_end > t_start >= 0"),
        (["--snapshots", "2"], "concavity needs at least 3 snapshots"),
        (["--workers", "0"], "sweep: --workers must be at least 1"),
        (["--workers", "-3"], "sweep: --workers must be at least 1"),
    ])
    def test_shared_value_no_row_can_use_exits_one_unwritten(self, tmp_path, capsys, shared,
                                                              message):
        assert main(["sweep", "--dim", "1", *shared, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_degenerate_row_records_its_error(self, monkeypatch):
        def degenerate(cfg):
            raise DegenerateError("D_p vanishes")

        monkeypatch.setattr(cli, "_datum", degenerate)
        row = cli._sweep_row((2.0, 1, 0, 64, 1.0, 1.1, 3, None))
        assert (row["passed"], row["error"], row["edge_mass"]) == (False, "D_p vanishes", "")

    # isoperimetric and the domain sizing are both defined exactly where the Barenblatt
    # profile has a finite second moment: p != 1 and p > n/(n+2)
    MOMENT_RANGE = pytest.mark.parametrize("p, n, defined", [
        (1.0, 3, False), (0.6, 3, False), (0.8, 3, True), (2.0, 1, True)])

    @MOMENT_RANGE
    def test_row_checks_isoperimetric_in_the_moment_range(self, monkeypatch, p, n, defined):
        def record(cfg):
            names.extend(cfg["verify"])
            raise DomainError("recorded")

        names = []
        monkeypatch.setattr(cli, "_default_radius", lambda *args: 10.0)
        monkeypatch.setattr(cli, "_datum", record)
        assert cli._sweep_row((p, n, 0, 64, 1.0, 1.01, 2, None))["error"] == "recorded"
        assert names == ["concavity", "upsilon"] + ["isoperimetric"] * defined

    @MOMENT_RANGE
    @pytest.mark.filterwarnings("ignore::renyiflow.errors.BoundaryLeakWarning")
    def test_evolve_sizes_the_domain_in_the_moment_range(self, tmp_path, p, n, defined):
        main(["evolve", "--p", str(p), "--dim", str(n), "--nodes", "64", "--radius", "10",
              "--t-end", "1.01", "--snapshots", "2", "--out", str(tmp_path)])
        meta = json.loads(next(tmp_path.glob("exp-*/run_meta.json")).read_text())
        assert (meta["domain_sizing"] is not None) == defined

    @pytest.mark.parametrize("selection", [["--seeds", "0"], ["--p", ""], ["--dim", ","]])
    def test_empty_sweep_exits_one_unwritten(self, tmp_path, capsys, selection):
        code = main(["sweep", *selection, "--nodes", "64", "--out", str(tmp_path)])
        assert code == 1
        assert "select no run" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_rows_march_together_bitwise_their_evolve_runs(self, tmp_path, monkeypatch):
        # two p, both dims, three seeds: each p's rows march as the blocks of one kernel
        # per frame (the p = 1, n = 3, seed 2 row in y, the others in x), and each row's
        # snapshots, steps and rejections are its own `evolve --seed` run's, bit for bit
        common = ["--nodes", "512", "--t-end", "1.15", "--snapshots", "7"]
        marched, real = [], cli._march

        def march(data):
            marched.extend(real(data))
            return marched[-len(data):]

        monkeypatch.setattr(cli, "_march", march)
        assert main(["sweep", "--p", "1,2", "--dim", "1,3", "--seeds", "3", *common,
                     "--out", str(tmp_path / "sweep")]) == 0
        monkeypatch.undo()
        (sweep,) = (tmp_path / "sweep").glob("exp-*")
        rows = [(p, n, seed) for p in (1.0, 2.0) for n in (1, 3) for seed in range(3)]
        assert len(marched) == len(rows)
        for (p, n, seed), result in zip(rows, marched):
            out = tmp_path / f"evolve-{p}-{n}-{seed}"
            assert main(["evolve", "--p", str(p), "--dim", str(n), "--seed", str(seed),
                         *common, "--out", str(out)]) == 0
            (run,) = out.glob("exp-*")
            meta = json.loads((run / "run_meta.json").read_text())
            row = sweep / f"row-p{p}-n{n}-s{seed}"
            assert (row / "snapshots.csv").read_bytes() == (run / "snapshots.csv").read_bytes()
            assert (result.step_count, result.rejection_count) == (meta["steps"], meta["rejections"])
            assert (result.fields.marched[-1][2] > 0.0) == ((p, n, seed) == (1.0, 3, 2))  # in y

    def test_groups_build_one_probe_kernel_and_plan(self, tmp_path, monkeypatch):
        # the benchmark's sweep_mixed argv: one probe kernel per p, one march kernel and
        # plan per p and frame (p = 1 has a row in y), and 179 grouped steps for the
        # 24 rows' 595
        kernels, plans = [], []
        real_kernel, real_plan = solver._Kernel.__init__, solver._ReductionPlan.__init__
        steps, real_step = [], solver._Kernel.implicit_advance

        def kernel(k, grids, *args):
            real_kernel(k, grids, *args)
            kernels.append((k, len(grids)))

        def plan(pl, n, blocks=1):
            plans.append(blocks)
            real_plan(pl, n, blocks)

        def step(k, dt, t):
            steps.append(k.blocks)
            return real_step(k, dt, t)

        monkeypatch.setattr(solver._Kernel, "__init__", kernel)
        monkeypatch.setattr(solver._ReductionPlan, "__init__", plan)
        monkeypatch.setattr(solver._Kernel, "implicit_advance", step)
        argv = ["sweep", "--p", "0.8,1.0,1.5,2.0", "--dim", "1,3", "--seeds", "3",
                "--nodes", "512", "--out", str(tmp_path)]
        assert main(argv) == 0
        probes = [blocks for k, blocks in kernels if k.plan is None]  # the probes never step
        marches = [blocks for k, blocks in kernels if k.plan is not None]
        assert (probes, marches, plans) == ([6, 6, 6, 6], [6, 5, 1, 6, 6], [6, 5, 1, 6, 6])
        assert (len(steps), sum(steps)) == (179, 595)

    def test_failed_row_leaves_the_others_bitwise(self, tmp_path, monkeypatch):
        # the p = 2, n = 1, seed 1 block fails in its group's third step, the seed 2 block
        # fails as it enters its first interval, before the group's first step, and the
        # seed 1 row of n = 3 is refused before it marches; the other rows are laid end to
        # end again, start from their own first steps and keep the bytes of a sweep where
        # nothing failed
        args = ["sweep", "--p", "2", "--dim", "1,3", "--seeds", "3", "--nodes", "256",
                "--t-end", "1.1", "--snapshots", "5"]
        assert main(args + ["--out", str(tmp_path / "whole")]) == 0
        calls, real_step, real_field = [], solver._Kernel.implicit_advance, cli._initial_field
        real_enter = solver._Run.enter

        def enter(run, kernel, b):
            if run.index == 2:  # the n = 1, seed 2 row
                raise DomainError("injected at entry")
            real_enter(run, kernel, b)

        def step(kernel, dt, t):
            calls.append(1)
            if len(calls) == 3:  # origin 1: the n = 1, seed 1 row
                b = kernel.origins.index(1)
                raise solver._failure({b: f"implicit step at t = {t[b]}: injected"})
            return real_step(kernel, dt, t)

        def initial_field(kind, grid, p, t_start, seed):
            f0 = real_field(kind, grid, p, t_start, seed)
            return rf.DensityField(grid, 2.0 * f0.values) if (grid.dim, seed) == (3, 1) else f0

        monkeypatch.setattr(solver._Kernel, "implicit_advance", step)
        monkeypatch.setattr(solver._Run, "enter", enter)
        monkeypatch.setattr(cli, "_initial_field", initial_field)
        assert main(args + ["--out", str(tmp_path / "failed")]) == 3
        (whole,), (failed,) = ((tmp_path / run).glob("exp-*") for run in ("whole", "failed"))
        lines = (failed / "sweep.csv").read_text().splitlines()
        assert lines[2].startswith("2.0,1,1,false,stability: implicit step at t = 1.0")
        assert lines[2].endswith(": injected,")
        assert lines[3].startswith("2.0,1,2,false,injected at entry,")
        assert lines[5].startswith("2.0,3,1,false,initial mass must be 1 within 1e-6; got 2.0")
        assert sorted(path.name for path in failed.iterdir()) == [
            "row-p2.0-n1-s0", "row-p2.0-n3-s0", "row-p2.0-n3-s2", "sweep.csv"]
        for row in ("row-p2.0-n1-s0", "row-p2.0-n3-s0", "row-p2.0-n3-s2"):
            for name in ("snapshots.csv", "verdicts.txt"):
                assert (failed / row / name).read_bytes() == (whole / row / name).read_bytes()

    def test_row_is_the_evolve_run(self, tmp_path):
        # a sweep row and `evolve` share one run path: same datum, grid and march
        common = ["--dim", "1", "--nodes", "256", "--t-end", "1.1", "--snapshots", "5"]
        assert main(["sweep", "--p", "1.5", "--seeds", "2", *common,
                     "--out", str(tmp_path / "sweep")]) == 0
        assert main(["evolve", "--p", "1.5", "--seed", "1", *common,
                     "--out", str(tmp_path / "evolve")]) == 0
        row = next((tmp_path / "sweep").glob("exp-*/row-p1.5-n1-s1/snapshots.csv"))
        run = next((tmp_path / "evolve").glob("exp-*/snapshots.csv"))
        assert row.read_bytes() == run.read_bytes()


class TestStartUp:
    @staticmethod
    def _fresh(probe: str, *args: str) -> str:
        """The stdout of probe, run with args in a fresh interpreter on this checkout's src."""
        src = str(Path(cli.__file__).resolve().parents[1])
        return subprocess.run([sys.executable, "-c", probe, *args], capture_output=True,
                              text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src}).stdout.strip()

    def test_cli_import_leaves_out_the_process_pool(self):
        # only `sweep --workers` > 1 needs it; test_parallel_workers_match_serial runs that
        probe = "import sys, renyiflow.cli; print('concurrent.futures.process' in sys.modules)"
        assert self._fresh(probe) == "False"

    def test_cli_import_builds_no_parser(self):
        probe = "import renyiflow.cli as c; print(c._build_parser.cache_info().currsize)"
        assert self._fresh(probe) == "0"

    @pytest.mark.parametrize("config", [False, True])
    def test_barenblatt_evolve_maps_no_openssl(self, tmp_path, config):
        # hashlib loads OpenSSL (3.4 MB resident); only a run with --config needs configparser
        argv = ["evolve", "--p", "2", "--initial", "barenblatt", "--t-start", "1",
                "--t-end", "1.1", "--nodes", "64", "--snapshots", "3", "--out", str(tmp_path)]
        if config:
            (tmp_path / "run.ini").write_text("[grid]\nnodes = 64\n")
            argv += ["--config", str(tmp_path / "run.ini")]
        probe = ("import sys; from renyiflow import cli; code = cli.main(sys.argv[1:]); "
                 "print(code, *(m in sys.modules for m in ('_hashlib', 'hashlib', 'configparser')))")
        assert self._fresh(probe, *argv) == f"0 False False {config}"


HASHED_CONFIGS = [
    {},
    {"subcommand": "constants", "pairs": ["2,1", "0.9,1"]},
    {"subcommand": "evolve", "p": 2.0, "dim": 1, "nodes": 2048, "radius": None,
     "verify": ["concavity"], "tols": {"upsilon": 1e-4}},
    {"subcommand": "verify", "series": ["t,mass", "1.0,1.0"], "p": 0.8, "dim": 1,
     "checks": ["concavity"], "tols": {}},
    {"path": Path("out") / "snapshots.csv"},  # through default=str
]


class TestConfigHash:
    @staticmethod
    def _hashlib_name(config: dict) -> str:
        canon = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    @pytest.mark.parametrize("config", HASHED_CONFIGS)
    def test_is_the_hashlib_digest(self, config):
        assert reporting.config_hash(config) == self._hashlib_name(config)

    def test_hashlib_stands_in_for_the_built_in_module(self, monkeypatch):
        for name in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, name, None)  # unimportable
        try:
            fallback = importlib.reload(reporting)
            assert fallback._sha256 is hashlib.sha256
            for config in HASHED_CONFIGS:
                assert fallback.config_hash(config) == self._hashlib_name(config)
        finally:
            monkeypatch.undo()
            importlib.reload(reporting)


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\npair = 2,1\n")
        code = main(["constants", "--config", str(cfg), "--pair", "1.5,1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1.5,1" in out and "2,1" not in out.replace("1.5,1", "")

    @pytest.mark.parametrize("flags", [["--pai", "1.5,1"], ["--pair=1.5,1"]])
    def test_abbreviated_or_joined_flag_overrides_config(self, tmp_path, capsys, flags):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\npair = 2,1\n")
        assert main(["constants", "--config", str(cfg), *flags]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1.5"]

    @pytest.mark.parametrize("flag", ["--dim", "--di"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_flag_wins_over_a_bad_config_value(self, tmp_path, monkeypatch, flag, dim):
        # --dim 1 parses to the very object of the default, and still counts as given
        seen = []
        _, help_, options = cli._COMMANDS["evolve"]
        monkeypatch.setitem(cli._COMMANDS, "evolve",
                            (lambda args: seen.append(args.dim) or 0, help_, options))
        cfg = tmp_path / "run.ini"
        cfg.write_text("[grid]\ndim = abc\n")
        assert main(["evolve", "--p", "2", flag, str(dim), "--config", str(cfg)]) == 0
        assert seen == [dim]

    def test_config_supplies_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\npair = 2,1;0.9,1\n")
        code = main(["constants", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0 and len(out.strip().splitlines()) == 3

    def test_missing_config_exit_one(self):
        assert main(["constants", "--config", "/no/such/file.ini"]) == 1

    @pytest.mark.parametrize("t_end_key", ["t-end", "t_end"])
    def test_config_run_equals_flag_run(self, tmp_path, t_end_key):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[grid]\n{t_end_key} = 1.1\nnodes = 256\n[output]\nsnapshots = 5\n")
        base = ["evolve", "--p", "1.5", "--dim", "1", "--seed", "3"]
        assert main(base + ["--config", str(cfg), "--out", str(tmp_path / "config")]) == 0
        assert main(base + ["--t-end", "1.1", "--nodes", "256", "--snapshots", "5",
                            "--out", str(tmp_path / "flags")]) == 0
        (by_config,) = (tmp_path / "config").glob("exp-*")
        (by_flags,) = (tmp_path / "flags").glob("exp-*")
        assert by_config.name == by_flags.name
        assert (by_config / "run_meta.json").read_bytes() == \
            (by_flags / "run_meta.json").read_bytes()

    def test_unknown_keys_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\ncolour = red\nrun = sweep\npair = 2,1\n")
        assert main(["constants", "--config", str(cfg), "--out", str(tmp_path / "config")]) == 0
        by_config = capsys.readouterr().out
        assert main(["constants", "--pair", "2,1", "--out", str(tmp_path / "flags")]) == 0
        assert capsys.readouterr().out == by_config
        assert [d.name for d in (tmp_path / "config").glob("exp-*")] == \
            [d.name for d in (tmp_path / "flags").glob("exp-*")]

    def test_bad_config_value_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[grid]\nnodes = abc\n")
        assert main(["evolve", "--p", "2", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == \
            "configuration error: argument --nodes: invalid int value: 'abc'\n"

    def test_bad_config_choice_exit_one(self, tmp_path, monkeypatch, capsys):
        def no_sample(*args, **kwargs):
            raise AssertionError("barenblatt ran in a convention no flag could give")

        monkeypatch.setattr(cli, "sample_barenblatt_from_spec", no_sample)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[profile]\nconvention = spherical\n")
        assert main(["barenblatt", "--p", "2", "--config", str(cfg)]) == 1
        by_config = capsys.readouterr().err
        assert main(["barenblatt", "--p", "2", "--convention", "spherical"]) == 1
        assert by_config == capsys.readouterr().err
        assert by_config.startswith(
            "configuration error: argument --convention: invalid choice: 'spherical'")

    def test_malformed_config_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("nodes = 256\n")  # no section header
        assert main(["evolve", "--p", "2", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("configuration error:")

    @pytest.mark.parametrize("text, nodes", [
        ("[DEFAULT]\nnodes = 512\n[grid]\nnodes = 256\n", 256),
        # configparser folds [DEFAULT] into every section: a later one must not bring it back
        ("[DEFAULT]\nnodes = 512\n[grid]\nnodes = 256\n[run]\nt-end = 1.5\n", 256),
        ("[DEFAULT]\nnodes = 512\n[run]\nt-end = 1.5\n", 512),
        ("[grid]\nnodes = 256\n[run]\nnodes = 300\n", 300)])
    def test_section_wins_over_default(self, tmp_path, monkeypatch, text, nodes):
        seen = []
        _, help_, options = cli._COMMANDS["evolve"]
        monkeypatch.setitem(cli._COMMANDS, "evolve", (seen.append, help_, options))
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        main(["evolve", "--p", "2", "--config", str(cfg)])
        assert seen[0].nodes == nodes

    def test_config_defaults_last_one_call(self, tmp_path, monkeypatch):
        # a --config run leaves the parser that every later run shares as it found it
        seen = []

        def record(args):
            seen.append(args)
            return 0

        _, help_, options = cli._COMMANDS["evolve"]
        monkeypatch.setitem(cli._COMMANDS, "evolve", (record, help_, options))
        cfg = tmp_path / "run.ini"
        cfg.write_text("[grid]\nnodes = 256\nt-end = 1.1\n")
        assert main(["evolve", "--p", "2", "--config", str(cfg)]) == 0
        assert main(["evolve", "--p", "2"]) == 0
        assert (seen[0].nodes, seen[0].t_end) == (256, 1.1)
        assert (seen[1].nodes, seen[1].t_end, seen[1].config) == (1024, 2.0, None)


class TestParserOptions:
    """One parser per process, built by the first main call; help shows every option."""

    def test_two_calls_build_one_parser(self, tmp_path, capsys):
        cli._build_parser.cache_clear()
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\npair = 2,1\n")
        assert main(["constants", "--config", str(cfg)]) == 0
        assert main(["constants", "--pair", "1.5,1"]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert list(cli._build_parser()[1]) == list(cli._COMMANDS)

    def test_help_lists_every_option(self, capsys):
        full = {name: [opt for a in command._actions for opt in a.option_strings]
                for name, command in cli._build_parser()[1].items()}
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert all(re.search(rf"\b{name}\b", out) for name in full)
        for name, opts in full.items():
            with pytest.raises(SystemExit) as exit_:
                main([name, "--help"])
            assert exit_.value.code == 0
            out = capsys.readouterr().out
            assert all(re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", out) for opt in opts)


class TestUsageErrors:
    """argparse's usage errors are configuration errors: exit 1, not argparse's 2."""

    def test_bad_flag_value_exit_one(self, capsys):
        assert main(["evolve", "--p", "2", "--nodes", "abc"]) == 1
        assert capsys.readouterr().err == \
            "configuration error: argument --nodes: invalid int value: 'abc'\n"

    @pytest.mark.parametrize("argv", [[], ["evolv", "--p", "2"], ["evolve", "--colour", "red"],
                                      ["evolve", "--p", "2", "--geometry", "radial"]])
    def test_bad_command_line_exit_one(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("configuration error: ")

    @pytest.mark.parametrize("argv, message", [
        (["constants", "--pair", "2;1"], "constants: malformed pair '2;1'"),
        (["barenblatt"], "barenblatt: --p is required"),
        (["evolve"], "evolve: --p is required"),
        (["evolve", "--p", "2", "--initial", "foo"],
         "unknown initial data kind 'foo'"),
        (["evolve", "--p", "inf"], "need a finite p; got p = inf"),
        (["verify", "--p", "2"], "verify: --snapshots-csv and --p are required"),
        (["sweep", "--p", "2,x"], "sweep: malformed --p or --dim list"),
        (["sweep", "--dim", "1,y"], "sweep: malformed --p or --dim list"),
        (["evolve", "--p", "2", "--t-end", "inf"], "t_end must be finite"),
        (["evolve", "--p", "2", "--radius", "inf"],
         "domain radius and grid spacing must be positive and finite"),
        (["evolve", "--p", "2", "--nodes", "64", "--t-end", "1.1", "--snapshots", "3",
          "--verify", "concavity", "--tol-concavity", "nan"],
         "--tol-concavity must be finite; got nan"),
        (["barenblatt", "--p", "2", "--t", "-1"], "self-similar time must be positive"),
        (["barenblatt", "--p", "0.8", "--dim", "3", "--t", "-1"],
         "self-similar time must be positive"),
        # the grid counts its nodes before it divides by them
        (["evolve", "--p", "2", "--nodes", "0"], "grid needs at least 8 nodes"),
        (["sweep", "--nodes", "0"], "grid needs at least 8 nodes"),
        (["barenblatt", "--p", "2", "--nodes", "0"], "grid needs at least 8 nodes"),
        (["evolve", "--p", "1e300"], "p = 1e+300 is too large: the Barenblatt profile's "
                                     "quadratic coefficient (p-1)/(2 mu p) underflows to 0"),
        # refused before the fit takes t ** (-1/mu), and before numpy refuses the seed
        (["evolve", "--p", "2", "--t-start", "0", "--initial", "barenblatt"],
         "self-similar time must be positive"),
        (["evolve", "--p", "2", "--seed", "-1"], "seed must be nonnegative; got -1"),
        # refused by the grid before its rates or a mixture's squares overflow
        (["evolve", "--p", "2", "--radius", "1e-300"],
         "grid spacing 1.953125e-303 and domain radius 1e-300 must lie within 2**-500 and "
         "2**500 in dimension 1"),
        (["evolve", "--p", "2", "--radius", "1e300"],
         "grid spacing 1.953125e+297 and domain radius 1e+300 must lie within 2**-500 and "
         "2**500 in dimension 1"),
        # the Barenblatt's support falls between two nodes, or the nodes hold 4e-13 of a
        # p < 1 profile at any C > 0: the fit has nothing to scale
        (["evolve", "--p", "2", "--radius", "1e140", "--initial", "barenblatt"],
         "the grid's nodes miss the Barenblatt profile: no C gives it unit mass"),
        (["evolve", "--p", "0.8", "--dim", "3", "--t-end", "1e6", "--initial", "barenblatt"],
         "the grid's nodes miss the Barenblatt profile: no C gives it unit mass"),
        # radii the grid admits, on which a unit mass is so large that u^p or its fluxes
        # overflow, or that the longest step (MAX_CFL_STEPS stable steps) cannot move t
        (["evolve", "--p", "2", "--radius", "1e-140"],
         "domain radius 1e-140 is too small for this datum: u^p or its fluxes overflow"),
        (["evolve", "--p", "2", "--radius", "1e-70", "--dim", "3"],
         "domain radius 1e-70 is too small for this datum: u^p or its fluxes overflow"),
        (["evolve", "--p", "2", "--radius", "1e-100"],
         "domain radius 1e-100 is too small for this datum: its longest step, 1.91e-300, "
         "cannot advance t = 1.0"),
        (["evolve", "--p", "2", "--radius", "1e-70"],
         "domain radius 1e-70 is too small for this datum: its longest step, 1.91e-210, "
         "cannot advance t = 1.0"),
        # intervals the march's clock does not advance, refused before the first step:
        # linspace repeats t = 1.0, and log t maps both ends to one float
        (["evolve", "--p", "2", "--snapshots", "3", "--t-start", "1",
          "--t-end", "1.0000000000000002"],
         "snapshot times must be strictly increasing; 3 in [1.0, 1.0000000000000002] are not"),
        (["evolve", "--p", "2", "--initial", "barenblatt", "--t-start", "1e6",
          "--t-end", "1000000.0000000001", "--snapshots", "2"],
         "snapshot interval [1000000.0, 1000000.0000000001] does not advance the march's "
         "clock, log t"),
        # the console-script refusals that had no case of their own here
        (["evolve", "--p", "2", "--geometry", "radial"],
         "unrecognized arguments: --geometry radial"),
        (["evolve", "--p", "-0.5", "--dim", "1"], "need p > 0; got p = -0.5"),
        (["sweep", "--nodes", "4"], "grid needs at least 8 nodes"),
        # verify applies evolve's rule on (p, n) before it reads the series, so the
        # file named is never opened
        *[(["verify", "--snapshots-csv", "never-read.csv", *flags,
            "--checks", "concavity,upsilon"], message) for flags, message in [
            (["--p", "-5", "--dim", "0"], "dimension must be a positive integer, got 0"),
            (["--p", "nan"], "need a finite p; got p = nan"),
            (["--p", "inf"], "need a finite p; got p = inf"),
            (["--p", "2", "--dim", "-3"], "dimension must be a positive integer, got -3"),
            (["--p", "0.2", "--dim", "3"],
             "need p > 1 - 2/n = 0.33333333333333337; got p = 0.2")]],
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exit_one_message(self, argv, message, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["evolve", "--help"])
        assert exit_.value.code == 0
        assert "--tol-isoperimetric" in capsys.readouterr().out
