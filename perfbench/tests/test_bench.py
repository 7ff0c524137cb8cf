"""Tests of the benchmark itself, at the tiny input size.

    python3 -m pytest perfbench/tests -q

Each test runs the benchmark command from the root of the repository and
reads its standard output.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# every end-to-end metric the human-readable table prints, with its unit
TABLE_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
               "kernel_ms": "ms", "steps": "count", "node_steps": "count", "np_rel_err": "1",
               "failed_frac": "1", "peak_rss_mb": "MB"}


def run_bench(workload, trace=0, extra=(), cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout.strip().splitlines(), done.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    rc, lines, err = run_bench(workload, trace)
    assert rc == 0, err
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    table = {ln.split()[0]: ln.split() for ln in lines[:-1] if ln and not ln.startswith("#")}
    for name, unit in TABLE_UNITS.items():
        assert table[name][2] == unit, table[name]


def corrupted_reference(tmp_path, section, key, factor):
    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    ref[section][key] *= factor
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    return path


@pytest.mark.parametrize("workload, section, key", [
    ("survey_upsilon", "gamma", "2.0,1"),
    ("evolve_pme", "entropy_power_slope", "2.0,1"),
])
def test_corrupted_reference_fails_the_run(tmp_path, workload, section, key):
    path = corrupted_reference(tmp_path, section, key, 1.01)
    rc, lines, _ = run_bench(workload, extra=("--reference", str(path)))
    result = json.loads(lines[-1])
    assert rc != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    failed_frac = next(ln.split() for ln in lines if ln.startswith("failed_frac"))
    assert float(failed_frac[1]) > 0.0


def test_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines, err = run_bench(WORKLOADS[0], cwd=tmp_path,
                               script=tmp_path / "perfbench" / "run.py")
    assert rc != 0
    assert not any(ln.startswith("{") for ln in lines)
    assert "renyiflow" in err


def test_tracer_removes_every_wrapper(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import renyiflow as rf
    import renyiflow.cli  # noqa: F401
    import tracer

    modules = tracer._package_modules(rf)
    before = [dict(vars(m)) for m in modules]
    grid_before = dict(vars(rf.Grid))
    tr, probe = tracer.Tracer(rf), tracer.Probe(rf, tracer.ReferenceKernel())
    tr.install(0)
    probe.install()
    grid = rf.Grid.cartesian(64, 4.0)
    f = rf.sample_mixture(grid, 3)
    rf.snapshot(f, 2.0)
    rf.upsilon(f, 2.0)
    probe.uninstall()
    tr.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert dict(vars(rf.Grid)) == grid_before
    assert tr.calls["functionals.snapshot"] == 1
    assert tr.calls["initial_data.sample_mixture"] == 1
    assert tr.functional_repeats > 0   # upsilon recomputes what snapshot computed
    layers_total = sum(tr.layer_self.values()) + tr.bookkeeping_s
    assert layers_total == pytest.approx(tr.top_outer, rel=1e-9)
