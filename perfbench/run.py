"""renyiflow benchmark: time to a verified verdict on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload evolve_pme --seed 0 --seconds 15 --trace 0

One process per workload.  It imports renyiflow from ``src/``, builds the
workload's inputs from ``--seed``, then repeats closed-loop iterations (each
one starts after the previous one ends) until ``--seconds`` have passed and
the workload's minimum iteration count is reached.  Every iteration's outputs
are checked; any miss makes ``correct`` false and the exit code 1.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer split.  Human-readable
lines come first; the last line of standard output is one JSON object.
Records and span files go to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import os

# Pinned before numpy is imported: one BLAS thread on a shared 2-core host.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
KERNEL_BLOCK = 10     # reference-kernel samples taken before and after every iteration
# The reference kernel's time on this benchmark's reference host state; gated
# times are given as "seconds at that speed" (see README.md, host speed).
KERNEL_NOMINAL_S = 2.0e-3
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import renyiflow, renyiflow.cli; "
                  "print(time.perf_counter() - t)")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input (for the benchmark's own tests)")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json",
                    help="closed-form references the output checks use")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import renyiflow from this checkout's src/, never from elsewhere."""
    if not (SRC / "renyiflow" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no renyiflow package under {SRC}; "
                         "run from the root of a renyiflow checkout")
    sys.path.insert(0, str(SRC))
    import renyiflow
    import renyiflow.cli  # noqa: F401  (the package __init__ does not import it)
    if Path(renyiflow.__file__).resolve().parent != SRC / "renyiflow":
        raise SystemExit(f"benchmark: imported renyiflow from {renyiflow.__file__}")
    return renyiflow


def time_import_in_fresh_interpreter() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def machine_record(np) -> dict:
    info = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                info.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": info.get("model name", ""),
            "last_level_cache": info.get("cache size", ""),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS}}


def kernel_time(small, large) -> float:
    """Geometric mean of the medians of the kernel's two parts."""
    return math.sqrt(statistics.median(small) * statistics.median(large))


def tail(samples, q):
    """Nearest-rank q-th percentile, with the number of samples beyond it."""
    xs = sorted(samples)
    idx = max(0, math.ceil(q / 100.0 * len(xs)) - 1)
    return xs[idx], len(xs) - idx - 1


def per_layer(tracer, probe_totals, traced_walls, untraced_walls) -> dict:
    """The per-layer metrics, each per traced iteration."""
    n = max(1, tracer.iterations)
    steps, rejections = probe_totals["steps"], probe_totals["rejections"]
    node_steps, nbytes = probe_totals["node_steps"], probe_totals["bytes"]
    evolve_self = tracer.self_s["solver.evolve"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for layer in ("solver", "analytic", "functionals", "grids", "initial_data",
                  "verification", "reporting", "cli"):
        put(f"{layer}.self_s", tracer.layer_self[layer] / n, "s")
    put("solver.evolve.self_s", evolve_self / n, "s")
    put("solver.steps", steps / n, "count")
    put("solver.node_steps", node_steps / n, "count")
    put("solver.us_per_step", ratio(evolve_self, steps) * 1e6, "us")
    put("solver.ns_per_node_step", ratio(evolve_self, node_steps) * 1e9, "ns")
    put("solver.accept_frac", ratio(steps, steps + rejections), "1")
    put("solver.fast_diffusion_guard.s", tracer.incl["solver.fast_diffusion_guard"] / n, "s")
    put("solver.bytes_per_step_computed", ratio(nbytes, steps), "B")
    put("analytic.suggest_domain_radius.calls",
        tracer.calls["analytic.suggest_domain_radius"] / n, "count")
    put("analytic.suggest_domain_radius.s",
        tracer.incl["analytic.suggest_domain_radius"] / n, "s")
    put("analytic.barenblatt_tail_mass.calls",
        tracer.calls["analytic.barenblatt_tail_mass"] / n, "count")
    put("analytic.distinct_args_frac", ratio(tracer.sizing_distinct, tracer.sizing_calls), "1")
    put("functionals.snapshot.calls", tracer.calls["functionals.snapshot"] / n, "count")
    put("functionals.snapshot.s", tracer.incl["functionals.snapshot"] / n, "s")
    put("functionals.eval.calls", tracer.functional_evals / n, "count")
    put("functionals.repeat_frac",
        ratio(tracer.functional_repeats, tracer.functional_evals), "1")
    put("grids.weights.calls", tracer.calls["grids.Grid.weights"] / n, "count")
    put("grids.density_field.calls", tracer.calls["grids.DensityField.__post_init__"] / n,
        "count")
    for layer in ("initial_data", "verification"):
        put(f"{layer}.calls", tracer.entries[layer] / n, "count")
        put(f"{layer}.s", tracer.entry_s[layer] / n, "s")
    for kind in ("write", "read"):
        put(f"reporting.{kind}.calls", tracer.io[f"{kind}.calls"] / n, "count")
        put(f"reporting.{kind}.s", tracer.io[f"{kind}.s"] / n, "s")
        put(f"reporting.{kind}.bytes", tracer.io[f"{kind}.bytes"] / n, "B")
    overhead = (statistics.median(traced_walls) - statistics.median(untraced_walls)
                if traced_walls and untraced_walls else 0.0)
    put("trace.overhead_s", overhead, "s")
    put("trace.bookkeeping_s", tracer.bookkeeping_s / n, "s")
    put("trace.unattributed_s",
        (sum(traced_walls) - tracer.top_outer + tracer.excluded_s) / n, "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    rf = import_package()
    import numpy as np

    import tracer as tracing
    import workloads

    table = workloads.build(args.size)
    if args.workload not in table:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    wl = table[args.workload]
    ref = json.loads(args.reference.read_text())

    # set-up: import in fresh interpreters plus building the inputs, each
    # repeated, with the reference kernel sampled beside every repetition
    kernel = tracing.ReferenceKernel()
    import_times, input_times = [], []
    for _ in range(SETUP_REPS):
        kernel.sample()
        import_times.append(time_import_in_fresh_interpreter())
        kernel.sample()
        start = perf_counter()
        inputs = wl.setup(rf, ref, args.seed)
        input_times.append(perf_counter() - start)
    setup_raw = statistics.median(import_times) + statistics.median(input_times)
    setup_kernel = kernel_time(kernel.small, kernel.large)
    n_setup_samples = len(kernel.small)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    probe, tracer = tracing.Probe(rf, kernel), tracing.Tracer(rf)
    walls, traced_walls, iterations = [], [], []
    totals = {"steps": 0, "rejections": 0, "node_steps": 0, "bytes": 0}
    first_steps = None
    began = perf_counter()
    try:
        k = 0
        while k < max(wl.min_iters, 2 if args.trace else 1) or perf_counter() - began < args.seconds:
            traced = bool(args.trace) and k % 2 == 1
            first_kernel = len(kernel.small)
            for _ in range(KERNEL_BLOCK):
                kernel.sample()
            probe.reset()
            if traced:
                tracer.install(k)
                probe.tracer = tracer
            probe.install()
            spent = kernel.spent
            start = perf_counter()
            try:
                it = wl.iterate(rf, inputs, k, work, probe)
            finally:
                wall = perf_counter() - start - (kernel.spent - spent)
                probe.uninstall()
                if traced:
                    tracer.uninstall()
            shutil.rmtree(work / f"it{k}", ignore_errors=True)
            if first_steps is None:
                first_steps = probe.steps
            elif probe.steps != first_steps:
                it.failures.append(("determinism", f"steps {probe.steps} != {first_steps} "
                                                   "of the first iteration"))
            (traced_walls if traced else walls).append(wall)
            if traced:
                totals["steps"] += probe.steps
                totals["rejections"] += probe.rejections
                totals["node_steps"] += probe.node_steps
                totals["bytes"] += probe.bytes_computed
            # this iteration's kernel window: the blocks before and after it
            # and the samples taken inside it
            window = (first_kernel, len(kernel.small) + KERNEL_BLOCK)
            iterations.append({"k": k, "traced": traced, "wall_s": wall, "kernel_window": window,
                               "attempted": it.attempted, "failed": it.failed,
                               "steps": probe.steps, "rejections": probe.rejections,
                               "node_steps": probe.node_steps, "np_rel_err": it.np_rel_err,
                               "leak_warnings": it.leak_warnings, "op_samples_s": it.samples,
                               "failures": [m for _, m in it.failures[:5]]})
            k += 1
        for _ in range(KERNEL_BLOCK):
            kernel.sample()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in iterations)
    failed = sum(r["failed"] for r in iterations)
    first = iterations[0]
    np_errs = [r["np_rel_err"] for r in iterations if r["np_rel_err"] is not None]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # host adjustment, per iteration, by the kernel samples around it
    adj_walls, samples, raw_samples = [], [], []
    for r in iterations:
        lo, hi = r["kernel_window"]
        r["scale"] = KERNEL_NOMINAL_S / kernel_time(kernel.small[lo:hi], kernel.large[lo:hi])
        if not r["traced"]:
            adj_walls.append(r["wall_s"] * r["scale"])
            samples.extend(x * r["scale"] for x in r["op_samples_s"])
            raw_samples.extend(r["op_samples_s"])
    wall, wall_raw = statistics.median(adj_walls), statistics.median(walls)
    op_p50 = statistics.median(samples) if samples else 0.0
    op_p50_raw = statistics.median(raw_samples) if raw_samples else 0.0
    tail_value, beyond = tail(samples, wl.tail_q) if samples else (0.0, 0)
    tail_raw = tail(raw_samples, wl.tail_q)[0] if raw_samples else 0.0
    run_kernel = kernel_time(kernel.small[n_setup_samples:], kernel.large[n_setup_samples:])
    setup_s = setup_raw * KERNEL_NOMINAL_S / setup_kernel
    end_to_end = {
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    sizes = dict(wl.sizes(), note="bytes per step are computed from array sizes; solver "
                 "arrays of this size are cache-resident, so no bandwidth claim is made")
    machine = machine_record(np)

    print(f"# renyiflow benchmark  workload={wl.name} seed={args.seed} "
          f"({'used' if wl.seed_used else 'ignored: inputs are fixed'}) "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    print(f"# sizes {json.dumps(sizes, sort_keys=True)}")
    rows = [
        ("setup_s", f"{setup_s:.4f}", "s",
         f"host-adjusted; raw {setup_raw:.4f} = import {statistics.median(import_times):.4f}"
         f" + inputs {statistics.median(input_times):.4f}, medians of {SETUP_REPS}"),
        ("wall_s", f"{wall:.4f}", "s",
         f"host-adjusted; raw {wall_raw:.4f}, median of {len(walls)} untraced iterations"),
        ("op_p50_ms", f"{op_p50 * 1e3:.4f}", "ms",
         f"host-adjusted; raw {op_p50_raw * 1e3:.4f}; {wl.op}, n={len(samples)}"),
        ("op_tail_ms", f"{tail_value * 1e3:.4f}", "ms",
         f"host-adjusted; raw {tail_raw * 1e3:.4f}; p{wl.tail_q}, n={len(samples)}, "
         f"{beyond} beyond"),
        ("kernel_ms", f"{run_kernel * 1e3:.4f}", "ms",
         f"reference kernel (nominal {KERNEL_NOMINAL_S * 1e3:g}), "
         f"{len(kernel.small) - n_setup_samples} samples across the run"),
        ("steps", str(first["steps"]) if first["steps"] else "n/a", "count",
         "accepted solver steps per iteration (exact)"),
        ("node_steps", str(first["node_steps"]) if first["node_steps"] else "n/a", "count",
         "sum of steps x grid nodes per iteration (exact)"),
        ("np_rel_err", f"{max(np_errs):.6e}" if np_errs else "n/a", "1",
         "max |N_p / (slope t) - 1| against the closed-form Barenblatt"),
        ("failed_frac", f"{failed / attempted:.4f}" if attempted else "n/a", "1",
         f"{failed} of {attempted} failed"),
        ("peak_rss_mb", f"{peak_rss_mb:.1f}", "MB", "peak resident memory of this process"),
    ]
    for name, value, unit, note in rows:
        print(f"{name:<12} {value:>16} {unit:<6} {note}")
    shown = [(r["k"], msg) for r in iterations for msg in r["failures"]]
    for k, msg in shown[:10]:
        print(f"# FAILED iteration {k}: {msg}")

    metrics = end_to_end
    spans_file = None
    if args.trace:
        metrics = per_layer(tracer, totals, traced_walls, walls)
        spans_file = OUT / f"spans-{wl.name}-s{args.seed}.jsonl.gz"
        tracer.write(spans_file)
        for name, m in metrics.items():
            print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    record = {"workload": wl.name, "seed": args.seed,
              "seed_used": wl.seed_used, "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "machine": machine, "sizes": sizes,
              "setup": {"import_s": import_times, "inputs_s": input_times,
                        "raw_s": setup_raw, "kernel_s": setup_kernel},
              "iterations": iterations, "attempted": attempted, "failed": failed,
              "traced_walls": traced_walls,
              "op": wl.op, "op_samples": len(samples), "op_p50_ms": op_p50 * 1e3,
              "op_p50_raw_ms": op_p50_raw * 1e3, "op_tail_ms": tail_value * 1e3,
              "op_tail_raw_ms": tail_raw * 1e3, "op_tail_percentile": wl.tail_q,
              "op_tail_beyond": beyond, "wall_raw_s": wall_raw, "run_kernel_s": run_kernel,
              "kernel_small_s": kernel.small, "kernel_large_s": kernel.large,
              "kernel_setup_samples": n_setup_samples,
              "metrics": metrics,
              "spans_file": spans_file.name if spans_file else None}
    (OUT / f"record-{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
