"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 0-9 --trace 0 --save perfbench/results/NAME.json

Runs ``perfbench/run.py`` once per (seed, workload), one at a time, seeds in
the outer loop so that slow drift of a shared host touches every workload
alike.  For each end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
against the metric's bound in BENCHMARK.json.  It also checks that the exact
counts (steps, node_steps, np_rel_err) repeat exactly across runs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("steps", "node_steps", "np_rel_err")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" /
                         f"record-{workload}-s{seed}-t{trace}.json").read_text())
    return done.returncode, result, record


def exact_counts(record) -> dict:
    untraced = [it for it in record["iterations"] if not it["traced"]]
    return {key: untraced[0][key] for key in EXACT}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path, default=None, help="write the summary here")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            rc, result, record = run_one(w, seed, args.seconds, args.trace)
            runs[w].append({"seed": seed, "exit": rc, "correct": result["correct"],
                            "attempted": result["attempted"], "failed": result["failed"],
                            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                            "exact": exact_counts(record), "machine": record["machine"]})
            print(f"{w} seed={seed} exit={rc} failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)

    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds,
               "machine": runs[workloads[0]][0]["machine"], "workloads": {}}
    ok = True
    for w in workloads:
        rows = runs[w]
        stats = {}
        for name in rows[0]["metrics"]:
            values = [r["metrics"][name] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bound, "values": values}
            if bound is not None and name != "setup_s" and spread > bound:
                ok = False
            flag = "" if bound is None else (
                " over bound" if spread > bound else
                " over bound/3" if spread > bound / 3 else "")
            print(f"{w:<15} {name:<40} median {med:<14.6g} spread {spread:.4f}"
                  f"{'' if bound is None else f' (bound {bound})'}{flag}")
        exact = {k: sorted({repr(r["exact"][k]) for r in rows}) for k in EXACT}
        repeats = all(len(v) == 1 for v in exact.values())
        print(f"{w:<15} exact counts repeat across runs: {repeats} {exact}")
        all_correct = all(r["correct"] and r["exit"] == 0 for r in rows)
        ok = ok and repeats and all_correct
        summary["workloads"][w] = {"metrics": stats, "exact": exact,
                                   "exact_repeat": repeats, "all_correct": all_correct,
                                   "runs": [{k: r[k] for k in ("seed", "exit", "correct",
                                                               "attempted", "failed")}
                                            for r in rows]}
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
