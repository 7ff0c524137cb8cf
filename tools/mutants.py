"""A mutation check: does tier-1 catch each of a fixed list of one-line faults in src/?

Usage:
    python tools/mutants.py

Copies this checkout, without .git and caches, to a temporary directory and runs
tier-1 there unmutated, which must pass.  Then, for each entry of MUTANTS, it
replaces the entry's original text (which occurs exactly once in its file) by the
mutated text in the copy, runs tier-1 with -x under a limit of TIMEOUT seconds, and
restores the file.  The tier-1 test that checks this list against src/ is left out
of every run, as each mutant fails it by design.  The checkout itself is never
written.  Each mutant gets one line:

    killed      a test failed; the first one is named
    survived    every test passed: the suite does not see this fault
    timed out   the run did not finish within TIMEOUT seconds

It exits 0 when no mutant survives, 1 when one does.  A run takes about as long as
tier-1 times the number of mutants, less where -x stops early, plus TIMEOUT for each
mutant that hangs.  Bytecode is not written, so a mutant of the same length as its
original is never read from a stale cache.
"""
from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "renyiflow"
TIMEOUT = 150.0  # seconds per run: tier-1 takes about 10, a mutant whose steps never
# settle up to 100 (the kernel divergence's sign flipped)
# tier-1, less the test that checks MUTANTS against src/: a mutant fails it by design
TIER_1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--continue-on-collection-errors",
          "--deselect", "tests/test_reporting_cli.py::test_mutants_name_text_in_src"]

# (what the fault is, file under src/renyiflow, original text, mutated text)
MUTANTS = [
    ("BDF2 step ratio inverted", "solver.py",
     "omega = [step / last for step, last in zip(dt, self.dt_prev)]",
     "omega = [last / step for step, last in zip(dt, self.dt_prev)]"),
    ("BDF2 scale 1 + omega", "solver.py",
     "scale = [1.0 + 2.0 * w for w in omega]", "scale = [1.0 + w for w in omega]"),
    ("Milne share without h2", "solver.py",
     "share = 1.0 if back else th / (th + step + h1 + h2)",
     "share = 1.0 if back else th / (th + step + h1)"),
    ("controller cap 1.5", "solver.py", "factor[b] = 2.0", "factor[b] = 1.5"),
    ("interpolant's linear fallback off", "solver.py",
     "if np.minimum.reduce(level) < 0.0:", "if False:"),
    ("x-frame floor of g 0", "solver.py",
     "self.floor_share = EPS if p <= 1.0 and not drifted else 0.0", "self.floor_share = 0.0"),
    ("BDF2 backward-Euler fallback off", "solver.py",
     "euler = [low < -NEGATIVITY_SLACK * high",
     "euler = [False and low < -NEGATIVITY_SLACK * high"),
    ("entropy weights' floor 1e-4", "solver.py",
     "np.maximum(u, 1e-8 * umax)", "np.maximum(u, 1e-4 * umax)"),
    ("every step lands on the next snapshot", "solver.py",
     "self.last = len(self.clock) - 1 if kernel.u_prev2 is not None else self.k",
     "self.last = self.k"),
    ("y tolerance x10", "solver.py",
     "kernel.error_tol[b] = TOL_CONCAVITY * abs(",
     "kernel.error_tol[b] = 10 * TOL_CONCAVITY * abs("),
    ("x tolerance's moved mass uncapped", "solver.py",
     "moved = min(self.rate * span, m0)", "moved = self.rate * span"),
    ("front defect ignored", "solver.py",
     "misplaced = theta[b] * defects[b]", "misplaced = 0.0"),
    ("front threshold 4 g", "solver.py",
     "np.multiply(g, 2.0, out=scratch)", "np.multiply(g, 4.0, out=scratch)"),
    ("sequential solve below 32 rows", "solver.py",
     "SEQUENTIAL_SIZE = 64", "SEQUENTIAL_SIZE = 32"),
    ("edge mass over node_count // 32 cells", "solver.py",
     "EDGE_CELLS = 64", "EDGE_CELLS = 32"),
    ("_clipped keeps negative entries", "solver.py",
     "u = np.maximum(values, 0.0)", "u = np.array(values, dtype=float)"),
    ("kernel divergence sign flipped", "solver.py",
     "return np.subtract(self.flux_hi, self.flux_lo, out=self.div)",
     "return np.subtract(self.flux_lo, self.flux_hi, out=self.div)"),
    ("drift's upwind side flipped", "solver.py",
     "np.greater(mob, against, out=up)", "np.less(mob, against, out=up)"),
    ("N_p's dilation law a^-mu", "functionals.py", "s.n_p * a ** mu", "s.n_p * a ** -mu"),
    ("H_p's dilation shift negated", "functionals.py",
     "s.h_p + n * math.log(a)", "s.h_p - n * math.log(a)"),
    ("pressure mask not eroded from the left", "functionals.py",
     "eroded[1:] &= positive[:-1]", "pass"),
    ("second differences halved", "verification.py",
     "return 2.0 * (slope_fwd - slope_bwd) / (t[2:] - t[:-2])",
     "return (slope_fwd - slope_bwd) / (t[2:] - t[:-2])"),
    ("Upsilon rise relative to its last value", "verification.py",
     "_denominator(y[0], ", "_denominator(y[-1], "),
    ("concavity at its bound fails", "verification.py",
     'CheckResult("concavity", violation <= tol,', 'CheckResult("concavity", violation < tol,'),
    # the batch: blocks of one kernel must step as they would alone
    ("a seam coupling left at the conductance", "solver.py",
     "seam.fill(0.0)", "seam[:] = self.du[self.n - 2::self.n][:seam.size]"),
    ("per-block step broadcast shifted by one block", "solver.py",
     "column = _column(theta)", "column = _column(theta[1:] + theta[:1])"),
]


def run_tier_1(root: Path) -> tuple[str, str, float]:
    """(outcome, detail, seconds) of tier-1 with -x in root, its own src first on the path."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen(TIER_1, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # pytest and any process it started
        proc.communicate()
        return "timed out", f"over {TIMEOUT:.0f} s", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "survived", "", seconds
    lines = out.splitlines()
    first = next((line for line in lines if line.startswith(("FAILED ", "ERROR "))),
                 lines[-1] if lines else f"exit {proc.returncode}")
    return "killed", first, seconds


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out",
            ".benchmarks", "*.egg-info"))
        outcome, detail, seconds = run_tier_1(root)
        if outcome != "survived":
            print(f"unmutated: {outcome} in {seconds:.0f} s; {detail}")
            return 2
        print(f"unmutated: passed in {seconds:.0f} s", flush=True)
        tally = {"killed": 0, "survived": 0, "timed out": 0}
        for number, (what, name, original, mutated) in enumerate(MUTANTS, start=1):
            path = root / "src" / "renyiflow" / name
            text = path.read_text()
            if text.count(original) != 1:
                print(f"{number:2d} {what}: {name} holds its original text "
                      f"{text.count(original)} times, not once")
                return 2
            path.write_text(text.replace(original, mutated))
            try:
                outcome, detail, seconds = run_tier_1(root)
            finally:
                path.write_text(text)
            tally[outcome] += 1
            print(f"{number:2d} {outcome:9s} {seconds:4.0f} s  {what}"
                  + (f": {detail}" if detail else ""), flush=True)
        print(", ".join(f"{count} {outcome}" for outcome, count in tally.items())
              + f" of {len(MUTANTS)}")
        return 1 if tally["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
