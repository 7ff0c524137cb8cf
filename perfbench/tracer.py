"""Call-level instrumentation of renyiflow, installed from outside the package.

Three pieces; the wrappers are undone after each workload iteration:

* ``ReferenceKernel`` times fixed plain-numpy work, independent of renyiflow,
  at many moments of a run, so that times can be adjusted for the changing
  speed of a shared host.
* ``Probe`` wraps three call sites that the end-to-end metrics need:
  ``cli.evolve`` (step counts), ``solver.snapshot`` (timestamps that bound
  each snapshot interval; the reference kernel is also sampled here, and its
  time is taken out of every latency) and ``cli._sweep_row`` (per-row
  latency).  It runs in untraced and traced iterations alike.
* ``Tracer`` wraps every public function of each module, and the public
  methods of ``Grid`` and ``DensityField``, and rebinds each wrapper under
  every name the package looks it up by (``solver.snapshot``,
  ``cli.evolve``, ``renyiflow.upsilon`` ...).  Each call becomes one span
  (name, start, end, parent, run id).  Private helpers such as the solver's
  ``_advance`` and ``_stiffness`` are deliberately left alone, so their time
  is the self time of the public function that calls them.

The tracer's own bookkeeping runs outside the span it belongs to, and the
parent's self time excludes it, so self times add up to the traced wall
minus bookkeeping minus the benchmark's own code (``unattributed``).
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("analytic", "functionals", "grids", "initial_data", "solver",
          "verification", "reporting", "cli")
# Public methods of these classes are wrapped in addition to module functions.
CLASSES = {"grids": ("Grid", "DensityField")}
SIZING = ("analytic.suggest_domain_radius", "analytic.barenblatt_tail_mass")
FLOAT_BYTES = 8


class Patches:
    """setattr with an undo stack, so instrumentation can be removed exactly."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _package_modules(rf):
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == rf.__name__ or name.startswith(rf.__name__ + "."))]


def _rebind_everywhere(patches, modules, original, wrapper):
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                patches.set(mod, name, wrapper)


def bytes_per_step_computed(nodes: int, p: float) -> int:
    """Bytes the explicit step reads and writes, counted from array sizes.

    Counts every numpy pass of ``_stiffness`` and ``_flux_update`` plus the
    acceptance test and clamp in ``_advance`` as one read of each input and
    one write of the output (boolean masks at one byte per node).  Cache
    reuse is ignored, so this is a computed figure, not a measured one.
    """
    n = nodes
    if p >= 1.0:
        stiffness = n                      # values.max()
    else:
        stiffness = (n                     # values.max()
                     + 2 * n               # v = values ** p
                     + 2 * n + 2 * n       # diff(values), diff(v)
                     + n + n / 8           # du != 0 (bool out)
                     + 3 * n               # diff(v) / du
                     + n / 8 + 2 * n       # where(mask, chord, 0)
                     + 2 * n + n)          # abs, max
    flux = (2 * n + 2 * n                  # maximum(values, 0), ** p
            + n                            # zeros(n + 1)
            + 3 * n + 2 * n + 2 * n        # v[1:] - v[:-1], / h, store
            + 3 * n + 3 * n + 3 * n        # areas * flux (twice), difference
            + 3 * n + 2 * n + 3 * n)       # / weights, dt *, values +
    accept = n + n + 2 * n                 # new.min(), new.max(), maximum(out=)
    return int(round((stiffness + flux + accept) * FLOAT_BYTES))


class ReferenceKernel:
    """Fixed plain-numpy work, timed at many moments of a run.

    One sample is a small-array part (an explicit diffusion loop on 2048
    floats, like the solver's steps) and a large-array part (one pass over
    200k floats, like the tail-mass quadrature).  A shared host's changes of
    speed move these and the workloads together.  ``spent`` lets callers
    take the kernel's time out of theirs.
    """

    def __init__(self, min_gap_s: float = 0.1):
        self.u0 = np.exp(-np.linspace(-4.0, 4.0, 2048) ** 2)
        self.s = (np.arange(200_000) + 0.5) / 200_000
        self.min_gap_s = min_gap_s
        self.small, self.large = [], []
        self.spent = 0.0
        self._last = -1e300

    def sample(self) -> float:
        start = perf_counter()
        u = self.u0.copy()
        for _ in range(100):
            v = np.maximum(u, 0.0) ** 2
            flux = np.diff(v)
            u[1:-1] += 0.2 * (flux[1:] - flux[:-1])
        mid = perf_counter()
        float((self.s ** -4.0 * (1.0 + 0.1 * self.s ** -2.0) ** -3.5).sum())
        end = perf_counter()
        self.small.append(mid - start)
        self.large.append(end - mid)
        self.spent += end - start
        self._last = end
        return end - start

    def maybe_sample(self) -> float:
        """Sample unless one was taken less than ``min_gap_s`` ago; time taken."""
        if perf_counter() - self._last < self.min_gap_s:
            return 0.0
        return self.sample()


class Probe:
    """Step counts, snapshot-interval and sweep-row latencies for one iteration."""

    def __init__(self, rf, kernel: ReferenceKernel):
        self.rf = rf
        self.kernel = kernel
        self.patches = Patches()
        self.reset()

    def reset(self):
        self.steps = self.rejections = self.node_steps = 0
        self.bytes_computed = 0
        self.intervals = []   # seconds between consecutive snapshots of one run
        self.rows = []        # seconds per sweep row
        self.tracer = None    # set when the iteration is traced
        self._snap_marks = None

    def install(self):
        cli, solver = self.rf.cli, self.rf.solver
        evolve, snapshot, sweep_row = cli.evolve, solver.snapshot, cli._sweep_row
        probe = self

        @functools.wraps(evolve)
        def probed_evolve(f0, params, *args, **kwargs):
            probe._snap_marks = []
            result = evolve(f0, params, *args, **kwargs)
            marks, probe._snap_marks = probe._snap_marks, None
            for (_, prev_end, _), (start, _, ref_s) in zip(marks, marks[1:]):
                probe.intervals.append(start - prev_end - ref_s)
            nodes = f0.grid.node_count
            probe.steps += result.step_count
            probe.rejections += result.rejection_count
            probe.node_steps += result.step_count * nodes
            probe.bytes_computed += result.step_count * bytes_per_step_computed(nodes, params.p)
            return result

        @functools.wraps(snapshot)
        def probed_snapshot(*args, **kwargs):
            ref_s = probe.kernel.maybe_sample()
            if probe.tracer is not None:
                probe.tracer.exclude(ref_s)
            start = perf_counter()
            out = snapshot(*args, **kwargs)
            if probe._snap_marks is not None:
                probe._snap_marks.append((start, perf_counter(), ref_s))
            return out

        @functools.wraps(sweep_row)
        def probed_row(job):
            spent = probe.kernel.spent
            start = perf_counter()
            row = sweep_row(job)
            probe.rows.append(perf_counter() - start - (probe.kernel.spent - spent))
            return row

        self.patches.set(cli, "evolve", probed_evolve)
        self.patches.set(solver, "snapshot", probed_snapshot)
        self.patches.set(cli, "_sweep_row", probed_row)

    def uninstall(self):
        self.patches.undo()


def _arg_key(value):
    """Hashable identity of an argument for the distinct-argument counts."""
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


class Tracer:
    """Spans for every public call into the package, with per-layer sums."""

    def __init__(self, rf):
        self.rf = rf
        self.patches = Patches()
        self.spans = []       # [name, start, end, parent index, run id]
        self.run = 0
        self.iterations = 0
        self._stack = []      # indices of open spans
        self._layer_of = []   # layer of each span, parallel to spans
        self._child = []      # outer time of finished children, per open span
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.entries = defaultdict(int)       # calls into a layer from outside it
        self.entry_s = defaultdict(float)
        self.io = defaultdict(float)          # reporting.{write,read}.{calls,s,bytes}
        self.top_outer = 0.0                  # time inside calls made by the benchmark
        self.bookkeeping_s = 0.0
        self.excluded_s = 0.0                 # reference-kernel time inside spans
        self.functional_evals = 0
        self.functional_repeats = 0
        self.sizing_calls = 0
        self.sizing_distinct = 0              # distinct argument sets, per iteration
        self._sizing_seen = set()
        self._functional_seen = set()
        self._keepalive = []  # keeps evaluated arrays alive so their ids stay unique

    # -- installation -------------------------------------------------
    def install(self, run_id: int):
        self.run = run_id
        self.iterations += 1
        self._sizing_seen.clear()
        self._functional_seen.clear()
        self._keepalive.clear()
        modules = _package_modules(self.rf)
        for layer in LAYERS:
            mod = getattr(self.rf, layer)
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(fn, f"{layer}.{name}", layer)
                _rebind_everywhere(self.patches, modules, fn, wrapper)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for name, attr in list(vars(cls).items()):
                    if name.startswith("_") and name != "__post_init__":
                        continue
                    qual = f"{layer}.{cls_name}.{name}"
                    if isinstance(attr, classmethod):
                        self.patches.set(cls, name, classmethod(
                            self._wrap(attr.__func__, qual, layer)))
                    elif inspect.isfunction(attr):
                        self.patches.set(cls, name, self._wrap(attr, qual, layer))

    def uninstall(self):
        self.patches.undo()

    def exclude(self, seconds: float):
        """Keep time spent on the benchmark's own work out of the open span's self time."""
        if self._child:
            self._child[-1] += seconds
            self.excluded_s += seconds

    # -- the wrapper --------------------------------------------------
    def _wrap(self, fn, name, layer):
        tr = self
        is_functional = layer == "functionals"
        is_sizing = name in SIZING
        io_kind = None
        if layer == "reporting":
            short = name.split(".")[-1]
            io_kind = "write" if short.startswith("write_") else \
                "read" if short.startswith("read_") else None
        spans, layer_of, stack, child = (self.spans, self._layer_of,
                                         self._stack, self._child)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            parent = stack[-1] if stack else -1
            entry = parent < 0 or layer_of[parent] != layer
            if is_functional:
                tr._count_functional(name, args, kwargs)
            elif is_sizing and entry:
                tr._count_sizing(name, args, kwargs)
            rec = [name, 0.0, 0.0, parent, tr.run]
            stack.append(len(spans))
            spans.append(rec)
            layer_of.append(layer)
            child.append(0.0)
            t1 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                stack.pop()
                inner = child.pop()
                dur = t2 - t1
                rec[1], rec[2] = t1, t2
                tr.calls[name] += 1
                tr.incl[name] += dur
                tr.self_s[name] += dur - inner
                tr.layer_self[layer] += dur - inner
                if entry:
                    tr.entries[layer] += 1
                    tr.entry_s[layer] += dur
                if io_kind is not None:
                    tr._count_io(io_kind, args, dur)
                t3 = perf_counter()
                tr.bookkeeping_s += (t3 - t0) - dur
                if child:
                    child[-1] += t3 - t0
                else:
                    tr.top_outer += t3 - t0

        return traced

    def _count_functional(self, name, args, kwargs):
        self.functional_evals += 1
        field = args[0] if args else None
        values = getattr(field, "values", field)
        p = args[1] if len(args) > 1 else kwargs.get("p")
        key = (name, id(values), _arg_key(p))
        if key in self._functional_seen:
            self.functional_repeats += 1
        else:
            self._functional_seen.add(key)
            self._keepalive.append(values)

    def _count_sizing(self, name, args, kwargs):
        self.sizing_calls += 1
        key = (name, tuple(_arg_key(a) for a in args),
               tuple(sorted((k, _arg_key(v)) for k, v in kwargs.items())))
        if key not in self._sizing_seen:
            self._sizing_seen.add(key)
            self.sizing_distinct += 1

    def _count_io(self, kind, args, dur):
        self.io[f"{kind}.calls"] += 1
        self.io[f"{kind}.s"] += dur
        if args and isinstance(args[0], (str, os.PathLike)):
            try:
                self.io[f"{kind}.bytes"] += os.path.getsize(args[0])
            except OSError:
                pass

    def write(self, path):
        """Write the spans as gzipped JSON lines: name, start, end, parent, run."""
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
