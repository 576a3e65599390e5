"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces each public function of the traced fgabloch
modules with a timing wrapper, everywhere the function is bound: in its own
module and in every other module that took it with ``from .x import y``
(``pipeline`` does this for almost everything it calls).  The I/O entry
points are wrapped the same way and form the ``io`` layer.  Each call
records a span (name, layer, start, end, parent) in memory; ``uninstall()``
puts the original functions back.

Work counters are computed from the arguments and return values of the
wrapped calls (``BandTable.grid``, ``PhaseSpaceGrid.n_points``,
``SeedSet.count``, ``ReferenceConfig``, the sizes of written files), never
from the package's internals.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

from fgabloch import (bloch, dynamics, pipeline, reference, synthesis, transform,
                      wavefield)

# Layers whose public module-level functions are timed.  potentials is not a
# layer: its cost is spent inside dynamics and reference calls.
LAYER_MODULES = {
    "bloch": bloch,
    "transform": transform,
    "dynamics": dynamics,
    "synthesis": synthesis,
    "reference": reference,
    "pipeline": pipeline,
}
# (owner, attribute) pairs that write output files; the io layer.
IO_TARGETS = (
    (wavefield.WaveField, "write"),
    (dynamics.EnsembleResult, "export_csv"),
    (pipeline, "write_psi2_csv"),
    (pipeline, "write_band_csv"),
    (pipeline, "_write_report"),
)


def _steps(total: float, dt: float, checkpoints) -> int:
    """Time steps taken to reach every checkpoint, one segment per checkpoint
    with its step count rounded from the segment length (the documented rule
    of integrate_ensemble and reference_propagate)."""
    marks = sorted({abs(float(total))} | {abs(float(t)) for t in (checkpoints or ())})
    steps, now = 0, 0.0
    for t in marks:
        if t < 1e-12:
            continue
        steps += max(1, int(round((t - now) / abs(dt))))
        now = t
    return steps


class Tracer:
    def __init__(self):
        self.spans = []             # [name, layer, start, end, parent]
        self._stack = []
        self._saved = []            # (owner, attribute, original)
        self.counts = defaultdict(float)
        self._wbt_keys = {}         # distinct (field, table, band) -> objects kept alive
        self._hooks = {
            "solve_bands": self._count_solve,
            "grad_energy": self._count_grad_check,
            "windowed_bloch_transform": self._count_wbt,
            "integrate_ensemble": self._count_integrate,
            "synthesize": self._count_synthesize,
            "reconstruct": self._count_reconstruct,
            "reference_propagate": self._count_reference,
        }
        self._signatures = {}

    # --- spans --------------------------------------------------------------

    def open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][3] = time.perf_counter()

    def _wrap(self, fn, name, layer):
        hook = self._hooks.get(name)
        if layer == "io":
            hook = self._count_io

        def traced(*args, **kwargs):
            self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if hook is not None:
                hook(fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # --- installation -------------------------------------------------------

    def _targets(self):
        for layer, module in LAYER_MODULES.items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    yield module, name, obj, layer
        for owner, name in IO_TARGETS:
            yield owner, name, getattr(owner, name), "io"

    def install(self, extra_modules=()):
        """Wrap every target and rebind it wherever it is bound by name."""
        wrappers = {}
        for owner, name, fn, layer in self._targets():
            wrappers[id(fn)] = (fn, self._wrap(fn, name, layer))
        modules = [m for k, m in sys.modules.items()
                   if k == "fgabloch" or k.startswith("fgabloch.")]
        for module in [*modules, *extra_modules]:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._saved.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)][1])
        for owner, name in IO_TARGETS:
            if inspect.isclass(owner):
                fn = vars(owner)[name]
                self._saved.append((owner, name, fn))
                setattr(owner, name, wrappers[id(fn)][1])
        return self

    def uninstall(self):
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    # --- counters -----------------------------------------------------------

    def _bind(self, fn, args, kwargs):
        sig = self._signatures.get(fn)
        if sig is None:
            sig = self._signatures[fn] = inspect.signature(fn)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _count_solve(self, fn, args, kwargs, table):
        self.counts["eigensolves"] += table.grid.n_nodes

    def _count_grad_check(self, fn, args, kwargs, table):
        # finite-difference check: 4 shifted eigensolves per axis per sampled node
        a = self._bind(fn, args, kwargs)
        g = table.grid
        stride = max(1, g.n_nodes // a["check_sample"])
        self.counts["eigensolves"] += 4 * g.dimension * len(range(0, g.n_nodes, stride))

    def _count_wbt(self, fn, args, kwargs, coeffs):
        a = self._bind(fn, args, kwargs)
        self.counts["wbt_calls"] += 1
        self.counts["phase_points"] += a["grid"].n_points
        key = (id(a["field"]), id(a["table"]), a["n"])
        self._wbt_keys[key] = (a["field"], a["table"])

    def _count_integrate(self, fn, args, kwargs, result):
        a = self._bind(fn, args, kwargs)
        seeds = a["seeds"]
        cores = dynamics.N_STENCIL if a["enable_a1"] else 1
        steps = _steps(a["T"], a["dt"], a["checkpoint_times"])
        self.counts["traj_steps"] += seeds.count * cores * steps
        self.counts["trajectories"] += seeds.count
        self.counts["failed_trajectories"] += result.n_failed
        self.counts["min_sigma_z"] = min(self.counts.get("min_sigma_z", float("inf")),
                                         result.min_sigma_z)
        self.counts["max_sympl_residual"] = max(self.counts["max_sympl_residual"],
                                                result.max_sympl_residual)

    def _count_synthesize(self, fn, args, kwargs, result):
        plan = self._bind(fn, args, kwargs)["plan"]
        self.counts["synthesize_calls"] += 1
        self.counts["traj_evals"] += plan.seeds.count

    def _count_reconstruct(self, fn, args, kwargs, result):
        self.counts["reconstruct_calls"] += 1

    def _count_reference(self, fn, args, kwargs, result):
        a = self._bind(fn, args, kwargs)
        cfg = a["cfg"]
        steps = _steps(cfg.t_final, cfg.dt, a["checkpoint_times"])
        self.counts["point_steps"] += cfg.n_x * steps
        self.counts["fft_pairs"] += steps

    def _count_io(self, fn, args, kwargs, result):
        a = self._bind(fn, args, kwargs)
        if "path" in a:
            path = a["path"]
        else:                                   # pipeline._write_report
            path = os.path.join(a["out_dir"], f"report_{a['command']}.txt")
        self.counts["bytes_written"] += os.path.getsize(path)

    # --- results ------------------------------------------------------------

    def self_times(self):
        """Self time per layer: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, layer, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        busy = defaultdict(float)
        for (name, layer, t0, t1, parent), c in zip(self.spans, child):
            busy[layer] += (t1 - t0) - c
        return busy

    def inclusive(self, name):
        """Total time in outermost calls of `name`."""
        total = 0.0
        for name_, layer, t0, t1, parent in self.spans:
            if name_ != name:
                continue
            p, nested = parent, False
            while p >= 0:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][4]
            if not nested:
                total += t1 - t0
        return total


def span_cost(n: int = 20000) -> float:
    """Seconds one traced call adds, from timing a wrapped no-op."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "noop", "calibration")
    best = float("inf")
    for _ in range(5):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)


def layer_metrics(tracer: Tracer, per_span: float) -> dict:
    """The benchmark's per-layer metrics for one traced run of a workload."""
    busy = tracer.self_times()
    c = tracer.counts

    def rate(num, den, scale):
        return num / den * scale if den else 0.0

    wbt_bands = len(tracer._wbt_keys)
    return {
        "bloch.busy_s": (busy["bloch"], "s"),
        "bloch.eigensolves": (c["eigensolves"], "count"),
        "bloch.us_per_eigensolve": (rate(busy["bloch"], c["eigensolves"], 1e6), "us"),
        "transform.busy_s": (busy["transform"], "s"),
        "transform.wbt_calls": (c["wbt_calls"], "count"),
        "transform.wbt_per_band": (rate(c["wbt_calls"], wbt_bands, 1.0), "ratio"),
        "transform.ns_per_phase_point": (
            rate(tracer.inclusive("windowed_bloch_transform"), c["phase_points"], 1e9),
            "ns"),
        "transform.projection_s": (tracer.inclusive("band_projection"), "s"),
        "dynamics.busy_s": (busy["dynamics"], "s"),
        "dynamics.traj_steps": (c["traj_steps"], "count"),
        "dynamics.us_per_traj_step": (rate(busy["dynamics"], c["traj_steps"], 1e6), "us"),
        "dynamics.failed_traj_ratio": (
            rate(c["failed_trajectories"], c["trajectories"], 1.0), "ratio"),
        "dynamics.min_sigma_z": (c.get("min_sigma_z", float("nan")), "1"),
        "dynamics.max_sympl_residual": (c["max_sympl_residual"], "1"),
        "synthesis.busy_s": (busy["synthesis"], "s"),
        "synthesis.calls": (c["synthesize_calls"], "count"),
        "synthesis.traj_evals": (c["traj_evals"], "count"),
        "synthesis.us_per_traj": (rate(busy["synthesis"], c["traj_evals"], 1e6), "us"),
        "synthesis.reconstruct_calls": (c["reconstruct_calls"], "count"),
        "reference.busy_s": (busy["reference"], "s"),
        "reference.point_steps": (c["point_steps"], "count"),
        "reference.fft_pairs": (c["fft_pairs"], "count"),
        "reference.ns_per_point_step": (
            rate(busy["reference"], c["point_steps"], 1e9), "ns"),
        "io.busy_s": (busy["io"], "s"),
        "io.bytes_written": (c["bytes_written"], "B"),
        "pipeline.self_s": (busy["pipeline"], "s"),
        "trace.overhead_s": (per_span * len(tracer.spans), "s"),
    }
