"""Spans around calls into cohtrack's layers, recorded from the benchmark side.

`Tracer.install` replaces each traced function with a wrapper in every
cohtrack module that holds it (so `from .bloch import gks_to_channel` in
another module is rebound too), wraps `ControlWaveform.__call__` and the
`solve_ivp` that `cohtrack.dynamics` calls, and `uninstall` puts the
originals back. Spans stay in memory as tuples
(name, start, end, parent index, operation id).
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

# (module, attribute, span name). The span name is the layer metric's prefix.
FUNCTIONS = (
    ("cohtrack.bloch", "gks_to_channel", "bloch.gks_to_channel"),
    ("cohtrack.bloch", "control_matrix", "bloch.control_matrix"),
    ("cohtrack.dynamics", "propagate_bloch", "dynamics.propagate_bloch"),
    ("cohtrack.dynamics", "propagate_density", "dynamics.propagate_density"),
    ("cohtrack.dynamics", "write_trajectory_csv", "dynamics.csv_write"),
    ("cohtrack.dynamics", "solve_ivp", "dynamics.solver"),
    ("cohtrack.tracking", "simulate_tracked", "tracking.simulate_tracked"),
    ("cohtrack.tracking", "tracking_fields_general", "tracking.fields_general"),
    ("cohtrack.tracking", "classify_singularity", "tracking.classify_singularity"),
    ("cohtrack.scenarios", "run_scenario", "scenarios.run_scenario"),
    ("cohtrack.scenarios", "emit_fields", "scenarios.emit_fields"),
    ("cohtrack.scenarios", "sweep_breakdown", "scenarios.sweep_breakdown"),
    ("cohtrack.svgplot", "read_csv_columns", "svgplot.read_csv"),
    ("cohtrack.svgplot", "emit_plot", "svgplot.emit_plot"),
    ("cohtrack.cli", "main", "cli.main"),
)
# (module, class, method, span name); classmethods are rewrapped as such.
METHODS = (
    ("cohtrack.waveform", "ControlWaveform", "__call__", "waveform"),
    ("cohtrack.config", "ScenarioConfig", "load", "config.load"),
    ("cohtrack.config", "SweepSpec", "load", "config.load"),
)

# Per-layer metrics: name -> (unit, how it is computed from one round).
#   ("self", span)  summed self time    ("total", span)  summed span time
#   ("calls", span) number of spans     ("count", key)   counter from results
PER_LAYER = {
    "waveform.calls": ("count", ("calls", "waveform")),
    "waveform.self_s": ("s", ("self", "waveform")),
    "dynamics.solver_runs": ("count", ("calls", "dynamics.solver")),
    "dynamics.nfev": ("count", ("count", "dynamics.nfev")),
    "dynamics.solver_self_s": ("s", ("self", "dynamics.solver")),
    "dynamics.solver_unsuccessful": ("count", ("count", "dynamics.solver_unsuccessful")),
    "dynamics.propagate_bloch_s": ("s", ("total", "dynamics.propagate_bloch")),
    "dynamics.propagate_density_s": ("s", ("total", "dynamics.propagate_density")),
    "dynamics.csv_write_s": ("s", ("total", "dynamics.csv_write")),
    "dynamics.csv_rows": ("count", ("count", "dynamics.csv_rows")),
    "bloch.gks_to_channel_s": ("s", ("total", "bloch.gks_to_channel")),
    "bloch.control_matrix_calls": ("count", ("calls", "bloch.control_matrix")),
    "bloch.control_matrix_s": ("s", ("total", "bloch.control_matrix")),
    "tracking.simulate_tracked_s": ("s", ("total", "tracking.simulate_tracked")),
    "tracking.fields_general_calls": ("count", ("calls", "tracking.fields_general")),
    "tracking.fields_general_s": ("s", ("total", "tracking.fields_general")),
    "tracking.classify_singularity_s": ("s", ("total", "tracking.classify_singularity")),
    "config.load_s": ("s", ("total", "config.load")),
    "cli.main_self_s": ("s", ("self", "cli.main")),
    "scenarios.run_scenario_s": ("s", ("total", "scenarios.run_scenario")),
    "scenarios.emit_fields_s": ("s", ("total", "scenarios.emit_fields")),
    "scenarios.sweep_breakdown_s": ("s", ("total", "scenarios.sweep_breakdown")),
    "scenarios.sweep_cells": ("count", ("count", "scenarios.sweep_cells")),
    "svgplot.read_csv_s": ("s", ("total", "svgplot.read_csv")),
    "svgplot.emit_plot_s": ("s", ("total", "svgplot.emit_plot")),
    "svgplot.svg_bytes": ("bytes", ("count", "svgplot.svg_bytes")),
}


def _count_results(name, counters, args, result):
    """Counters read off a call's arguments or result, at the layer boundary."""
    if name == "dynamics.solver":
        counters["dynamics.nfev"] += int(result.nfev)
        counters["dynamics.solver_unsuccessful"] += not result.success
    elif name == "dynamics.csv_write":
        counters["dynamics.csv_rows"] += len(args[0].t)
    elif name == "scenarios.sweep_breakdown":
        spec = args[0]
        counters["scenarios.sweep_cells"] += spec.c_grid.count * spec.p_grid.count
    elif name == "svgplot.emit_plot":
        counters["svgplot.svg_bytes"] += os.path.getsize(args[2])


COUNTED = {"dynamics.solver", "dynamics.csv_write", "scenarios.sweep_breakdown",
           "svgplot.emit_plot"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counters = dict.fromkeys(
            [key for _, (kind, key) in PER_LAYER.values() if kind == "count"], 0)
        self._undo: list = []

    def reset(self):
        self.spans, self.stack = [], []
        self.counters = dict.fromkeys(self.counters, 0)

    def _wrap(self, fn, name):
        tracer = self
        counted = name in COUNTED

        def traced(*args, **kwargs):
            stack, spans = tracer.stack, tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op_id)
            if counted:
                _count_results(name, tracer.counters, args, result)
            return result

        return traced

    def install(self):
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, name)
            for mname, mod in list(sys.modules.items()):
                if mname.split(".")[0] == "cohtrack" and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(cls, meth, self._wrap(raw, name))
            self._undo.append((cls, meth, raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def layer_metrics(self) -> dict:
        """Per-layer values of the spans and counters recorded since `reset`."""
        total, self_time, calls = {}, {}, {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - child[i])
            calls[name] = calls.get(name, 0) + 1
        out = {}
        for metric, (_, (kind, key)) in PER_LAYER.items():
            if kind == "self":
                out[metric] = self_time.get(key, 0.0)
            elif kind == "total":
                out[metric] = total.get(key, 0.0)
            elif kind == "calls":
                out[metric] = calls.get(key, 0)
            else:
                out[metric] = self.counters[key]
        return out


def write_spans(spans, path):
    """Write spans as CSV: index,name,start_s,end_s,parent,op."""
    with open(path, "w") as f:
        f.write("index,name,start_s,end_s,parent,op\n")
        for i, (name, start, end, parent, op) in enumerate(spans):
            f.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{op}\n")
