"""Layer hooks and in-memory spans for the beamtrack benchmark.

Every layer is measured from outside the program: the benchmark replaces
the module attributes that ``beamtrack.engine``, ``beamtrack.dynamics`` and
``beamtrack.harness`` look up at call time with wrappers, and puts the
originals back when the run ends.  No file under ``src/`` is touched.
"""

from __future__ import annotations

import os
import time

import numpy as np

# (module, attribute looked up at call time, layer name, index of the array
# argument whose size is counted as ``.elems``, or None)
HOOKS = (
    ("engine", "dirichlet", "arrays.dirichlet", 0),
    ("engine", "f_gain_closed", "arrays.f_gain_closed", 1),
    ("engine", "weighted_dirichlet", "arrays.weighted_dirichlet", 0),
    ("engine", "trial_streams", "engine.trial_streams", None),
    ("engine", "step_size", "trackers.step_size", None),
    ("engine", "sweep_matrix", "trackers.sweep_matrix", None),
    ("engine", "codebook_directions", "trackers.codebook_directions", None),
    ("engine", "initial_dictionary", "trackers.initial_dictionary", None),
    ("engine", "cs_dictionary", "baselines.cs_dictionary", None),
    ("dynamics", "trajectory", "dynamics.trajectory", None),
    ("harness", "run_chunk", "engine.run_chunk", None),
    ("harness", "simulate", "harness.simulate", None),
    ("harness", "write_result", "harness.write_result", None),
    ("harness", "min_crlb_x", "crlb.min_crlb_x", None),
)

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def simulate_shape(args, kwargs):
    """(algorithm, trial-slots) of one ``harness.simulate`` call."""
    n_trials = _arg(args, kwargs, 3, "n_trials")
    n_slots = _arg(args, kwargs, 4, "n_slots")
    return _arg(args, kwargs, 1, "algorithm"), n_trials * n_slots


def noise_block_bytes(setup, trial_lo, trial_hi):
    """Computed size of the complex noise block one ``run_chunk`` call draws.

    T x (M + warm + n) complex128 values, following the engine's layout: M
    stage-1 sweep samples, a CS warm-up of M/2 slots on moving trajectories,
    then one sample per slot.  Zero in no-noise mode.
    """
    if setup.no_noise:
        return 0
    tracking = setup.algorithm in ("recursive", "angular")
    m = (setup.cfg_track if tracking else setup.cfg_data).num_antennas
    moving = setup.model is not None and type(setup.model).__name__ != "Static"
    warm = m // 2 if (setup.algorithm == "cs" and moving) else 0
    return (trial_hi - trial_lo) * (m + warm + setup.n_slots) * 16


def _dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class SimulateCounter:
    """Counts ``harness.simulate`` calls and their trial-slots.

    This is the only hook of an untraced run: one wrapper around a call
    that takes seconds, so it adds no measurable time.
    """

    def __init__(self, harness):
        self.harness = harness
        self.calls = 0
        self.trial_slots = 0

    def __enter__(self):
        original = self.original = self.harness.simulate

        def simulate(*args, **kwargs):
            self.calls += 1
            self.trial_slots += simulate_shape(args, kwargs)[1]
            return original(*args, **kwargs)

        self.harness.simulate = simulate
        return self

    def __exit__(self, *exc):
        self.harness.simulate = self.original


class Tracer:
    """Wraps every hook in ``HOOKS`` and keeps one span per call in memory.

    A span is ``(name, label, start, end, parent, run_id)``; ``parent`` is
    the index of the enclosing span or -1, ``label`` is the algorithm of a
    ``harness.simulate`` span.  Counters that repeat exactly (calls,
    elements, trial-slots, bytes) are kept per run id next to the spans.
    """

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.counts = {}
        self.run_id = -1
        self.unmeasured = []
        self._stack = []
        self._originals = []

    def begin_run(self):
        self.run_id += 1
        self.counts[self.run_id] = {}

    def _count(self, key, amount):
        counts = self.counts[self.run_id]
        counts[key] = counts.get(key, 0) + amount

    def _wrap(self, name, fn, elems_index):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = ""
            self._count(name + ".calls", 1)
            if elems_index is not None:
                self._count(name + ".elems", int(np.size(args[elems_index])))
            if name == "harness.simulate":
                label, trial_slots = simulate_shape(args, kwargs)
                self._count(f"harness.simulate.{label}.trial_slots", trial_slots)
            elif name == "engine.run_chunk":
                setup, lo, hi = args[0], args[1], args[2]
                self._count("engine.run_chunk.trial_slots", (hi - lo) * setup.n_slots)
                counts = self.counts[self.run_id]
                key = "engine.noise_block_bytes_computed"
                counts[key] = max(counts.get(key, 0), noise_block_bytes(setup, lo, hi))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, label, start, end, parent, self.run_id)
                if name == "harness.write_result":
                    self._count("harness.write_result.bytes", _dir_bytes(_arg(args, kwargs, 1, "out_dir")))

        return wrapper

    def __enter__(self):
        for module_name, attr, name, elems_index in HOOKS:
            module = self.modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                if name not in self.unmeasured:
                    self.unmeasured.append(name)
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, elems_index))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def layer_totals(self, run_id):
        """Per layer: total and self seconds of one run, from its spans."""
        child_time = {}
        for name, label, start, end, parent, rid in self.spans:
            if rid == run_id and parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals = {}
        for index, (name, label, start, end, parent, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            duration = end - start
            keys = [name] if not label else [name, f"{name}.{label}"]
            for key in keys:
                total = totals.setdefault(key, {"s": 0.0, "self_s": 0.0})
                total["s"] += duration
                total["self_s"] += duration - child_time.get(index, 0.0)
        return totals

    def write_spans(self, path):
        """Write every span as CSV: name,label,start,end,parent,run_id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,label,start_s,end_s,parent,run_id\n")
            for name, label, start, end, parent, rid in self.spans:
                fh.write(f"{name},{label},{start!r},{end!r},{parent},{rid}\n")
