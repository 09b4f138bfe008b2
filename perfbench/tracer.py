"""Span tracing of rhdlab from outside the package, and the per-layer metrics.

:func:`install` wraps every public function and every public method of the
public classes of each ``rhdlab`` module, then rebinds the names other
modules imported, so a call made anywhere in the package records a span:
name, start, end and parent (the enclosing span on the same thread).  Spans
stay in memory until :meth:`Tracer.layer_metrics` reduces them.  Nothing
under ``src/`` is edited.

Two wrappers record more than time:

* ``SpectralGrid.fft``/``ifft`` record how many d-dimensional field
  transforms the call made (the argument's size over the grid's point
  count) and the bytes it read and wrote, computed from array sizes.
* ``ImexOperator.__init__`` records, through ``tracemalloc``, the bytes of
  the numpy arrays allocated on its own lines that are still alive when it
  returns.  The measurement holds a lock, so two operators built on two
  threads are measured one after the other.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MODULES = ("fields", "model", "steppers", "compressible", "diagnostics",
           "incompressible", "initial", "linearized", "config", "sweep",
           "identities", "cli")
# Private helpers that a layer metric needs: all output writes of `sweep`.
EXTRA = {"sweep": ("_write_json",)}

TRANSFORMS = ("fields.SpectralGrid.fft", "fields.SpectralGrid.ifft")
STEPPERS = ("steppers.imex_euler_step", "steppers.ars222_step")
OPERATOR_INIT = "steppers.ImexOperator.__init__"
# Spans subtracted from a compressible step to leave its own work.
STEP_CHILDREN = TRANSFORMS + ("model.velocity_form_remainders",
                              "steppers.ImexOperator.solve",
                              "steppers.ImexOperator.apply")

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("fields.transforms_per_step", "count", "lower"),
    ("fields.fft_s", "s", "lower"),
    ("fields.bytes_per_step", "B_computed", "lower"),
    ("model.remainders_ms.p50", "ms", "lower"),
    ("model.remainders_ms.p95", "ms", "lower"),
    ("compressible.step_ms.p50", "ms", "lower"),
    ("compressible.step_ms.p95", "ms", "lower"),
    ("compressible.step_self_ms", "ms", "lower"),
    ("compressible.validate_ms", "ms", "lower"),
    ("compressible.validate_calls", "count", "lower"),
    ("steppers.factor_s", "s", "lower"),
    ("steppers.operator_bytes", "B", "lower"),
    ("steppers.solve_ms", "ms", "lower"),
    ("steppers.apply_ms", "ms", "lower"),
    ("diagnostics.observe_ms.p50", "ms", "lower"),
    ("diagnostics.observe_ms.p95", "ms", "lower"),
    ("diagnostics.observe_calls", "count", "lower"),
    ("diagnostics.transforms_per_observe", "count", "lower"),
    ("diagnostics.compare_s", "s", "lower"),
    ("incompressible.step_ms", "ms", "lower"),
    ("linearized.solve_s", "s", "lower"),
    ("linearized.step_ms", "ms", "lower"),
    ("linearized.transforms_per_step", "count", "lower"),
    ("initial.make_well_prepared_s", "s", "lower"),
    ("initial.calls", "count", "lower"),
    ("sweep.member_parallelism", "ratio", "higher"),
    ("sweep.write_s", "s", "lower"),
    ("sweep.output_bytes", "B", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
]


class Tracer:
    """In-memory span recorder shared by all threads of one process."""

    def __init__(self):
        # (id, parent id or 0, name, start, end, field transforms, bytes)
        self.spans = []
        self.retained_bytes = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._alloc_lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        if name in TRANSFORMS:
            return self._wrap_transform(name, fn)
        if name == OPERATOR_INIT:
            return self._wrap_retained(name, fn)
        return self._wrap_timed(name, fn)

    def _wrap_timed(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, 0, 0))
        return traced

    def _wrap_transform(self, name, fn):
        @functools.wraps(fn)
        def traced(grid, f):
            stack = self._stack()
            t0 = time.perf_counter()
            out = fn(grid, f)
            t1 = time.perf_counter()
            f = np.asarray(f)
            count = f.size // (grid.n ** grid.dim)
            self.spans.append((next(self._ids), stack[-1] if stack else 0,
                               name, t0, t1, count, f.nbytes + out.nbytes))
            return out
        return traced

    def _wrap_retained(self, name, fn):
        code = fn.__code__
        lines = {line for _, _, line in code.co_lines() if line is not None}
        timed = self._wrap_timed(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._alloc_lock:
                tracemalloc.start(32)
                try:
                    timed(*args, **kwargs)
                    snap = tracemalloc.take_snapshot()
                finally:
                    tracemalloc.stop()
            self.retained_bytes.append(sum(
                tr.size for tr in snap.traces
                if tr.domain == np.lib.tracemalloc_domain
                and any(fr.filename == code.co_filename and fr.lineno in lines
                        for fr in tr.traceback)))
        return traced

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics of every span recorded so far (see LAYER_METRICS)."""
        by_name = defaultdict(list)
        children = defaultdict(list)
        for s in self.spans:
            by_name[s[2]].append(s)
            children[s[1]].append(s)

        def descendants(span):
            todo = list(children[span[0]])
            while todo:
                s = todo.pop()
                yield s
                todo.extend(children[s[0]])

        def transforms_under(roots):
            count = nbytes = 0
            for r in roots:
                for s in descendants(r):
                    count += s[5]
                    nbytes += s[6]
            return count, nbytes

        def durations(name, scale=1.0):
            return [(s[4] - s[3]) * scale for s in by_name[name]]

        def pct(values, q):
            return float(np.percentile(values, q)) if values else 0.0

        def covered(span, names):
            """Time of ``span`` inside its outermost descendants named ``names``."""
            total = 0.0
            todo = list(children[span[0]])
            while todo:
                s = todo.pop()
                if s[2] in names:
                    total += s[4] - s[3]
                else:
                    todo.extend(children[s[0]])
            return total

        m = {}
        steps = [s for name in STEPPERS for s in by_name[name]]
        count, nbytes = transforms_under(steps)
        m["fields.transforms_per_step"] = count / len(steps) if steps else 0.0
        m["fields.fft_s"] = sum(sum(durations(n)) for n in TRANSFORMS)
        m["fields.bytes_per_step"] = nbytes / len(steps) if steps else 0.0

        rem = durations("model.velocity_form_remainders", 1e3)
        m["model.remainders_ms.p50"] = pct(rem, 50)
        m["model.remainders_ms.p95"] = pct(rem, 95)

        cstep = by_name["compressible.CompressibleSolver.step_spectral"]
        step_ms = [(s[4] - s[3]) * 1e3 for s in cstep]
        m["compressible.step_ms.p50"] = pct(step_ms, 50)
        m["compressible.step_ms.p95"] = pct(step_ms, 95)
        m["compressible.step_self_ms"] = pct(
            [(s[4] - s[3] - covered(s, STEP_CHILDREN)) * 1e3 for s in cstep], 50)
        m["compressible.validate_ms"] = sum(
            durations("compressible.CompressibleState.validate", 1e3))
        m["compressible.validate_calls"] = float(
            len(by_name["compressible.CompressibleState.validate"]))

        m["steppers.factor_s"] = sum(durations(OPERATOR_INIT))
        m["steppers.operator_bytes"] = float(max(self.retained_bytes, default=0))
        m["steppers.solve_ms"] = pct(durations("steppers.ImexOperator.solve", 1e3), 50)
        m["steppers.apply_ms"] = pct(durations("steppers.ImexOperator.apply", 1e3), 50)

        obs = by_name["diagnostics.Collector.observe"]
        obs_ms = [(s[4] - s[3]) * 1e3 for s in obs]
        m["diagnostics.observe_ms.p50"] = pct(obs_ms, 50)
        m["diagnostics.observe_ms.p95"] = pct(obs_ms, 95)
        m["diagnostics.observe_calls"] = float(len(obs))
        m["diagnostics.transforms_per_observe"] = (
            transforms_under(obs)[0] / len(obs) if obs else 0.0)
        m["diagnostics.compare_s"] = sum(durations("diagnostics.compare_to_reference"))

        m["incompressible.step_ms"] = pct(
            durations("incompressible.IncompressibleSolver.step", 1e3), 50)

        solves = by_name["linearized.solve_linearized"]
        lin_steps = sum(1 for r in solves for s in descendants(r)
                        if s[2] in STEPPERS)
        solve_s = sum(s[4] - s[3] for s in solves)
        m["linearized.solve_s"] = solve_s
        m["linearized.step_ms"] = solve_s * 1e3 / lin_steps if lin_steps else 0.0
        m["linearized.transforms_per_step"] = (
            transforms_under(solves)[0] / lin_steps if lin_steps else 0.0)

        m["initial.make_well_prepared_s"] = sum(durations("initial.make_well_prepared"))
        m["initial.calls"] = float(len(by_name["initial.make_well_prepared"]))

        runs = by_name["compressible.CompressibleSolver.run"]
        if runs:
            phase = max(s[4] for s in runs) - min(s[3] for s in runs)
            m["sweep.member_parallelism"] = sum(s[4] - s[3] for s in runs) / phase
        else:
            m["sweep.member_parallelism"] = 0.0
        m["sweep.write_s"] = (sum(durations("sweep.write_diagnostics_csv"))
                              + sum(durations("sweep._write_json")))
        return {k: float(v) for k, v in m.items()}


def install(tracer: Tracer):
    """Wrap the public functions and methods of every rhdlab module."""
    wrapped = {}
    modules = [importlib.import_module(f"rhdlab.{name}") for name in MODULES]
    for short, mod in zip(MODULES, modules):
        names = [n for n in vars(mod) if not n.startswith("_")]
        names += EXTRA.get(short, ())
        for name in names:
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{short}.{name}", obj)
            elif inspect.isclass(obj):
                for attr, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (
                            not attr.startswith("_")
                            or f"{short}.{name}.{attr}" == OPERATOR_INIT):
                        setattr(obj, attr,
                                tracer.wrap(f"{short}.{name}.{attr}", fn))
    # Rebind every module-level reference, including names imported with
    # ``from .x import f`` and calls a module makes to its own functions.
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
