"""In-memory spans around the functions each quadpend layer exposes.

A wrapper is installed on the name a caller looks up at call time, so no
code under ``src/`` changes:

* ``harness`` resolves ``sample_trajectory``, ``rk4_step`` and
  ``compute_metrics`` in its own namespace and reaches the controllers as
  ``ctl.<name>``;
* ``controllers`` resolves ``solve_qp`` and ``solve_care`` in its own
  namespace;
* ``numerics`` reaches ``scipy.optimize.linprog`` by attribute;
* ``cli`` resolves ``load_scenarios``, ``run_scenario`` and ``emit_log`` in
  its own namespace.

The derivative callable handed to ``rk4_step`` is wrapped at each call, so
``models`` time does not depend on where the dynamics function lives.

Each span records its name, start, end, parent span and run id.  Spans stay
in flat lists until the run ends; a span's self time is its duration minus
the durations of its direct children.
"""

import importlib
import time
from collections import Counter

import numpy as np

# (owner, attribute, layer).  The owner is where the caller looks the name up.
TOP_LEVEL = (
    ("quadpend.cli", "load_scenarios", "cli.load"),
    ("quadpend.cli", "run_scenario", "harness.run"),
    ("quadpend.cli", "emit_log", "cli.emit"),
)
ALL_LAYERS = TOP_LEVEL + (
    ("quadpend.harness", "sample_trajectory", "trajectories.sample"),
    ("quadpend.trajectories.SetpointDifferentiator", "update",
     "trajectories.diff"),
    ("quadpend.harness", "rk4_step", "numerics.rk4"),
    ("quadpend.harness", "compute_metrics", "harness.metrics"),
    ("quadpend.controllers", "position_allocation", "controllers.outer"),
    ("quadpend.controllers", "attitude_from_force", "controllers.outer"),
    ("quadpend.controllers", "pendulum_fbl_xi", "controllers.outer"),
    ("quadpend.controllers", "pendulum_fbl_xi_prime", "controllers.outer"),
    ("quadpend.controllers", "pendulum_position_lqr", "controllers.outer"),
    ("quadpend.controllers", "fbl_regulator", "controllers.inner"),
    ("quadpend.controllers", "fbl_tracker", "controllers.inner"),
    ("quadpend.controllers", "clf_qp_controller", "controllers.inner"),
    ("quadpend.controllers", "setup_output_clf", "controllers.setup"),
    ("quadpend.controllers", "setup_pendulum_lqr", "controllers.setup"),
    ("quadpend.controllers", "solve_qp", "numerics.qp"),
    ("quadpend.controllers", "solve_care", "numerics.care"),
    ("scipy.optimize", "linprog", "numerics.lp"),
)
DERIV = "models.deriv:deriv"
ROOT_SPAN = "bench.job:main"
CLF_QP = "controllers.inner:clf_qp_controller"


def resolve(owner):
    """Module or class named by a dotted path."""
    try:
        return importlib.import_module(owner)
    except ModuleNotFoundError:
        module, _, attr = owner.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def layer_of(name):
    return name.split(":", 1)[0]


class Tracer:
    """Records spans while installed (``with tracer: ...``)."""

    def __init__(self, targets=TOP_LEVEL):
        self.targets = targets
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.runs = []
        self.run_id = 0
        self.counters = Counter()
        self._stack = []
        self._saved = []

    def call(self, name, fn, args, kwargs):
        i = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.counters[f"{name}!{type(exc).__name__}"] += 1
            raise
        finally:
            self.ends[i] = time.perf_counter_ns()
            self._stack.pop()

    def _wrapper(self, name, fn):
        call = self.call
        counters = self.counters
        layer = layer_of(name)
        if layer == "numerics.rk4":
            def wrapper(deriv, *args, **kwargs):
                def timed_deriv(x):
                    return call(DERIV, deriv, (x,), {})
                return call(name, fn, (timed_deriv,) + args, kwargs)
        elif layer == "harness.run":
            def wrapper(*args, **kwargs):
                log = call(name, fn, args, kwargs)
                counters["harness.steps"] += int(log.t.size)
                counters["harness.clamp_events"] += int(log.metrics["clamp_events"])
                counters["harness.qp_relaxed_events"] += int(
                    log.metrics["qp_relaxed_events"])
                counters["harness.aborts"] += int(log.aborted)
                return log
        elif layer == "cli.emit":
            def wrapper(*args, **kwargs):
                paths = call(name, fn, args, kwargs)
                counters["cli.emit.bytes"] += sum(p.stat().st_size for p in paths)
                return paths
        elif layer == "numerics.qp":
            def wrapper(*args, **kwargs):
                res = call(name, fn, args, kwargs)
                counters["numerics.qp.iterations"] += int(res.iterations)
                return res
        else:
            def wrapper(*args, **kwargs):
                return call(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        for owner, attr, layer in self.targets:
            obj = resolve(owner)
            original = getattr(obj, attr)
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self._wrapper(f"{layer}:{attr}", original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)
        return False

    def arrays(self):
        """Span table as numpy arrays: names, parent, duration, self time (ns)."""
        names = np.asarray(self.names, dtype=object)
        parent = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends, dtype=np.int64) - np.asarray(
            self.starts, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return names, parent, dur, dur - child.astype(np.int64)

    def totals(self):
        """Per layer: calls, self time and inclusive time in seconds.

        Inclusive time counts only spans whose parent is in another layer,
        so nested spans of one layer are not counted twice.
        """
        names, parent, dur, self_ns = self.arrays()
        layers = np.asarray([layer_of(n) for n in names], dtype=object)
        parent_layer = np.where(parent >= 0, layers[np.maximum(parent, 0)], "")
        out = {}
        for layer in set(layers.tolist()):
            mask = layers == layer
            top = mask & (parent_layer != layer)
            out[layer] = (int(mask.sum()), float(self_ns[mask].sum()) * 1e-9,
                          float(dur[top].sum()) * 1e-9)
        return out

    def write(self, path):
        """Write every span as one CSV row (times in ns)."""
        with open(path, "w") as fh:
            fh.write("run,span,parent,name,start_ns,end_ns\n")
            for i, (name, parent, run, start, end) in enumerate(zip(
                    self.names, self.parents, self.runs, self.starts,
                    self.ends)):
                fh.write(f"{run},{i},{parent},{name},{start},{end}\n")


# Per-layer metrics of a traced run: (name, unit, better).  Counts and times
# are totals over one cycle of the traced jobs; latencies pool every call.
PER_LAYER = (
    ("trajectories.sample.calls", "count", "lower"),
    ("trajectories.sample.self_s", "s", "lower"),
    ("trajectories.diff.calls", "count", "lower"),
    ("trajectories.diff.self_s", "s", "lower"),
    ("controllers.outer.calls", "count", "lower"),
    ("controllers.outer.self_s", "s", "lower"),
    ("controllers.inner.calls", "count", "lower"),
    ("controllers.inner.self_s", "s", "lower"),
    ("controllers.inner.us_p50", "us", "lower"),
    ("controllers.inner.us_p99", "us", "lower"),
    ("controllers.clfqp.fastpath_ratio", "ratio", "higher"),
    ("controllers.setup.calls", "count", "lower"),
    ("controllers.setup.s", "s", "lower"),
    ("numerics.rk4.calls", "count", "lower"),
    ("numerics.rk4.self_s", "s", "lower"),
    ("numerics.qp.calls", "count", "lower"),
    ("numerics.qp.self_s", "s", "lower"),
    ("numerics.qp.iterations", "count", "lower"),
    ("numerics.qp.infeasible", "count", "lower"),
    ("numerics.qp.us_p99", "us", "lower"),
    ("numerics.lp.calls", "count", "lower"),
    ("numerics.lp.s", "s", "lower"),
    ("numerics.care.calls", "count", "lower"),
    ("numerics.care.s", "s", "lower"),
    ("models.deriv.calls", "count", "lower"),
    ("models.deriv.s", "s", "lower"),
    ("harness.run.s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.metrics.s", "s", "lower"),
    ("harness.steps", "count", "higher"),
    ("harness.clamp_events", "count", "lower"),
    ("harness.qp_relaxed_events", "count", "lower"),
    ("harness.aborts", "count", "lower"),
    ("cli.import.s", "s", "lower"),
    ("cli.load.s", "s", "lower"),
    ("cli.emit.s", "s", "lower"),
    ("cli.emit.bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.accounted_ratio", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
)


def _per_cycle(total, cycles):
    value = total / cycles
    return int(value) if float(value).is_integer() else value


def layer_metrics(tracer, cycles):
    """Per-layer metrics from a tracer that ran ``cycles`` identical cycles.

    Returns every ``PER_LAYER`` metric except ``cli.import.s`` and the
    ``trace.*`` figures, which need runs outside the tracer.
    """
    names, parent, dur, self_ns = tracer.arrays()
    totals = tracer.totals()
    c = tracer.counters
    m = {}

    def calls(layer):
        return _per_cycle(totals.get(layer, (0, 0.0, 0.0))[0], cycles)

    def self_s(layer):
        return totals.get(layer, (0, 0.0, 0.0))[1] / cycles

    def incl_s(layer):
        return totals.get(layer, (0, 0.0, 0.0))[2] / cycles

    def us(name_prefix, q):
        mask = np.asarray([n.startswith(name_prefix) for n in names], dtype=bool)
        return float(np.percentile(dur[mask], q)) * 1e-3 if mask.any() else 0.0

    for layer in ("trajectories.sample", "trajectories.diff",
                  "controllers.outer", "controllers.inner", "numerics.rk4",
                  "numerics.qp"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = self_s(layer)
    for layer in ("controllers.setup", "numerics.lp", "numerics.care",
                  "models.deriv"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.s"] = incl_s(layer)
    m["controllers.inner.us_p50"] = us("controllers.inner:", 50)
    m["controllers.inner.us_p99"] = us("controllers.inner:", 99)
    m["numerics.qp.us_p99"] = us("numerics.qp:", 99)
    m["numerics.qp.iterations"] = _per_cycle(c["numerics.qp.iterations"], cycles)
    m["numerics.qp.infeasible"] = _per_cycle(
        c["numerics.qp:solve_qp!QpInfeasibleError"], cycles)

    clf = names == CLF_QP
    qp_parents = set(parent[names == "numerics.qp:solve_qp"].tolist())
    reached = sum(1 for i in np.flatnonzero(clf) if i in qp_parents)
    m["controllers.clfqp.fastpath_ratio"] = (
        1.0 - reached / int(clf.sum()) if clf.any() else 1.0)

    m["harness.run.s"] = incl_s("harness.run")
    m["harness.self_s"] = self_s("harness.run")
    m["harness.metrics.s"] = incl_s("harness.metrics")
    for key in ("harness.steps", "harness.clamp_events",
                "harness.qp_relaxed_events", "harness.aborts", "cli.emit.bytes"):
        m[key] = _per_cycle(c[key], cycles)
    m["cli.load.s"] = incl_s("cli.load")
    m["cli.emit.s"] = incl_s("cli.emit")
    m["trace.spans"] = _per_cycle(len(names), cycles)
    root = names == ROOT_SPAN
    m["trace.accounted_ratio"] = (
        float(self_ns[~root].sum()) / float(dur[root].sum()) if root.any() else 0.0)
    return m
