"""Spans around symkt's public functions, recorded from outside the package.

:meth:`Tracer.install` rebinds each function listed in ``LAYER_FUNCTIONS``
in every loaded ``symkt.*`` module that binds it (modules import by name:
``jacobian`` is bound in ``dual``, ``fields``, ``manifolds``, ``curvature``
...) and in the extra modules it is given, and wraps the backend methods in
``LAYER_METHODS``.  :meth:`Tracer.uninstall` puts the originals back.

Every call becomes a span (name, start, end, parent span, request id) kept
in flat in-memory arrays and written out once, by :meth:`Tracer.save`.
Request id 0 is set-up (building inputs, warm-up); timed requests are
numbered from 1.  Layer metrics aggregate the timed requests only, except
``constructors.build_constructor``, which only runs in set-up.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

from symkt.dual import value_of

# metric prefix -> (module, function name)
LAYER_FUNCTIONS = {
    "dual.jacobian": ("symkt.dual", "jacobian"),
    "manifolds.gamma_frame": ("symkt.manifolds", "gamma_frame"),
    "manifolds.frame_at": ("symkt.manifolds", "frame_at"),
    "manifolds.christoffel": ("symkt.manifolds", "christoffel"),
    "fields.nabla": ("symkt.fields", "nabla"),
    "fields.nabla2": ("symkt.fields", "nabla2"),
    "fields.d_op": ("symkt.fields", "d_op"),
    "fields.delta_op": ("symkt.fields", "delta_op"),
    "curvature.riemann": ("symkt.curvature", "riemann"),
    "curvature.qR_act": ("symkt.curvature", "qR_act"),
    "curvature.lichnerowicz_defect": ("symkt.curvature", "lichnerowicz_defect"),
    "symtensor.sym_product": ("symkt.symtensor", "sym_product"),
    "symtensor.contract": ("symkt.symtensor", "contract"),
    "symtensor.trace_Lambda": ("symkt.symtensor", "trace_Lambda"),
    "symtensor.mult_L": ("symkt.symtensor", "mult_L"),
    "symtensor.standard_decomposition": ("symkt.symtensor", "standard_decomposition"),
    "symtensor.tracefree_part": ("symkt.symtensor", "tracefree_part"),
    "symtensor.change_basis": ("symkt.symtensor", "change_basis"),
    "symtensor.poly_eval": ("symkt.symtensor", "poly_eval"),
    "cartan.cartan_decompose": ("symkt.cartan", "cartan_decompose"),
    "classify.classify": ("symkt.classify", "classify"),
    "geodesic.geodesic_drift": ("symkt.geodesic", "geodesic_drift"),
    "suites.identity_suite": ("symkt.suites", "identity_suite"),
    "constructors.build_constructor": ("symkt.constructors", "build_constructor"),
}

_BACKENDS = ("Chart", "EmbeddedSphere", "ProductManifold", "ConformalRescale")

# metric prefix -> (module, classes, method name)
LAYER_METHODS = {
    "fields.field_eval": ("symkt.fields", ("TensorField",), "__call__"),
    "manifolds.geodesic_rhs": ("symkt.manifolds", _BACKENDS, "geodesic_rhs"),
    "manifolds.frame_components": ("symkt.manifolds", _BACKENDS, "frame_components"),
}

# Layers whose useful-work ratio is distinct float-level points per call,
# counted within each request: what a per-point cache could save.
DISTINCT_POINTS = {"manifolds.gamma_frame", "fields.nabla"}

# Work items per call, for the per-item times.
WORK_ARGS = {"classify.classify": "samples", "geodesic.geodesic_drift": "steps"}

REQUEST = "request"
SET_UP_ONLY = "constructors.build_constructor"


def _layer_specs():
    specs = []
    for name in list(LAYER_FUNCTIONS) + list(LAYER_METHODS):
        if name == SET_UP_ONLY:
            specs += [(f"{name}.calls", "count", "lower"),
                      (f"{name}.total_s", "s", "lower")]
            continue
        specs += [(f"{name}.calls", "count", "lower"),
                  (f"{name}.self_s", "s", "lower"),
                  (f"{name}.total_s", "s", "lower")]
        if name == "dual.jacobian":
            specs.append((f"{name}.nested_calls", "count", "lower"))
        if name in DISTINCT_POINTS:
            specs += [(f"{name}.distinct", "count", "lower"),
                      (f"{name}.distinct_ratio", "1", "higher")]
    specs += [("classify.per_sample_ms", "ms", "lower"),
              ("geodesic.step_ms", "ms", "lower"),
              ("trace.overhead_ratio", "1", "lower")]
    return specs


# (metric name, unit, better) for every per-layer metric the traced run prints
PER_LAYER = _layer_specs()


def _point_key(base, x):
    return id(base), tuple(value_of(v) for v in x)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = list(LAYER_FUNCTIONS) + list(LAYER_METHODS) + [REQUEST]
        self._index = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.recursive = array("b")  # an enclosing span has the same name
        self._stack = [-1]
        self._active = [0] * len(self.names)
        self.request_id = 0
        self.points = {n: set() for n in DISTINCT_POINTS}
        self.work = {n: 0 for n in WORK_ARGS}
        self._restore = []

    # -- recording -------------------------------------------------------

    def _open(self, idx):
        sid = len(self.name)
        self.name.append(idx)
        self.parent.append(self._stack[-1])
        self.request.append(self.request_id)
        self.recursive.append(self._active[idx] > 0)
        self.end.append(0.0)
        self._active[idx] += 1
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, idx, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        self._active[idx] -= 1

    def _wrap(self, name, fn):
        idx = self._index[name]
        distinct = name in DISTINCT_POINTS
        work_arg = WORK_ARGS.get(name)
        signature = inspect.signature(fn) if work_arg else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request_id > 0:
                if distinct:
                    base = args[0] if name == "manifolds.gamma_frame" else args[0].base
                    self.points[name].add((self.request_id, _point_key(base, args[1])))
                if work_arg:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.work[name] += int(bound.arguments[work_arg])
            sid = self._open(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, sid)

        return wrapper

    def run_request(self, request_id, fn, *args):
        """Call fn(*args) as request ``request_id`` under a root span."""
        self.request_id = request_id
        idx = self._index[REQUEST]
        sid = self._open(idx)
        try:
            return fn(*args)
        finally:
            self._close(idx, sid)
            self.request_id = 0

    # -- installing ------------------------------------------------------

    def install(self, extra_modules=()):
        """Rebind every listed function and method to its traced wrapper."""
        wrappers = {}
        for name, (modname, attr) in LAYER_FUNCTIONS.items():
            fn = getattr(sys.modules[modname], attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        modules = [m for key, m in list(sys.modules.items())
                   if key == "symkt" or key.startswith("symkt.")]
        for module in modules + list(extra_modules):
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))
        for name, (modname, classes, method) in LAYER_METHODS.items():
            for cls_name in classes:
                cls = getattr(sys.modules[modname], cls_name)
                fn = cls.__dict__[method]
                setattr(cls, method, self._wrap(name, fn))
                self._restore.append((cls, method, fn))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "recursive": np.frombuffer(self.recursive, dtype=np.int8).copy(),
        }

    def save(self, path):
        """Write all spans as a compressed .npz (see the README)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, overhead_ratio):
        """Every ``PER_LAYER`` metric, as {name: value}."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        timed = a["request"] > 0
        outermost = a["recursive"] == 0
        out = {}
        for name in self.names[:-1]:
            phase = ~timed if name == SET_UP_ONLY else timed
            mask = (a["name"] == self._index[name]) & phase
            calls = int(mask.sum())
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = float(dur[mask & outermost].sum())
            if name == SET_UP_ONLY:
                continue
            out[f"{name}.self_s"] = float(self_time[mask].sum())
            if name == "dual.jacobian":
                out[f"{name}.nested_calls"] = int((mask & ~outermost).sum())
            if name in DISTINCT_POINTS:
                distinct = len(self.points[name])
                out[f"{name}.distinct"] = distinct
                out[f"{name}.distinct_ratio"] = distinct / calls if calls else 0.0
        samples = self.work["classify.classify"]
        steps = self.work["geodesic.geodesic_drift"]
        out["classify.per_sample_ms"] = (
            1e3 * out["classify.classify.total_s"] / samples if samples else 0.0)
        out["geodesic.step_ms"] = (
            1e3 * out["geodesic.geodesic_drift.total_s"] / steps if steps else 0.0)
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: out[name] for name, _, _ in PER_LAYER}
