"""Outside-in tracer for the harmspace layers.

Every public function and method of the traced modules is replaced by a
wrapper that records one span: the function, its parent span, start and
end.  Methods are wrapped on the class that defines them, so subclasses
and aliases of the class see the wrapper.  Module-level functions are
rebound under every name that any traced module holds for them, which
catches the aliases that ``from module import name`` created, so no call
escapes.  Private helpers (leading underscore) are not wrapped: their time
is self time of the public function that called them, which lives in the
same module.

Spans live in flat arrays until the pass ends.  A few functions also have
counting hooks (kernel values computed, quadrature nodes built, boxes
scanned ...); hook time is kept per span and charged to the benchmark, not
to a layer.  ``uninstall`` restores every original binding; an untraced
run never constructs a Tracer.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import types
from array import array
from collections import Counter

import numpy as np

LAYERS = ("geometry", "quadrature", "kernels", "fields", "norms", "carleson",
          "operators", "ball", "verify", "cli", "util")

# Dunder methods that do real work and are defined in the source.
_DUNDERS = ("__init__", "__post_init__")

# Quadrature builders whose result is a node set; breakpoint helpers and
# spec arithmetic are not.
_NODE_BUILDERS = {
    "panel_nodes", "composite_nodes", "t_quadrature", "radial_quadrature",
    "box_axis_quadrature", "flat_box_nodes", "cube_tensor_nodes",
    "AxisymmetricNodes.__init__",
}


def _public(name):
    return not name.startswith("_") or name in _DUNDERS


def _defined_in(fn, module):
    code = getattr(getattr(fn, "__wrapped__", fn), "__code__", None)
    return code is not None and code.co_filename == module.__file__


def _fingerprint(value):
    """Cheap identity of a kernel argument: shape plus up to 64 samples."""
    if isinstance(value, np.ndarray):
        flat = value.reshape(-1)
        step = max(1, flat.size // 64)
        return (value.shape, value.dtype.str, flat[::step][:64].tobytes())
    if isinstance(value, (int, float, str, bool, type(None))):
        return value
    return repr(type(value))


def _node_count(qualname, args, out):
    if qualname == "AxisymmetricNodes.__init__":
        nodes = args[0]
        return int(nodes.u.size * nodes.s.size)
    return int(np.size(out[-1]))


def wrapper_cost(calls=100_000, repeats=3):
    """Seconds that one span wrapper adds to a call, timed on a no-op."""
    def noop():
        return None

    traced = Tracer()._wrapper(noop, "util", "noop")

    def loop(fn):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    plain = min(loop(noop) for _ in range(repeats))
    wrapped = min(loop(traced) for _ in range(repeats))
    return max(0.0, (wrapped - plain) / calls)


class Tracer:
    """Spans and counts for one traced pass over a workload."""

    def __init__(self):
        self.names = []        # function index -> "layer.qualname"
        self.func_layer = []   # function index -> layer index
        self.parent = array("q")
        self.func = array("q")
        self.start = array("d")
        self.end = array("d")
        self.hook_s = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.rule_orders = set()
        self.kernel_inputs = set()
        self.exp_wall = Counter()
        self._undo = []

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap every public function and method of the traced modules."""
        modules = {layer: importlib.import_module(f"harmspace.{layer}")
                   for layer in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, mod, obj)
                elif callable(obj) and _public(name) and _defined_in(obj, mod):
                    wrapped[id(obj)] = self._wrapper(obj, layer, obj.__qualname__)
        # Rebind every alias, including `from .x import f` copies.
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, name, wrapped[id(obj)])

    def _wrap_class(self, layer, mod, cls):
        for attr, val in list(vars(cls).items()):
            if not _public(attr):
                continue
            qual = f"{cls.__name__}.{attr}"
            if isinstance(val, (classmethod, staticmethod)):
                if _defined_in(val.__func__, mod):
                    self._set(cls, attr,
                              type(val)(self._wrapper(val.__func__, layer, qual)))
            elif isinstance(val, property):
                if val.fget is not None and _defined_in(val.fget, mod):
                    self._set(cls, attr, property(self._wrapper(val.fget, layer, qual),
                                                  val.fset, val.fdel, val.__doc__))
            elif isinstance(val, types.FunctionType) and _defined_in(val, mod):
                self._set(cls, attr, self._wrapper(val, layer, qual))

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrapper(self, fn, layer, qualname):
        idx = len(self.names)
        self.names.append(f"{layer}.{qualname}")
        self.func_layer.append(LAYERS.index(layer))
        hook = self._hook_for(layer, qualname)
        stack, parent, func = self.stack, self.parent, self.func
        start, end, hook_s = self.start, self.end, self.hook_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            func.append(idx)
            end.append(0.0)
            hook_s.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(sid, args, kwargs, out)
                hook_s[sid] = clock() - end[sid]
            return out

        return traced

    # -------------------------------------------------------------- hooks

    def _parent_layer(self, sid):
        p = self.parent[sid]
        return -1 if p < 0 else self.func_layer[self.func[p]]

    def _parent_name(self, sid):
        p = self.parent[sid]
        return None if p < 0 else self.names[self.func[p]]

    def _hook_for(self, layer, qualname):
        """Counting hook for one function, or None."""
        own = LAYERS.index(layer)
        c = self.counts

        def outermost(sid):
            return self._parent_layer(sid) != own

        if layer == "quadrature" and qualname in _NODE_BUILDERS:
            is_rule = qualname == "panel_nodes"
            is_cube = qualname == "cube_tensor_nodes"

            def hook(sid, args, kwargs, out):
                if is_rule:
                    c["quadrature.rules"] += 1
                    self.rule_orders.add(kwargs.get("order", args[2] if len(args) > 2 else None))
                caller = self._parent_layer(sid)
                if caller == own:
                    return
                nodes = _node_count(qualname, args, out)
                c["quadrature.nodes"] += nodes
                if caller == LAYERS.index("operators"):
                    c["operators.node_points"] += nodes
                if is_cube and self._parent_name(sid) == "norms.bergman_norm":
                    c["norms.boxes"] += 1
            return hook
        if layer == "kernels":
            def hook(sid, args, kwargs, out):
                if not (outermost(sid) and isinstance(out, np.ndarray)):
                    return
                c["kernels.array_calls"] += 1
                c["kernels.values"] += out.size
                c["kernels.bytes_computed"] += out.nbytes
                self.kernel_inputs.add(
                    (qualname, tuple(_fingerprint(a) for a in args),
                     tuple(sorted((k, _fingerprint(v)) for k, v in kwargs.items()))))
            return hook
        if layer == "fields" and qualname.endswith((".values", ".radial_values")):
            def hook(sid, args, kwargs, out):
                if outermost(sid):
                    c["fields.points"] += int(np.size(out))
            return hook
        if qualname in ("KernelIntegralField.values", "KernelIntegralField.radial_values"):
            def hook(sid, args, kwargs, out):
                c["operators.eval_points"] += int(np.size(out))
            return hook
        if qualname == "whitney_cubes":
            def hook(sid, args, kwargs, out):
                c["geometry.cubes"] += len(out)
            return hook
        if qualname == "AtomicMeasure.mass_in_box":
            def hook(sid, args, kwargs, out):
                c["carleson.boxes_scanned"] += 1
            return hook
        if qualname == "basis_matrix":
            def hook(sid, args, kwargs, out):
                c["ball.basis_calls"] += 1
            return hook
        if layer == "util" and qualname in ("dump_json", "dump_csv"):
            pos = 1 if qualname == "dump_json" else 0

            def hook(sid, args, kwargs, out):
                path = kwargs.get("path", args[pos] if len(args) > pos else None)
                c["cli.files_written"] += 1
                c["cli.bytes_written"] += os.path.getsize(path)
            return hook
        if qualname == "run_experiment":
            def hook(sid, args, kwargs, out):
                exp_id = kwargs.get("exp_id", args[0] if args else None)
                self.exp_wall[exp_id] += self.end[sid] - self.start[sid]
            return hook
        return None

    # ---------------------------------------------------------- summaries

    def _arrays(self):
        """Copies of the span arrays: (parent, func, start, end, hook_s)."""
        return (np.frombuffer(self.parent, dtype=np.int64).copy(),
                np.frombuffer(self.func, dtype=np.int64).copy(),
                np.frombuffer(self.start, dtype=float).copy(),
                np.frombuffer(self.end, dtype=float).copy(),
                np.frombuffer(self.hook_s, dtype=float).copy())

    def self_times(self):
        """(self time per span, layer per span, function per span)."""
        parent, func, start, end, hook = self._arrays()
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=(dur + hook)[has],
                            minlength=parent.size)
        layer = np.asarray(self.func_layer, dtype=np.int64)[func]
        return dur - child, layer, func

    def layer_metrics(self, exp_ids):
        """Per-layer calls, self time and counts, with 0 for unused layers."""
        own, layer, func = self.self_times()
        self_s = np.bincount(layer, weights=own, minlength=len(LAYERS))
        calls = np.bincount(layer, minlength=len(LAYERS))
        per_func = np.bincount(func, weights=own, minlength=len(self.names))
        by_name = dict(zip(self.names, per_func))
        c = self.counts
        m = {}
        for i, name in enumerate(LAYERS):
            m[f"{name}.calls"] = int(calls[i])
            m[f"{name}.self_s"] = float(self_s[i])
        rules = c["quadrature.rules"]
        m["quadrature.rules"] = int(rules)
        m["quadrature.rules_distinct_frac"] = len(self.rule_orders) / rules if rules else 0.0
        m["quadrature.nodes"] = int(c["quadrature.nodes"])
        m["norms.boxes"] = int(c["norms.boxes"])
        m["geometry.cubes"] = int(c["geometry.cubes"])
        m["fields.points"] = int(c["fields.points"])
        m["kernels.values"] = int(c["kernels.values"])
        k_self = m["kernels.self_s"]
        m["kernels.values_per_s"] = c["kernels.values"] / k_self if k_self > 0 else 0.0
        m["kernels.bytes_computed"] = int(c["kernels.bytes_computed"])
        calls = c["kernels.array_calls"]
        m["kernels.distinct_frac"] = len(self.kernel_inputs) / calls if calls else 0.0
        m["operators.eval_points"] = int(c["operators.eval_points"])
        m["operators.node_points"] = int(c["operators.node_points"])
        m["operators.divergence_proxy.self_s"] = float(
            by_name.get("operators.divergence_proxy", 0.0))
        m["carleson.boxes_scanned"] = int(c["carleson.boxes_scanned"])
        m["ball.basis_calls"] = int(c["ball.basis_calls"])
        m["cli.bytes_written"] = int(c["cli.bytes_written"])
        m["cli.files_written"] = int(c["cli.files_written"])
        for exp_id in exp_ids:
            m[f"verify.exp.{exp_id}.wall_s"] = float(self.exp_wall.get(exp_id, 0.0))
        m["trace.spans"] = len(self.start)
        m["trace.hook_s"] = float(sum(self.hook_s))
        return m

    def write(self, path):
        """Spans with parent links, plus the function-name table."""
        parent, func, start, end, hook = self._arrays()
        np.savez(path, parent=parent.astype(np.int32), func=func.astype(np.int32),
                 start=start, end=end,
                 hook_s=hook, names=np.array(json.dumps(self.names)))
