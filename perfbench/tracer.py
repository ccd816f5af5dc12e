"""Per-layer tracing of wickalg from outside the program.

The tracer replaces public functions of each layer module, and a few
methods the per-layer metrics need, with timing wrappers.  A name imported
into another module (``tmaps`` imports ``circle`` and ``wick_expand``) is
replaced there too.

Every wrapped call is a span with a parent.  Spans that share a call path
inside one job are merged into one node (calls, summed time, self time), so
a run keeps a tree per job instead of millions of spans.  Scalar arithmetic
is not a span: each operation is counted and timed into the span that
called it.  Self time is a span's time minus the time of its child spans
and scalar operations.  ``write`` puts the trees on disk at the end.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

LAYERS = ("algebra", "laplace", "renorm", "tmaps", "series", "checks")

# Methods wrapped in addition to each layer's public functions.
METHODS = {
    "algebra": [("Element", "__add__"), ("Element", "__sub__"),
                ("Element", "__mul__"), ("Element", "__rmul__"),
                ("Element", "vee"), ("TensorElement", "__add__")],
    "renorm": [("LinearFunctional", "__call__")],
    "series": [("FormalSeries", "__mul__"), ("FormalSeries", "divide"),
               ("FormalSeries", "inverse_sqrt")],
}

SCALAR_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div",
    "__rtruediv__": "div", "__neg__": "neg", "__pow__": "pow",
}

# Every per-layer metric the traced run reports, in print order.
METRICS = (
    ("scalars.mul_calls", "count"),
    ("scalars.add_calls", "count"),
    ("scalars.self_s", "s"),
    ("algebra.splits_calls", "count"),
    ("algebra.splits_distinct", "count"),
    ("algebra.element_add_terms", "count"),
    ("algebra.self_s", "s"),
    ("laplace.pairing_calls", "count"),
    ("laplace.pairing_distinct", "count"),
    ("laplace.permanent_calls", "count"),
    ("laplace.permanent_ops", "count"),
    ("laplace.repeat_share", "share"),
    ("laplace.circle_calls", "count"),
    ("laplace.circle_s", "s"),
    ("laplace.wick_calls", "count"),
    ("laplace.wick_matchings", "count"),
    ("laplace.self_s", "s"),
    ("renorm.circle_renorm_calls", "count"),
    ("renorm.modified_pairing_calls", "count"),
    ("renorm.z_pairing_calls", "count"),
    ("renorm.functional_calls", "count"),
    ("renorm.functional_distinct", "count"),
    ("renorm.self_s", "s"),
    ("tmaps.t_monomials", "count"),
    ("tmaps.t_distinct", "count"),
    ("tmaps.tbar_monomials", "count"),
    ("tmaps.self_s", "s"),
    ("series.green_calls", "count"),
    ("series.smatrix_s", "s"),
    ("series.self_s", "s"),
    ("checks.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "wickalg" or n.startswith("wickalg."))]


def replace_everywhere(original, replacement):
    """Rebind every module-level name that refers to ``original``."""
    for mod in _modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def _matchings(n):
    """Partial matchings of n positions (the involution numbers)."""
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b if n else 1


class _Node:
    __slots__ = ("name", "layer", "children", "calls", "time_s", "self_s",
                 "scalar_calls", "scalar_s")

    def __init__(self, name, layer):
        self.name, self.layer = name, layer
        self.children = {}
        self.calls = self.scalar_calls = 0
        self.time_s = self.self_s = self.scalar_s = 0.0

    def child(self, name, layer):
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _Node(name, layer)
        return node


class Tracer:
    def __init__(self):
        self.counts = dict.fromkeys(
            (m for m, unit in METRICS if unit == "count"), 0)
        self.repeated_permanents = 0
        self.distinct = {k: set() for k in (
            "algebra.splits_distinct", "laplace.pairing_distinct",
            "renorm.functional_distinct", "tmaps.t_distinct")}
        self.layer_self = dict.fromkeys(LAYERS + ("scalars", "bench"), 0.0)
        self.inclusive = {"circle": 0.0, "smatrix": 0.0}
        self.active = {}
        self.jobs = []
        # A frame is [node, child time]; the root catches calls outside jobs.
        self.stack = [[_Node("outside", "bench"), 0.0]]
        self.in_scalar = False

    # -- counters run before the wrapped call and may rewrite its arguments --

    def _count(self, key, n=1):
        self.counts[key] += n

    def _on_splits(self, args):
        self._count("algebra.splits_calls")
        self.distinct["algebra.splits_distinct"].add(args[0])

    def _on_element_add(self, args):
        self_, other = args[0], args[1]
        self._count("algebra.element_add_terms",
                    len(self_.terms) + len(getattr(other, "terms", (0,))))

    def _on_pairing(self, args):
        self._count("laplace.pairing_calls")
        self.distinct["laplace.pairing_distinct"].add((args[0], args[1], args[2]))

    def _on_permanent(self, args):
        matrix = args[0]
        n = len(matrix)
        self._count("laplace.permanent_calls")
        self._count("laplace.permanent_ops", (1 << n) * n)
        rows = [tuple(row) for row in matrix]
        if len(set(rows)) < n or len(set(zip(*rows))) < n:
            self.repeated_permanents += 1

    def _on_wick(self, args):
        gens = tuple(args[0])
        self._count("laplace.wick_calls")
        self._count("laplace.wick_matchings", _matchings(len(gens)))
        return (gens,) + tuple(args[1:])

    def _on_functional(self, args):
        self._count("renorm.functional_calls")
        self.distinct["renorm.functional_distinct"].add((args[0], args[1]))

    def _on_t_map(self, args):
        u, ctx = args[0], args[1]
        self._count("tmaps.t_monomials", len(u.terms))
        self.distinct["tmaps.t_distinct"].update((ctx, m) for m in u.terms)

    def _on_tbar_map(self, args):
        self._count("tmaps.tbar_monomials", len(args[0].terms))

    COUNTERS = {
        "monomial_splits": "_on_splits",
        "Element.__add__": "_on_element_add",
        "Element.__sub__": "_on_element_add",
        "pairing_monomials": "_on_pairing",
        "permanent": "_on_permanent",
        "wick_expand": "_on_wick",
        "LinearFunctional.__call__": "_on_functional",
        "t_map": "_on_t_map",
        "tbar_map": "_on_tbar_map",
        "circle": "laplace.circle_calls",
        "circle_renorm": "renorm.circle_renorm_calls",
        "modified_pairing": "renorm.modified_pairing_calls",
        "z_pairing": "renorm.z_pairing_calls",
        "green": "series.green_calls",
    }

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name, layer):
        counter = self.COUNTERS.get(name)
        if counter is None:
            hook = None
        elif counter.startswith("_on_"):
            hook = getattr(self, counter)
        else:
            hook = lambda args, key=counter: self._count(key)  # noqa: E731
        stack, active, clock = self.stack, self.active, time.perf_counter
        inclusive = self.inclusive if name in self.inclusive else None
        layer_self = self.layer_self

        def wrapper(*args, **kwargs):
            if hook is not None:
                new_args = hook(args)
                if new_args is not None:
                    args = new_args
            parent = stack[-1]
            frame = [parent[0].child(name, layer), 0.0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                active[name] -= 1
                parent[1] += dur
                node = frame[0]
                own = dur - frame[1]
                node.calls += 1
                node.time_s += dur
                node.self_s += own
                layer_self[layer] += own
                if inclusive is not None and not active[name]:
                    inclusive[name] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _scalar_op(self, fn, kind):
        stack, clock, layer_self = self.stack, time.perf_counter, self.layer_self
        key = {"add": "scalars.add_calls", "mul": "scalars.mul_calls"}.get(kind)
        counts = self.counts

        def op(*args):
            if self.in_scalar:
                return fn(*args)
            self.in_scalar = True
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - t0
                self.in_scalar = False
                frame = stack[-1]
                frame[1] += dur
                frame[0].scalar_calls += 1
                frame[0].scalar_s += dur
                layer_self["scalars"] += dur
                if key is not None:
                    counts[key] += 1

        op.__wrapped__ = fn
        return op

    def install(self):
        """Wrap every layer; call after the program is imported."""
        import importlib

        scalars = importlib.import_module("wickalg.scalars")
        for attr, kind in SCALAR_OPS.items():
            fn = scalars.Scalar.__dict__.get(attr)
            if fn is not None:
                setattr(scalars.Scalar, attr, self._scalar_op(fn, kind))
        for layer in LAYERS:
            mod = importlib.import_module(f"wickalg.{layer}")
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                replace_everywhere(fn, self._span(fn, name, layer))
            for cls_name, attr in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                fn = cls.__dict__.get(attr) if cls is not None else None
                if fn is not None:
                    setattr(cls, attr, self._span(fn, f"{cls_name}.{attr}", layer))

    # -- jobs and results ----------------------------------------------------

    def begin_job(self, k):
        root = _Node(f"job {k}", "bench")
        self.jobs.append([root, time.perf_counter(), None])
        self.stack.append([root, 0.0])

    def end_job(self):
        job = self.jobs[-1]
        job[2] = time.perf_counter()
        frame = self.stack.pop()
        root = frame[0]
        root.calls, root.time_s = 1, job[2] - job[1]
        root.self_s = root.time_s - frame[1]
        self.layer_self["bench"] += root.self_s

    def metrics(self):
        out = dict(self.counts)
        for key, seen in self.distinct.items():
            out[key] = len(seen)
        calls = self.counts["laplace.permanent_calls"]
        out["laplace.repeat_share"] = self.repeated_permanents / calls if calls else 0.0
        out["laplace.circle_s"] = self.inclusive["circle"]
        out["series.smatrix_s"] = self.inclusive["smatrix"]
        for layer, seconds in self.layer_self.items():
            if layer != "bench":
                out[f"{layer}.self_s"] = seconds
        return out

    def write(self, path, labels):
        """One JSON line per merged span: job, call path, calls and times.

        The job's own line also has its start and end, in seconds from the
        start of the first job.
        """
        t0 = self.jobs[0][1] if self.jobs else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for k, (root, start, end) in enumerate(self.jobs):
                fh.write(json.dumps({"job": k, "label": labels[k],
                                     "start_s": start - t0,
                                     "end_s": end - t0}) + "\n")
                todo = [((), root)]
                while todo:
                    prefix, node = todo.pop()
                    here = prefix + (node.name,)
                    fh.write(json.dumps({
                        "job": k, "path": "/".join(here),
                        "layer": node.layer, "calls": node.calls,
                        "time_s": node.time_s, "self_s": node.self_s,
                        "scalar_calls": node.scalar_calls,
                        "scalar_s": node.scalar_s,
                    }) + "\n")
                    todo.extend((here, c) for c in node.children.values())
