"""Span tracing of pegfinder from outside the package.

`Tracer.install()` replaces every public function and every public method of
every `pegfinder` module with a wrapper that records one span per call:
(id, parent id, operation id, name, start, end), whether it raised, and for
some callables a count taken from its arguments or return value.  A function
imported by name into other modules (`from .solvers import refine`) is
replaced under each of those names too, so calls through any of them are
recorded.  Spans stay in memory until `write()` at the end of the run;
`layer_metrics()` turns them into the per-layer numbers.

The wrappers are only installed for traced passes; `uninstall()` restores
every original object, so untraced passes run the unmodified package.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import sys
import threading
from array import array
from time import perf_counter

import numpy as np

# Layers named in the per-layer metrics, one per pegfinder module.
LAYERS = (
    "curves", "residuals", "solvers", "searches", "counting", "tracing",
    "polygons", "report", "svg", "cli", "corpus", "fields", "circle", "_threads",
)
CURVE_EVAL = ("eval", "deriv", "eval_and_deriv")


def _rows(z):
    shape = np.shape(z)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _probe(layer, qualname):
    """Info recorder for one wrapped callable: (args, kwargs, result) -> value.

    Counts come from arguments and return values only, so no program code
    has to change to expose them.
    """
    attr = qualname.rsplit(".", 1)[-1]
    if layer == "curves" and attr in CURVE_EVAL:
        return lambda a, k, r: int(np.size(_arg(a, k, 1, "t")))
    if layer == "residuals" and attr in ("residual", "jacobian"):
        return lambda a, k, r: _rows(_arg(a, k, 1, "z"))
    if qualname == "solvers.gauss_newton_batch":
        return lambda a, k, r: (len(_arg(a, k, 1, "seeds")), len(r))
    if qualname == "searches.polygon_seed_grid":
        return lambda a, k, r: len(r)
    if qualname == "searches.dedup_orbits":
        return lambda a, k, r: (len(_arg(a, k, 1, "zeros")), len(r))
    if qualname == "searches.find_octahedra":
        return lambda a, k, r: (r[1]["traced_directly"], r[1]["components"])
    if qualname == "tracing.trace_branch":
        from pegfinder.tracing import PerturbedSystem

        return lambda a, k, r: (
            len(r), bool(r.closed), isinstance(r.system, PerturbedSystem), len(r.events)
        )
    if layer == "report":
        return lambda a, k, r: len(r) if isinstance(r, str) else 0
    return None


class Tracer:
    def __init__(self):
        self.names = []  # qualname of each wrapped callable, by index
        self.ops = []  # operation id of each span, by index ("setup", "pass<k>:<i>", ...)
        self.info = {}  # span id -> probe value, for probed callables
        self.failed = set()  # ids of spans that raised
        self._name_index = {}
        self._buffers = []  # one array per thread: (id, parent, op, name, start, end) per span
        self._op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []  # (owner, attribute, original)
        self.set_op("setup")

    def _name_id(self, qualname):
        if qualname not in self._name_index:
            self._name_index[qualname] = len(self.names)
            self.names.append(qualname)
        return self._name_index[qualname]

    def set_op(self, label):
        """Spans ending from now on belong to operation `label`."""
        self.ops.append(label)
        self._op = len(self.ops) - 1

    # -- recording ------------------------------------------------------------

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = [0]
            local.buf = array("d")
            self._buffers.append(local.buf)
        return local

    def _wrap(self, fn, qualname, layer):
        probe = _probe(layer, qualname)
        name = self._name_id(qualname)
        ids, info, failures, tracer = self._ids, self.info, self.failed, self
        carry = qualname == "_threads.parallel_map"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._thread_state()
            stack = local.stack
            sid = next(ids)
            parent = stack[-1]
            if carry:  # parallel_map(fn, items): pool threads keep this span as parent
                args = (tracer._carry(args[0], sid),) + args[1:]
            stack.append(sid)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                local.buf.extend((sid, parent, tracer._op, name, start, end))
                if not ok:
                    failures.add(sid)
            if probe is not None:
                info[sid] = probe(args, kwargs, result)
            return result

        return traced

    def _carry(self, fn, parent):
        """Run fn on a pool thread as a child of the span that submitted it."""
        name = self._name_id("_threads.worker_item")
        ids, tracer = self._ids, self

        def item(x):
            local = tracer._thread_state()
            saved = local.stack
            sid = next(ids)
            local.stack = [parent, sid]
            start = perf_counter()
            try:
                return fn(x)
            finally:
                end = perf_counter()
                local.stack = saved
                local.buf.extend((sid, parent, tracer._op, name, start, end))

        return item

    # -- installing -----------------------------------------------------------

    def install(self):
        """Wrap every public function and method of every pegfinder module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "pegfinder" or n.startswith("pegfinder.")]
        wrappers = {}  # id(original) -> wrapper
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj):
                    for attr, val in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(val):
                            self._patch(obj, attr, val, self._wrap(val, f"{layer}.{name}.{attr}", layer))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, name, obj, wrappers[id(obj)])

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def table(self):
        """All spans as an (N, 6) array: id, parent, op, name, start, end."""
        rows = [np.frombuffer(b, dtype=float).reshape(-1, 6) for b in self._buffers if len(b)]
        return np.vstack(rows) if rows else np.empty((0, 6))

    def write(self, path):
        """Write the spans, one tab-separated line each, gzip-compressed."""
        table = self.table()
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart\tend\tfailed\tinfo\n")
            for chunk in range(0, len(table), 65536):
                for sid, parent, op, name, start, end in table[chunk : chunk + 65536].tolist():
                    sid = int(sid)
                    fh.write(
                        f"{sid}\t{int(parent)}\t{self.ops[int(op)]}\t{self.names[int(name)]}\t{start!r}\t{end!r}"
                        f"\t{int(sid in self.failed)}\t{self.info.get(sid, '')}\n"
                    )

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self, passes):
        """Per-pass layer metrics from the spans of traced passes.

        Self time is a span's duration minus the time its children cover
        (the union of their intervals where pool workers overlap).  Counts
        are taken at the outermost call into a layer, so a method calling
        another of the same layer is not counted twice.  Sums are divided by
        the number of passes.
        """
        T = self.table()
        sid, parent, op, name = (T[:, i].astype(np.int64) for i in range(4))
        start, end = T[:, 4], T[:, 5]
        dur = end - start
        row_of = np.full(int(sid.max(initial=0)) + 1, -1)
        row_of[sid] = np.arange(len(sid))
        prow = np.where(parent > 0, row_of[parent], -1)

        names = self.names
        layers = sorted({n.split(".")[0] for n in names})
        layer_of_name = np.array([layers.index(n.split(".")[0]) for n in names], dtype=np.int64)
        layer = layer_of_name[name]
        player = np.where(prow >= 0, layer[prow], -1)
        outer = player != layer

        has_parent = prow >= 0
        child_time = np.bincount(prow[has_parent], weights=dur[has_parent], minlength=len(sid))
        own = dur - child_time
        for r in np.flatnonzero(name == self._name_index.get("_threads.parallel_map", -1)):
            kids = np.flatnonzero(prow == r)
            own[r] = dur[r] - _covered(sorted(zip(start[kids], end[kids])))

        def by_name(pred):
            return np.array([pred(n) for n in names], dtype=bool)[name]

        in_pass = np.array([o.startswith("pass") for o in self.ops], dtype=bool)[op]
        setup = np.array([o == "setup" for o in self.ops], dtype=bool)[op]

        def select(qualname=None, layer_name=None, attrs=None, outer_only=False, where=in_pass):
            m = where.copy()
            if qualname is not None:
                m &= name == self._name_index.get(qualname, -1)
            if layer_name is not None:
                m &= layer == (layers.index(layer_name) if layer_name in layers else -1)
            if attrs is not None:
                m &= by_name(lambda n: n.rsplit(".", 1)[-1] in attrs)
            if outer_only:
                m &= outer
            return m

        def info_sum(mask, part=None):
            vals = [self.info.get(int(i)) for i in sid[mask]]
            vals = [v if part is None else v[part] for v in vals if v is not None]
            return float(sum(vals))

        c = {}
        curves = select(layer_name="curves", outer_only=True)
        c["curves.calls"] = curves.sum()
        is_eval = by_name(lambda n: n.startswith("curves.") and n.rsplit(".", 1)[-1] in CURVE_EVAL)
        evals = in_pass & is_eval & ~np.where(prow >= 0, is_eval[np.maximum(prow, 0)], False)
        c["curves.points"] = info_sum(evals)
        for kind in ("residual", "jacobian"):
            c[f"residuals.{kind}_calls"] = select(layer_name="residuals", attrs=(kind,), outer_only=True).sum()
        c["residuals.rows"] = info_sum(select(layer_name="residuals", attrs=("residual", "jacobian"), outer_only=True))
        gn = select("solvers.gauss_newton_batch")
        c["solvers.gn_calls"] = gn.sum()
        c["solvers.gn_seeds"] = info_sum(gn, 0)
        c["solvers.gn_converged"] = info_sum(gn, 1)
        c["solvers.gn_self_s"] = own[gn].sum()
        refine = select("solvers.refine")
        c["solvers.refine_calls"] = refine.sum()
        c["solvers.refine_failures"] = sum(int(i) in self.failed for i in sid[refine])
        c["solvers.refine_self_s"] = own[refine].sum()
        c["searches.seed_grid_seeds"] = info_sum(select("searches.polygon_seed_grid"))
        dedup = select("searches.dedup_orbits")
        c["searches.dedup_zeros_in"] = info_sum(dedup, 0)
        c["searches.dedup_orbits_out"] = info_sum(dedup, 1)
        c["searches.dedup_self_s"] = own[dedup].sum()
        c["searches.enumerate_calls"] = select("searches.enumerate_branches").sum()
        octa = select("searches.find_octahedra")
        c["searches.octahedra_traced"] = info_sum(octa, 0)
        c["searches.octahedra_components"] = info_sum(octa, 1)
        pmap = select("_threads.parallel_map")
        c["counting.parallel_map_s"] = dur[pmap].sum()
        workers_s = dur[select("_threads.worker_item")].sum()
        traces = select("tracing.trace_branch")
        outer_traces = traces & outer
        c["tracing.trace_calls"] = outer_traces.sum()
        c["tracing.trace_points"] = info_sum(outer_traces, 0)
        c["tracing.closed"] = info_sum(outer_traces, 1)
        c["tracing.open"] = c["tracing.trace_calls"] - c["tracing.closed"]
        c["tracing.perturbed_fallbacks"] = info_sum(outer_traces, 2)
        c["tracing.events"] = info_sum(outer_traces, 3)
        c["tracing.trace_self_s"] = own[traces].sum()
        chain = select("tracing.chain_distance")
        c["tracing.chain_distance_calls"] = chain.sum()
        c["tracing.chain_distance_s"] = dur[chain].sum()
        c["polygons.calls"] = select(layer_name="polygons", outer_only=True).sum()
        c["report.bytes"] = info_sum(select(layer_name="report", outer_only=True))
        for lname in layers:
            c[f"{lname}.self_s"] = own[select(layer_name=lname)].sum()
        out = {k: float(v) / passes for k, v in c.items()}

        # set-up builds the subjects once; CLI calls build their own per pass
        out["corpus.build_s"] = float(
            dur[select(layer_name="corpus", outer_only=True, where=setup)].sum()
            + dur[select(layer_name="corpus", outer_only=True)].sum() / passes
        )

        def ratio(a, b):
            return float(a / b) if b else 0.0

        calls = c["residuals.residual_calls"] + c["residuals.jacobian_calls"]
        out["residuals.rows_per_call"] = ratio(c["residuals.rows"], calls)
        out["curves.ns_per_point"] = 1e9 * ratio(c["curves.self_s"], c["curves.points"])
        out["solvers.gn_converged_ratio"] = ratio(c["solvers.gn_converged"], c["solvers.gn_seeds"])
        out["searches.dedup_distinct_ratio"] = ratio(c["searches.dedup_orbits_out"], c["searches.dedup_zeros_in"])
        out["tracing.points_per_s"] = ratio(c["tracing.trace_points"], dur[outer_traces].sum())
        out["counting.parallel_overlap"] = ratio(workers_s, c["counting.parallel_map_s"])
        return out


def _covered(intervals):
    """Total length of the union of sorted (start, end) intervals."""
    total, lo, hi = 0.0, None, None
    for a, b in intervals:
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    return total + (hi - lo if hi is not None else 0.0)
