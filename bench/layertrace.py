"""
Per-layer tracing for the benchmark, installed from outside the package.

`Tracer.install()` replaces each measured function of `adlv` with a wrapper,
under every name that binds it: a function imported with `from .x import f`
lives in several module namespaces, and a method is replaced on its class.
Coarse layers get timed wrappers that keep a frame stack, so each layer's
self time is its own time minus that of the timed layers it called.  Hot
layers (`AffineWeyl.mul` runs over a million times in one survey) only
count calls.  Forked `--jobs` workers inherit the wrappers; each worker
writes what it did into `stats_dir`, and `collect()` merges those files
with the parent's totals.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, class or None, attribute, layer name)
TIMED = [
    ("adlv.roots", None, "semistandard_parabolics", "roots.semistandard_parabolics"),
    ("adlv.engine", None, "emptiness_certificate", "engine.emptiness_certificate"),
    ("adlv.sigma", None, "levi_classes_with_newton", "sigma.levi_classes_with_newton"),
    ("adlv.cli", None, "record_for", "cli.record_for"),
    ("adlv.cli", None, "survey_elements", "cli.survey_elements"),
    ("adlv.engine", None, "survey_batch", "engine.survey_batch"),
    ("adlv.engine", None, "sweep_elements", "engine.sweep_elements"),
    ("adlv.engine", None, "solve", "engine.solve"),
    ("adlv.engine", None, "orbit_dim_table", "engine.orbit_dim_table"),
    ("adlv.engine", None, "fold_step", "engine.fold_step"),
    ("adlv.cache", "CacheStore", "put", "cache.put"),
    ("multiprocessing.pool", "Pool", "map", "cli.pool_map"),
]

COUNTED = [
    ("adlv.affine", "AffineWeyl", "mul", "affine.mul"),
    ("adlv.affine", "AffineWeyl", "inv", "affine.inv"),
    ("adlv.affine", "AffineWeyl", "wall_data", "affine.wall_data"),
    ("adlv.affine", "AffineWeyl", "length", "affine.length"),
    ("adlv.affine", "AffineWeyl", "reduced_word", "affine.reduced_word"),
    ("adlv.alcoves", None, "is_p_alcove", "alcoves.is_p_alcove"),
    ("adlv.engine", None, "orientation_profile", "engine.orientation_profile"),
    ("adlv.cache", "CacheStore", "get", "cache.get"),
]

# Timed layers whose every call is also kept as a span record.  The others
# run tens of thousands of times per operation and are aggregated only.
SPANNED = {"roots.semistandard_parabolics", "engine.emptiness_certificate",
           "sigma.levi_classes_with_newton", "cli.survey_elements",
           "engine.survey_batch", "engine.sweep_elements", "engine.solve",
           "cli.pool_map", "cli.survey_worker", "cli.op"}


class Tracer:
    def __init__(self, stats_dir: str):
        self.stats_dir = stats_dir
        self.timers: dict[str, list] = {}      # name -> [calls, total s, self s]
        self.counts: dict[str, list] = {}      # name -> [count]
        self.frontier_peak = [0]
        self.elements = [0]                    # highest id from mul/inv, + 1
        self.stack: list[float] = []           # child time of each open frame
        self.span_ids: list[int] = []
        self.spans: list[tuple] = []           # (id, parent id, name, start, end)
        self._next_span = 0
        self._reports = 0                      # worker reports written

    def _counter(self, name: str) -> list:
        return self.counts.setdefault(name, [0])

    def timed(self, name: str, fn, observe=None):
        """Wrap fn as a timed layer; observe(args, result) adds counters."""
        agg = self.timers.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        spanned = name in SPANNED
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if spanned:
                # ids stay unique across forked workers, which share the counter
                tracer._next_span += 1
                tracer.span_ids.append(os.getpid() * 10 ** 9 + tracer._next_span)
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                child = stack.pop()
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child
                if stack:
                    stack[-1] += dur
                if spanned:
                    sid = tracer.span_ids.pop()
                    parent = tracer.span_ids[-1] if tracer.span_ids else 0
                    tracer.spans.append((sid, parent, name, start, end))
            if observe is not None:
                observe(args, out)
            return out
        return wrapper

    def op(self, fn, *args):
        """Run one benchmark operation as the root span."""
        return self.timed("cli.op", fn)(*args)

    def counted(self, name: str, fn):
        count = self._counter(name)
        if name in ("affine.mul", "affine.inv"):
            top = self.elements

            @functools.wraps(fn)
            def wrapper(ctx, *args):
                count[0] += 1
                out = fn(ctx, *args)
                if out >= top[0]:
                    top[0] = out + 1
                return out
        elif name == "cache.get":
            hits = self._counter("cache.get.hits")

            @functools.wraps(fn)
            def wrapper(store, key):
                count[0] += 1
                out = fn(store, key)
                if out is not None:
                    hits[0] += 1
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                count[0] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _observers(self):
        entries = self._counter("engine.fold_entries")
        sweep_w = self._counter("engine.sweep_w")
        cert_hits = self._counter("engine.emptiness_certificate.hits")
        peak = self.frontier_peak

        def fold(args, out):
            entries[0] += len(args[1])
            size = max(len(args[1]), len(out))
            if size > peak[0]:
                peak[0] = size

        def sweep(args, out):
            sweep_w[0] += len(out)

        def certificate(args, out):
            if out is not None:
                cert_hits[0] += 1

        return {"engine.fold_step": fold, "engine.sweep_elements": sweep,
                "engine.emptiness_certificate": certificate}

    # -- installation ------------------------------------------------------------

    def install(self):
        import multiprocessing.pool  # noqa: F401  (Pool.map is wrapped)
        observers = self._observers()
        for module, cls, attr, name in TIMED:
            self._replace(module, cls, attr,
                          lambda fn, n=name: self.timed(n, fn, observers.get(n)))
        for module, cls, attr, name in COUNTED:
            self._replace(module, cls, attr, lambda fn, n=name: self.counted(n, fn))
        self._replace("adlv.cli", None, "_survey_worker", self._worker_wrapper)

    def _replace(self, module, cls, attr, make):
        if cls is not None:
            owner = getattr(sys.modules[module], cls)
            setattr(owner, attr, make(getattr(owner, attr)))
            return
        orig = getattr(sys.modules[module], attr)
        wrapped = make(orig)
        for modname, mod in list(sys.modules.items()):
            if modname != "adlv" and not modname.startswith("adlv."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)

    def _worker_wrapper(self, fn):
        """Wrap the forked survey worker so its work is written to stats_dir."""
        tracer = self
        timed = self.timed("cli.survey_worker", fn)

        @functools.wraps(fn)
        def wrapper(payload):
            before = tracer._totals()
            nspans = len(tracer.spans)
            out = timed(payload)
            after = tracer._totals()
            delta = {
                "timers": {k: [a - b for a, b in zip(v, before["timers"][k])]
                           for k, v in after["timers"].items()},
                "counts": {k: v - before["counts"][k] for k, v in after["counts"].items()},
                "frontier_peak": after["frontier_peak"],
                "elements": after["elements"],
                "spans": tracer.spans[nspans:],
            }
            tracer._reports += 1
            path = os.path.join(tracer.stats_dir,
                                "worker-%d-%d.json" % (os.getpid(), tracer._reports))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(delta, fh)
            return out
        return wrapper

    # -- results -----------------------------------------------------------------

    def _totals(self):
        return {"timers": {k: list(v) for k, v in self.timers.items()},
                "counts": {k: v[0] for k, v in self.counts.items()},
                "frontier_peak": self.frontier_peak[0],
                "elements": self.elements[0]}

    def collect(self):
        """Totals over this process and every worker that reported."""
        out = self._totals()
        out["spans"] = list(self.spans)
        for fname in sorted(os.listdir(self.stats_dir)):
            if not fname.startswith("worker-"):
                continue
            with open(os.path.join(self.stats_dir, fname), encoding="utf-8") as fh:
                part = json.load(fh)
            for k, v in part["timers"].items():
                out["timers"][k] = [a + b for a, b in zip(out["timers"][k], v)]
            for k, v in part["counts"].items():
                out["counts"][k] += v
            for k in ("frontier_peak", "elements"):
                out[k] = max(out[k], part[k])
            out["spans"].extend(part["spans"])
        return out
