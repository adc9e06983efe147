"""In-memory span recorder and the wrappers that attach it to heatlab.

A span is (name, start, end, parent, attrs).  Spans nest on one stack, so
the campaign must run with ``workers = 1`` while a recorder is installed.
Functions are wrapped where each module looks them up: ``cli`` and
``checks`` import ``graph_distance``, ``spectral_decompose`` and others by
name, so patching only the defining module would leave those calls
uncounted.  ``install_spans`` and ``CheckTracker.install`` replace every
module global that is the original function object.
"""
from __future__ import annotations

import json
import os
import time
import types
from collections import defaultdict

# (module, function) pairs recorded as spans; the metric prefix is
# "<module>.<function>"
FUNCTIONS = (
    ("models", "build_model"),
    ("semigroup", "spectral_decompose"),
    ("semigroup", "load_spectral"),
    ("semigroup", "save_spectral"),
    ("semigroup", "apply_semigroup"),
    ("metric", "graph_distance"),
    ("metric", "oracle_distance"),
    ("metric", "dual_distance"),
    ("metric", "subunit_distance_heisenberg"),
    ("fields", "carre_du_champ"),
    ("fields", "gamma2"),
)
METHODS = (
    ("semigroup", "CrankNicolson", "evolve"),
    ("reports", "MarginReport", "save"),
)


class Recorder:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, attrs]
        self.counters = defaultdict(float)
        self._stack = []

    def open(self, name, attrs=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, attrs=None, after=None):
        """Record each call of ``fn`` as a span.  ``attrs(args, kwargs)``
        returns data stored with the span; ``after(args, kwargs, result)``
        updates counters."""
        def wrapper(*args, **kwargs):
            idx = self.open(name, attrs(args, kwargs) if attrs else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans, "counters": dict(self.counters)}, fh)


def _modules():
    import heatlab
    from heatlab import checks, cli, fields, metric, models, reports, semigroup, suites
    return {"heatlab": heatlab, "checks": checks, "cli": cli, "fields": fields,
            "metric": metric, "models": models, "reports": reports,
            "semigroup": semigroup, "suites": suites}


def _rebind(mods, orig, replacement):
    for mod in mods.values():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)


class CheckTracker:
    """Names the campaign check that is running and logs cache use.

    Installed on every run, traced or not: it wraps each check runner,
    ``load_spectral`` and ``spectral_decompose`` (a handful of calls per
    campaign), which is what the warm-cache audit needs to tell a hit from
    a silent recompute.
    """

    def __init__(self, recorder: Recorder | None = None):
        self.recorder = recorder
        self.current = None
        self.lookups = []          # (check, cache file name, hit)
        self.solves = []           # (check, model_id, n, k)

    def install(self):
        mods = _modules()
        cli = mods["cli"]
        for cid, runner in list(cli.CHECK_RUNNERS.items()):
            cli.CHECK_RUNNERS[cid] = self._runner(runner)
        orig = mods["semigroup"].load_spectral

        def load_spectral(path, model_hash):
            result = orig(path, model_hash)
            self.lookups.append((self.current, os.path.basename(path),
                                 result is not None))
            return result
        _rebind(mods, orig, load_spectral)
        solve = mods["semigroup"].spectral_decompose

        def spectral_decompose(model, k, *args, **kwargs):
            self.solves.append((self.current, model.model_id, int(model.n_nodes),
                                int(k)))
            return solve(model, k, *args, **kwargs)
        _rebind(mods, solve, spectral_decompose)

    def _runner(self, runner):
        def wrapper(ctxs, spec, cfg, name):
            self.current = name
            rec = self.recorder
            idx = rec.open(f"checks.{name}") if rec else None
            try:
                result = runner(ctxs, spec, cfg, name)
            finally:
                if rec:
                    rec.close(idx)
            self.current = None   # kept when the runner raises
            return result
        return wrapper


def install_spans(rec: Recorder):
    """Wrap every traced layer of heatlab with spans recorded in ``rec``."""
    mods = _modules()
    counters = rec.counters

    def solve_size(args, kwargs):
        k = kwargs["k"] if "k" in kwargs else args[1]
        return {"n": int(args[0].n_nodes), "k": int(k)}

    def count_lookup(args, kwargs, result):
        counters["hits" if result is not None else "misses"] += 1

    def count_bytes(args, kwargs, result):
        counters["save_bytes"] += os.path.getsize(args[0])

    extra = {"spectral_decompose": {"attrs": solve_size},
             "load_spectral": {"after": count_lookup},
             "save_spectral": {"after": count_bytes}}
    for modname, fname in FUNCTIONS:
        orig = getattr(mods[modname], fname)
        _rebind(mods, orig, rec.wrap(f"{modname}.{fname}", orig, **extra.get(fname, {})))
    for modname, cls, meth in METHODS:
        klass = getattr(mods[modname], cls)
        setattr(klass, meth, rec.wrap(f"{modname}.{cls}.{meth}", getattr(klass, meth)))

    # loss evaluations of the subunit shooting: the nfev of every
    # scipy.optimize.minimize result that heatlab.metric obtains
    metric = mods["metric"]
    real = metric.optimize

    def minimize(*args, **kwargs):
        res = real.minimize(*args, **kwargs)
        counters["loss_evals"] += int(res.nfev)
        return res

    class Optimize(types.ModuleType):
        def __getattr__(self, attr):
            return getattr(real, attr)
    proxy = Optimize(real.__name__)
    proxy.minimize = minimize
    metric.optimize = proxy


def layer_metrics(rec: Recorder, wall_s: float, check_names) -> dict:
    """Per-layer numbers from the recorded spans.

    ``.s`` is the inclusive time of the outermost span of each name.
    ``checks.<name>.self_s`` is the check span minus its direct child
    spans, so a lazy model build or eigensolve inside a check is charged
    to its layer, not to the check.
    """
    spans = rec.spans
    calls = defaultdict(int)
    total = defaultdict(float)
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        dur = end - start
        if parent is not None:
            child_time[parent] += dur
        # outermost span of a name: no ancestor with the same name
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            total[name] += dur

    out = {}

    def put(key, value, unit):
        out[key] = {"value": value, "unit": unit}

    for modname, fname in FUNCTIONS:
        key = f"{modname}.{fname}"
        if fname == "load_spectral":
            put(f"{key}.hits", int(rec.counters["hits"]), "count")
            put(f"{key}.misses", int(rec.counters["misses"]), "count")
        elif fname == "save_spectral":
            put(f"{key}.bytes", int(rec.counters["save_bytes"]), "B")
        else:
            put(f"{key}.calls", calls[key], "count")
        put(f"{key}.s", total[key], "s")
    for modname, cls, meth in METHODS:
        key = f"{modname}.{cls}.{meth}"
        if meth != "save":
            put(f"{key}.calls", calls[key], "count")
        put(f"{key}.s", total[key], "s")
    put("metric.subunit.loss_evals", int(rec.counters["loss_evals"]), "count")

    self_s = {}
    for idx, (name, start, end, parent, _) in enumerate(spans):
        if name.startswith("checks."):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[idx]
    for check in check_names:
        put(f"checks.{check}.self_s", self_s.get(f"checks.{check}", 0.0), "s")

    top = sum(end - start for _, start, end, parent, _ in spans if parent is None)
    put("trace.wall_s", wall_s, "s")
    put("trace.attributed_share", 100.0 * top / wall_s, "%")
    put("trace.spans", len(spans), "count")
    return out
