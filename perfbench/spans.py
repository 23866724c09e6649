"""In-memory span recorder that times paclab's layers from outside.

``Tracer.install`` replaces each traced public function with a wrapper at
every ``paclab`` module attribute that refers to it (for example
``paclab.learner.expect_indicator`` as well as
``paclab.measures.expect_indicator``), so calls between layers are caught
however the caller imported the function.  ``uninstall`` puts the originals
back.  Spans are kept in memory as (name, start, end, parent, observed)
records and written out by the caller when the run ends; nothing inside
``src/`` is changed.

The recorder assumes one thread: the parent of a span is the innermost
span open when it starts.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# Span name -> (module, attribute).  The span name is the layer metric
# prefix used in BENCHMARK.json.
FUNCTION_TARGETS = {
    "sontag.shatter_search": ("paclab.sontag", "shatter_search"),
    "sontag.shatter_census": ("paclab.sontag", "shatter_census"),
    "sontag.rationally_independent_points":
        ("paclab.sontag", "rationally_independent_points"),
    "construction.build_measure": ("paclab.construction", "build_measure"),
    "construction.theoretical_profile":
        ("paclab.construction", "theoretical_profile"),
    "learner.estimate_sample_complexity":
        ("paclab.learner", "estimate_sample_complexity"),
    "learner.gc_deviation": ("paclab.learner", "gc_deviation"),
    "measures.expect_indicator": ("paclab.measures", "expect_indicator"),
    "measures.cantor_interval_mass": ("paclab.measures", "cantor_interval_mass"),
    "concepts.l1_distance": ("paclab.concepts", "l1_distance"),
    "concepts.cantor_shatter_search": ("paclab.concepts", "cantor_shatter_search"),
    "bounds.greedy_packing": ("paclab.bounds", "greedy_packing"),
    "bounds.greedy_cover": ("paclab.bounds", "greedy_cover"),
    "bounds.hamming_packing": ("paclab.bounds", "hamming_packing"),
}
# Constructors are wrapped on the class itself, which every caller shares.
METHOD_TARGETS = {
    "bounds.FiniteFamily": ("paclab.bounds", "FiniteFamily", "__init__"),
}
# Spans whose arguments and result are kept for the counters below.
OBSERVED = {"sontag.shatter_search", "sontag.shatter_census",
            "learner.estimate_sample_complexity", "learner.gc_deviation",
            "bounds.greedy_packing"}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, observed]
        self._stack = []
        self._patched = []
        self._signatures = {}

    def _wrap(self, owner, attr, name, original):
        tracer = self
        observe = name in OBSERVED
        self._signatures[name] = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0,
                      tracer._stack[-1] if tracer._stack else -1, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if observe:
                record[4] = (args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "paclab" or key.startswith("paclab.")]
        for name, (mod, attr) in FUNCTION_TARGETS.items():
            original = getattr(sys.modules[mod], attr)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._wrap(module, key, name, original)
        for name, (mod, cls, attr) in METHOD_TARGETS.items():
            owner = getattr(sys.modules[mod], cls)
            self._wrap(owner, attr, name, vars(owner)[attr])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def bind(self, record):
        """The observed call's arguments by parameter name, defaults applied."""
        args, kwargs, _ = record[4]
        bound = self._signatures[record[0]].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def self_times(self):
        """Per-span duration minus the time its direct children cover."""
        self_s = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                self_s[s[3]] -= s[2] - s[1]
        return self_s

    def to_json(self, origin):
        return [{"name": s[0], "start": s[1] - origin, "end": s[2] - origin,
                 "parent": s[3]} for s in self.spans]


def swept_before_witness(points, w_min, witness):
    """Distinct sweep breakpoints in (w_min, witness] for these points.

    The breakpoints are the zeros of cos(w x), w = (k + 1/2) pi / |x|; a
    search that stopped exactly at the witness would have swept these.
    """
    xs = np.abs(np.asarray(points, dtype=float))
    xs = xs[xs > 0.0]
    found = []
    for ax in xs:
        k_lo = max(int(np.ceil(w_min * ax / np.pi - 0.5)), 0)
        k_hi = int(np.floor(witness * ax / np.pi - 0.5))
        if k_hi < k_lo:
            continue
        bps = (np.arange(k_lo, k_hi + 1) + 0.5) * np.pi / ax
        found.append(bps[(bps > w_min) & (bps <= witness)])
    return len(np.unique(np.concatenate(found))) if found else 0


def layer_metrics(tracer, reps):
    """Per-layer metrics over every recorded span, as totals per traced
    repetition (timings in seconds unless named _ms).

    Every span name gets ``.calls`` and ``.self_s``; the counters below are
    read from the observed calls' arguments and results.
    """
    spans = tracer.spans
    self_s = tracer.self_times()
    per_rep = {}
    for name in (*FUNCTION_TARGETS, *METHOD_TARGETS):
        per_rep[f"{name}.calls"] = 0
        per_rep[f"{name}.self_s"] = 0.0
    for s, own in zip(spans, self_s):
        per_rep[f"{s[0]}.calls"] += 1
        per_rep[f"{s[0]}.self_s"] += own

    def results(name):
        return [s[4][2] for s in spans if s[0] == name]

    search = [s for s in spans if s[0] == "sontag.shatter_search"]
    search_ms = [1e3 * (s[2] - s[1]) for s in search]
    swept = sum(s[4][2].breakpoints for s in search)
    useful = 0
    for s in search:
        if s[4][2].found:
            args = tracer.bind(s)
            useful += swept_before_witness(args["points"], args["w_min"],
                                           s[4][2].witness_w)
    census = results("sontag.shatter_census")
    probes = sum(len(e.probes)
                 for e in results("learner.estimate_sample_complexity"))
    per_rep.update({
        "sontag.shatter_search.breakpoints": swept,
        "sontag.shatter_search.not_found":
            sum(not r.found for r in results("sontag.shatter_search")),
        "sontag.shatter_census.labelings": sum(c.total for c in census),
        "sontag.shatter_census.breakpoints":
            sum(e.breakpoints for c in census for e in c.entries),
        "learner.estimate_sample_complexity.probes": probes,
        "learner.gc_deviation.failed_trials":
            sum(r.failed_trials for r in results("learner.gc_deviation")),
        # A constructor has no child spans, so its self time is its build time.
        "bounds.FiniteFamily.build_s": per_rep["bounds.FiniteFamily.self_s"],
        "bounds.greedy_packing.selected":
            sum(r.size for r in results("bounds.greedy_packing")),
        "spans.self_s": sum(self_s),
    })
    out = {key: value / reps for key, value in per_rep.items()}
    out["sontag.shatter_search.p50_ms"] = (
        float(np.percentile(search_ms, 50)) if search_ms else 0.0)
    out["sontag.shatter_search.p90_ms"] = (
        float(np.percentile(search_ms, 90)) if search_ms else 0.0)
    out["sontag.shatter_search.sweep_yield"] = useful / swept if swept else 0.0
    out["learner.estimate_sample_complexity.s_per_probe"] = (
        per_rep["learner.estimate_sample_complexity.self_s"] / probes
        if probes else 0.0)
    return out
