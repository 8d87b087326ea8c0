"""Spans around offloadlab's public functions, installed from outside.

`Tracer.installed()` rebinds every module attribute that holds a wrapped
function (so `calc_se` in both `spectral` and `datagen`, `rank_features`
in both `features` and `cli`) and wraps methods on the class itself, then
puts the originals back.  No file of the program changes.  Spans stay in
memory as (op, id, parent, name, start, end) tuples until written out.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "offloadlab"
LAYERS = ("cli", "config", "datagen", "spectral", "greedy", "features", "cluster")


def _count_greedy(counts, args, solution):
    counts["greedy.evaluations"] += solution.evaluations
    counts[f"greedy.termination.{solution.termination}"] += 1


def _count_bytes(name, path_arg):
    def observe(counts, args, result):
        counts[name] += os.path.getsize(args[path_arg])
    return observe


def _count_len(name):
    def observe(counts, args, result):
        counts[name] += len(result)
    return observe


def _count_tasks(counts, args, scenario):
    counts["datagen.tasks_sampled"] += len(scenario.tasks)


def _count_kmeans(counts, args, model):
    counts["cluster.kmeans_fit.iterations"] += model.iterations_run


def _count_degenerate(counts, args, model):
    counts["cluster.fit_linear_model.degenerate"] += model.degenerate


# (module, attribute or Class.method, span name, observer of the result)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("config", "load_config", "config.load_config", None),
    ("datagen", "generate_scenario", "datagen.generate_scenario", _count_tasks),
    ("datagen", "build_dataset", "datagen.build_dataset", None),
    ("spectral", "calc_se", "spectral.calc_se", None),
    ("spectral", "SpectralEfficiencyCache.__call__", "spectral.cache", None),
    ("greedy", "optimize", "greedy.optimize", _count_greedy),
    ("greedy", "task_energy_endpoints", "greedy.task_energy_endpoints", None),
    ("greedy", "write_trace_csv", "greedy.write_trace_csv",
     _count_bytes("greedy.write_trace_csv.bytes", 1)),
    ("features", "Dataset.to_csv", "features.Dataset.to_csv",
     _count_bytes("features.Dataset.to_csv.bytes", 1)),
    ("features", "Dataset.from_csv", "features.Dataset.from_csv",
     _count_len("features.Dataset.from_csv.rows")),
    ("features", "rank_features", "features.rank_features", None),
    ("features", "mutual_information", "features.mutual_information", None),
    ("features", "split_dataset", "features.split_dataset", None),
    ("cluster", "kmeans_fit", "cluster.kmeans_fit", _count_kmeans),
    ("cluster", "fit_linear_model", "cluster.fit_linear_model", _count_degenerate),
    ("cluster", "train_clustered_models", "cluster.train_clustered_models", None),
    ("cluster", "evaluate_models", "cluster.evaluate_models", None),
    ("cluster", "predict_matrix", "cluster.predict_matrix",
     _count_len("cluster.predict_matrix.rows")),
    ("cluster", "save_model", "cluster.save_model", None),
    ("cluster", "load_model", "cluster.load_model", None),
)


class Tracer:
    """Records nested spans and result counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._bound = self._bindings()

    def _wrap(self, fn, name: str, observe):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (self.op_id, span_id, parent, name, start, end)
            if observe is not None:
                observe(counts, args, result)
            return result
        return traced

    def _bindings(self):
        """(owner, attribute, original, wrapper) for every import site."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        bindings = []
        for module_name, attr, name, observe in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(raw.__func__, name, observe))
                else:
                    wrapper = self._wrap(raw, name, observe)
                bindings.append((cls, method, raw, wrapper))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, observe)
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        bindings.append((owner, key, original, wrapper))
        return bindings

    @contextmanager
    def installed(self, op_id: int):
        """Trace calls made inside the block as spans of op `op_id`."""
        self.op_id = op_id
        for owner, key, _, wrapper in self._bound:
            setattr(owner, key, wrapper)
        try:
            yield
        finally:
            for owner, key, original, _ in self._bound:
                setattr(owner, key, original)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for op, span, parent, name, start, end in self.spans:
                fh.write(f"{op},{span},{parent},{name},{start!r},{end!r}\n")


def layer_stats(spans) -> tuple[Counter, dict, dict, dict]:
    """Calls, busy time and self time per span name, and self time per layer.

    A span's self time is its duration minus its direct children's; the
    program is single-threaded, so children never overlap.
    """
    child_time = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, busy, self_time = Counter(), defaultdict(float), defaultdict(float)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for _, span_id, _, name, start, end in spans:
        calls[name] += 1
        busy[name] += end - start
        own = end - start - child_time[span_id]
        self_time[name] += own
        layer_self[name.split(".", 1)[0]] += own
    return calls, busy, self_time, layer_self


def cache_hits(spans) -> int:
    """Cache lookups that did not fall through to calc_se."""
    cache_ids = {s[1] for s in spans if s[3] == "spectral.cache"}
    misses = {s[2] for s in spans if s[3] == "spectral.calc_se" and s[2] in cache_ids}
    return len(cache_ids) - len(misses)
