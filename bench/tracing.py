"""Spans and counters around the public functions of each fusscat layer.

The tracer replaces, for the duration of a traced phase, every module
attribute of the ``fusscat`` package that refers to a traced function
(``fusscat.paths.det_exact``, ``fusscat.cone.rank_exact``,
``fusscat.canonical.in_relint`` ...) by a wrapper, and puts the originals
back afterwards. Nothing under ``src/`` changes.

A span records name, start, end, parent span and job id. A layer's self
time is its spans' duration minus the part covered by their child spans.
The hot leaf predicates ``contains`` and ``in_relint`` get counters only.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPANNED = (
    "exactmat.det_exact", "exactmat.rank_exact",
    "paths.count_paths_dp", "paths.count_paths_det", "paths.path_count_matrix",
    "brackets.gfc",
    "polyomino.stair", "polyomino.vertex_set", "polyomino.inner_intervals",
    "polyomino.krull_dim",
    "cone.verify_h_representation", "cone.stair_cone",
    "cone.is_extreme_generator", "cone.facet_check",
    "canonical.minimal_generators_search", "canonical.hilbert_function",
    "canonical.hilbert_numerator", "canonical.stair_generators",
    "cli.main",
)
COUNTED = ("cone.contains", "cone.in_relint")

RANK_CALLERS = {
    "cone.is_extreme_generator": "extreme",
    "cone.facet_check": "facet",
    "cone.verify_h_representation": "dimension",
}


def _note(name: str, args, kwargs, result):
    """The per-span quantity a layer metric needs, if any."""
    if name in ("exactmat.det_exact", "exactmat.rank_exact"):
        return args[0].rows
    if name == "paths.count_paths_dp":
        a, b = args[0].a, args[0].b
        return len(a) * (a[-1] - b[0] + 1)
    if name == "brackets.gfc":
        method = args[3] if len(args) > 3 else kwargs.get("method", "det")
        return [method, result if method == "enum" else None]
    if name == "canonical.minimal_generators_search":
        return len(result)
    return None


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"exactmat.det_exact.{s}", u, "lower") for s, u in
     (("calls", "1/job"), ("self_s", "s/job"), ("order_sum", "1/job"))]
    + [(f"exactmat.rank_exact.{s}", u, "lower") for s, u in
       (("calls", "1/job"), ("self_s", "s/job"), ("rows_sum", "1/job"),
        ("calls_from_extreme", "1/job"), ("calls_from_facet", "1/job"),
        ("calls_from_dimension", "1/job"))]
    + [(f"paths.count_paths_dp.{s}", u, "lower") for s, u in
       (("calls", "1/job"), ("self_s", "s/job"), ("cells", "1/job"))]
    + [("paths.count_paths_det.self_s", "s/job", "lower"),
       ("paths.path_count_matrix.self_s", "s/job", "lower")]
    + [(f"brackets.gfc.{m}.total_s", "s/job", "lower")
       for m in ("enum", "canonical", "dp", "det")]
    + [("brackets.enum.us_per_composition", "us", "lower")]
    + [(f"polyomino.{f}.{s}", u, "lower")
       for f in ("stair", "vertex_set", "inner_intervals", "krull_dim")
       for s, u in (("calls", "1/job"), ("self_s", "s/job"))]
    + [(f"cone.{f}.{s}", u, "lower")
       for f in ("verify_h_representation", "stair_cone", "is_extreme_generator", "facet_check")
       for s, u in (("calls", "1/job"), ("self_s", "s/job"))]
    + [("cone.contains.calls", "1/job", "lower"),
       ("cone.in_relint.calls", "1/job", "lower"),
       ("cone.in_relint.true_frac", "ratio", "higher")]
    + [("canonical.minimal_generators_search.calls", "1/job", "lower"),
       ("canonical.minimal_generators_search.self_s", "s/job", "lower"),
       ("canonical.minimal_generators_search.kept", "1/job", "higher"),
       ("canonical.relint_tests_per_kept", "ratio", "lower"),
       ("canonical.hilbert_function.calls", "1/job", "lower"),
       ("canonical.hilbert_function.self_s", "s/job", "lower"),
       ("canonical.hilbert_numerator.self_s", "s/job", "lower"),
       ("canonical.stair_generators.self_s", "s/job", "lower")]
    + [("cli.main.self_s", "s/job", "lower"),
       ("cli.stdout_bytes", "B/job", "lower"),
       ("cli.process_s", "s/job", "lower")]
    + [("trace.jobs_per_s", "1/s", "higher"),
       ("trace.overhead", "ratio", "lower")]
)


class Tracer:
    """Installs the wrappers, keeps spans and counters in memory.

    While `enabled` is false the wrappers only call through, so answer
    checks that reuse the library do not show up in the trace.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job, note]
        self.counts: Counter = Counter()
        self.job = None
        self.enabled = True
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                rec[1] = start
                stack.pop()
            rec[5] = _note(name, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        true_key = name + ".true"

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not self.enabled:
                return result
            counts[name] += 1
            if result:
                counts[true_key] += 1
            return result

        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if (k == "fusscat" or k.startswith("fusscat.")) and m is not None]
        for names, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for name in names:
                mod, attr = name.split(".")
                original = getattr(importlib.import_module("fusscat." + mod), attr)
                wrapper = make(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counts)}) + "\n")

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Every per-layer metric except the cli.process_s and trace.*
        ones, which the runner measures. Totals are divided by `jobs`."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        notes: defaultdict = defaultdict(int)
        enum_count = 0
        for i, (name, start, end, parent, _, note) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if note is None:  # the call raised, or the layer has no note
                pass
            elif name == "brackets.gfc":
                method, count = note
                total_s[f"brackets.gfc.{method}"] += end - start
                enum_count += count or 0
            else:
                notes[name] += note
            if name == "exactmat.rank_exact":
                caller = RANK_CALLERS.get(self.spans[parent][0] if parent is not None else None)
                if caller:
                    calls[f"exactmat.rank_exact.calls_from_{caller}"] += 1
        per = 1 / max(jobs, 1)
        out = {}
        for metric, _, _ in PER_LAYER:
            head, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = (calls[head] + self.counts[head]) * per
            elif stat.startswith("calls_from_"):
                out[metric] = calls[metric] * per
            elif stat == "self_s":
                out[metric] = self_s[head] * per
            elif stat == "total_s":
                out[metric] = total_s[head] * per
            elif stat in ("order_sum", "rows_sum", "cells", "kept"):
                out[metric] = notes[head] * per
        out["brackets.enum.us_per_composition"] = (
            total_s["brackets.gfc.enum"] / enum_count * 1e6 if enum_count else 0.0)
        relint = self.counts["cone.in_relint"]
        out["cone.in_relint.true_frac"] = (
            self.counts["cone.in_relint.true"] / relint if relint else 0.0)
        kept = notes["canonical.minimal_generators_search"]
        out["canonical.relint_tests_per_kept"] = relint / kept if kept else 0.0
        return out
