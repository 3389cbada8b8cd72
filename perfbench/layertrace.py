"""Span tracing of tropidom's layers from outside the package.

``Tracer`` wraps every public function of the layer modules, and the lazily
built bitmask properties of ``ColouredGraph``, while it is installed. A
wrapped name is replaced in every ``tropidom`` module that binds it, so calls
through ``from .x import y`` bindings (``forge`` binds ``graph.build``,
``cli`` binds ``graph.is_dominating``, ...) are captured too. Spans are kept
in memory as ``[name, start, end, parent, item]`` and written out at exit.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

from tropidom import approx, cli, exact, forge, graph, instance_io, interval, problab
from tropidom.errors import BudgetExceededError

LAYERS = [forge, graph, exact, approx, interval, instance_io, problab, cli]

# Wrapped functions whose calls and self time are reported: the ones some
# workload calls, in its items or its setup.
REPORTED = [
    "exact.rainbow_exists", "exact.gamma_t", "exact.gamma", "exact.count_rainbow_ds",
    "exact.greedy_dominating",
    "forge.gen_gnpc", "forge.vc_to_path", "forge.extract_vc",
    "graph.build", "graph.degree_profile", "graph.is_connected", "graph.path_order",
    "graph.is_dominating", "graph.is_tropical",
    "instance_io.parse_instance", "instance_io.write_instance",
    "interval.build_interval_instance", "interval.prefix_tables", "interval.tdn_interval",
    "interval.path_intervals",
    "approx.greedy_setcover_tds", "approx.path_five_thirds", "approx.path_lower_bound",
    "approx.harmonic",
    "problab.audit_bounds", "problab.threshold_colours",
    "cli.main", "cli.build_parser",
]

# name -> (unit, better) of every per-layer metric, in report order.
METRICS: dict[str, tuple[str, str]] = {}
for _fn in REPORTED:
    METRICS[f"{_fn}.calls"] = ("count", "lower")
    METRICS[f"{_fn}.self_s"] = ("s", "lower")
for _layer in LAYERS:
    METRICS[f"{_layer.__name__.rsplit('.', 1)[1]}.self_s"] = ("s", "lower")
METRICS.update({
    "graph.masks.calls": ("count", "lower"),
    "graph.masks_s": ("s", "lower"),
    "exact.nodes": ("count", "lower"),
    "exact.nodes_per_s": ("1/s", "higher"),
    "exact.rainbow_yes": ("count", "higher"),
    "exact.budget_exceeded": ("count", "lower"),
    "forge.gen_gnpc.resamples": ("count", "lower"),
    "instance_io.bytes": ("bytes", "lower"),
    "instance_io.parse_MBps": ("MB/s", "higher"),
    "interval.table_cells": ("count", "lower"),
    "interval.cells_per_s": ("1/s", "higher"),
    "approx.greedy_excess": ("ratio", "lower"),
    "approx.path53_excess": ("ratio", "lower"),
    "problab.violations": ("count", "lower"),
    "cli.nonzero_exits": ("count", "lower"),
    "trace.items": ("count", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "failed_frac": ("ratio", "lower"),
})

_EXACT_SOLVERS = {"exact.gamma", "exact.gamma_t", "exact.rainbow_exists", "exact.count_rainbow_ds"}
_NODE_SOLVERS = ["exact.gamma", "exact.gamma_t", "exact.rainbow_exists"]


def _observe(counts: Counter, name: str, args, result) -> None:
    """Counters read at the layer boundary from a call's arguments and result."""
    if name in ("exact.gamma", "exact.gamma_t"):
        counts["exact.nodes"] += result.explored
    elif name == "exact.rainbow_exists":
        counts["exact.nodes"] += result[2]
        counts["exact.rainbow_yes"] += bool(result[0])
    elif name == "forge.gen_gnpc":
        # gen_gnpc stores the count on its module-level name, which is the
        # wrapper while the tracer is installed
        counts["forge.gen_gnpc.resamples"] += forge.gen_gnpc.last_resamples
    elif name == "instance_io.parse_instance":
        counts["parse_bytes"] += len(args[0])
    elif name == "instance_io.write_instance":
        counts["write_bytes"] += len(result)
    elif name == "interval.tdn_interval":
        counts["interval.table_cells"] += result.explored
    elif name == "problab.audit_bounds":
        counts["problab.violations"] += len(result.violations)
    elif name == "cli.main":
        counts["cli.nonzero_exits"] += result != 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = -1  # -1 marks set-up spans
        self._stack: list[int] = []
        self._wrappers = {}
        for mod in LAYERS:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    self._wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        self._masks = {
            name: functools.cached_property(self._wrap("graph.masks", prop.func))
            for name, prop in vars(graph.ColouredGraph).items()
            if isinstance(prop, functools.cached_property)
        }
        for name, prop in self._masks.items():
            prop.__set_name__(graph.ColouredGraph, name)

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BudgetExceededError:
                if name in _EXACT_SOLVERS:
                    counts["exact.budget_exceeded"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            _observe(counts, name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, item: int):
        """Route calls through the wrappers; spans get ``item`` as their id."""
        self.item = item
        patched = []
        modules = [m for k, m in sys.modules.items() if k == "tropidom" or k.startswith("tropidom.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, self._wrappers[value])
        for name, prop in self._masks.items():
            patched.append((graph.ColouredGraph, name, vars(graph.ColouredGraph)[name]))
            setattr(graph.ColouredGraph, name, prop)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(patched):
                setattr(owner, attr, value)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def metrics(self, untraced_wall: float, traced_wall: float, items: int,
                greedy_excess: float, path53_excess: float, failed_frac: float) -> dict[str, dict]:
        """Every per-layer metric as ``{name: {"value": v, "unit": u}}``."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        item_self = 0.0
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            self_s[span[0]] += own
            if span[4] >= 0:
                item_self += own
        c = self.counts
        out: dict[str, float] = {}
        for fn in REPORTED:
            out[f"{fn}.calls"] = calls[fn]
            out[f"{fn}.self_s"] = self_s[fn]
        for layer in LAYERS:
            short = layer.__name__.rsplit(".", 1)[1]
            out[f"{short}.self_s"] = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == short)
        solver_s = sum(self_s[k] for k in _NODE_SOLVERS)
        out.update({
            "graph.masks.calls": calls["graph.masks"],
            "graph.masks_s": self_s["graph.masks"],
            "exact.nodes": c["exact.nodes"],
            "exact.nodes_per_s": c["exact.nodes"] / solver_s if solver_s else 0.0,
            "exact.rainbow_yes": c["exact.rainbow_yes"],
            "exact.budget_exceeded": c["exact.budget_exceeded"],
            "forge.gen_gnpc.resamples": c["forge.gen_gnpc.resamples"],
            "instance_io.bytes": c["parse_bytes"] + c["write_bytes"],
            "instance_io.parse_MBps": (c["parse_bytes"] / 1e6 / self_s["instance_io.parse_instance"]
                                       if self_s["instance_io.parse_instance"] else 0.0),
            "interval.table_cells": c["interval.table_cells"],
            "interval.cells_per_s": (c["interval.table_cells"] / self_s["interval.tdn_interval"]
                                     if self_s["interval.tdn_interval"] else 0.0),
            "approx.greedy_excess": greedy_excess,
            "approx.path53_excess": path53_excess,
            "problab.violations": c["problab.violations"],
            "cli.nonzero_exits": c["cli.nonzero_exits"],
            "trace.items": items,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0,
            "trace.coverage": item_self / traced_wall if traced_wall else 0.0,
            "failed_frac": failed_frac,
        })
        assert list(out) == list(METRICS), "metric table and computed metrics disagree"
        return {k: {"value": v, "unit": METRICS[k][0]} for k, v in out.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

