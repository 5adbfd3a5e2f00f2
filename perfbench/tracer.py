"""Span tracer that instruments machmin from the outside.

Nothing in ``machmin`` knows about tracing.  ``Tracer.install`` replaces the
public functions and methods at each module boundary with wrappers that
record a span per call: class attributes (``FlowNetwork.build``/``solve``,
``Simulation.step``/``add_jobs``, every policy's ``select``) and every module
global that names a wrapped function, because callers such as ``harness`` and
``adversary`` import ``optimum_preemptive`` by name and look it up in their
own globals.  ``Tracer.uninstall`` restores the originals.

Spans form a stack, so a span's self time is exact: its duration minus the
durations of the spans it directly caused.  Spans are kept in memory and
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute path, span name).  A dotted path is a class attribute.
BOUNDARIES = (
    ("machmin.optimum", "FlowNetwork.build", "optimum.flow_build"),
    ("machmin.optimum", "FlowNetwork.solve", "optimum.flow_solve"),
    ("machmin.optimum", "maximum_flow", "optimum.maxflow"),
    ("machmin.optimum", "optimum_preemptive", "optimum.optimum"),
    ("machmin.optimum", "feasible_preemptive", "optimum.witness"),
    ("machmin.optimum", "optimum_nonpreemptive_exact", "optimum.bnb"),
    ("machmin.optimum", "strong_density_exact", "optimum.density"),
    ("machmin.engine", "Simulation.step", "engine.step"),
    ("machmin.engine", "Simulation.add_jobs", "engine.add_jobs"),
    ("machmin.engine", "EDF.select", "engine.select"),
    ("machmin.engine", "LLF.select", "engine.select"),
    ("machmin.engine", "EarlyFit.select", "engine.select"),
    ("machmin.engine", "MediumFit.select", "engine.select"),
    ("machmin.engine", "NonpreemptiveEDF.select", "engine.select"),
    ("machmin.model", "parse_instance", "model.parse"),
    ("machmin.model", "parse_trace", "model.parse"),
    ("machmin.model", "serialize_instance", "model.serialize"),
    ("machmin.model", "serialize_trace", "model.serialize"),
    ("machmin.model", "validate_preemptive", "model.validate"),
    ("machmin.model", "validate_nonpreemptive", "model.validate"),
    ("machmin.composite", "SplitScheduler.select", "composite.select"),
    ("machmin.composite", "Double.select", "composite.select"),
    ("machmin.composite", "_NonCriticalBatch.select", "composite.select"),
    ("machmin.composite", "_EqualPOnline.select", "composite.select"),
    ("machmin.composite", "Double.on_release", "composite.double_release"),
    ("machmin.logn", "LogNPolicy.select", "logn.select"),
    ("machmin.logn", "logn_schedule", "logn.schedule"),
    ("machmin.adversary", "gen_random", "adversary.gen"),
    ("machmin.harness", "bench", "harness.bench"),
)

# Modules whose globals may hold a wrapped function under any name.
MODULES = (
    "machmin",
    "machmin.model",
    "machmin.optimum",
    "machmin.engine",
    "machmin.composite",
    "machmin.logn",
    "machmin.adversary",
    "machmin.harness",
)

# Per-layer metric -> (unit, span name, statistic).  A statistic is "count",
# "total" (inclusive ms) or "self" (exclusive ms).  ``logn.rebuilds`` is a
# counter read from ``run.extras`` rather than a span statistic.
LAYER_METRICS = {
    "optimum.flow_solves": ("count", "optimum.flow_solve", "count"),
    "optimum.flow_build_ms": ("ms", "optimum.flow_build", "total"),
    "optimum.flow_solve_self_ms": ("ms", "optimum.flow_solve", "self"),
    "optimum.maxflow_ms": ("ms", "optimum.maxflow", "total"),
    "optimum.optimum_calls": ("count", "optimum.optimum", "count"),
    "optimum.witness_pack_ms": ("ms", "optimum.witness", "self"),
    "optimum.bnb_calls": ("count", "optimum.bnb", "count"),
    "optimum.bnb_ms": ("ms", "optimum.bnb", "self"),
    "optimum.density_ms": ("ms", "optimum.density", "total"),
    "engine.steps": ("count", "engine.step", "count"),
    "engine.step_self_ms": ("ms", "engine.step", "self"),
    "engine.select_ms": ("ms", "engine.select", "total"),
    "engine.add_jobs_ms": ("ms", "engine.add_jobs", "total"),
    "model.parse_ms": ("ms", "model.parse", "total"),
    "model.serialize_ms": ("ms", "model.serialize", "total"),
    "model.validate_ms": ("ms", "model.validate", "total"),
    "composite.double_release_calls": ("count", "composite.double_release", "count"),
    "composite.double_release_ms": ("ms", "composite.double_release", "total"),
    "composite.select_self_ms": ("ms", "composite.select", "self"),
    "logn.select_self_ms": ("ms", "logn.select", "self"),
    "logn.rebuilds": ("count", None, "counter"),
    "adversary.gen_self_ms": ("ms", "adversary.gen", "self"),
    "harness.bench_self_ms": ("ms", "harness.bench", "self"),
}

# Counts that must repeat exactly when the same items are traced twice.
REPEATED_COUNTS = (
    "optimum.flow_solves",
    "engine.steps",
    "optimum.bnb_calls",
    "composite.double_release_calls",
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records one span per call at every boundary in ``BOUNDARIES``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (item, span id, parent id, name id, start ns, end ns, self ns)
        self.spans: list[tuple[int, int, int, int, int, int, int]] = []
        self.counters: Counter = Counter()
        self.item = -1
        self._stack: list[list[int]] = []  # [span id, start ns, child ns]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        name_id = self._name_id(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                parent = -1
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                spans.append(
                    (self.item, span_id, parent, name_id, frame[1], end,
                     duration - frame[2])
                )

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; each original is replaced wherever a module
        global or a class attribute refers to it."""
        modules = [importlib.import_module(m) for m in MODULES]
        for module, path, name in BOUNDARIES:
            owner, attr = _resolve(module, path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(raw.__func__, name))
            else:
                replacement = self.wrap(raw, name)
            if name == "logn.schedule":
                replacement = self._count_rebuilds(replacement)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, replacement)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw and mod is not owner:
                        self._undo.append((mod, key, raw))
                        setattr(mod, key, replacement)

    def _count_rebuilds(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            run = fn(*args, **kwargs)
            self.counters[(self.item, "logn.rebuilds")] += len(run.extras["rebuilds"])
            return run

        return counted

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- reporting -------------------------------------------------------

    def per_item(self) -> dict[int, dict[str, float]]:
        """item -> per-layer metric -> value.  Every metric is a sum, so the
        value over a set of items is the sum of its items' values."""
        spans: dict[int, dict[str, list[int]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0, 0])
        )
        for item, _sid, _parent, name_id, start, end, own in self.spans:
            agg = spans[item][self.names[name_id]]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += own
        items = set(spans) | {item for item, _ in self.counters}
        out = {}
        for item in items:
            values = {}
            for metric, (_unit, span, stat) in LAYER_METRICS.items():
                if stat == "counter":
                    values[metric] = self.counters[(item, metric)]
                    continue
                count, total, own = spans[item].get(span, (0, 0, 0))
                values[metric] = {"count": count, "total": total / 1e6, "self": own / 1e6}[stat]
            values["spans"] = set(spans[item])
            out[item] = values
        return out

    def write(self, path) -> None:
        """One tab-separated line per span, times in ns from the first span."""
        origin = min((s[4] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as out:
            out.write("item\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns\n")
            for item, sid, parent, name_id, start, end, own in self.spans:
                out.write(
                    f"{item}\t{sid}\t{parent}\t{self.names[name_id]}\t"
                    f"{start - origin}\t{end - origin}\t{own}\n"
                )

# What each layer metric should move, where, and where it should not: the
# predictions a change to that layer is judged against.
PREDICTED = {
    "optimum.flow_solves": "items_per_s on online_prefix and offline_campaign; no change on long_sim (always 0)",
    "optimum.flow_build_ms": "items_per_s on online_prefix and offline_campaign; no change on long_sim",
    "optimum.flow_solve_self_ms": "items_per_s on online_prefix most, then offline_campaign; no change on long_sim",
    "optimum.maxflow_ms": "the scipy floor under every flow solve; no change on long_sim",
    "optimum.optimum_calls": "items_per_s on offline_campaign; no change on long_sim",
    "optimum.witness_pack_ms": "items_per_s on offline_campaign only; no change elsewhere",
    "optimum.bnb_calls": "item_ms_p90 and items_per_s on exact_small; no change on long_sim",
    "optimum.bnb_ms": "item_ms_p90 and items_per_s on exact_small; no change on long_sim",
    "optimum.density_ms": "items_per_s on exact_small; no change elsewhere",
    "engine.steps": "items_per_s on long_sim; a small share elsewhere",
    "engine.step_self_ms": "items_per_s on long_sim; a small share elsewhere",
    "engine.select_ms": "items_per_s on long_sim; a small share elsewhere",
    "engine.add_jobs_ms": "items_per_s on long_sim; a small share elsewhere",
    "model.parse_ms": "items_per_s on long_sim; no change elsewhere",
    "model.serialize_ms": "items_per_s on long_sim; no change elsewhere",
    "model.validate_ms": "items_per_s on long_sim; a small share elsewhere",
    "composite.double_release_calls": "items_per_s on online_prefix; no change on long_sim",
    "composite.double_release_ms": "items_per_s on online_prefix; no change on long_sim",
    "composite.select_self_ms": "items_per_s on online_prefix; no change on long_sim",
    "logn.select_self_ms": "items_per_s on online_prefix; no change on long_sim and exact_small",
    "logn.rebuilds": "items_per_s on online_prefix; no change on long_sim and exact_small",
    "adversary.gen_self_ms": "items_per_s on offline_campaign; no change on long_sim",
    "harness.bench_self_ms": "items_per_s on offline_campaign; no change elsewhere",
}
