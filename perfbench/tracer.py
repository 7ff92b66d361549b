"""Span tracing of the program's layers, installed from outside.

:func:`install` replaces each entry point in :data:`ENTRY_POINTS` with a
wrapper that records a span (name, start, end, parent) around the call.
Module-level functions are rebound in every loaded module that imported
them by name, so call sites that do ``from x import f`` are traced too.
Nothing in the program changes: the wrappers return what the wrapped
call returns.

Every span is folded into a per-(name, parent) aggregate of count, total
time, self time (the span minus its child spans) and leaf count (spans
with no traced children).  Only the first :data:`KEEP_PER_NAME` spans of
each name are also kept whole: entry points called 10^5-10^6 times a run
(estimator lookups, the op-cost model) stay aggregate-only, so tracing
does not grow memory with the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

#: Spans kept whole per name; later spans of that name only aggregate.
KEEP_PER_NAME = 10_000

#: Spans with no traced ancestor have this parent.
ROOT = "<root>"


def _fleet_counts(args, result) -> dict:
    return {
        "events": result.events_processed,
        "rounds": sum(report.rounds for report in result.machine_reports),
        "placements": len(result.placements),
    }


@dataclass(frozen=True)
class EntryPoint:
    """One public entry point of a layer: ``module`` + dotted ``attr``.

    ``tally(args, result)`` optionally returns counters to add to the
    span name's totals (e.g. how many tasks a sweep ran).
    """

    span: str
    module: str
    attr: str
    tally: Callable[[tuple, object], dict] | None = None


#: The layers the benchmark reports, by the span name each entry point
#: records under.  ``mlkit`` regressors are added per class by
#: :func:`install` (every ``Regressor`` subclass defining fit/predict).
ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("ops.characterize", "repro.ops.cost", "characterize"),
    EntryPoint("ops.execution_time", "repro.execsim.op_runtime", "execution_time"),
    EntryPoint("execsim.run_step", "repro.execsim.simulator", "StepSimulator.run_step"),
    EntryPoint("execsim.standalone", "repro.execsim.standalone", "StandaloneRunner.run"),
    EntryPoint("core.profile", "repro.core.hill_climbing", "HillClimbingModel.profile_graph"),
    EntryPoint("core.topk", "repro.core.hill_climbing", "HillClimbingModel.top_configurations"),
    EntryPoint("core.select", "repro.core.scheduler", "RuntimeSchedulerPolicy.select_launches"),
    EntryPoint("graph.build", "repro.scenarios", "Workload.build"),
    EntryPoint("graph.merge", "repro.scenarios", "merge_graphs"),
    EntryPoint("estimates.step_time", "repro.fleet.estimates", "StepTimeEstimator.step_time"),
    EntryPoint("estimates.compute", "repro.fleet.estimates", "corun_step_time"),
    *(
        EntryPoint(
            "policies.place",
            "repro.fleet.policies",
            f"{cls}.place",
            lambda args, result: {"declined": result is None},
        )
        for cls in ("FirstFitPolicy", "LoadBalancedPolicy", "InterferenceAwarePolicy")
    ),
    EntryPoint("fleet.run", "repro.fleet.simulator", "FleetSimulator.run", _fleet_counts),
    EntryPoint("resilience.save", "repro.resilience.checkpoint", "Checkpointer.save"),
    EntryPoint("store.make_record", "repro.store.record", "make_record"),
    EntryPoint("store.record", "repro.store.store", "RunStore.record"),
    EntryPoint("store.get", "repro.store.store", "RunStore.get"),
    EntryPoint(
        "sweep.run",
        "repro.sweep.executor",
        "SweepExecutor.run",
        lambda args, result: {"tasks": len(result)},
    ),
)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        #: Open spans: [name, start, child time, child count, span id].
        self._stack: list[list] = [[ROOT, 0.0, 0.0, 0, 0]]
        self._ids = itertools.count(1)
        #: (name, parent name) -> [count, total s, self s, leaves].
        self.aggregates: dict[tuple[str, str], list] = {}
        #: name -> counter -> total, from the entry points' tallies.
        self.counters: dict[str, dict[str, int]] = {}
        #: Kept spans: (id, name, start, end, parent id).
        self.spans: list[tuple] = []
        self._kept: dict[str, int] = {}

    def wrap(self, name: str, func: Callable, tally=None) -> Callable:
        stack = self._stack
        ids = self._ids

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = [name, perf_counter(), 0.0, 0, next(ids)]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(frame, end, stack[-1])
            if tally is not None:
                totals = self.counters.setdefault(name, {})
                for key, value in tally(args, result).items():
                    totals[key] = totals.get(key, 0) + int(value)
            return result

        return traced

    def _close(self, frame: list, end: float, parent: list) -> None:
        name, start, child_time, children, span_id = frame
        duration = end - start
        parent[2] += duration
        parent[3] += 1
        entry = self.aggregates.get((name, parent[0]))
        if entry is None:
            entry = self.aggregates[(name, parent[0])] = [0, 0.0, 0.0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_time
        if not children:
            entry[3] += 1
        kept = self._kept.get(name, 0)
        if kept < KEEP_PER_NAME:
            self._kept[name] = kept + 1
            self.spans.append((span_id, name, start, end, parent[4]))

    def totals(self, name: str) -> tuple[int, float, float, int]:
        """(count, total s, self s, leaves) of ``name`` over all parents."""
        count = total = own = leaves = 0
        for (span, _), entry in self.aggregates.items():
            if span == name:
                count += entry[0]
                total += entry[1]
                own += entry[2]
                leaves += entry[3]
        return count, total, own, leaves

    def durations(self, name: str) -> list[float]:
        """Durations of the kept spans of ``name``."""
        return [end - start for _, span, start, end, _ in self.spans if span == name]

    def write(self, path) -> None:
        """Write aggregates and kept spans out as JSON."""
        body = {
            "aggregates": [
                {"name": name, "parent": parent, "count": e[0], "total_s": e[1],
                 "self_s": e[2], "leaves": e[3]}
                for (name, parent), e in sorted(self.aggregates.items())
            ],
            "counters": self.counters,
            "spans": {
                "columns": ["id", "name", "start", "end", "parent"],
                "rows": self.spans,
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(body, handle)


def _rebind(original: Callable, wrapped: Callable) -> None:
    """Point every module global bound to ``original`` at ``wrapped``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is None:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapped


def _wrap_attr(tracer: Tracer, span: str, owner, attr: str, tally=None) -> None:
    original = vars(owner)[attr]
    wrapped = tracer.wrap(span, original, tally)
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
    else:
        _rebind(original, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every entry point of :data:`ENTRY_POINTS` and the regressors."""
    for entry in ENTRY_POINTS:
        owner = importlib.import_module(entry.module)
        *path, attr = entry.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        _wrap_attr(tracer, entry.span, owner, attr, entry.tally)
    import repro.mlkit as mlkit

    regressors = [
        value
        for value in vars(mlkit).values()
        if isinstance(value, type)
        and issubclass(value, mlkit.Regressor)
        and value is not mlkit.Regressor
    ]
    for cls in regressors:
        for method in ("fit", "predict"):
            if method in vars(cls):
                _wrap_attr(tracer, f"mlkit.{method}", cls, method)


def _percentile_ms(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced timed region."""
    def count(name):
        return tracer.totals(name)[0]

    def own(*names):
        return sum(tracer.totals(name)[2] for name in names)

    def counter(name, key):
        return tracer.counters.get(name, {}).get(key, 0)

    requests, _, lookup_self, hits = tracer.totals("estimates.step_time")
    places = count("policies.place")
    compute = tracer.durations("estimates.compute")
    return {
        "ops.characterize_calls": count("ops.characterize"),
        "ops.exec_time_calls": count("ops.execution_time"),
        "ops.self_s": own("ops.characterize", "ops.execution_time"),
        "execsim.step_calls": count("execsim.run_step"),
        "execsim.step_self_s": own("execsim.run_step"),
        "execsim.standalone_calls": count("execsim.standalone"),
        "execsim.standalone_self_s": own("execsim.standalone"),
        "core.profile_calls": count("core.profile"),
        "core.profile_self_s": own("core.profile"),
        "core.topk_calls": count("core.topk"),
        "core.topk_self_s": own("core.topk"),
        "core.select_calls": count("core.select"),
        "core.select_self_s": own("core.select"),
        "graph.build_calls": count("graph.build") + count("graph.merge"),
        "graph.build_self_s": own("graph.build", "graph.merge"),
        "mlkit.fit_calls": count("mlkit.fit"),
        "mlkit.fit_self_s": own("mlkit.fit"),
        "mlkit.predict_self_s": own("mlkit.predict"),
        "estimates.requests": requests,
        "estimates.computed": count("estimates.compute"),
        # A lookup that traced no child (no sweep run) was a memo hit.
        "estimates.hit_ratio": hits / requests if requests else 0.0,
        "estimates.compute_s": tracer.totals("estimates.compute")[1],
        "estimates.compute_p50_ms": _percentile_ms(compute, 50),
        "estimates.compute_p90_ms": _percentile_ms(compute, 90),
        "estimates.lookup_self_s": lookup_self,
        "policies.place_calls": places,
        "policies.place_self_s": own("policies.place"),
        "policies.decline_ratio": (
            counter("policies.place", "declined") / places if places else 0.0
        ),
        "fleet.run_s": tracer.totals("fleet.run")[1],
        "fleet.loop_self_s": own("fleet.run"),
        "fleet.events": counter("fleet.run", "events"),
        "fleet.rounds": counter("fleet.run", "rounds"),
        "fleet.placements": counter("fleet.run", "placements"),
        "resilience.saves": count("resilience.save"),
        "resilience.save_self_s": own("resilience.save"),
        "store.record_self_s": own("store.make_record", "store.record"),
        "store.get_self_s": own("store.get"),
        "sweep.tasks": counter("sweep.run", "tasks"),
        "sweep.self_s": own("sweep.run"),
    }
