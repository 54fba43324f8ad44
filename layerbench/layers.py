"""Per-layer tracing for the traced run: wrappers, spans, layer metrics.

The traced run wraps each layer's public entry points from here; the
program's own sources are not touched, and the program's built-in
``repro.obs`` tracer stays off.  Each wrapped call becomes one span event
in the ``repro.obs`` trace schema (``name``/``span``/``parent``/``ts``/
``dur``/``pid``/``tid``/``attrs``), kept in memory and written out once
at the end, so :func:`repro.obs.report.build_profile` computes self time.

Counts come from the wrappers, from ``repro.obs.metrics.snapshot()``
deltas of module-level instruments, and from the objects a pass keeps
alive (result stores, allocators).
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


class SpanRecorder:
    """In-memory span sink with one parent stack per thread.

    Spans are recorded as tuples and turned into ``repro.obs`` trace
    events only when read, which keeps the per-call cost of a wrapper low
    on entry points called a hundred thousand times per pass.
    """

    def __init__(self) -> None:
        self._spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        self._prefix = f"{self._pid:x}-"
        #: Allocators created while tracing: their solve counters are
        #: per-instance and would leave the metrics registry with them.
        self.allocators: List[object] = []

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, annotate: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``annotate(args, result)`` adds attrs."""
        spans, ids, prefix = self._spans, self._ids, self._prefix
        stack_of, clock, get_ident = self._stack, time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1][0] if stack else None
            # [span id, attrs or None, error or None]
            frame = [prefix + str(next(ids)), None, None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    frame[1] = {**(frame[1] or {}), **annotate(args, result)}
                return result
            except BaseException as exc:
                frame[2] = type(exc).__name__
                raise
            finally:
                dur = clock() - start
                stack.pop()
                spans.append((name, frame, parent, start, dur, get_ident()))

        traced.__wrapped__ = fn
        return traced

    def mark(self, key: str, fn: Callable) -> Callable:
        """``fn`` unchanged, but flags ``key`` on the enclosing span."""
        stack_of = self._stack

        def marked(*args, **kwargs):
            stack = stack_of()
            if stack:
                stack[-1][1] = {**(stack[-1][1] or {}), key: True}
            return fn(*args, **kwargs)

        marked.__wrapped__ = fn
        return marked

    @property
    def events(self) -> List[dict]:
        """The spans as ``repro.obs`` trace events, in completion order."""
        events = []
        for name, (span_id, attrs, error), parent, start, dur, tid in self._spans:
            event = {"ev": "span", "name": name, "span": span_id, "parent": parent,
                     "ts": start, "dur": dur, "pid": self._pid, "tid": tid,
                     "attrs": attrs or {}}
            if error is not None:
                event["error"] = error
            events.append(event)
        return events

    def write(self, path: str, events: List[dict]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True, default=str) + "\n")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def _greedy_attrs(args, result):
    return {"hier": args[0].last_cluster_stats is not None}


def _ilp_attrs(args, result):
    stats = args[0].last_solve_stats or {}
    return {
        "mip_nodes": stats.get("mip_nodes") or 0,
        "warm": bool(stats.get("warm_start_accepted")),
    }


def _campaign_attrs(args, result):
    return {"sim_s": result.measurement_duration_s}


def _fluid_attrs(args, result):
    return {"flows": len(result.states)}


def _alloc_attrs(args, result):
    return {"vector": args[0].uses_vector_path()}


#: (span name, module, attribute path, annotate) for every wrapped entry.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("cloud.request_vms", "repro.cloud.provider", "CloudProvider.request_vms", None),
    ("cloud.true_rate", "repro.cloud.provider", "CloudProvider.true_path_rate", None),
    ("cloud.packet_train", "repro.cloud.provider", "CloudProvider.send_packet_train", None),
    ("measure.campaign", "repro.core.measurement.orchestrator", "NetworkMeasurer.measure",
     _campaign_attrs),
    ("profile", "repro.core.profiler", "ApplicationProfiler.profile_application", None),
    ("place.greedy", "repro.core.placement.greedy", "GreedyPlacer.place", _greedy_attrs),
    ("place.ilp", "repro.core.placement.ilp", "OptimalPlacer.place", _ilp_attrs),
    ("place.ilp.milp", "scipy.optimize", "milp", None),
    ("route", "repro.net.topology", "Topology.path_links", None),
    ("alloc.solve", "repro.net.alloc", "IncrementalAllocator.solve", _alloc_attrs),
    ("alloc.solve", "repro.net.alloc", "IncrementalAllocator.solve_slots", _alloc_attrs),
    ("fluid.run", "repro.net.fluid", "FluidSimulation.run", _fluid_attrs),
    ("runtime.run_apps", "repro.runtime.executor", "run_applications", None),
    ("runtime.advance", "repro.runtime.migration", "advance_live_apps", None),
    ("runtime.migration", "repro.runtime.migration", "propose_migration", None),
    ("service.cache_refresh", "repro.service.cache", "MeasurementCache.refresh", None),
    ("service.forecast", "repro.service.forecast", "RateForecaster.forecast_profile", None),
    ("service.forecast", "repro.service.forecast", "RateForecaster.record_epoch", None),
    ("service.recover", "repro.service.engine", "PlacementService._handle_fault_events", None),
    ("experiments.trial", "repro.experiments.trials", "run_trial", None),
    ("experiments.scenario_build", "repro.experiments.scenarios", "ScenarioSpec.build", None),
    ("store.get", "repro.experiments.cache", "ResultStore.get", None),
    ("store.put", "repro.experiments.cache", "ResultStore.put", None),
    ("store.len", "repro.experiments.cache", "ResultStore.__len__", None),
)


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every entry point; returns a function that undoes it.

    A module-level function is also replaced wherever a ``repro`` module
    imported it by name, so ``from x import f`` call sites are traced too.
    """
    undo: List[Tuple[object, str, object]] = []

    def replace(owner, attr: str, new) -> None:
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                     else getattr(owner, attr)))
        setattr(owner, attr, new)

    for name, module_name, path, annotate in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            replace(owner, attr, recorder.wrap(name, owner.__dict__[attr], annotate))
            continue
        original = getattr(module, path)
        wrapped = recorder.wrap(name, original, annotate)
        for mod_name, mod in list(sys.modules.items()):
            if mod is module or (mod_name.startswith("repro") and
                                 getattr(mod, path, None) is original):
                replace(mod, path, wrapped)

    from repro.net.alloc import IncrementalAllocator
    from repro.net.fluid import FluidSimulation

    init = IncrementalAllocator.__dict__["__init__"]

    def tracked_init(allocator, *args, **kwargs):
        init(allocator, *args, **kwargs)
        recorder.allocators.append(allocator)

    replace(IncrementalAllocator, "__init__", tracked_init)
    replace(FluidSimulation, "_run_vector",
            recorder.mark("vector", FluidSimulation.__dict__["_run_vector"]))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return uninstall


# ---------------------------------------------------------------------------
# Layer metrics
# ---------------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    events: List[dict],
    allocators: List[object],
    before: Dict[str, float],
    after: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (see README.md for the map)."""
    from repro.obs.report import build_profile

    by_name = build_profile(events).by_name()

    def count(name: str) -> float:
        return float(by_name.get(name, (0, 0.0, 0.0))[0])

    def busy(name: str) -> float:
        return by_name.get(name, (0, 0.0, 0.0))[1]

    def self_time(name: str) -> float:
        return by_name.get(name, (0, 0.0, 0.0))[2]

    def spans(name: str) -> List[dict]:
        return [ev for ev in events if ev["name"] == name]

    def attr_busy(name: str, key: str) -> float:
        return sum(ev["dur"] for ev in spans(name) if ev["attrs"].get(key))

    ilp = spans("place.ilp")
    fluid = spans("fluid.run")
    full = sum(a.solver_stats()["full_solves"] for a in allocators)
    partial = sum(a.solver_stats()["partial_solves"] for a in allocators)

    def d(key: str) -> float:
        return float(after.get(key, 0.0)) - float(before.get(key, 0.0))

    hits = d("repro.routes.cache_hits")
    misses = d("repro.routes.cache_misses")
    leases = d("repro.fabric.leases")
    # A gauge, not a counter: the last sweep's value, when one ran.
    idle = float(after.get("repro.fabric.max_worker_idle_fraction", 0.0)) if leases else 0.0

    return {
        "cloud.request_vms_s": busy("cloud.request_vms"),
        "cloud.true_rate_calls": count("cloud.true_rate"),
        "cloud.true_rate_s": busy("cloud.true_rate"),
        "cloud.packet_trains": count("cloud.packet_train"),
        "cloud.packet_train_s": busy("cloud.packet_train"),
        "measure.campaigns": count("measure.campaign"),
        "measure.busy_s": busy("measure.campaign"),
        "measure.probes": d("repro.measure.probes"),
        "measure.probe_retries": d("repro.measure.probe_retries"),
        "measure.pairs_degraded": d("repro.measure.probes_degraded"),
        "measure.probe_time_s": sum(ev["attrs"].get("sim_s", 0.0)
                                    for ev in spans("measure.campaign")),
        "profile.calls": count("profile"),
        "profile.busy_s": busy("profile"),
        "place.greedy.calls": count("place.greedy"),
        "place.greedy.busy_s": busy("place.greedy"),
        "place.greedy.hier_calls": float(sum(1 for ev in spans("place.greedy")
                                             if ev["attrs"].get("hier"))),
        "place.ilp.calls": float(len(ilp)),
        "place.ilp.busy_s": busy("place.ilp"),
        "place.ilp.build_s": busy("place.ilp") - busy("place.ilp.milp"),
        "place.ilp.solve_s": busy("place.ilp.milp"),
        "place.ilp.mip_nodes": float(sum(ev["attrs"].get("mip_nodes", 0) for ev in ilp)),
        "place.ilp.warm_start_ratio": _ratio(
            sum(1 for ev in ilp if ev["attrs"].get("warm")), len(ilp)),
        "route.calls": count("route"),
        "route.busy_s": busy("route"),
        "route.cache_hit_ratio": _ratio(hits, hits + misses),
        "route.structured_hits": d("repro.routes.structured_hits"),
        "alloc.full_solves": float(full),
        "alloc.partial_solves": float(partial),
        "alloc.busy_s": busy("alloc.solve"),
        "alloc.vector_share": _ratio(attr_busy("alloc.solve", "vector"), busy("alloc.solve")),
        "fluid.runs": float(len(fluid)),
        "fluid.flows": float(sum(ev["attrs"].get("flows", 0) for ev in fluid)),
        "fluid.batches": d("repro.fluid.batches"),
        "fluid.busy_s": busy("fluid.run"),
        "fluid.self_s": self_time("fluid.run"),
        "fluid.vector_share": _ratio(attr_busy("fluid.run", "vector"), busy("fluid.run")),
        "runtime.run_apps_s": busy("runtime.run_apps"),
        "runtime.advance_s": busy("runtime.advance"),
        "runtime.migration_proposals": count("runtime.migration"),
        "runtime.migration_s": busy("runtime.migration"),
        "service.cache_refresh_s": busy("service.cache_refresh"),
        "service.forecast_s": busy("service.forecast"),
        "service.admissions": d("repro.service.admissions"),
        "service.rejections": d("repro.service.rejections"),
        "service.epoch_ticks": d("repro.service.epoch_ticks"),
        "service.migrations": d("repro.service.migrations"),
        "service.recoveries": d("repro.service.recoveries"),
        "service.recover_s": busy("service.recover"),
        "experiments.trials": count("experiments.trial"),
        "experiments.trial_busy_s": busy("experiments.trial"),
        "experiments.scenario_build_s": busy("experiments.scenario_build"),
        "fabric.leases": leases,
        "fabric.max_worker_idle_fraction": idle,
        "fabric.retried_trials": d("repro.fabric.retried_trials"),
        "fabric.salvaged_records": d("repro.fabric.salvaged_records"),
        "fabric.duplicates_discarded": d("repro.fabric.duplicates_discarded"),
        "store.hits": d("repro.store.hits"),
        "store.misses": d("repro.store.misses"),
        "store.stored": d("repro.store.stored"),
        "store.get_s": busy("store.get"),
        "store.put_s": busy("store.put"),
        "store.len_calls": count("store.len"),
        "store.len_s": busy("store.len"),
    }
