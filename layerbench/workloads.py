"""The four benchmark workloads.

Each workload splits into three steps, so the runner can time them apart:

* :meth:`Workload.imports` — the program modules the workload needs
  (timed as ``startup.import_s``);
* :meth:`Workload.build` — the inputs, made from the seed only
  (``startup.inputs_s``);
* :meth:`Workload.run_pass` — one pass over the workload's fixed request
  set, issued by one closed-loop client; returns a :class:`PassResult`
  holding the outputs the checks and metrics need.

Every pass is checked: failed requests are counted, and every placement
a placer returns in this process is audited against its cluster (see
:class:`PlacementAudit`).  README.md in this directory records why each
workload exists and which layers it loads.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: The ten registered scenarios of the paper's §6 comparison.
EVAL_SCENARIOS = (
    "all-to-all", "bursty-mapreduce", "partition-aggregate", "rack-hotspot",
    "cross-traffic", "hetero-topology", "multi-app-sequence",
    "ec2-trace-replay", "single-app-ec2", "legacy-ec2-zone",
)

#: Eight registered scenarios whose trials are cheap, for the fabric sweep.
FABRIC_SCENARIOS = (
    "smoke", "all-to-all", "bursty-mapreduce", "partition-aggregate",
    "cross-traffic", "hetero-topology", "legacy-ec2-zone", "rackspace-uniform",
)

#: Placers whose applications count toward ``app_completion_*``.
CHOREO_PLACERS = ("greedy", "ilp")


@dataclass
class PassResult:
    """What one pass over a workload's request set produced."""

    requests: int
    failed: int
    #: Simulated running time of each application placed by a Choreo placer.
    durations: List[float]
    #: JSON-serialisable canonical output; its digest pins behaviour.
    canonical: object
    #: Failed correctness checks (an empty list means the pass is correct).
    problems: List[str] = field(default_factory=list)
    #: Workload-specific figures reported next to the metrics.
    details: Dict[str, float] = field(default_factory=dict)
    #: Objects whose instruments must outlive the pass (result stores).
    keep_alive: List[object] = field(default_factory=list)
    #: Wall-clock seconds of the part of the pass that counts as requests.
    request_wall_s: float = 0.0


class PlacementAudit:
    """Checks every placement a placer returns in this process.

    Wraps ``place`` on every concrete placer class.  A placement passes
    when it assigns every task of the application exactly once, only to
    machines of the cluster it was given (the tenant's VMs still alive),
    and no machine's free CPU is exceeded.  The check is the benchmark's
    own, independent of the program's validator.
    """

    def __init__(self) -> None:
        self.checked = 0
        self.problems: List[str] = []
        self._undo: List[tuple] = []

    def install(self) -> None:
        from repro.core.placement.base import Placer

        for cls in _subclasses(Placer):
            original = cls.__dict__.get("place")
            if original is None:
                continue
            cls.place = self._wrap(original)
            self._undo.append((cls, original))

    def uninstall(self) -> None:
        for cls, original in reversed(self._undo):
            cls.place = original
        self._undo.clear()

    def _wrap(self, original):
        audit = self

        def place(placer, app, cluster, profile=None):
            placement = original(placer, app, cluster, profile)
            audit.check(placer, app, cluster, placement)
            return placement

        place.__wrapped__ = original
        return place

    def check(self, placer, app, cluster, placement) -> None:
        self.checked += 1
        where = f"{type(placer).__name__} placing {app.name!r}"
        tasks = {task.name: task.cpu_cores for task in app.tasks}
        assigned = dict(placement.assignments)
        if set(assigned) != set(tasks):
            self.problems.append(f"{where}: tasks placed {sorted(assigned)} != {sorted(tasks)}")
            return
        free = {m.name: m.cores - cluster.cpu_used.get(m.name, 0.0) for m in cluster.machines}
        used: Dict[str, float] = {}
        for task, machine in assigned.items():
            if machine not in free:
                self.problems.append(f"{where}: task {task!r} on non-tenant machine {machine!r}")
                return
            used[machine] = used.get(machine, 0.0) + tasks[task]
        for machine, cores in used.items():
            if cores > free[machine] + 1e-9:
                self.problems.append(
                    f"{where}: {cores:g} cores on {machine!r} with {free[machine]:g} free"
                )


def _subclasses(cls) -> List[type]:
    found: List[type] = []
    stack = list(cls.__subclasses__())
    while stack:
        sub = stack.pop()
        found.append(sub)
        stack.extend(sub.__subclasses__())
    return found


class Workload:
    """Interface: heavy imports, seeded inputs, one pass of requests."""

    name = ""

    def imports(self) -> None:
        raise NotImplementedError

    def build(self, seed: int, tiny: bool) -> object:
        raise NotImplementedError

    def run_pass(self, inputs: object) -> PassResult:
        raise NotImplementedError

    def cleanup(self, inputs: object) -> None:
        """Remove anything :meth:`build` or the passes left on disk."""


# ---------------------------------------------------------------------------
# Grid helpers shared by eval-grid and fabric-sweep
# ---------------------------------------------------------------------------
def choreo_gain(results) -> Optional[float]:
    """Median paired speed-up of greedy over each result's baseline.

    Pools ``ExperimentResult.speedups_vs_baseline(scenario, "greedy")``
    over every scenario of every result (the paper's headline comparison,
    with ``random`` as the default baseline); ``None`` when no trial pairs.
    """
    gains = [
        gain
        for result in results
        for scenario in result.scenarios
        for gain in result.speedups_vs_baseline(scenario, "greedy")
    ]
    return statistics.median(gains) if gains else None


def _grid_summary(results, placers_for_durations) -> Dict[str, object]:
    """Durations, failures, choreo gain and probe time of sweep results."""
    durations: List[float] = []
    probe_s = 0.0
    placed_apps = 0
    failed = 0
    requests = 0
    problems: List[str] = []
    for result in results:
        expected = len(result.scenarios) * len(result.placers) * result.trials
        if len(result.records) != expected:
            problems.append(f"sweep returned {len(result.records)} of {expected} records")
        requests += expected
        failed += expected - sum(1 for rec in result.records if rec.ok)
        for rec in result.records:
            if rec.ok and rec.placer in placers_for_durations:
                values = list(rec.per_app_duration_s.values())
                durations.extend(values)
                placed_apps += len(values)
                probe_s += rec.measurement_overhead_s
    details: Dict[str, float] = {}
    gain = choreo_gain(results)
    if gain is not None:
        details["choreo_gain"] = gain
    if placed_apps:
        details["probe_s_per_app"] = probe_s / placed_apps
    return {
        "requests": requests,
        "failed": failed,
        "durations": durations,
        "details": details,
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# eval-grid
# ---------------------------------------------------------------------------
class EvalGrid(Workload):
    """The paper's §6 comparison, inline, one request per trial.

    The grid is pinned to base seed 0, the registry's canonical grid: ILP
    solve time depends so strongly on the instance that a pass took
    12.4-20.6 s over base seeds 0-4, and the pooled completion-time
    percentiles moved by a third.  The seed sets the order in which the
    client issues the scenarios.
    """

    name = "eval-grid"

    def imports(self) -> None:
        import repro.experiments.runner  # noqa: F401

    def build(self, seed: int, tiny: bool):
        from repro.experiments.runner import ExperimentConfig

        scenarios = list(("all-to-all", "cross-traffic") if tiny else EVAL_SCENARIOS)
        random.Random(seed).shuffle(scenarios)
        return ExperimentConfig(
            scenarios=tuple(scenarios),
            placers=("greedy", "ilp", "random", "round-robin"),
            trials=1 if tiny else 3, base_seed=0, backend="inline", workers=1,
        )

    def run_pass(self, config) -> PassResult:
        from repro.experiments.runner import ExperimentRunner

        started = time.perf_counter()
        result = ExperimentRunner(config).run()
        wall = time.perf_counter() - started
        summary = _grid_summary([result], CHOREO_PLACERS)
        return PassResult(
            requests=summary["requests"],
            failed=summary["failed"],
            durations=summary["durations"],
            canonical=result.canonical_json_dict(),
            problems=summary["problems"],
            details=summary["details"],
            request_wall_s=wall,
        )


# ---------------------------------------------------------------------------
# service-churn
# ---------------------------------------------------------------------------
#: Session shape: many medium sessions, so one hot session cannot swing
#: the completion-time percentiles.  Over session seeds 0-319, ten seeds'
#: completion p50 and p90 spread 0.13-0.21 with 16 sessions a seed, and
#: 32 six-hour sessions spread 0.15, so sessions keep twelve epochs.  At
#: 3 apps/h about one arrival in 10,000 was rejected for want of a free
#: machine after preemptions (admission control working as designed); at
#: 2 apps/h none of 7,117 arrivals was, and 40 sessions a seed spread
#: about 0.12 on p50 and p90.  More sessions would push the traced run,
#: which makes three passes, towards the three-minute limit on a slow host.
SERVICE_SESSIONS = 40
SERVICE_SESSION = dict(
    n_vms=24, hours=12, apps_per_hour=2.0, max_tasks=4, epoch_s=300.0,
    drift="hotspot-flap", faults="random-preempt",
)


class ServiceChurn(Workload):
    """Online placement service sessions; one request per app arrival."""

    name = "service-churn"

    def imports(self) -> None:
        import repro.service.session  # noqa: F401

    def build(self, seed: int, tiny: bool):
        if tiny:
            shape = dict(SERVICE_SESSION, n_vms=8, hours=3)
            return [(seed * 2 + i, shape) for i in range(2)]
        return [(seed * SERVICE_SESSIONS + i, SERVICE_SESSION) for i in range(SERVICE_SESSIONS)]

    def run_pass(self, sessions) -> PassResult:
        from repro.service.session import run_churn_session

        started = time.perf_counter()
        reports = [
            run_churn_session(
                session_seed, predictor="combined", placer="greedy",
                migrate=True, **shape,
            )
            for session_seed, shape in sessions
        ]
        wall = time.perf_counter() - started
        arrivals = [app for report in reports for app in report.apps]
        done = [app for app in arrivals if app.status == "completed" and app.duration is not None]
        problems = [
            f"app {app.name} finished before it arrived"
            for app in done if app.duration < 0
        ]
        recovery = [action.latency_s for report in reports for action in report.recovery]
        admitted = len(arrivals) - sum(len(report.rejected()) for report in reports)
        measured = sum(int(r.measurement.get("pairs_measured", 0)) for r in reports)
        reused = sum(int(r.measurement.get("pairs_reused", 0)) for r in reports)
        probe_s = sum(float(r.measurement.get("measurement_time_s", 0.0)) for r in reports)
        details = {
            "pairs_measured": float(measured),
            "pairs_reused": float(reused),
            "reuse_ratio": reused / (measured + reused) if measured + reused else 0.0,
            "probe_s_per_app": probe_s / admitted if admitted else 0.0,
            "migrations": float(sum(len(r.migrations) for r in reports)),
        }
        if recovery:
            details["recovery_s"] = statistics.mean(recovery)
        return PassResult(
            requests=len(arrivals),
            failed=len(arrivals) - len(done),
            durations=[app.duration for app in done],
            canonical=[report.canonical_json_dict() for report in reports],
            problems=problems,
            details=details,
            request_wall_s=wall,
        )


# ---------------------------------------------------------------------------
# dc-scale
# ---------------------------------------------------------------------------
@dataclass
class DcInputs:
    provider: object
    cluster: object
    profile: object
    apps: list


#: Applications per pass: sixteen 12x12 shuffles (about 2.1k flows, above
#: the vector thresholds) give the completion-time percentiles enough
#: applications to hold across seeds; with four 24x24 shuffles the p90
#: spread 0.22 over seeds 0-4.
DC_APPS = 16


class DcScale(Workload):
    """Datacenter scale: true-rate profile, hierarchical greedy, vector engine.

    The provider and its 256 VMs are the same for every seed; the seed
    draws the applications' skewed traffic.

    One request is one application placed; the placed applications then
    run together in one simulation, whose time is shared by the requests.
    """

    name = "dc-scale"

    def imports(self) -> None:
        import repro.cloud.ec2  # noqa: F401
        import repro.core.placement.greedy  # noqa: F401
        import repro.runtime.executor  # noqa: F401
        import repro.workloads.patterns  # noqa: F401

    def build(self, seed: int, tiny: bool) -> DcInputs:
        from dataclasses import replace

        import numpy as np

        from repro.cloud.ec2 import EC2Provider, ec2_params, ec2_tree_spec
        from repro.core.network_profile import MatrixNetworkProfile
        from repro.core.placement.base import ClusterState
        from repro.units import GBYTE
        from repro.workloads.patterns import mapreduce

        if tiny:
            shape = dict(hosts_per_rack=4, racks_per_pod=2, pods=2, num_cores=2)
            n_vms, n_apps, side = 12, 2, 3
        else:
            shape = dict(hosts_per_rack=16, racks_per_pod=8, pods=8, num_cores=4)
            n_vms, n_apps, side = 256, DC_APPS, 12
        params = replace(
            ec2_params(colocation_probability=0.0),
            tree_spec=replace(ec2_tree_spec(), **shape),
        )
        # The datacenter is pinned; the seed draws the tenant's shuffles.
        # With a seeded provider the hose-rate draw alone moved placement
        # time between 1.1 and 5.0 s, so a pass took 9-15 s over seeds 0-8.
        provider = EC2Provider(seed=0, params=params)
        vms = provider.request_vms(n_vms)
        names = [vm.name for vm in vms]
        # The profile holds the true path rates: no packet trains run.
        matrix = np.full((len(names), len(names)), np.nan)
        for i, src in enumerate(names):
            for j, dst in enumerate(names):
                if i != j:
                    matrix[i, j] = provider.true_path_rate(src, dst)
        rng = np.random.default_rng(seed)
        apps = [
            mapreduce(f"mr{k}", side, side, 2 * GBYTE, skew=1.0, rng=rng)
            for k in range(n_apps)
        ]
        return DcInputs(
            provider=provider,
            cluster=ClusterState.from_vms(vms),
            profile=MatrixNetworkProfile(names, matrix),
            apps=apps,
        )

    def run_pass(self, inputs: DcInputs) -> PassResult:
        from repro.core.placement.greedy import GreedyPlacer
        from repro.errors import PlacementError
        from repro.runtime.executor import run_applications

        started = time.perf_counter()
        placer = GreedyPlacer()
        state = inputs.cluster
        placements = {}
        placed = []
        failed = 0
        for app in inputs.apps:
            try:
                placement = placer.place(app, state, inputs.profile)
            except PlacementError:
                failed += 1
                continue
            placements[app.name] = placement
            placed.append(app)
            state = state.with_usage(placement.cpu_usage(app))
        runs = {}
        if placed:
            runs = run_applications(
                inputs.provider, placements, placed,
                start_times={app.name: 0.0 for app in placed},
            )
        wall = time.perf_counter() - started
        problems = []
        durations = []
        for app in placed:
            duration = runs[app.name].duration
            if not (math.isfinite(duration) and duration > 0):
                failed += 1
                problems.append(f"{app.name} ran for {duration!r} s")
                continue
            durations.append(duration)
        canonical = {
            name: {
                "start": run.start_time,
                "completion": run.completion_time,
                "flows": sorted(run.flow_completion_times.items()),
            }
            for name, run in runs.items()
        }
        return PassResult(
            requests=len(inputs.apps),
            failed=failed,
            durations=durations,
            canonical=canonical,
            problems=problems,
            details={"flows": float(sum(len(r.flow_completion_times) for r in runs.values()))},
            request_wall_s=wall,
        )


# ---------------------------------------------------------------------------
# fabric-sweep
# ---------------------------------------------------------------------------
@dataclass
class FabricInputs:
    root: str
    config: object
    passes: int = 0


def fabric_workers() -> int:
    """Workers of the fabric pool: at most two, and one core is left to
    the client, which streams, stores and checks every record.  More
    processes than cores would time the operating system's scheduler."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(2, (cores or 1) - 1))


class FabricSweep(Workload):
    """Cheap trials through the remote fabric, cold then warm from the store.

    The request set is one sweep.  Each pass runs it cold into a fresh
    store, with a freshly spawned worker pool, and then warm from that
    store, where every cell is a hit; the warm sweep gives
    ``fabric.resume_s``.
    """

    name = "fabric-sweep"

    def imports(self) -> None:
        import repro.experiments.runner  # noqa: F401

    def build(self, seed: int, tiny: bool) -> FabricInputs:
        from repro.experiments.runner import ExperimentConfig

        config = ExperimentConfig(
            scenarios=("smoke", "all-to-all") if tiny else FABRIC_SCENARIOS,
            placers=("greedy", "random", "round-robin"),
            trials=2 if tiny else 8, base_seed=seed,
            backend="remote", workers=fabric_workers(),
            # The store directory is filled in per pass (run_pass).
        )
        root = tempfile.mkdtemp(prefix="stores-", dir=scratch_dir())
        return FabricInputs(root=root, config=config)

    def run_pass(self, inputs: FabricInputs) -> PassResult:
        from dataclasses import replace as dc_replace

        from repro.experiments.cache import ResultStore
        from repro.experiments.runner import ExperimentRunner

        inputs.passes += 1
        store_dir = os.path.join(inputs.root, f"pass{inputs.passes}")
        config = dc_replace(inputs.config, cache_dir=store_dir)
        store = ResultStore(store_dir)
        started = time.perf_counter()
        cold = ExperimentRunner(config, store=store).run()
        cold_wall = time.perf_counter() - started
        started = time.perf_counter()
        warm_runner = ExperimentRunner(config, store=store)
        warm = warm_runner.run()
        warm_wall = time.perf_counter() - started
        problems: List[str] = []
        stats = warm_runner.last_stats
        if stats.executed or stats.cache_hits != stats.unique_cells:
            problems.append(
                f"warm sweep executed {stats.executed} cell(s), "
                f"{stats.cache_hits}/{stats.unique_cells} from the store"
            )
        if warm.canonical_json_dict() != cold.canonical_json_dict():
            problems.append("warm sweep differs from its cold sweep")
        summary = _grid_summary([cold], ("greedy",))
        trial_wall = sum(rec.trial_wall_s for rec in cold.records)
        details = dict(summary["details"])
        details["resume_s"] = warm_wall
        details["busy_fraction"] = trial_wall / (config.workers * cold_wall)
        return PassResult(
            requests=summary["requests"],
            failed=summary["failed"],
            durations=summary["durations"],
            canonical=cold.canonical_json_dict(),
            problems=summary["problems"] + problems,
            details=details,
            keep_alive=[store],
            request_wall_s=cold_wall,
        )

    def cleanup(self, inputs: FabricInputs) -> None:
        shutil.rmtree(inputs.root, ignore_errors=True)


def scratch_dir() -> str:
    """``.layerbench/`` at the checkout root, for traces and stores."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, ".layerbench")
    os.makedirs(path, exist_ok=True)
    return path


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl for wl in (EvalGrid(), ServiceChurn(), DcScale(), FabricSweep())
}
