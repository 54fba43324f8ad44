"""Pluggable execution backends for experiment sweeps.

An :class:`ExecutionBackend` maps :class:`~repro.experiments.trials.WorkItem`
batches to :class:`~repro.experiments.results.TrialRecord` lists; backends
are registered by name so configs, the CLI, and result files can address
them as data.

Two backends ship in-tree:

* ``inline`` — run every trial in the current process, one after another:
  the deterministic reference every other execution is checked against;
* ``remote`` — lease chunks to long-running HTTP workers
  (:mod:`repro.experiments.worker`), either a localhost pool it spawns
  itself or endpoints on other machines, all populating one shared
  :class:`~repro.experiments.cache.ResultStore`.

The remote fabric's workers can *die* (crash, OOM-kill, network
partition), so it carries the fault tolerance: workers stream records as
JSON Lines — one line per completed trial, flushed — and the scheduler
salvages whatever a dead or hung worker managed to finish, then retries
only the missing trials in a fresh wave.  Hung workers miss their lease's
heartbeat deadline and lose the lease.  Because every trial is a
deterministic function of its work item, a record salvaged from a crashed
worker is bit-identical to one from a healthy worker, and a sweep that
loses workers mid-flight still produces the exact result a clean run
would.

Every backend must return records in the order of its input items, and a
backend given the same items must produce the same records (modulo host
wall-clock timings) — the equivalence tests hold both to that.
"""

from __future__ import annotations

import itertools
import logging
import os
import random
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro import obs
from repro.errors import ExperimentError
from repro.experiments.results import TrialRecord
from repro.experiments.trials import WorkItem

logger = logging.getLogger("repro.experiments.fabric")

#: Fabric counters (``obs.metrics.snapshot()`` under ``repro.fabric.*``).
#: They accumulate across every ``map_trials`` call in the process, while
#: :attr:`RemoteBackend.last_fabric_stats` keeps the per-sweep view.
_FABRIC_LEASES = obs.Counter("repro.fabric.leases")
_FABRIC_SALVAGED = obs.Counter("repro.fabric.salvaged_records")
_FABRIC_RETRY_WAVES = obs.Counter("repro.fabric.retry_waves")
_FABRIC_RETRIED = obs.Counter("repro.fabric.retried_trials")
_FABRIC_DUPLICATES = obs.Counter("repro.fabric.duplicates_discarded")
_FABRIC_STRAGGLERS = obs.Counter("repro.fabric.stragglers_redispatched")
_FABRIC_DEAD = obs.Counter("repro.fabric.workers_presumed_dead")
_FABRIC_HUNG = obs.Counter("repro.fabric.leases_hung")
_FABRIC_IDLE = obs.Gauge("repro.fabric.max_worker_idle_fraction")

#: Default number of retry waves the remote backend runs for trials whose
#: worker died, beyond the initial wave.
DEFAULT_MAX_RETRIES = 2

#: Backends that no longer exist, with what to use instead: configs and
#: command lines naming them fail with this advice, not a bare "unknown".
_REMOVED_BACKENDS = {
    "process": "use 'remote' for parallel workers (it spawns a localhost "
    "pool by default) or 'inline' for a single process",
    "subprocess-pool": "use 'remote', which salvages and retries work from "
    "crashed or hung workers (it spawns a localhost pool by default), or "
    "'inline' for a single process",
}


@runtime_checkable
class ExecutionBackend(Protocol):
    """Executes picklable work items; how and where is the backend's business."""

    name: str

    def submit(self, item: WorkItem) -> TrialRecord:
        """Run a single work item."""
        ...

    def map_trials(self, items: Sequence[WorkItem]) -> List[TrialRecord]:
        """Run a batch; the result order matches the input order."""
        ...


@dataclass(frozen=True)
class BackendSpec:
    """A registered execution backend: metadata plus a factory.

    The factory takes the worker-count hint (``None`` = size to the batch,
    capped at the CPU count) and a backend-specific options mapping, and
    returns a ready :class:`ExecutionBackend`.  Backends without options
    must reject a non-empty mapping so typos fail loudly.
    """

    name: str
    description: str
    factory: Callable[[Optional[int], Mapping[str, object]], ExecutionBackend]


_BACKENDS: Dict[str, BackendSpec] = {}


def register_backend(spec: BackendSpec) -> BackendSpec:
    """Register a backend spec; duplicate names raise :class:`ExperimentError`."""
    if spec.name in _BACKENDS:
        raise ExperimentError(f"backend {spec.name!r} is already registered")
    _BACKENDS[spec.name] = spec
    return spec


def get_backend(name: str) -> BackendSpec:
    """Look up a backend spec by name."""
    try:
        return _BACKENDS[name]
    except KeyError as exc:
        if name in _REMOVED_BACKENDS:
            raise ExperimentError(
                f"backend {name!r} was removed; {_REMOVED_BACKENDS[name]}"
            ) from exc
        raise ExperimentError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from exc


def backend_names() -> List[str]:
    """All registered backend names, sorted."""
    return sorted(_BACKENDS)


def create_backend(
    name: str,
    workers: Optional[int] = None,
    options: Optional[Mapping[str, object]] = None,
) -> ExecutionBackend:
    """Instantiate a registered backend with a worker hint and options."""
    return get_backend(name).factory(workers, dict(options or {}))


def _reject_options(name: str, options: Mapping[str, object]) -> None:
    if options:
        raise ExperimentError(
            f"backend {name!r} accepts no options; got {sorted(options)}"
        )


def _resolve_workers(workers: Optional[int], n_items: int) -> int:
    if workers is not None:
        return max(1, workers)
    return max(1, min(n_items, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# inline
# ---------------------------------------------------------------------------
class InlineBackend:
    """Run every trial in the current process, one after another."""

    name = "inline"

    def submit(self, item: WorkItem) -> TrialRecord:
        return item.run()

    def map_trials(self, items: Sequence[WorkItem]) -> List[TrialRecord]:
        return [item.run() for item in items]


# ---------------------------------------------------------------------------
# remote: cost-aware chunking
# ---------------------------------------------------------------------------
#: Static per-cell cost priors (relative wall clock) used before the shared
#: store has observed anything: an ilp cell costs roughly two orders of
#: magnitude more than a random-placer cell on the same scenario (§6
#: grids), so uniform chunking strands whole workers behind one ilp-heavy
#: chunk while the rest sit idle.
COST_PRIORS: Dict[str, float] = {
    "ilp": 100.0,
    "greedy": 3.0,
    "random": 1.0,
    "round-robin": 1.0,
}

#: Prior for placers the table does not name (between random and greedy).
_DEFAULT_COST_PRIOR = 2.0


def item_weight(
    item: WorkItem,
    cost_table: Optional[Mapping[tuple, float]] = None,
) -> float:
    """Expected cost of one work item, in whatever unit is available.

    Observed mean wall seconds for the item's ``(scenario, placer)`` cell
    when the shared store has seen that cell
    (:meth:`~repro.experiments.cache.ResultStore.cost_table`), the placer's
    static prior otherwise — so even the very first mixed-grid run chunks
    non-uniformly.
    """
    if cost_table:
        observed = cost_table.get(item.cost_key)
        if observed:
            return max(float(observed), 1e-6)
    return COST_PRIORS.get(item.placer, _DEFAULT_COST_PRIOR)


def _weighted_chunks(
    weights: Sequence[float], n_chunks: int
) -> List[List[int]]:
    """Split positions into ``n_chunks`` chunks balanced by weight (LPT).

    Longest-processing-time-first: heaviest positions are placed first,
    each onto the currently lightest chunk, so the grid's cheap tail never
    queues behind its one expensive cell.  Deterministic (ties break by
    position), every returned chunk is non-empty, and positions inside a
    chunk keep their input order.
    """
    n_chunks = max(1, min(n_chunks, len(weights)))
    loads = [0.0] * n_chunks
    chunks: List[List[int]] = [[] for _ in range(n_chunks)]
    order = sorted(range(len(weights)), key=lambda pos: (-weights[pos], pos))
    for pos in order:
        target = min(
            range(n_chunks), key=lambda c: (loads[c], len(chunks[c]), c)
        )
        chunks[target].append(pos)
        loads[target] += weights[pos]
    for chunk in chunks:
        chunk.sort()
    return [chunk for chunk in chunks if chunk]


# ---------------------------------------------------------------------------
# remote: lease-based scheduler
# ---------------------------------------------------------------------------
DEFAULT_HEARTBEAT_TIMEOUT_S = 30.0
DEFAULT_BACKOFF_BASE_S = 0.25
DEFAULT_STRAGGLER_FACTOR = 4.0

#: A lease younger than this is never judged a straggler, whatever its
#: siblings did: millisecond chunks would otherwise duplicate constantly.
MIN_STRAGGLER_S = 1.0


class _Lease:
    """One chunk leased to one worker, with its receive-side state.

    ``records`` maps *global* item indices to records as they stream in;
    the reader thread is the only writer, the monitor only reads (both
    under the GIL), so no lock is needed.
    """

    def __init__(self, lease_id: str, worker: int, indices: List[int]):
        self.lease_id = lease_id
        self.worker = worker  # index into the scheduler's client list
        self.indices = indices  # global item indices, input order
        self.records: Dict[int, TrialRecord] = {}
        self.started = time.monotonic()
        self.last_progress = self.started
        self.finished_at: Optional[float] = None
        self.completed = False  # worker sent its done trailer
        self.failure: Optional[str] = None
        self.cancel = threading.Event()
        self.thread: Optional[threading.Thread] = None
        self.redispatched = False
        self.duplicate_of: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    @property
    def missing(self) -> List[int]:
        return [i for i in self.indices if i not in self.records]


class RemoteBackend:
    """Lease chunks to long-running HTTP workers — the multi-machine fabric.

    Endpoints given, the backend talks to those workers
    (``http://host:port`` running already, ``ssh://[user@]host:port``
    launched first); none given, it spawns a localhost pool of ``workers``
    processes, so ``--backend remote`` works out of the box and tests need
    no ssh.

    Fault model:

    * each chunk is a *lease* with a heartbeat deadline: a worker that
      streams no record for ``heartbeat_timeout_s`` is probed via
      ``/health`` — unreachable means the machine died, reachable-but-
      stalled means the lease hung; either way the lease is revoked and
      its streamed prefix salvaged (garbled tails skipped);
    * only missing trials are re-enqueued, in at most ``max_retries``
      further waves, separated by seeded exponential backoff — seeded, so
      a kill-then-salvage-then-retry sweep is reproducible run to run;
    * a persistent straggler (running ``straggler_factor`` times longer
      than the slowest finished lease while a worker sits idle) gets its
      remaining trials re-dispatched to the idle worker; first finisher
      wins and duplicate records are discarded by trial key (benign:
      trials are deterministic, duplicates are identical);
    * chunks are weighed by observed per-cell cost from the shared
      store's cost table (placer priors before any observation), so
      heterogeneous grids saturate all workers instead of stranding them
      behind one ilp-heavy chunk.

    ``store_root`` (the runner passes its ``cache_dir``) is both the cost
    table's source and the ``--cache-dir`` handed to self-spawned workers,
    so every worker writes the one shared store.

    ``last_fabric_stats`` exposes lease/salvage/retry/duplicate counters
    and per-worker idle fractions after each :meth:`map_trials` — the
    bench reports them.
    """

    name = "remote"

    def __init__(
        self,
        workers: Optional[int] = None,
        endpoints: Sequence[str] = (),
        max_retries: int = DEFAULT_MAX_RETRIES,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
        backoff_seed: int = 0,
        straggler_factor: float = DEFAULT_STRAGGLER_FACTOR,
        store_root: Optional[str] = None,
    ):
        if max_retries < 0:
            raise ExperimentError("max_retries must be >= 0")
        if heartbeat_timeout_s <= 0:
            raise ExperimentError("heartbeat_timeout_s must be positive")
        if backoff_base_s < 0:
            raise ExperimentError("backoff_base_s must be >= 0")
        if straggler_factor <= 1.0:
            raise ExperimentError("straggler_factor must be > 1")
        self.workers = workers
        self.endpoints = tuple(endpoints)
        self.max_retries = max_retries
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_seed = backoff_seed
        self.straggler_factor = straggler_factor
        self.store_root = store_root
        self.last_fabric_stats: Dict[str, object] = {}

    def submit(self, item: WorkItem) -> TrialRecord:
        return self.map_trials([item])[0]

    def map_trials(self, items: Sequence[WorkItem]) -> List[TrialRecord]:
        if not items:
            return []
        # Imported here, not at module level: the package imports this
        # module, so a module-level import would load the worker before
        # ``python -m repro.experiments.worker`` runs it, and runpy warns
        # about (and re-executes) the doubly imported module.
        from repro.experiments.worker import (
            LocalWorkerPool,
            WorkerClient,
            launch_ssh_worker,
            parse_endpoint,
            spawn_local_workers,
        )

        pool: Optional[LocalWorkerPool] = None
        launched: List[subprocess.Popen] = []
        try:
            clients: List[WorkerClient] = []
            if self.endpoints:
                for spec in self.endpoints:
                    endpoint = parse_endpoint(spec)
                    if endpoint.scheme == "ssh":
                        launched.append(
                            launch_ssh_worker(endpoint, cache_dir=self.store_root)
                        )
                    clients.append(WorkerClient(endpoint.host, endpoint.port))
            else:
                pool = spawn_local_workers(
                    _resolve_workers(self.workers, len(items)),
                    cache_dir=self.store_root,
                )
                clients = [WorkerClient(host, port) for host, port in pool.addresses]
            return self._run(items, clients)
        finally:
            if pool is not None:
                pool.close()
            for proc in launched:
                if proc.poll() is None:
                    proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    # ------------------------------------------------------------- scheduling
    def _run(self, items: Sequence[WorkItem], clients: List) -> List[TrialRecord]:
        sweep = obs.span(
            "fabric.map_trials", trials=len(items), workers=len(clients)
        )
        with sweep:
            result = self._run_leases(items, clients)
            stats = self.last_fabric_stats
            sweep.set(
                leases=stats.get("leases", 0),
                retry_waves=stats.get("retry_waves", 0),
                salvaged=stats.get("salvaged_records", 0),
            )
        return result

    def _run_leases(
        self, items: Sequence[WorkItem], clients: List
    ) -> List[TrialRecord]:
        cost_table = self._cost_table()
        stats: Dict[str, object] = {
            "workers": len(clients),
            "leases": 0,
            "retry_waves": 0,
            "retried_trials": 0,
            "salvaged_records": 0,
            "duplicates_discarded": 0,
            "stragglers_redispatched": 0,
            "backoff_delays_s": [],
            "cost_source": "observed" if cost_table else "priors",
        }
        self.last_fabric_stats = stats
        # One deterministic jitter stream per sweep: same seed, same missing
        # sets => identical backoff delays, so chaos runs reproduce exactly.
        rng = random.Random(self.backoff_seed)
        state = [
            {"alive": True, "tainted": False, "busy_s": 0.0} for _ in clients
        ]
        lease_seq = itertools.count()
        records: Dict[int, TrialRecord] = {}
        failures: List[str] = []
        started = time.monotonic()
        for wave in range(self.max_retries + 1):
            missing = [i for i in range(len(items)) if i not in records]
            if not missing:
                break
            if wave:
                delay = (
                    self.backoff_base_s * (2 ** (wave - 1))
                    * (0.5 + rng.random())
                )
                stats["backoff_delays_s"].append(round(delay, 6))
                logger.info(
                    "fabric: retry wave %d for %d missing trial(s) after "
                    "%.3fs backoff", wave, len(missing), delay,
                )
                time.sleep(delay)
                stats["retry_waves"] += 1
                stats["retried_trials"] += len(missing)
                _FABRIC_RETRY_WAVES.inc()
                _FABRIC_RETRIED.inc(len(missing))
            failures.extend(
                self._run_wave(
                    items, missing, records, wave, clients, state, stats,
                    cost_table, lease_seq,
                )
            )
        missing = [i for i in range(len(items)) if i not in records]
        if missing:
            detail = "; ".join(failures[-4:]) if failures else "no worker output"
            raise ExperimentError(
                f"remote backend gave up on {len(missing)} trial(s) after "
                f"{self.max_retries + 1} wave(s): {detail}"
            )
        makespan = time.monotonic() - started
        stats["makespan_s"] = round(makespan, 4)
        if makespan > 0:
            idle = [
                max(0.0, 1.0 - st["busy_s"] / makespan) for st in state
            ]
            stats["max_worker_idle_fraction"] = round(max(idle), 4)
            _FABRIC_IDLE.set(stats["max_worker_idle_fraction"])
            # Total worker-busy time over makespan: how many workers the
            # scheduler kept fed *concurrently*.  Unlike wall-clock speedup
            # this measures the fabric, not the host — it stays ~fleet-sized
            # on an oversubscribed single core, and collapses toward 1 when
            # bad chunking strands workers.
            stats["scheduled_parallelism"] = round(
                sum(st["busy_s"] for st in state) / makespan, 3
            )
        stats["failures"] = failures
        logger.info(
            "fabric: %d trial(s) over %d worker(s) in %d lease(s), "
            "%d retry wave(s), %d salvaged, %d duplicate(s) discarded, "
            "makespan %.2fs",
            len(items), len(clients), stats["leases"], stats["retry_waves"],
            stats["salvaged_records"], stats["duplicates_discarded"],
            stats["makespan_s"],
        )
        return [records[i] for i in range(len(items))]

    def _run_wave(
        self,
        items: Sequence[WorkItem],
        missing: Sequence[int],
        records: Dict[int, TrialRecord],
        wave: int,
        clients: List,
        state: List[Dict[str, object]],
        stats: Dict[str, object],
        cost_table: Mapping,
        lease_seq,
    ) -> List[str]:
        """Lease the missing items out, monitor, salvage; returns failures."""
        available = self._available_workers(clients, state, probe=wave > 0)
        if not available:
            raise ExperimentError(
                "remote backend has no live workers left to lease to"
            )
        weights = [item_weight(items[i], cost_table) for i in missing]
        chunks = _weighted_chunks(weights, len(available))
        leases: List[_Lease] = []
        for chunk_no, positions in enumerate(chunks):
            leases.append(
                self._dispatch(
                    items, [missing[p] for p in positions],
                    available[chunk_no], clients, stats, lease_seq,
                )
            )
        self._monitor(items, leases, clients, state, stats, lease_seq)
        failures: List[str] = []
        for lease in leases:
            merged = 0
            for index in lease.indices:
                record = lease.records.get(index)
                if record is None:
                    continue
                if index in records:
                    # A straggler's re-dispatched trial finished twice:
                    # first finisher won, this copy is identical (the trial
                    # key determines the record) and is discarded.
                    stats["duplicates_discarded"] += 1
                    _FABRIC_DUPLICATES.inc()
                else:
                    records[index] = record
                    merged += 1
            if lease.failure is None and lease.missing:
                lease.failure = "worker returned short"
            if lease.failure:
                stats["salvaged_records"] += merged
                _FABRIC_SALVAGED.inc(merged)
                failure = (
                    f"wave {wave} {lease.lease_id} on "
                    f"{clients[lease.worker].address} "
                    f"({merged}/{len(lease.indices)} trial(s) salvaged): "
                    f"{lease.failure}"
                )
                logger.info("fabric: %s", failure)
                failures.append(failure)
        return failures

    def _available_workers(
        self, clients: List, state: List[Dict[str, object]], probe: bool
    ) -> List[int]:
        """Workers to lease to, healthy first, tainted-but-alive as fallback.

        Retry waves probe candidates up front so a worker that crashed in
        the previous wave is never leased to again; a *tainted* worker
        (one that hung a lease but still answers ``/health``) is used only
        when nothing untainted is alive — its HTTP server accepts fresh
        lease threads even while the stuck one sleeps.
        """
        if probe:
            for worker, st in enumerate(state):
                if st["alive"] and clients[worker].health() is None:
                    st["alive"] = False
        healthy = [
            w for w, st in enumerate(state)
            if st["alive"] and not st["tainted"]
        ]
        if healthy:
            return healthy
        return [w for w, st in enumerate(state) if st["alive"]]

    def _dispatch(
        self,
        items: Sequence[WorkItem],
        indices: List[int],
        worker: int,
        clients: List,
        stats: Dict[str, object],
        lease_seq,
        duplicate_of: Optional[str] = None,
    ) -> _Lease:
        from repro.experiments.worker import WORKER_SCHEMA

        lease = _Lease(f"lease-{next(lease_seq)}", worker, indices)
        lease.duplicate_of = duplicate_of
        stats["leases"] += 1
        _FABRIC_LEASES.inc()
        client = clients[worker]
        logger.debug(
            "fabric: %s -> %s (%d trial(s)%s)",
            lease.lease_id, client.address, len(indices),
            f", duplicate of {duplicate_of}" if duplicate_of else "",
        )
        obs.point(
            "fabric.lease", lease=lease.lease_id, trials=len(indices),
            worker=client.address,
        )
        payload = [items[i].to_json_dict() for i in indices]

        def run() -> None:
            stream = None
            try:
                stream = client.open_lease(lease.lease_id, payload)
                while not lease.cancel.is_set():
                    events = stream.poll(0.25)
                    for data in events:
                        if "schema" in data:
                            if data["schema"] != WORKER_SCHEMA:
                                lease.failure = (
                                    f"worker speaks {data['schema']!r}, "
                                    f"not {WORKER_SCHEMA!r}"
                                )
                                lease.cancel.set()
                            continue
                        if data.get("done"):
                            lease.completed = True
                            continue
                        try:
                            local = int(data["index"])
                            record = TrialRecord(**data["record"])
                        except (KeyError, TypeError, ValueError):
                            continue  # garbled line: neighbours stand
                        if 0 <= local < len(lease.indices):
                            lease.records[lease.indices[local]] = record
                            lease.last_progress = time.monotonic()
                    if lease.completed or stream.eof:
                        break
            except Exception as exc:  # noqa: BLE001 - any failure fails the lease
                if lease.failure is None:
                    lease.failure = f"{type(exc).__name__}: {exc}"
            finally:
                if stream is not None:
                    stream.close()
                if (
                    not lease.completed
                    and lease.failure is None
                    and not lease.cancel.is_set()
                ):
                    lease.failure = (
                        "connection ended before the done trailer "
                        "(worker died mid-chunk)"
                    )
                lease.finished_at = time.monotonic()

        lease.thread = threading.Thread(
            target=run, name=lease.lease_id, daemon=True
        )
        lease.thread.start()
        return lease

    def _monitor(
        self,
        items: Sequence[WorkItem],
        leases: List[_Lease],
        clients: List,
        state: List[Dict[str, object]],
        stats: Dict[str, object],
        lease_seq,
    ) -> None:
        """Watch a wave's leases: heartbeats, death, stragglers.

        Returns once every lease (including straggler duplicates it
        dispatched) has finished; worker busy time is accounted here for
        the idle-fraction stats.
        """
        while True:
            running = [lease for lease in leases if not lease.done]
            if not running:
                break
            now = time.monotonic()
            for lease in running:
                if now - lease.last_progress <= self.heartbeat_timeout_s:
                    continue
                # Heartbeat missed: machine dead, or lease merely stuck?
                health = clients[lease.worker].health(
                    timeout_s=min(self.heartbeat_timeout_s, 5.0)
                )
                if health is None:
                    state[lease.worker]["alive"] = False
                    lease.failure = (
                        f"no record for {self.heartbeat_timeout_s:.1f}s and "
                        "/health unreachable (worker presumed dead)"
                    )
                    _FABRIC_DEAD.inc()
                    logger.info(
                        "fabric: %s on %s missed its heartbeat; /health "
                        "probe failed — worker presumed dead, lease revoked",
                        lease.lease_id, clients[lease.worker].address,
                    )
                else:
                    state[lease.worker]["tainted"] = True
                    lease.failure = (
                        f"no record for {self.heartbeat_timeout_s:.1f}s "
                        "though /health answers (lease hung)"
                    )
                    _FABRIC_HUNG.inc()
                    logger.info(
                        "fabric: %s on %s missed its heartbeat but /health "
                        "answers — lease hung, worker tainted",
                        lease.lease_id, clients[lease.worker].address,
                    )
                lease.cancel.set()
                lease.last_progress = now  # one verdict per deadline
            self._redispatch_stragglers(
                items, leases, clients, state, stats, lease_seq
            )
            time.sleep(0.02)
        for lease in leases:
            if lease.thread is not None:
                lease.thread.join(timeout=5.0)
            end = lease.finished_at or time.monotonic()
            state[lease.worker]["busy_s"] += end - lease.started

    def _redispatch_stragglers(
        self,
        items: Sequence[WorkItem],
        leases: List[_Lease],
        clients: List,
        state: List[Dict[str, object]],
        stats: Dict[str, object],
        lease_seq,
    ) -> None:
        finished_ok = [
            lease.finished_at - lease.started
            for lease in leases
            if lease.done and lease.failure is None
        ]
        if not finished_ok:
            return
        threshold = max(
            MIN_STRAGGLER_S, self.straggler_factor * max(finished_ok)
        )
        busy = {lease.worker for lease in leases if not lease.done}
        idle = [
            worker
            for worker, st in enumerate(state)
            if st["alive"] and not st["tainted"] and worker not in busy
        ]
        now = time.monotonic()
        for lease in leases:
            if not idle:
                break
            if (
                lease.done
                or lease.redispatched
                or lease.duplicate_of is not None
                or lease.failure is not None
                or now - lease.started < threshold
            ):
                continue
            remaining = lease.missing
            if not remaining:
                continue
            # The lease is not revoked — the straggler may yet finish;
            # whichever copy of each trial lands first wins.
            duplicate = self._dispatch(
                items, remaining, idle.pop(0), clients, stats, lease_seq,
                duplicate_of=lease.lease_id,
            )
            leases.append(duplicate)
            lease.redispatched = True
            stats["stragglers_redispatched"] += 1
            _FABRIC_STRAGGLERS.inc()
            logger.info(
                "fabric: %s is straggling (%.1fs, threshold %.1fs); "
                "re-dispatched its %d remaining trial(s) as %s",
                lease.lease_id, now - lease.started, threshold,
                len(remaining), duplicate.lease_id,
            )

    def _cost_table(self) -> Dict:
        if not self.store_root:
            return {}
        from repro.experiments.cache import ResultStore

        try:
            return ResultStore(self.store_root).cost_table()
        except OSError:
            return {}


# ---------------------------------------------------------------------------
# registry entries
# ---------------------------------------------------------------------------
register_backend(
    BackendSpec(
        name="inline",
        description=(
            "Run every trial in the current process (the deterministic "
            "reference; the default for one worker)."
        ),
        factory=lambda workers, options: (
            _reject_options("inline", options), InlineBackend()
        )[1],
    )
)


def _make_remote(
    workers: Optional[int], options: Mapping[str, object]
) -> RemoteBackend:
    known = {
        "endpoints", "max_retries", "heartbeat_timeout_s", "backoff_base_s",
        "backoff_seed", "straggler_factor", "store_root",
    }
    unknown = set(options) - known
    if unknown:
        raise ExperimentError(
            f"backend 'remote' got unknown option(s) {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )
    endpoints = options.get("endpoints") or ()
    if isinstance(endpoints, str):
        endpoints = [spec for spec in endpoints.split(",") if spec.strip()]
    try:
        return RemoteBackend(
            workers=workers,
            endpoints=[str(spec) for spec in endpoints],
            max_retries=int(options.get("max_retries", DEFAULT_MAX_RETRIES)),
            heartbeat_timeout_s=float(
                options.get("heartbeat_timeout_s", DEFAULT_HEARTBEAT_TIMEOUT_S)
            ),
            backoff_base_s=float(
                options.get("backoff_base_s", DEFAULT_BACKOFF_BASE_S)
            ),
            backoff_seed=int(options.get("backoff_seed", 0)),
            straggler_factor=float(
                options.get("straggler_factor", DEFAULT_STRAGGLER_FACTOR)
            ),
            store_root=(
                str(options["store_root"]) if options.get("store_root") else None
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ExperimentError(f"bad remote option: {exc}") from exc


register_backend(
    BackendSpec(
        name="remote",
        description=(
            "Lease chunks to long-running HTTP workers (localhost pool by "
            "default, http:// or ssh:// endpoints for other machines; the "
            "default for more than one worker); "
            "heartbeat-monitored leases salvage and retry work from dead, "
            "hung, or straggling workers, all writing one shared store."
        ),
        factory=_make_remote,
    )
)

