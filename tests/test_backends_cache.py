"""Execution backends and the persistent content-addressed result store:
registry behaviour, cross-backend equivalence, cache hits/invalidation, the
trace-replay scenario, and the dropped-trials summary accounting."""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
    ResultStore,
    TrialRecord,
    WorkItem,
    backend_names,
    code_version,
    create_backend,
    get_backend,
    get_scenario,
    run_trial,
    tree_digest,
)
from repro.experiments.backends import RemoteBackend
from repro.experiments.cache import CacheKey
from repro.experiments.cli import main as cli_main

from chaos_worker import spawn_chaos_workers

ALL_BACKENDS = ("inline", "remote")


def _small_config(**overrides):
    defaults = dict(
        scenarios=("smoke",),
        placers=("greedy", "random"),
        trials=2,
        baseline="random",
        workers=2,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------- registry
def test_backend_registry_lists_all_backends():
    assert backend_names() == list(ALL_BACKENDS)
    for name in ALL_BACKENDS:
        assert get_backend(name).description
    with pytest.raises(ExperimentError):
        create_backend("inline", options={"max_retries": 1})


def test_unknown_backend_rejected_eagerly():
    with pytest.raises(ExperimentError):
        ExperimentConfig(scenarios=("smoke",), backend="carrier-pigeon")


def test_removed_backends_fail_naming_their_replacement(tmp_path, capsys):
    from repro.cli import main as repro_main

    for name in ("process", "subprocess-pool"):
        with pytest.raises(ExperimentError, match="removed.*'remote'.*'inline'"):
            ExperimentConfig(scenarios=("smoke",), backend=name)
        with pytest.raises(ExperimentError, match="'remote'"):
            create_backend(name)

    code = repro_main(
        ["experiments", "run", "--scenario", "smoke", "--trials", "1",
         "--backend", "process", "--output", str(tmp_path / "r.json")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "backend 'process' was removed" in err and "'remote'" in err
    assert not (tmp_path / "r.json").exists()


def test_backend_default_preserves_historical_behaviour():
    """One worker runs inline; more (or auto) go to the remote fabric."""
    assert _small_config(workers=1).effective_backend == "inline"
    assert _small_config(workers=2).effective_backend == "remote"
    assert _small_config(workers=None).effective_backend == "remote"
    assert _small_config(workers=4, backend="inline").effective_backend == "inline"
    assert _small_config(workers=1).backend_options == {}


# ------------------------------------------------------------- equivalence
def test_all_backends_produce_bit_identical_canonical_results():
    outputs = {}
    for name in ALL_BACKENDS:
        result = ExperimentRunner(_small_config(backend=name)).run()
        outputs[name] = json.dumps(result.canonical_json_dict(), sort_keys=True)
    assert outputs["inline"] == outputs["remote"]


def test_backend_map_trials_preserves_input_order():
    items = [
        WorkItem.make("smoke", placer, trial, 0)
        for placer in ("random", "round-robin")
        for trial in (1, 0)
    ]
    records = create_backend("remote", workers=2).map_trials(items)
    assert [(rec.placer, rec.trial) for rec in records] == [
        (item.placer, item.trial) for item in items
    ]


def test_subprocess_worker_failure_surfaces_as_experiment_error(monkeypatch):
    import sys

    backend = RemoteBackend(workers=1)
    monkeypatch.setattr(sys, "executable", "/nonexistent-python")
    with pytest.raises((ExperimentError, OSError)):
        backend.map_trials([WorkItem.make("smoke", "random", 0, 0)])


def test_work_item_json_round_trip():
    item = WorkItem.make("smoke", "greedy", 3, 7, params={"n_vms": 6})
    assert WorkItem.from_json_dict(item.to_json_dict()) == item
    assert item.seed == run_trial("smoke", "greedy", 3, 7, {"n_vms": 6}).seed


# -------------------------------------------------------------------- cache
def test_store_round_trips_records_and_counts_stats(tmp_path):
    store = ResultStore(tmp_path, version="v1")
    key = store.key_for("smoke", "random", 0, 42, params={"n_vms": 4})
    assert store.get(key) is None
    record = run_trial("smoke", "random", 0, 0)
    store.put(key, record)
    assert store.get(key) == record
    assert len(store) == 1
    assert store.stats == {"hits": 1, "misses": 1, "stored": 1, "invalidated": 0}


def test_cache_key_digest_covers_every_component():
    base = dict(scenario="s", placer="p", trial=0, seed=1, version="v")
    digest = CacheKey.make(**base).digest()
    for change in (
        dict(scenario="s2"), dict(placer="p2"), dict(trial=1), dict(seed=2),
        dict(version="v2"), dict(params={"k": 1}),
    ):
        assert CacheKey.make(**{**base, **change}).digest() != digest


def test_code_version_change_invalidates_store(tmp_path):
    old = ResultStore(tmp_path, version="code-a")
    key = old.key_for("smoke", "random", 0, 42)
    old.put(key, run_trial("smoke", "random", 0, 0))

    new = ResultStore(tmp_path, version="code-b")
    assert new.get(new.key_for("smoke", "random", 0, 42)) is None
    assert len(new) == 0  # the old cell is invisible under the new version
    assert new.prune_stale() == 1  # ...and reclaimable
    assert len(old) == 0


def test_corrupt_cell_is_dropped_and_re_missed(tmp_path):
    store = ResultStore(tmp_path, version="v1")
    key = store.key_for("smoke", "random", 0, 42)
    path = store.put(key, run_trial("smoke", "random", 0, 0))
    path.write_text("{not json")
    assert store.get(key) is None
    assert store.stats["invalidated"] == 1
    assert not path.exists()


def test_malformed_record_dict_is_a_miss_not_an_error(tmp_path):
    store = ResultStore(tmp_path, version="v1")
    key = store.key_for("smoke", "random", 0, 42)
    path = store.put(key, run_trial("smoke", "random", 0, 0))
    payload = json.loads(path.read_text())
    payload["record"]["not_a_field"] = 1
    path.write_text(json.dumps(payload))
    assert store.get(key) is None  # treated as corruption, not fatal
    assert store.stats["invalidated"] == 1
    assert not path.exists()


def test_prune_stale_survives_interrupted_write_droppings(tmp_path):
    old = ResultStore(tmp_path, version="code-a")
    old.put(old.key_for("smoke", "random", 0, 42), run_trial("smoke", "random", 0, 0))
    # A put() killed between mkstemp and os.replace leaves a .tmp behind.
    stale_dir = tmp_path / "code-a"[:16]
    next(stale_dir.rglob("*.json")).parent.joinpath("dead.tmp").write_text("x")
    new = ResultStore(tmp_path, version="code-b")
    assert new.prune_stale() == 1
    assert not stale_dir.exists()


def test_code_version_is_stable_and_tracks_source_changes(tmp_path):
    assert code_version() == code_version()
    (tmp_path / "mod.py").write_text("x = 1\n")
    before = tree_digest(tmp_path)
    assert before == tree_digest(tmp_path)
    (tmp_path / "mod.py").write_text("x = 2\n")
    assert tree_digest(tmp_path) != before
    (tmp_path / "notes.txt").write_text("not source")
    assert tree_digest(tmp_path) == tree_digest(tmp_path)


def test_store_lookup_never_globs_and_counts_cold_misses(tmp_path, monkeypatch):
    """The runner tests the store with ``is not None``: truthiness would
    call ``ResultStore.__len__`` (a glob of the whole store) once per
    cell, and an empty store would be falsy, so cold sweeps skipped the
    lookup and never counted their misses."""
    len_calls = []
    real_len = ResultStore.__len__
    monkeypatch.setattr(
        ResultStore, "__len__",
        lambda self: len_calls.append(1) or real_len(self),
    )
    config = _small_config(workers=1, cache_dir=str(tmp_path))
    cold = ExperimentRunner(config)
    cold.run()
    assert cold.store.stats["misses"] == 4  # one per unique cell
    assert cold.store.stats["hits"] == 0

    warm = ExperimentRunner(config)
    warm.run()
    assert warm.last_stats.cache_hits == 4
    assert warm.store.stats == {
        "hits": 4, "misses": 0, "stored": 0, "invalidated": 0,
    }
    assert len_calls == []


def test_warm_run_executes_zero_trials_and_matches_cold(tmp_path):
    config = _small_config(workers=1, cache_dir=str(tmp_path))
    cold_runner = ExperimentRunner(config)
    cold = cold_runner.run()
    assert cold_runner.last_stats.executed == 4
    assert cold_runner.last_stats.cache_hits == 0

    warm_runner = ExperimentRunner(config)
    warm = warm_runner.run()
    assert warm_runner.last_stats.executed == 0
    assert warm_runner.last_stats.cache_hits == 4
    # Cached records carry the cold run's timings, so the full (not just
    # canonical) JSON is bit-identical.
    assert json.dumps(cold.to_json_dict(), sort_keys=True) == json.dumps(
        warm.to_json_dict(), sort_keys=True
    )


def test_grown_grid_only_executes_new_cells(tmp_path):
    small = _small_config(workers=1, trials=1, cache_dir=str(tmp_path))
    ExperimentRunner(small).run()
    grown = _small_config(workers=1, trials=2, cache_dir=str(tmp_path))
    runner = ExperimentRunner(grown)
    runner.run()
    assert runner.last_stats.cache_hits == 2  # trial 0 of both placers
    assert runner.last_stats.executed == 2  # only the new trial-1 cells


def test_error_records_are_cached_too(tmp_path):
    config = ExperimentConfig(
        scenarios=("smoke",), placers=("random",), trials=1, baseline="random",
        cache_dir=str(tmp_path), scenario_params={"smoke": {"n_vms": 1}},
    )
    first = ExperimentRunner(config)
    result = first.run()
    assert all(not rec.ok for rec in result.records)
    second = ExperimentRunner(config)
    rerun = second.run()
    assert second.last_stats.executed == 0
    assert [rec.error for rec in rerun.records] == [
        rec.error for rec in result.records
    ]


# ---------------------------------------------------------------------- CLI
def test_cli_run_reports_cache_resume(tmp_path, capsys):
    out = tmp_path / "results.json"
    args = [
        "run", "--scenario", "smoke", "--trials", "2", "--placers", "random",
        "--cache-dir", str(tmp_path / "store"), "--output", str(out),
    ]
    assert cli_main(args) == 0
    assert "executed 2 trial(s)" in capsys.readouterr().out
    assert cli_main(args) == 0
    assert "executed 0 trial(s)" in capsys.readouterr().out


def test_cli_no_cache_forces_execution(tmp_path, capsys):
    out = tmp_path / "results.json"
    args = [
        "run", "--scenario", "smoke", "--trials", "1", "--placers", "random",
        "--cache-dir", str(tmp_path / "store"), "--output", str(out),
    ]
    assert cli_main(args) == 0
    capsys.readouterr()
    assert cli_main(args + ["--no-cache"]) == 0
    assert "executed 1 trial(s)" in capsys.readouterr().out


def test_cli_run_accepts_explicit_backend(tmp_path, capsys):
    out = tmp_path / "results.json"
    code = cli_main(
        ["run", "--scenario", "smoke", "--trials", "1", "--placers", "random",
         "--backend", "remote", "--workers", "2", "--output", str(out)]
    )
    assert code == 0
    assert "backend remote" in capsys.readouterr().out
    assert json.loads(out.read_text())["records"]


def test_config_rejects_non_scalar_param_values():
    with pytest.raises(ExperimentError):
        ExperimentConfig(
            scenarios=("smoke",),
            scenario_params={"smoke": {"n_vms": (4, 6)}},
        )


def test_sweep_resume_bench_is_opt_in():
    from repro.bench.benchmarks import DEFAULT_SUITE, run_benchmarks

    assert "sweep_resume" not in DEFAULT_SUITE
    payload = run_benchmarks(quick=True, only=["sweep_resume"])
    assert payload["all_matched"]
    bench = payload["benches"]["sweep_resume"]
    assert bench["warm_executed"] == 0
    assert payload["targets"]["resume_speedup_min"] == 5.0
    assert "allocator_speedup" not in payload["targets"]


def test_cli_list_names_backends(capsys):
    assert cli_main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["backends"] == list(ALL_BACKENDS)


# ---------------------------------------------------- trace-replay scenario
def test_trace_replay_scenario_profiles_apps_from_records():
    spec = get_scenario("ec2-trace-replay")
    first = spec.build(seed=11)
    second = spec.build(seed=11)
    assert first.mode == "sequence"
    assert len(first.apps) == 3
    # Profiling from records preserves the ground-truth traffic exactly
    # (record byte shares sum back to the matrix entries)...
    assert [app.traffic.total_bytes for app in first.apps] == pytest.approx(
        [app.traffic.total_bytes for app in second.apps]
    )
    # ...and the builder is seed-reproducible.
    assert [app.transfers() for app in first.apps] == [
        app.transfers() for app in second.apps
    ]
    assert all(app.total_cpu > 0 for app in first.apps)


def test_trace_replay_trial_runs_through_measure_and_place():
    record = run_trial(
        "ec2-trace-replay", "greedy", 0, 0,
        {"n_vms": 8, "n_apps": 2, "records_per_pair": 3},
    )
    assert record.ok, record.error
    assert record.measurement_overhead_s > 0  # greedy measured the network
    assert record.total_running_time_s > 0


# -------------------------------------------------- dropped-trials summary
def test_summary_surfaces_dropped_trials():
    def rec(placer, trial, total):
        return TrialRecord(
            scenario="s", placer=placer, trial=trial, seed=trial,
            total_running_time_s=total,
        )

    result = ExperimentResult(
        scenarios=["s"], placers=["round-robin", "random"], trials=3,
        base_seed=0, baseline="random",
        records=[
            rec("random", 0, 0.0), rec("round-robin", 0, 2.0),  # -inf: dropped
            rec("random", 1, 2.0), rec("round-robin", 1, 1.0),  # kept
            rec("round-robin", 2, 1.0),  # baseline missing: dropped
        ],
    )
    cell = result.summary()["s"]["round-robin"]
    assert cell["dropped_trials"] == 2
    assert cell["trials_ok"] == 3
    assert "dropped_trials" not in result.summary()["s"]["random"]

    clean = ExperimentResult(
        scenarios=["s"], placers=["round-robin", "random"], trials=1,
        base_seed=0, baseline="random",
        records=[rec("random", 0, 2.0), rec("round-robin", 0, 1.0)],
    )
    assert clean.summary()["s"]["round-robin"]["dropped_trials"] == 0


# ------------------------------------------------------- worker-loss chaos
def _chaos_items(n=6):
    return [WorkItem.make("smoke", "random", trial, 0) for trial in range(n)]


def _canonical(records):
    return json.dumps(
        [
            {
                k: v
                for k, v in vars(rec).items()
                if k not in ("trial_wall_s", "placement_wall_s")
            }
            for rec in records
        ],
        sort_keys=True,
    )


def test_chaos_crashed_worker_is_salvaged_and_result_is_bit_identical(tmp_path):
    items = _chaos_items()
    expected = create_backend("inline").map_trials(items)

    with spawn_chaos_workers(2, tmp_path, "crash") as pool:
        backend = RemoteBackend(
            endpoints=pool.endpoints, max_retries=2, backoff_base_s=0.05
        )
        records = backend.map_trials(items)
    assert (tmp_path / "chaos-fired").exists(), "chaos hook never armed"
    assert _canonical(records) == _canonical(expected)
    stats = backend.last_fabric_stats
    assert stats["salvaged_records"] >= 1
    assert stats["retried_trials"] < len(items), "salvage was thrown away"


def test_chaos_hung_worker_is_killed_and_work_retried(tmp_path):
    """A lone worker hangs its lease: the heartbeat revokes it, and the
    retry wave falls back to the same (tainted but alive) worker."""
    items = _chaos_items(2)
    expected = create_backend("inline").map_trials(items)

    with spawn_chaos_workers(1, tmp_path, "hang") as pool:
        backend = RemoteBackend(
            endpoints=pool.endpoints, max_retries=1,
            heartbeat_timeout_s=2.0, backoff_base_s=0.05,
        )
        records = backend.map_trials(items)
    assert (tmp_path / "chaos-fired").exists(), "chaos hook never armed"
    assert _canonical(records) == _canonical(expected)
    stats = backend.last_fabric_stats
    assert stats["retry_waves"] == 1 and stats["salvaged_records"] == 1
    assert any("hung" in failure for failure in stats["failures"])


def test_chaos_crash_with_no_retry_budget_raises(tmp_path):
    with spawn_chaos_workers(1, tmp_path, "crash") as pool:
        backend = RemoteBackend(endpoints=pool.endpoints, max_retries=0)
        with pytest.raises(ExperimentError, match="gave up"):
            backend.map_trials(_chaos_items(2))


# ------------------------------------------------------ keep-going trials
def test_keep_going_captures_crashing_trial(monkeypatch):
    import repro.experiments.trials as trials_mod

    def boom(name):
        raise RuntimeError("synthetic bug")

    monkeypatch.setattr(trials_mod, "get_scenario", boom)
    record = run_trial("smoke", "random", 0, 0)
    assert record.status == "error"
    assert "RuntimeError: synthetic bug" in record.error

    with pytest.raises(RuntimeError):
        run_trial("smoke", "random", 0, 0, fail_fast=True)


def test_fail_fast_rides_the_work_item_wire_format():
    item = WorkItem.make("smoke", "random", 0, 0, fail_fast=True)
    assert WorkItem.from_json_dict(item.to_json_dict()) == item
    # Error policy must not split the cache: items differing only in
    # fail_fast share a persistent-store key.
    store_fields = (item.scenario, item.placer, item.trial, item.seed)
    other = WorkItem.make("smoke", "random", 0, 0, fail_fast=False)
    assert store_fields == (other.scenario, other.placer, other.trial, other.seed)


def test_result_json_carries_top_level_dropped_trials():
    records = [
        TrialRecord(scenario="s", placer="random", trial=0, seed=1),
        TrialRecord(
            scenario="s", placer="random", trial=1, seed=2,
            status="error", error="RuntimeError: synthetic",
        ),
    ]
    result = ExperimentResult(
        scenarios=["s"], placers=["random"], trials=2,
        base_seed=0, baseline="random", records=records,
    )
    payload = result.to_json_dict()
    assert payload["dropped_trials"] == [
        {"scenario": "s", "placer": "random", "trial": 1,
         "error": "RuntimeError: synthetic"}
    ]
    assert result.canonical_json_dict()["dropped_trials"] == payload["dropped_trials"]
