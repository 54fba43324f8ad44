"""Tests of the benchmark's own logic.

Run from the repository root::

    python -m pytest layerbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import workloads  # noqa: E402
from stats import digest, percentile  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _span(name, span, parent, dur, **attrs):
    return {"ev": "span", "name": name, "span": span, "parent": parent,
            "ts": 0.0, "dur": dur, "pid": 1, "tid": 1, "attrs": attrs}


def test_self_time_on_hand_built_tree_with_orphan():
    events = [
        _span("fluid.run", "1-1", None, 1.0, vector=True),
        _span("alloc.solve", "1-2", "1-1", 0.3, vector=True),
        _span("route", "1-3", "1-2", 0.1),
        # The parent of this span never completed (a truncated trace): it
        # is its own root, and nothing is subtracted for it.
        _span("alloc.solve", "1-4", "1-99", 0.2),
        _span("fluid.run", "1-5", None, 0.5),
    ]
    metrics = layers.layer_metrics(events, [], {}, {})
    assert metrics["fluid.runs"] == 2
    assert metrics["fluid.busy_s"] == pytest.approx(1.5)
    assert metrics["fluid.self_s"] == pytest.approx(1.2)
    assert metrics["fluid.vector_share"] == pytest.approx(1.0 / 1.5)
    assert metrics["alloc.busy_s"] == pytest.approx(0.5)
    assert metrics["alloc.vector_share"] == pytest.approx(0.3 / 0.5)
    assert metrics["route.calls"] == 1
    assert metrics["place.ilp.calls"] == 0


def test_recorder_nests_spans_and_marks_the_enclosing_one():
    recorder = layers.SpanRecorder()
    inner = recorder.wrap("alloc.solve", lambda: "x")
    vector = recorder.mark("vector", lambda: inner())
    outer = recorder.wrap("fluid.run", lambda: vector())
    assert outer() == "x"
    child, parent = recorder.events
    assert (child["name"], parent["name"]) == ("alloc.solve", "fluid.run")
    assert child["parent"] == parent["span"] and parent["parent"] is None
    assert parent["attrs"] == {"vector": True} and child["attrs"] == {}


def test_percentile_helper():
    values = [float(v) for v in range(1, 11)]
    assert percentile(values, 50) == pytest.approx(5.5)
    assert percentile(values, 90) == pytest.approx(9.1)
    assert percentile([4.0], 90) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(values, 99.5)


def test_choreo_gain_pairs_trials_and_pools_scenarios():
    from repro.experiments.results import ExperimentResult, TrialRecord

    def rec(scenario, placer, trial, total, status="ok"):
        return TrialRecord(scenario=scenario, placer=placer, trial=trial, seed=trial,
                           status=status, total_running_time_s=total)

    result = ExperimentResult(
        scenarios=["a", "b"], placers=["greedy", "random"], trials=2,
        base_seed=0, baseline="random",
        records=[
            rec("a", "greedy", 0, 5.0), rec("a", "random", 0, 10.0),
            rec("a", "greedy", 1, 9.0), rec("a", "random", 1, 6.0),
            # Unpaired: the baseline of this trial errored.
            rec("b", "greedy", 0, 1.0), rec("b", "random", 0, 0.0, status="error"),
            rec("b", "greedy", 1, 3.0), rec("b", "random", 1, 4.0),
        ],
    )
    # Pairs: 0.5 and -0.5 from "a", 0.25 from "b"; the median is 0.25.
    assert workloads.choreo_gain([result]) == pytest.approx(0.25)
    assert workloads.choreo_gain([]) is None


def test_request_rate_is_the_median_pass():
    import run

    def passes(*walls):
        return [(workloads.PassResult(requests=10, failed=0, durations=[], canonical=None,
                                      request_wall_s=wall), wall) for wall in walls]

    assert run.request_rate(passes(4.0)) == 2.5
    assert run.request_rate(passes(5.0, 1.0, 2.0)) == 5.0


def test_digest_helper():
    assert digest({"b": 1.0, "a": [2]}) == digest({"a": [2], "b": 1.0})
    assert digest({"a": 0.1}) != digest({"a": math.nextafter(0.1, 1.0)})


def test_forced_error_trial_counts_as_failed():
    from repro.experiments.runner import ExperimentConfig, ExperimentRunner

    config = ExperimentConfig(
        scenarios=("smoke",), placers=("greedy", "random"), trials=2,
        backend="inline", scenario_params={"smoke": {"n_vms": 1}},
    )
    result = ExperimentRunner(config).run()
    ok = ExperimentRunner(
        ExperimentConfig(scenarios=("smoke",), placers=("greedy", "random"),
                         trials=2, backend="inline")
    ).run()
    summary = workloads._grid_summary([result, ok], ("greedy",))
    assert summary["requests"] == 8
    assert summary["failed"] == 4
    assert summary["problems"] == []
    assert len(summary["durations"]) == 2


def test_placement_audit_flags_overcommit_and_foreign_machines():
    from repro.core.placement.base import ClusterState, Machine, Placement
    from repro.workloads.application import Application, Task, TrafficMatrix

    app = Application(
        name="app", tasks=[Task("t0", 3.0), Task("t1", 2.0)], traffic=TrafficMatrix()
    )
    cluster = ClusterState(machines=[Machine("m0", 4.0), Machine("m1", 4.0)],
                           cpu_used={"m1": 1.0})
    audit = workloads.PlacementAudit()
    audit.check(object(), app, cluster, Placement("app", {"t0": "m0", "t1": "m1"}))
    assert audit.problems == []
    audit.check(object(), app, cluster, Placement("app", {"t0": "m1", "t1": "m1"}))
    audit.check(object(), app, cluster, Placement("app", {"t0": "m0", "t1": "vm9"}))
    audit.check(object(), app, cluster, Placement("app", {"t0": "m0"}))
    assert len(audit.problems) == 3
    assert audit.checked == 4


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("layerbench", "run.py")] + args,
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace):
    out = _run(["--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", trace, "--tiny"])
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    group = "per_layer" if trace == "1" else "end_to_end"
    expected = {entry["name"]: entry["unit"] for entry in _spec()[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and metric["value"] == metric["value"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert lines[-2].startswith("detail ")
    assert len(json.loads(lines[-2][len("detail "):])["digest"]) == 64


def test_digest_repeats_at_a_fixed_seed():
    digests = set()
    for _ in range(2):
        out = _run(["--workload", "service-churn", "--seed", "4", "--seconds", "0",
                    "--trace", "0", "--tiny"])
        assert out.returncode == 0, out.stderr
        digests.add(json.loads(out.stdout.splitlines()[-2][len("detail "):])["digest"])
    assert len(digests) == 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run(["--workload", "eval-grid", "--seed", "0", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path)
    assert out.returncode not in (0, None)
    assert out.stdout.strip() == ""
