"""Layered Choreo benchmark: one workload, one seed, one fresh process.

Usage, from the root of a checkout::

    python3 layerbench/run.py --workload eval-grid --seed 0 --seconds 25 --trace 0

``--trace 0`` times the workload's request set with tracing off and
prints every end-to-end metric; ``--trace 1`` runs the set untraced,
traced, then untraced again and prints every per-layer metric.  The last stdout line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The line before it carries the canonical output digest.  The exit code is
1 when a correctness check fails and 2 when the checkout is unusable.
README.md in this directory documents the workloads and metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Setups measured per run (this process plus fresh child interpreters);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Workload figures (PassResult.details) reported as per-layer metrics.
DETAIL_METRICS = {
    "choreo_gain": "experiments.choreo_gain",
    "probe_s_per_app": "measure.probe_s_per_app",
    "recovery_s": "service.recovery_s",
    "pairs_measured": "service.pairs_measured",
    "pairs_reused": "service.pairs_reused",
    "reuse_ratio": "service.reuse_ratio",
    "resume_s": "fabric.resume_s",
    "busy_fraction": "fabric.busy_fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure passes over the request set for this long "
                             "(at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time imports and inputs, print them as JSON, exit")
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"layerbench: {message}", file=sys.stderr)
    return 2


def setup(args):
    """Import the program and build the inputs; returns the timings too."""
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(fail(f"unknown workload {args.workload!r}; "
                              f"choose from {sorted(workloads.WORKLOADS)}"))
    workload.imports()
    imported = time.perf_counter()
    inputs = workload.build(args.seed, args.tiny)
    built = time.perf_counter()
    return workload, inputs, imported - _T0, built - imported


def child_setups(args, n: int):
    """Setup timings of ``n`` fresh interpreters (nothing imported yet)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(n):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        sample = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append((sample["import_s"], sample["inputs_s"]))
    return samples


def timed_pass(workload, inputs):
    started = time.perf_counter()
    result = workload.run_pass(inputs)
    return result, time.perf_counter() - started


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return fail(f"no program sources at {SRC}; run from a full checkout")
    from workloads import PlacementAudit
    from stats import digest, percentile

    workload, inputs, import_s, inputs_s = setup(args)
    if args.setup_only:
        workload.cleanup(inputs)
        print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}))
        return 0

    audit = PlacementAudit()
    audit.install()
    try:
        if args.trace:
            passes, metrics = traced_run(args, workload, inputs)
        else:
            passes = untraced_run(args, workload, inputs)
    finally:
        audit.uninstall()
        workload.cleanup(inputs)
    worker_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    setups = [(import_s, inputs_s)] + child_setups(args, SETUP_SAMPLES - 1)

    first = passes[0][0]
    digests = [digest(result.canonical) for result, _ in passes]
    problems = list(audit.problems)
    for result, _ in passes:
        problems.extend(result.problems)
    if len(set(digests)) != 1:
        problems.append(f"passes disagree: digests {sorted(set(digests))}")
    if not first.durations:
        problems.append("no application completed")

    if args.trace:
        metrics["startup.import_s"] = statistics.median(s[0] for s in setups)
        metrics["startup.inputs_s"] = statistics.median(s[1] for s in setups)
        metrics["fabric.worker_peak_rss_mb"] = worker_rss_mb
        for key, name in DETAIL_METRICS.items():
            metrics[name] = float(first.details.get(key, 0.0))
    else:
        metrics = {
            "setup_s": statistics.median(s[0] + s[1] for s in setups),
            "requests_per_s": request_rate(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "app_completion_p50_s": percentile(first.durations, 50) if first.durations else 0.0,
            "app_completion_p90_s": percentile(first.durations, 90) if first.durations else 0.0,
        }
    units = metric_units("per_layer" if args.trace else "end_to_end")
    attempted = sum(result.requests for result, _ in passes)
    failed = sum(result.failed for result, _ in passes)
    correct = not problems

    for problem in problems:
        print(f"layerbench: check failed: {problem}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": digests[0],
        "passes": len(passes),
        "pass_s": [wall for _, wall in passes[:10]],
        "placements_checked": audit.checked,
        "request_s": [result.request_wall_s for result, _ in passes[:10]],
        "details": first.details,
        "worker_peak_rss_mb": worker_rss_mb,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }))
    return 0 if correct else 1


def request_rate(passes) -> float:
    """Requests per wall second of the median pass."""
    return statistics.median(result.requests / result.request_wall_s for result, _ in passes)


def untraced_run(args, workload, inputs):
    """Closed loop over the request set until ``--seconds`` are spent.

    Every pass is timed, and throughput is the median pass
    (:func:`request_rate`).  Every pass must also repeat the outputs.
    """
    started = time.perf_counter()
    passes = []
    while True:
        result, wall = timed_pass(workload, inputs)
        passes.append((result, wall))
        elapsed = time.perf_counter() - started
        if elapsed + wall > args.seconds:
            return passes


def traced_run(args, workload, inputs):
    """Untraced, traced, untraced: the traced pass is compared with the
    second untraced one, so both pay the same first-call costs."""
    import layers
    from repro import obs

    warmup = timed_pass(workload, inputs)
    recorder = layers.SpanRecorder()
    before = obs.metrics.snapshot()
    uninstall = layers.install(recorder)
    try:
        # Inputs are rebuilt under the wrappers so set-up work is traced too.
        traced_inputs = workload.build(args.seed, args.tiny)
        try:
            traced = timed_pass(workload, traced_inputs)
            after = obs.metrics.snapshot()
        finally:
            workload.cleanup(traced_inputs)
    finally:
        uninstall()
    untraced = timed_pass(workload, inputs)
    events = recorder.events
    metrics = layers.layer_metrics(events, recorder.allocators, before, after)
    metrics["obs.trace_overhead"] = traced[1] / untraced[1] - 1.0
    from workloads import scratch_dir

    recorder.write(
        os.path.join(scratch_dir(), f"trace-{args.workload}-{args.seed}.jsonl"), events)
    return [warmup, traced, untraced], metrics


def metric_units(group: str):
    """Unit of every metric of ``group`` in BENCHMARK.json, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec[group]}


if __name__ == "__main__":
    sys.exit(main())
