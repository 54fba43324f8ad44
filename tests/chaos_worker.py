"""Chaos worker: a remote-fabric worker that misbehaves on cue (tests only).

Run as a script, it patches the lease handler of
:mod:`repro.experiments.worker` in its own process, then serves leases
through the unmodified ``repro.experiments.worker.main``::

    python tests/chaos_worker.py --chaos-dir DIR --chaos-mode crash,hang \\
        --serve --port 0

Every argument it does not know goes to the worker.  A misbehaving lease
streams its first record, then:

* ``crash`` — the whole process exits hard (status :data:`CRASH_STATUS`),
  so the scheduler sees the connection die mid-chunk;
* ``hang`` — the lease stops streaming while the process lives on, so the
  scheduler's heartbeat deadline must catch it;
* ``slow`` — every further trial is dragged by :data:`SLOW_S` (straggler).

Each mode fires exactly once per chaos dir: a lease arms mode ``k`` only
if it wins the atomic creation of that mode's marker file (``chaos-fired``
for the first mode, ``chaos-fired-<k>`` after it).  However many workers
share the dir, one lease per mode misbehaves and every other lease,
retry waves included, runs clean — so a test knows exactly what is lost
even though process scheduling is not deterministic.

Tests start these workers with :func:`spawn_chaos_workers` and hand their
``http://`` endpoints to the ``remote`` backend.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from typing import List, Optional, Sequence

#: Exit status of a crashed chaos worker (distinct from argparse's 2).
CRASH_STATUS = 17

#: Per-trial drag of a slowed lease.
SLOW_S = 0.4

MODES = ("crash", "hang", "slow")


def arm(chaos_dir: str, modes: Sequence[str]) -> Optional[str]:
    """The mode this lease plays, or ``None`` when every marker is taken."""
    for k, mode in enumerate(modes):
        marker = "chaos-fired" if k == 0 else f"chaos-fired-{k}"
        try:
            fd = os.open(
                os.path.join(chaos_dir, marker),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except OSError:
            continue
        os.close(fd)
        return mode
    return None


def install(chaos_dir: str, modes: Sequence[str]) -> None:
    """Patch the worker's lease handler in this process."""
    from repro.experiments import worker

    handler = worker._LeaseHandler
    stream_lease = handler._stream_lease
    send_line = handler._send_line

    def chaotic_stream_lease(self, lease_id, items):
        self.chaos_mode = arm(chaos_dir, modes)
        stream_lease(self, lease_id, items)

    def chaotic_send_line(self, obj):
        send_line(self, obj)
        mode = getattr(self, "chaos_mode", None)
        if mode is None or "record" not in obj:
            return
        if mode == "crash":
            os._exit(CRASH_STATUS)
        elif mode == "hang":
            time.sleep(3600)
        elif mode == "slow":
            time.sleep(SLOW_S)

    handler._stream_lease = chaotic_stream_lease
    handler._send_line = chaotic_send_line


def spawn_chaos_workers(
    n: int,
    chaos_dir,
    mode: str,
    cache_dir: Optional[str] = None,
):
    """Start ``n`` chaos workers on OS-assigned localhost ports.

    Returns a :class:`~repro.experiments.worker.LocalWorkerPool`; pass its
    ``endpoints`` to the ``remote`` backend and close it afterwards.
    """
    from repro.experiments import worker

    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--chaos-dir", str(chaos_dir), "--chaos-mode", mode,
        "--serve", "--host", "127.0.0.1", "--port", "0",
    ]
    if cache_dir:
        cmd += ["--cache-dir", str(cache_dir)]
    procs: List[subprocess.Popen] = []
    try:
        env = worker._worker_env()
        for _ in range(n):
            procs.append(
                subprocess.Popen(
                    cmd, env=env, text=True,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                )
            )
        addresses = [worker._await_listening(proc) for proc in procs]
    except BaseException:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        raise
    return worker.LocalWorkerPool(procs, addresses)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="remote-fabric worker with a chaos hook (tests only)"
    )
    parser.add_argument("--chaos-dir", required=True, metavar="DIR")
    parser.add_argument(
        "--chaos-mode", required=True, metavar="MODE[,MODE...]",
        help=f"comma-separated modes from {', '.join(MODES)}",
    )
    args, worker_argv = parser.parse_known_args(argv)
    modes = [m.strip() for m in args.chaos_mode.split(",") if m.strip()]
    unknown = [m for m in modes if m not in MODES]
    if not modes or unknown:
        parser.error(f"bad --chaos-mode {args.chaos_mode!r}; modes: {MODES}")
    install(args.chaos_dir, modes)
    from repro.experiments import worker

    return worker.main(worker_argv)


if __name__ == "__main__":
    sys.exit(main())
