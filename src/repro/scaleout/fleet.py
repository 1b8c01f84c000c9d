"""Horizontal job-worker fleet: N forked claimers over one JobStore.

``python -m repro.jobs.worker --state-dir D --processes N`` lands
here.  The lease protocol already makes competing claimers safe — each
``BEGIN IMMEDIATE`` lease transaction has exactly one winner — so the
fleet is deliberately thin: fork N children and let them race for
jobs.  Throughput scales with the number of *jobs*, not chunks: a
lease covers a whole job, so a fleet drains a backlog of J jobs up to
``min(N, J)``-wide.

The :class:`~repro.jobs.worker.Worker` and its store are constructed
**before** forking — exactly the pattern the fork-safety fixes exist
for, exercised on purpose: every child reopens its own sqlite
connection (pid-stamped, see ``JobStore._connection``) and claims
leases under a pid-stamped identity (``base@pid``), so pre-fork
identities can never collide across children.
"""

from __future__ import annotations

import os
import threading
import traceback
import uuid
from pathlib import Path
from typing import List, Optional, Union

from ..jobs.store import JobStore
from ..jobs.worker import Worker
from .procutil import (
    hold_stop_signals,
    release_stop_signals,
    require_single_thread,
    supervise,
)

__all__ = ["run_fleet"]


def run_fleet(state_dir: Union[str, Path], *, processes: int,
              worker_id: Optional[str] = None, lease_ttl: float = 30.0,
              poll_interval: float = 0.2, once: bool = False,
              fault_profile: Optional[str] = None) -> int:
    """Blocking fleet supervisor; returns 0 when every worker exited 0.

    SIGTERM/SIGINT drain the whole fleet: each child finishes and
    checkpoints its current chunk, releases its lease and exits.
    ``once=True`` lets each child exit as soon as it finds no
    claimable job (batch drain for benchmarks and CI).
    """
    if processes <= 0:
        raise ValueError(f"processes must be positive, got {processes}")
    from ..resilience.faultinject import (
        FaultInjector,
        faulty_execute_chunk,
        faulty_store,
        injector_from_env,
        load_profile,
    )

    store = JobStore(state_dir)
    execute_chunk = None
    if fault_profile:
        injector = FaultInjector(load_profile(fault_profile))
    else:
        injector = injector_from_env()
    if injector is not None:
        store = faulty_store(state_dir, injector)
        execute_chunk = faulty_execute_chunk(injector)
    base_id = worker_id or f"fleet-{uuid.uuid4().hex[:6]}"
    worker = Worker(
        store,
        worker_id=base_id,
        lease_ttl=lease_ttl,
        poll_interval=poll_interval,
        execute_chunk=execute_chunk,
    )
    print(f"job fleet {base_id}: {processes} workers on {state_dir}",
          flush=True)
    if injector is not None:
        print(f"FAULT INJECTION ACTIVE: profile "
              f"{injector.profile.name!r} "
              f"(seed {injector.profile.seed})", flush=True)
    # Import the chunk executors' heavy dependencies (the experiment
    # engine and registry, numpy) once, here: forked children then share
    # them instead of each importing them on its first job.
    from ..experiments import engine  # noqa: F401

    pids: List[int] = []
    hold_stop_signals()  # released once each process has its handlers
    for _ in range(processes):
        require_single_thread()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = _fleet_child(worker, state_dir, once=once)
            except BaseException:  # noqa: BLE001 - child boundary
                traceback.print_exc()
            finally:
                os._exit(code)
        pids.append(pid)
    _, clean = supervise(pids, exit_expected=once)
    print(f"job fleet {base_id} stopped", flush=True)
    return 0 if clean else 1


def _fleet_child(worker: Worker, state_dir: Union[str, Path], *,
                 once: bool) -> int:
    import signal

    stop = threading.Event()

    def request_stop(signum, frame) -> None:
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, request_stop)
    release_stop_signals()
    # worker.worker_id is pid-stamped here: this child's leases are
    # owned by "<base>@<pid>", distinct from every sibling's.
    print(f"fleet worker {worker.worker_id} polling {state_dir}",
          flush=True)
    worker.run_forever(stop, once=once)
    print(f"fleet worker {worker.worker_id} stopped", flush=True)
    return 0
