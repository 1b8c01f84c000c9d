"""In-process orchestration: a worker-thread pool over one job store.

The service embeds a :class:`JobManager`: submissions from
``POST /v1/jobs`` land in the durable store, a small pool of
:class:`~repro.jobs.worker.Worker` threads drains it, and the
manager's :meth:`stats` feed ``/healthz`` (queue depth, worker
liveness) and the ``jobs_*`` metric families.

Idle workers wake on submit: :meth:`JobManager.submit` wakes one of
them right after the store commits, so a job starts without waiting
out a store poll.  The poll stays as the fallback for what no submit
announces: a retry's backoff gate opening, an expired lease, a job
submitted by another process.

``stop()`` is the SIGTERM-drain half of the contract: it sets the
shared stop event, each worker finishes (and checkpoints) its current
chunk, releases its lease, and the threads join — so a restart resumes
every in-flight job from its last checkpoint with no chunk executed
twice.  External ``python -m repro.jobs.worker`` processes pointed at
the same ``--state-dir`` cooperate transparently through the store's
lease protocol; the manager never needs to know they exist.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from . import executor
from .spec import DEFAULT_MAX_ATTEMPTS, JobSpec
from .store import JobRecord
from .worker import SubmitSignal, Worker

__all__ = ["JobManager"]


class JobManager:
    """Durable store + N daemon worker threads, as one lifecycle unit."""

    def __init__(
        self,
        state_dir: Union[str, Path],
        *,
        workers: int = 2,
        lease_ttl: float = 30.0,
        poll_interval: float = 0.1,
        on_chunk: Optional[Callable[[float], None]] = None,
        fault_injector: Optional[Any] = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
        # Chaos mode (an injector here, or REPRO_FAULT_PROFILE): the
        # store gets a skewable clock plus scripted method faults, and
        # the chunk executor the ``worker.chunk`` fault point.  Lazy
        # import keeps the jobs package free of a hard resilience
        # dependency.
        from ..resilience.faultinject import fault_wiring

        _, self.store, execute_chunk = fault_wiring(fault_injector,
                                                    state_dir)
        self.workers = workers
        self._stop = threading.Event()
        self._submitted = SubmitSignal()
        self._stopped = False
        self._threads: List[threading.Thread] = []
        self._pool = [
            Worker(
                self.store,
                worker_id=f"svc-worker-{index}",
                lease_ttl=lease_ttl,
                poll_interval=poll_interval,
                on_chunk=on_chunk,
                execute_chunk=execute_chunk,
                wake=self._submitted,
            )
            for index in range(workers)
        ]

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._threads or self._stopped:
            return
        for worker in self._pool:
            thread = threading.Thread(
                target=worker.run_forever, args=(self._stop,),
                name=worker.worker_id, daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, deadline: float = 10.0) -> bool:
        """Drain: workers checkpoint their current chunk and exit.

        Returns True when every worker thread joined within the
        deadline (each departed job is back in the queue, resumable
        from its last checkpoint).  Idempotent.
        """
        self._stopped = True
        self._stop.set()
        self._submitted.notify(everyone=True)
        limit = time.monotonic() + max(deadline, 0.0)
        for thread in self._threads:
            thread.join(timeout=max(0.05, limit - time.monotonic()))
        return all(not thread.is_alive() for thread in self._threads)

    # -- job operations ------------------------------------------------

    def submit(self, spec: JobSpec, *,
               max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> JobRecord:
        record = self.store.submit(
            spec,
            chunks_total=executor.chunk_count(spec),
            max_attempts=max_attempts,
        )
        self._submitted.notify()
        return record

    def get(self, job_id: str) -> Optional[JobRecord]:
        return self.store.get(job_id)

    def list_jobs(self, status: Optional[str] = None,
                  limit: int = 200) -> List[JobRecord]:
        return self.store.list_jobs(status=status, limit=limit)

    def cancel(self, job_id: str) -> Optional[JobRecord]:
        return self.store.request_cancel(job_id)

    # -- observability -------------------------------------------------

    def workers_alive(self) -> int:
        return sum(1 for thread in self._threads if thread.is_alive())

    def stats(self) -> Dict[str, Any]:
        """The health/metrics snapshot: backlog, liveness, retries."""
        counts = self.store.counts()
        return {
            "queue_depth": self.store.queue_depth(),
            "running": self.store.running_count(),
            "queued": counts["queued"],
            "succeeded": counts["succeeded"],
            "failed": counts["failed"],
            "cancelled": counts["cancelled"],
            "retries_total": self.store.retries_total(),
            "workers": self.workers,
            "workers_alive": self.workers_alive(),
        }
