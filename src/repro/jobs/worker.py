"""The job worker: lease → execute chunk-by-chunk → checkpoint → finish.

A :class:`Worker` drives one lease at a time against a
:class:`~repro.jobs.store.JobStore`:

1. claim the oldest runnable job;
2. re-derive its chunk plan from the stored spec and **skip every chunk
   that already has a checkpoint** (that's crash-resume: the previous
   worker's completed chunks are never re-executed);
3. execute the remaining chunks in order, handing each its
   predecessor's checkpoint payload (read back from JSON), persisting
   a checkpoint and renewing the lease after each one;
4. assemble the artifact from the checkpoint row set and finish.

Between chunks the worker honours cancellation requests and the stop
event (SIGTERM drain): a drained job keeps its checkpoints and returns
to the queue with no backoff, so the next boot resumes it exactly where
it left off.  A chunk that raises counts one *failure*; below
``max_attempts`` the job is released with exponential backoff plus
jitter, at ``max_attempts`` it is failed for good.

Run standalone (the process the crash-resume tests SIGKILL)::

    PYTHONPATH=src python -m repro.jobs.worker --state-dir .jobs

Test hooks (env vars, used by the kill/drain test harness):

``REPRO_JOBS_TEST_CHUNK_SLEEP``
    Seconds to sleep inside each chunk *before* executing it — opens a
    deterministic mid-chunk window for SIGKILL.
``REPRO_JOBS_TEST_CHUNK_LOG``
    File to append ``<job id>:<chunk index>`` to at each chunk
    execution start — lets tests count (and bound) chunk executions.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sqlite3
import sys
import threading
import time
import traceback
import uuid
from typing import Callable, List, Optional

from . import executor as executor_mod
from .spec import JobSpec
from .store import CANCELLED, FAILED, SUCCEEDED, JobRecord, JobStore

__all__ = ["SubmitSignal", "Worker", "main"]

CHUNK_SLEEP_ENV = "REPRO_JOBS_TEST_CHUNK_SLEEP"
CHUNK_LOG_ENV = "REPRO_JOBS_TEST_CHUNK_LOG"


class SubmitSignal:
    """Wakes idle in-process workers when a job is submitted.

    A submit counter under a condition.  A worker reads :meth:`count`
    before it tries to lease, and after an empty lease :meth:`wait`
    returns as soon as the counter has moved past that reading, so a
    submit that lands between the empty lease and the wait is not
    lost.  Unlike a semaphore, nothing accumulates while no worker
    waits (``workers=0``).
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._count = 0

    def count(self) -> int:
        with self._condition:
            return self._count

    def notify(self, *, everyone: bool = False) -> None:
        with self._condition:
            self._count += 1
            if everyone:
                self._condition.notify_all()
            else:
                self._condition.notify()

    def wait(self, seen: int, stop: threading.Event,
             timeout: float) -> None:
        """Sleep up to ``timeout`` s, until a submit after ``seen`` or
        a set ``stop`` (whose setter must :meth:`notify` everyone)."""
        with self._condition:
            self._condition.wait_for(
                lambda: self._count != seen or stop.is_set(), timeout)


class Worker:
    """One lease-at-a-time job executor (thread- or process-hosted).

    Parameters
    ----------
    store:
        The shared durable store.
    worker_id:
        Stable identity for lease ownership; auto-generated if omitted.
    lease_ttl:
        Seconds a lease stays valid without renewal.  Must exceed the
        longest single chunk; the worker renews after every chunk.
    poll_interval:
        Idle sleep between lease attempts when the queue is empty.
    wake:
        A :class:`SubmitSignal` that ends the idle sleep early when a
        job is submitted in this process (the service's pool); without
        one the worker only polls (standalone processes and fleets).
    backoff_base / backoff_cap / backoff_jitter:
        Retry delay after the n-th failure is
        ``min(cap, base * 2**(n-1)) * (1 + jitter * U[0, 1))``.
    execute_chunk:
        Injectable chunk executor ``(spec, index, previous)`` (tests
        swap in flaky ones); defaults to
        :func:`repro.jobs.executor.execute_chunk`.
    on_chunk:
        Callback receiving each completed chunk's wall seconds — the
        service feeds its chunk-latency histogram through this.
    rng:
        Injectable jitter source.
    """

    def __init__(
        self,
        store: JobStore,
        *,
        worker_id: Optional[str] = None,
        lease_ttl: float = 30.0,
        poll_interval: float = 0.2,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        backoff_jitter: float = 0.25,
        execute_chunk: Optional[
            Callable[[JobSpec, int, Optional[dict]], dict]] = None,
        on_chunk: Optional[Callable[[float], None]] = None,
        rng: Optional[random.Random] = None,
        wake: Optional[SubmitSignal] = None,
    ) -> None:
        self.store = store
        self._worker_id_base = worker_id or f"worker-{uuid.uuid4().hex[:8]}"
        self._worker_id_pid = os.getpid()
        self.lease_ttl = lease_ttl
        self.poll_interval = poll_interval
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.backoff_jitter = backoff_jitter
        self._execute_chunk = execute_chunk or executor_mod.execute_chunk
        self._on_chunk = on_chunk
        self._rng = rng or random.Random()
        self._wake = wake

    @property
    def worker_id(self) -> str:
        """Lease-owner identity, pid-stamped after a fork.

        A Worker constructed before ``os.fork()`` would otherwise carry
        the *same* pre-generated identity into every child, and
        same-named claimers silently steal each other's leases (renew
        and release match on owner string alone).  In the construction
        process the identity is exactly what the caller chose; only a
        forked child gets the ``@pid`` suffix.
        """
        pid = os.getpid()
        if pid == self._worker_id_pid:
            return self._worker_id_base
        return f"{self._worker_id_base}@{pid}"

    # -- loop ----------------------------------------------------------

    def run_forever(self, stop: threading.Event, *,
                    once: bool = False) -> None:
        """Lease and execute until ``stop`` is set.

        ``once=True`` returns as soon as no job is claimable (drained
        queue or everything backed off) — batch mode for tests and
        one-shot CLI workers.
        """
        while not stop.is_set():
            seen = self._wake.count() if self._wake is not None else 0
            # Store faults (a locked sqlite file, a failing disk, an
            # injected chaos profile) must cost this worker one poll
            # interval, not its life: a dead thread shrinks the pool
            # permanently, which turns a transient fault into an
            # availability incident.
            try:
                job = self.store.lease(self.worker_id,
                                       lease_ttl=self.lease_ttl)
            except (sqlite3.Error, OSError):
                if once:
                    return
                stop.wait(self.poll_interval)
                continue
            if job is None:
                if once:
                    return
                if self._wake is not None:
                    self._wake.wait(seen, stop, self.poll_interval)
                else:
                    stop.wait(self.poll_interval)
                continue
            try:
                self.execute_job(job, stop)
            except (sqlite3.Error, OSError):
                # Mid-job store fault: try to hand the lease back so
                # the job requeues immediately; if even that fails,
                # lease expiry reclaims it.
                try:
                    self.store.release(job.id, self.worker_id)
                except (sqlite3.Error, OSError):
                    pass
                if once:
                    return
                stop.wait(self.poll_interval)

    def execute_job(self, job: JobRecord, stop: threading.Event) -> None:
        """Run one leased job to a boundary: finished, drained or failed."""
        try:
            spec = job.job_spec()
        except ValueError as error:
            self.store.finish(job.id, FAILED,
                              error=f"unusable job spec: {error}")
            return
        texts = self.store.checkpoints(job.id)
        for index in range(job.chunks_total):
            if index in texts:
                continue
            if stop.is_set():
                # Drain: completed chunks are checkpointed; the job goes
                # straight back to the queue for the next boot.
                self.store.release(job.id, self.worker_id)
                return
            current = self.store.get(job.id)
            if current is None or current.cancel_requested:
                self.store.finish(job.id, CANCELLED,
                                  error="cancelled by request")
                return
            self._test_hooks(job.id, index)
            previous = texts.get(index - 1)
            started = time.perf_counter()
            try:
                payload = self._execute_chunk(
                    spec, index,
                    None if previous is None else json.loads(previous))
            except Exception as error:  # noqa: BLE001 - retry boundary
                self._handle_chunk_failure(current, index, error)
                return
            elapsed = time.perf_counter() - started
            texts[index] = json.dumps(payload)
            self.store.checkpoint(job.id, index, texts[index],
                                  elapsed=elapsed)
            if self._on_chunk is not None:
                self._on_chunk(elapsed)
            if not self.store.renew_lease(job.id, self.worker_id,
                                          lease_ttl=self.lease_ttl):
                # Lease lost (expired and re-claimed, or cancelled from
                # terminal state); the checkpoint is persisted, so
                # whoever owns the job now resumes past it.
                return
        self._finish(job, spec)

    # -- internals -----------------------------------------------------

    def _finish(self, job: JobRecord, spec: JobSpec) -> None:
        texts = self.store.checkpoints(job.id)
        missing = [i for i in range(job.chunks_total) if i not in texts]
        if missing:  # lease races only; defensive
            self.store.release(job.id, self.worker_id)
            return
        payloads = [json.loads(texts[i]) for i in range(job.chunks_total)]
        artifact = executor_mod.assemble_artifact(spec, payloads)
        self.store.finish(
            job.id, SUCCEEDED,
            result_text=executor_mod.encode_artifact(artifact),
        )

    def _handle_chunk_failure(self, job: JobRecord, index: int,
                              error: Exception) -> None:
        failures = job.failures + 1
        detail = (f"chunk {index} failed (failure {failures}/"
                  f"{job.max_attempts}): {type(error).__name__}: {error}")
        if failures >= job.max_attempts:
            self.store.finish(
                job.id, FAILED,
                error=detail + "\n" + traceback.format_exc(limit=4),
            )
            return
        self.store.release(job.id, self.worker_id,
                           delay=self._backoff_delay(failures),
                           count_failure=True, error=detail)

    def _backoff_delay(self, failures: int) -> float:
        """Exponential backoff with multiplicative jitter."""
        base = min(self.backoff_cap,
                   self.backoff_base * (2 ** max(0, failures - 1)))
        return base * (1.0 + self.backoff_jitter * self._rng.random())

    @staticmethod
    def _test_hooks(job_id: str, index: int) -> None:
        log_path = os.environ.get(CHUNK_LOG_ENV)
        if log_path:
            with open(log_path, "a") as handle:
                handle.write(f"{job_id}:{index}\n")
        sleep = os.environ.get(CHUNK_SLEEP_ENV)
        if sleep:
            try:
                time.sleep(float(sleep))
            except ValueError:
                pass


# ----------------------------------------------------------------------
# Standalone worker process
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.jobs.worker`` — a drainable worker process.

    SIGTERM/SIGINT set the stop event: the current chunk finishes and
    checkpoints, the job is released, the process exits 0.
    """
    parser = argparse.ArgumentParser(
        prog="repro.jobs.worker",
        description="Durable background-job worker for the "
                    "bandwidth-wall job store.",
    )
    parser.add_argument("--state-dir", required=True,
                        help="job store directory (shared with the "
                             "service / other workers)")
    parser.add_argument("--worker-id", default=None,
                        help="lease-owner identity (default: random); "
                             "with --processes each child claims as "
                             "<id>@<pid>")
    parser.add_argument("--processes", type=int, default=1,
                        help="fork N competing claimers over the same "
                             "store (default 1: run in-process)")
    parser.add_argument("--lease-ttl", type=float, default=30.0,
                        help="lease seconds between renewals "
                             "(default 30)")
    parser.add_argument("--poll-interval", type=float, default=0.2,
                        help="idle seconds between lease attempts "
                             "(default 0.2)")
    parser.add_argument("--once", action="store_true",
                        help="exit when no job is claimable instead of "
                             "polling forever")
    parser.add_argument("--fault-profile", default=None,
                        help="chaos mode: builtin fault-profile name or "
                             "JSON profile path (also honours the "
                             "REPRO_FAULT_PROFILE env var)")
    args = parser.parse_args(argv)

    if args.processes > 1:
        from ..scaleout.fleet import run_fleet

        return run_fleet(
            args.state_dir,
            processes=args.processes,
            worker_id=args.worker_id,
            lease_ttl=args.lease_ttl,
            poll_interval=args.poll_interval,
            once=args.once,
            fault_profile=args.fault_profile,
        )

    stop = threading.Event()

    def request_stop(signum, frame) -> None:
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, request_stop)

    from ..resilience.faultinject import fault_wiring

    injector, store, execute_chunk = fault_wiring(args.fault_profile,
                                                  args.state_dir)
    worker = Worker(
        store,
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
        poll_interval=args.poll_interval,
        execute_chunk=execute_chunk,
    )
    print(f"job worker {worker.worker_id} polling {args.state_dir}",
          flush=True)
    if injector is not None:
        print(f"FAULT INJECTION ACTIVE: profile "
              f"{injector.profile.name!r} (seed {injector.profile.seed})",
              flush=True)
    worker.run_forever(stop, once=args.once)
    print(f"job worker {worker.worker_id} stopped", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
