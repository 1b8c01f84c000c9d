"""Durable background jobs: checkpointed async runs of every job kind.

The execution tier between "one solve per request" (the service's
synchronous handlers) and "run the paper" (the CLI): long work —
full-registry experiment runs, large sweep grids — is submitted as a
*job*, persisted in a sqlite-backed store under a state directory,
executed **in chunks** by lease-holding workers, and checkpointed after
every chunk so crashes, SIGTERM drains and retries all resume instead
of restarting.  Artifacts are byte-identical to a serial run by
construction (see :mod:`repro.jobs.executor`).

Layers
------
:mod:`repro.jobs.spec`
    :class:`JobSpec` — the serialisable job description, and
    :data:`KINDS` — the job-kind table (experiments, sweep, optimize,
    trace).
:mod:`repro.jobs.store`
    :class:`JobStore` — durable state, leases, checkpoints.
:mod:`repro.jobs.executor`
    Pure chunk planning/execution/assembly functions.
:mod:`repro.jobs.worker`
    :class:`Worker` — the lease-execute-checkpoint loop, also runnable
    as a standalone process (``python -m repro.jobs.worker``).
:mod:`repro.jobs.manager`
    :class:`JobManager` — the in-service worker pool + stats.
"""

from .executor import (
    assemble_artifact,
    chunk_count,
    encode_artifact,
    execute_chunk,
    serial_artifact,
)
from .manager import JobManager
from .spec import DEFAULT_MAX_ATTEMPTS, KINDS, JobSpec
from .store import (
    ACTIVE_STATUSES,
    CANCELLED,
    FAILED,
    QUEUED,
    RUNNING,
    STATUSES,
    SUCCEEDED,
    TERMINAL_STATUSES,
    JobRecord,
    JobStore,
)
from .worker import Worker

__all__ = [
    "JobSpec", "KINDS", "JobStore", "JobRecord", "JobManager", "Worker",
    "chunk_count", "execute_chunk", "assemble_artifact",
    "encode_artifact", "serial_artifact",
    "QUEUED", "RUNNING", "SUCCEEDED", "FAILED", "CANCELLED",
    "ACTIVE_STATUSES", "TERMINAL_STATUSES", "STATUSES",
    "DEFAULT_MAX_ATTEMPTS",
]
