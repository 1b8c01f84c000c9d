"""Fork-safety: pid-stamped sqlite connections and worker identities.

These tests ``os.fork()`` for real (skipped where fork is absent) and
synchronise parent and child over pipes, so every assertion runs at a
deterministic point — no sleeps, no races.
"""

import json
import os
import signal
import threading

import pytest

from repro.jobs.executor import (
    chunk_count,
    encode_artifact,
    serial_artifact,
)
from repro.jobs.spec import JobSpec
from repro.jobs.store import RUNNING, SUCCEEDED, JobStore
from repro.jobs.worker import Worker
from repro.scaleout.procutil import require_single_thread
from repro.scaleout.shared_cache import SharedCacheTier

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="requires os.fork"
)

SPEC = JobSpec.experiments(["fig13"])


def run_in_child(target) -> int:
    """Fork, run ``target()`` in the child, return the child's exit
    code (0 only if target neither raised nor returned falsy-failure).
    """
    require_single_thread()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            target()
            code = 0
        except BaseException as error:  # noqa: BLE001 - report & die
            print(f"child failed: {type(error).__name__}: {error}",
                  flush=True)
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


# -- the fork guard ----------------------------------------------------


def test_fork_guard_passes_a_single_thread():
    require_single_thread()


def test_fork_guard_names_a_live_thread():
    release = threading.Event()
    extra = threading.Thread(target=release.wait, name="extra-thread")
    extra.start()
    try:
        with pytest.raises(RuntimeError, match="2 live threads: "
                           "MainThread, extra-thread"):
            require_single_thread()
    finally:
        release.set()
        extra.join()
    require_single_thread()


# -- JobStore connections ----------------------------------------------


def test_store_reopens_connection_in_forked_child(tmp_path):
    store = JobStore(tmp_path)
    # Warm this thread's cached connection pre-fork: the child will
    # inherit it and must abandon it for a fresh one.
    store.submit(SPEC, chunks_total=1, job_id="parent-job")

    def child():
        record = store.submit(SPEC, chunks_total=1, job_id="child-job")
        assert record.id == "child-job"
        assert store.get("parent-job") is not None

    assert run_in_child(child) == 0
    # The parent's connection is untouched by the child's swap.
    assert {record.id for record in store.list_jobs()} \
        == {"parent-job", "child-job"}


def test_store_connection_is_cached_per_thread_and_pid(tmp_path):
    store = JobStore(tmp_path)
    with store._connection() as first:
        pass
    with store._connection() as second:
        pass
    assert first is second  # same thread, same pid: cached

    seen = []

    def other_thread():
        with store._connection() as conn:
            seen.append(conn)

    thread = threading.Thread(target=other_thread)
    thread.start()
    thread.join()
    assert seen[0] is not first  # threads never share a handle


def test_store_close_only_touches_own_process_handle(tmp_path):
    store = JobStore(tmp_path)
    store.submit(SPEC, chunks_total=1, job_id="j")

    def child():
        # Close in the child must not close the inherited parent
        # handle (closing it post-fork is exactly the unsafe call).
        store.close()
        assert store.get("j") is not None  # reopens cleanly

    assert run_in_child(child) == 0
    assert store.get("j") is not None  # parent handle still live


# -- worker identity ---------------------------------------------------


def test_worker_id_is_unchanged_in_the_construction_process(tmp_path):
    worker = Worker(JobStore(tmp_path), worker_id="w1")
    assert worker.worker_id == "w1"
    auto = Worker(JobStore(tmp_path))
    assert auto.worker_id.startswith("worker-")
    assert "@" not in auto.worker_id


def test_worker_id_is_pid_stamped_in_forked_children(tmp_path):
    worker = Worker(JobStore(tmp_path), worker_id="base")

    def child():
        assert worker.worker_id == f"base@{os.getpid()}"

    assert run_in_child(child) == 0
    assert worker.worker_id == "base"  # parent unaffected


def test_forked_child_lease_is_owned_by_stamped_identity(tmp_path):
    """Fork mid-traffic: the parent observes the child's lease under
    the ``base@pid`` identity while the child holds it."""
    store = JobStore(tmp_path)
    store.submit(SPEC, chunks_total=chunk_count(SPEC), job_id="j")
    worker = Worker(store, worker_id="base")
    leased_read, leased_write = os.pipe()
    release_read, release_write = os.pipe()

    require_single_thread()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(leased_read)
            os.close(release_write)
            job = store.lease(worker.worker_id)
            assert job is not None
            os.write(leased_write, b"1")
            os.read(release_read, 1)  # parent looked; go finish
            stop = threading.Event()
            worker.execute_job(job, stop)
            code = 0
        except BaseException as error:  # noqa: BLE001
            print(f"child failed: {type(error).__name__}: {error}",
                  flush=True)
        finally:
            os._exit(code)

    os.close(leased_write)
    os.close(release_read)
    assert os.read(leased_read, 1) == b"1"
    record = store.get("j")
    assert record.status == RUNNING
    assert record.lease_owner == f"base@{pid}"
    os.write(release_write, b"1")
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    record = store.get("j")
    assert record.status == SUCCEEDED
    assert record.result_text == encode_artifact(serial_artifact(SPEC))


# -- shared cache tier -------------------------------------------------


def test_tier_entries_and_counters_cross_the_fork(tmp_path):
    tier = SharedCacheTier(tmp_path)
    tier.put("ns", "from-parent", {"v": 1})
    tier.bump("ns.hit")

    def child():
        assert tier.get("ns", "from-parent") == {"v": 1}
        tier.put("ns", "from-child", {"v": 2})
        tier.bump("ns.hit", 2)

    assert run_in_child(child) == 0
    assert tier.get("ns", "from-child") == {"v": 2}
    assert tier.counters_total() == {"ns.hit": 3}
    assert tier.processes_seen() == 2  # one counter row per pid
