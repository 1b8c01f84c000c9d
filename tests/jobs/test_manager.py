"""The in-process pool wakes on submit and on stop, not on its poll.

Every manager here polls the store only every 30 s, so a job that
starts (or a stop that returns) within a second was woken, not polled.
"""

import sys
import threading
import time

from repro.jobs.manager import JobManager
from repro.jobs.spec import JobSpec
from repro.jobs.store import QUEUED, SUCCEEDED
from repro.jobs.worker import SubmitSignal

SLOW_POLL = 30.0


def wait_for(predicate, *, timeout, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def test_submit_wakes_an_idle_worker(tmp_path):
    manager = JobManager(tmp_path, workers=2, poll_interval=SLOW_POLL)
    manager.start()
    try:
        time.sleep(0.2)  # both workers find the queue empty and sleep
        job = manager.submit(JobSpec.experiments(["fig13"]))
        assert wait_for(lambda: manager.get(job.id).status == SUCCEEDED,
                        timeout=2.0)
    finally:
        assert manager.stop()


def test_no_submit_waits_out_the_poll_under_contention(tmp_path):
    """More workers than cores and concurrent submitters, with thread
    switches forced often: a lost wake-up would leave a job queued for
    the 30 s poll."""
    manager = JobManager(tmp_path, workers=4, poll_interval=SLOW_POLL)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        manager.start()
        time.sleep(0.2)
        jobs = []

        def submit_five():
            for _ in range(5):
                jobs.append(manager.submit(JobSpec.experiments(["fig13"])))

        submitters = [threading.Thread(target=submit_five)
                      for _ in range(3)]
        for thread in submitters:
            thread.start()
        for thread in submitters:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert wait_for(
            lambda: all(manager.get(job.id).status == SUCCEEDED
                        for job in jobs), timeout=15.0, interval=0.05)
        assert len(jobs) == 15
    finally:
        sys.setswitchinterval(interval)
        assert manager.stop()


def test_stop_wakes_idle_workers(tmp_path):
    manager = JobManager(tmp_path, workers=2, poll_interval=SLOW_POLL)
    manager.start()
    time.sleep(0.2)
    started = time.monotonic()
    assert manager.stop()
    assert time.monotonic() - started < 1.0
    assert manager.workers_alive() == 0


def test_submit_without_workers_only_queues(tmp_path):
    manager = JobManager(tmp_path, workers=0, poll_interval=SLOW_POLL)
    manager.start()
    jobs = [manager.submit(JobSpec.experiments(["fig13"]))
            for _ in range(3)]
    assert [manager.get(job.id).status for job in jobs] == [QUEUED] * 3
    assert manager.stats()["queue_depth"] == 3
    assert manager.stop()


class TestSubmitSignal:
    def test_submit_between_lease_and_wait_is_not_lost(self):
        signal, stop = SubmitSignal(), threading.Event()
        seen = signal.count()  # read before the (empty) lease
        signal.notify()        # a submit lands before the wait
        started = time.monotonic()
        signal.wait(seen, stop, timeout=SLOW_POLL)
        assert time.monotonic() - started < 1.0

    def test_submits_with_no_waiter_do_not_accumulate(self):
        signal, stop = SubmitSignal(), threading.Event()
        for _ in range(3):
            signal.notify()
        started = time.monotonic()
        signal.wait(signal.count(), stop, timeout=0.2)
        assert time.monotonic() - started >= 0.15
