"""Shared fixtures: one serial and one parallel full-registry sweep,
and the guards that fail a test, a module or the session for what it
leaks.

The golden harness and the engine-equivalence tests both need "run
everything" results in both modes; computing each sweep once per
session keeps the suite's wall time at two registry runs total.
"""

import os
import tempfile
import threading
import time

import pytest

#: Prefix of every temporary directory the program makes for itself.
OWNED_TEMP_PREFIX = "bandwidth-wall-"


def _children():
    """Pids of this process's children, or None where /proc does not
    list them.  Each thread's ``children`` file lists the processes
    that thread started, so every thread is read."""
    tasks = f"/proc/{os.getpid()}/task"
    if not os.path.exists(f"{tasks}/{os.getpid()}/children"):
        return None
    pids = set()
    for tid in os.listdir(tasks):
        try:
            with open(f"{tasks}/{tid}/children") as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except OSError:
            pass  # the thread exited while we listed the others
    return pids


def _command_line(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode().strip()
    except OSError:
        return "?"


@pytest.fixture(autouse=True)
def no_leaked_child_processes():
    """Fail a test that ends with a child process it did not find.

    Fixtures of a wider scope are set up before this one, so processes
    they own count as already there."""
    before = _children()
    yield
    if before is None:
        return
    leaked = _children() - before
    if leaked:
        pytest.fail("test left child processes behind: " + "; ".join(
            f"{pid} ({_command_line(pid)})" for pid in sorted(leaked)))


@pytest.fixture(scope="module", autouse=True)
def no_leaked_threads():
    """Fail a test module that leaves a thread it started alive.

    Autouse fixtures are set up first within their scope, so this one
    is torn down after the module's own module-scoped fixtures (its
    services and their workers).  Threads get a short grace to finish
    exiting once their owner stopped them."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 2.0
    leaked = [thread for thread in threading.enumerate()
              if thread not in before]
    for thread in leaked:
        thread.join(max(0.0, deadline - time.monotonic()))
    alive = [thread.name for thread in leaked if thread.is_alive()]
    if alive:
        pytest.fail(f"test module left threads running: {alive}")


def _owned_temp_dirs():
    root = tempfile.gettempdir()
    return {name for name in os.listdir(root)
            if name.startswith(OWNED_TEMP_PREFIX)
            and os.path.isdir(os.path.join(root, name))}


@pytest.fixture(scope="session", autouse=True)
def no_leaked_temp_dirs():
    """Fail the session if it leaves a program-made temp dir behind."""
    before = _owned_temp_dirs()
    yield
    left = sorted(_owned_temp_dirs() - before)
    if left:
        pytest.fail(f"the session left temporary directories in "
                    f"{tempfile.gettempdir()}: {', '.join(left)}")


@pytest.fixture(scope="session")
def serial_sweep():
    """Full-registry results from the serial (in-process) engine path."""
    from repro.experiments.engine import SweepEngine

    return SweepEngine(max_workers=1).run()


@pytest.fixture(scope="session")
def parallel_sweep():
    """Full-registry results from the worker-pool engine path.

    Two workers regardless of the machine so the parallel code path
    (shard fan-out, out-of-order completion, ordered aggregation) is
    exercised even on single-core CI runners.
    """
    from repro.experiments.engine import SweepEngine

    return SweepEngine(max_workers=2).run()
