"""Pre-fork serving end to end: ``serve --processes 2`` as a subprocess.

Covers both accept paths — SO_REUSEPORT (where the platform has it)
and the inherited-fd fallback, forced via ``REPRO_SCALEOUT_NO_REUSEPORT``
— and asserts the contract that matters: one port, several pids, no
cross-process cache tier, clean SIGTERM drain.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="requires os.fork"
)


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def get_json(port: int, path: str, timeout: float = 5.0):
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=timeout) as reply:
        return json.load(reply)


def post_json(port: int, path: str, payload, timeout: float = 30.0):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as reply:
        return json.load(reply)


def wait_healthy(process, port: int, deadline: float = 30.0):
    """Poll ``/healthz`` until it answers.  If the server exits first or
    the deadline passes, stop it and fail with its exit code and output.
    """
    limit = time.monotonic() + deadline
    while time.monotonic() < limit and process.poll() is None:
        try:
            return get_json(port, "/healthz", timeout=2.0)
        except (urllib.error.URLError, OSError, ConnectionError):
            time.sleep(0.1)
    output = shutdown(process)
    raise AssertionError(
        f"service never became healthy (exit code {process.returncode}):"
        f"\n{output}"
    )


#: The accept path a child takes when nothing forces the fallback.
DEFAULT_MODE = ("SO_REUSEPORT" if hasattr(socket, "SO_REUSEPORT")
                else "inherited fd")


def boot(tmp_path, *, extra_env=None, extra_args=(), processes=2):
    import repro

    port = free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    if extra_env:
        env.update(extra_env)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--processes", str(processes),
         "--workers", "4", "--job-workers", "1",
         "--state-dir", str(tmp_path / "jobs"), *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    return process, port


def shutdown(process) -> str:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=40)
        except subprocess.TimeoutExpired:
            process.kill()
    output, _ = process.communicate(timeout=10)
    return output


def drive_and_assert(process, port, *, expect_mode: str) -> str:
    """Check the group contract; returns the server's output."""
    try:
        health = wait_healthy(process, port)
        assert health["status"] == "ok"
        assert health["scaleout"]["processes"] == 2

        # The kernel picks the child per connection, so keep asking
        # until both pids have answered.  Distinct alphas force real
        # solves in whichever child takes them.
        pids = set()
        for index in range(200):
            post_json(port, "/v1/solve",
                      {"alpha": 0.26 + index * 0.003})
            pids.add(get_json(port, "/healthz")["scaleout"]["pid"])
            if len(pids) == 2:
                break
        assert len(pids) == 2, f"only {pids} answered"

        # Each child keeps its own caches; no cross-process tier.
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=5) as reply:
            metrics = reply.read().decode("utf-8")
        assert "scaleout_shared_cache" not in metrics
    finally:
        output = shutdown(process)
    assert process.returncode == 0, output
    assert output.count(f"accepting via {expect_mode}") == 2, output
    assert "bandwidth-wall service stopped" in output
    return output


def test_prefork_two_processes_share_port(tmp_path):
    process, port = boot(tmp_path)
    drive_and_assert(process, port, expect_mode=DEFAULT_MODE)


def test_prefork_inherited_fd_fallback(tmp_path):
    process, port = boot(
        tmp_path, extra_env={"REPRO_SCALEOUT_NO_REUSEPORT": "1"})
    drive_and_assert(process, port, expect_mode="inherited fd")


def test_shared_cache_dir_flag_is_ignored(tmp_path):
    """Old command lines still start a group; the flag builds nothing."""
    shared = tmp_path / "shared"
    process, port = boot(
        tmp_path, extra_args=("--shared-cache-dir", str(shared)))
    output = drive_and_assert(process, port, expect_mode=DEFAULT_MODE)
    assert output.count("--shared-cache-dir is ignored") == 1, output
    assert not shared.exists()


def test_prefork_jobs_drain_through_shared_store(tmp_path):
    process, port = boot(tmp_path)
    try:
        wait_healthy(process, port)
        submitted = post_json(
            port, "/v1/jobs",
            {"kind": "experiments", "ids": ["fig13"]})
        limit = time.monotonic() + 60
        while time.monotonic() < limit:
            record = get_json(port, f"/v1/jobs/{submitted['id']}")
            if record["status"] in ("succeeded", "failed", "cancelled"):
                break
            time.sleep(0.2)
        assert record["status"] == "succeeded", record
    finally:
        output = shutdown(process)
    assert process.returncode == 0, output


def test_fresh_groups_start_every_child(tmp_path):
    """Children of a group open one fresh job store at once; none may
    be lost to a "database is locked" race on the journal-mode switch
    (the supervisor creates the store before forking)."""
    groups = [boot(tmp_path / f"group{index}") for index in range(3)]
    healthy = []
    try:
        for process, port in groups:
            try:
                wait_healthy(process, port)
                healthy.append(True)
            except AssertionError:
                healthy.append(False)
    finally:
        outputs = [shutdown(process) for process, _ in groups]
    for (process, _), ok, output in zip(groups, healthy, outputs):
        assert ok, output
        assert process.returncode == 0, output
        assert output.count("accepting via") == 2, output
        assert "database is locked" not in output, output


def _child_pids(pid: int):
    with open(f"/proc/{pid}/task/{pid}/children") as handle:
        return [int(child) for child in handle.read().split()]


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/"
                                       f"{os.getpid()}/children"),
                    reason="needs /proc/<pid>/task/<pid>/children")
def test_sigterm_during_startup_stops_every_child(tmp_path):
    """SIGTERM right after the fork, before any handler is installed:
    the supervisor must forward it rather than die and orphan the
    children."""
    import repro

    log = tmp_path / "serve.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    with open(log, "w") as out:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port", str(free_port()), "--processes", "2",
             "--job-workers", "1",
             "--state-dir", str(tmp_path / "jobs")],
            stdout=out, stderr=subprocess.STDOUT, env=env,
        )
    children = []
    try:
        limit = time.monotonic() + 30
        while "listening on" not in log.read_text():
            assert process.poll() is None, log.read_text()
            assert time.monotonic() < limit, "no listening line"
            time.sleep(0.002)
        children = _child_pids(process.pid)
        assert len(children) == 2
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=40) == 0, log.read_text()
        survivors = []
        for child in children:
            try:
                os.kill(child, 0)
                survivors.append(child)
            except ProcessLookupError:
                pass
        assert not survivors, log.read_text()
    finally:
        for child in children:
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
