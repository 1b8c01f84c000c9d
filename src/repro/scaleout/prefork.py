"""Pre-fork serving: ``serve --processes N`` behind one port.

Process model
-------------
The supervisor binds the port (reserving it and providing the
fallback fd), creates the durable job store every child shares, then
forks N children.  Each child prefers its **own** ``SO_REUSEPORT``
socket bound to the same address, which lets the kernel load-balance
accepts across processes; where that is unavailable (platform without
the option, or the bind races a port reuse restriction) the child
falls back to accepting on the fd inherited from the supervisor, which
it then puts into the listening state itself.  The two modes can
coexist in one group: reuseport distribution includes the inherited
socket's queue once a child listens on it.

In reuseport mode the supervisor's socket is bound but never listens
(:func:`bind_supervisor_socket`): a listening socket would join the
children's reuseport group, the kernel would hash a share of new
connections into its accept queue, and closing it once the children
are ready would reset them.  Without reuseport the children accept on
the inherited fd, so the supervisor listens on it.

A readiness pipe orders startup: the supervisor closes its own copy of
the socket only after every child reported its accept loop live, so
there is no window where the port is bound by nobody.

Shutdown is the single-process contract, fanned out: SIGTERM to the
supervisor forwards SIGTERM to every child; each child drains HTTP and
its job workers exactly like ``serve`` does, and the supervisor exits
0 only when every child drained cleanly.  Stop signals are held from
before the first fork until each process installed its handlers, so a
SIGTERM during start-up is forwarded too, never fatal to the supervisor
alone (see :mod:`repro.scaleout.procutil`).

What is shared and what is not
------------------------------
Shared per group: the listening port and the durable job store
(``state_dir``).  Per process, by design: admission control, circuit
breakers, in-flight coalescing and the response cache — see
docs/SCALEOUT.md for why.
"""

from __future__ import annotations

import dataclasses
import os
import select
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
import traceback
from typing import List, Optional, Tuple

from ..jobs.store import JobStore
from ..service.app import (
    BandwidthWallService,
    RunningService,
    ServiceConfig,
    _RequestHandler,
    _ServiceHTTPServer,
)
from .procutil import (
    hold_stop_signals,
    release_stop_signals,
    require_single_thread,
    supervise,
)

__all__ = ["bind_supervisor_socket", "create_listening_socket",
           "serve_prefork"]

#: Seconds the supervisor waits for every child's accept loop to come
#: up before declaring the boot failed.
READY_TIMEOUT = 60.0


def create_listening_socket(host: str, port: int, *,
                            reuseport: bool = True,
                            listen: bool = True) -> socket.socket:
    """A bound (by default listening) TCP socket, with ``SO_REUSEPORT``
    when asked for and available (callers check
    :func:`reuseport_active`)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuseport and hasattr(socket, "SO_REUSEPORT"):
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            except OSError:
                pass  # option exists but the kernel refuses: fall back
        sock.bind((host, port))
        if listen:
            sock.listen(_ServiceHTTPServer.request_queue_size)
    except BaseException:
        sock.close()
        raise
    return sock


def reuseport_active(sock: socket.socket) -> bool:
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        return bool(sock.getsockopt(socket.SOL_SOCKET,
                                    socket.SO_REUSEPORT))
    except OSError:
        return False


def bind_supervisor_socket(host: str,
                           port: int) -> Tuple[socket.socket, bool]:
    """The supervisor's port-holding socket, and whether the children
    should prefer their own ``SO_REUSEPORT`` sockets.  It listens only
    when they will accept on it instead."""
    sock = create_listening_socket(host, port, listen=False)
    # REPRO_SCALEOUT_NO_REUSEPORT forces the inherited-fd fallback
    # (tests exercise it on platforms where reuseport would win).
    prefer_reuseport = reuseport_active(sock) \
        and not os.environ.get("REPRO_SCALEOUT_NO_REUSEPORT")
    if not prefer_reuseport:
        sock.listen(_ServiceHTTPServer.request_queue_size)
    return sock, prefer_reuseport


def serve_prefork(config: ServiceConfig) -> int:
    """Blocking supervisor for ``serve --processes N`` (N >= 2)."""
    owned_dir: Optional[str] = None
    if config.state_dir is None:
        # One job store for the whole group — each child creating its
        # own temporary store would shard the queue N ways.
        owned_dir = tempfile.mkdtemp(prefix="bandwidth-wall-jobs-")
        config = dataclasses.replace(config, state_dir=owned_dir)
    try:
        try:
            listener, prefer_reuseport = bind_supervisor_socket(
                config.host, config.port)
        except OSError as error:
            print(f"cannot bind {config.host}:{config.port}: {error}",
                  file=sys.stderr)
            return 1
        # Port 0 resolves at bind time; children must all target the
        # real port.
        config = dataclasses.replace(
            config, port=listener.getsockname()[1])
        # Create the job store's file, schema and WAL mode once, before
        # any child exists: children switching a fresh file to WAL at
        # once can fail with "database is locked".  The handle is
        # closed here, so none crosses the fork.
        JobStore(config.state_dir).close()
        read_fd, write_fd = os.pipe()
        pids: List[int] = []
        # A stop signal from here on waits for the handlers: each
        # child's, and the supervisor's in supervise().
        hold_stop_signals()
        for index in range(config.processes):
            require_single_thread()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(read_fd)
                    code = _child_main(
                        config, listener, write_fd,
                        prefer_reuseport=prefer_reuseport, index=index,
                    )
                except BaseException:  # noqa: BLE001 - child boundary
                    traceback.print_exc()
                finally:
                    # Never unwind into the supervisor's stack.
                    os._exit(code)
            pids.append(pid)
        os.close(write_fd)
        print(f"bandwidth-wall service listening on "
              f"http://{config.host}:{config.port} "
              f"({config.processes} processes x {config.workers} "
              f"workers, "
              f"{'SO_REUSEPORT' if prefer_reuseport else 'inherited fd'},"
              f" state dir {config.state_dir})", flush=True)
        ready = _await_ready(read_fd, config.processes)
        os.close(read_fd)
        # Children accept on their own sockets (or inherited copies of
        # this fd) from here on; the supervisor's copy only kept the
        # startup window covered.
        listener.close()
        if ready < config.processes:
            print(f"only {ready}/{config.processes} workers became "
                  f"ready; aborting", file=sys.stderr)
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass
            supervise(pids, exit_expected=True, kill_deadline=10.0)
            return 1
        _, clean = supervise(
            pids, exit_expected=False,
            kill_deadline=config.drain_deadline + 30.0,
        )
        print("bandwidth-wall service stopped"
              + ("" if clean else " (children exited uncleanly)"),
              flush=True)
        return 0 if clean else 1
    finally:
        if owned_dir is not None:
            shutil.rmtree(owned_dir, ignore_errors=True)


def _await_ready(read_fd: int, expected: int) -> int:
    """Count readiness bytes until ``expected``, EOF or timeout."""
    ready = 0
    deadline = time.monotonic() + READY_TIMEOUT
    while ready < expected:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        readable, _, _ = select.select([read_fd], [], [], remaining)
        if not readable:
            break
        chunk = os.read(read_fd, expected - ready)
        if not chunk:  # every write end closed: a child died unready
            break
        ready += len(chunk)
    return ready


def _child_main(config: ServiceConfig, inherited: socket.socket,
                ready_fd: int, *, prefer_reuseport: bool,
                index: int) -> int:
    """One forked worker: adopt a socket, serve, drain on SIGTERM."""
    accept_socket = inherited
    own: Optional[socket.socket] = None
    if prefer_reuseport:
        try:
            candidate = create_listening_socket(
                config.host, config.port, reuseport=True)
        except OSError:
            candidate = None  # fall back to the inherited fd
        if candidate is not None:
            if reuseport_active(candidate):
                own = candidate
                accept_socket = own
            else:
                candidate.close()
    if own is not None:
        # Closing the child's copy of the inherited fd; the socket
        # itself stays open in the supervisor and any fallback sibling.
        inherited.close()
    else:
        # Siblings accept on this same socket, so every connection
        # wakes them all and only one wins it.  A blocking accept()
        # would park the losers until the next connection, and their
        # drain (server.shutdown() waits for the accept loop) with it.
        accept_socket.setblocking(False)

    service = BandwidthWallService(config)
    # The server listens on the socket it adopts: the inherited one may
    # be bound only (see bind_supervisor_socket).
    server = _ServiceHTTPServer(
        (config.host, config.port), _RequestHandler, service,
        inherited_socket=accept_socket,
    )
    running = RunningService(service, server)

    stop = threading.Event()

    def request_stop(signum, frame) -> None:
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, request_stop)
    release_stop_signals()
    os.write(ready_fd, b"r")
    os.close(ready_fd)
    print(f"scale-out worker {index} (pid {os.getpid()}) accepting via "
          f"{'SO_REUSEPORT' if own is not None else 'inherited fd'}",
          flush=True)
    stop.wait()
    drained = running.drain_and_stop()
    return 0 if drained else 1
