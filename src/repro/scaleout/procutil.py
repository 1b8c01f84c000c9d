"""Child-process supervision shared by pre-fork serving and the fleet.

One pattern, two users: fork N children, forward SIGTERM/SIGINT to
them, reap everything, and report whether the group ended cleanly.
The server treats a child exiting on its own as a failure (servers run
until told to stop); a ``--once`` worker fleet treats it as the normal
drained-queue exit.

A stop signal can arrive while the group is still starting, before
anyone's handler is installed, where its default action would kill the
supervisor and orphan the children.  So supervisors call
:func:`hold_stop_signals` before forking: the signal stays pending in
every process of the group until that process installed its handlers
and called :func:`release_stop_signals` (:func:`supervise` does so for
the supervisor).

Every fork is preceded by :func:`require_single_thread`: a child gets
only the forking thread, so a lock another thread held at the fork
stays held in the child forever.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Dict, Sequence, Tuple

__all__ = [
    "hold_stop_signals",
    "release_stop_signals",
    "require_single_thread",
    "supervise",
]

#: Signals that stop a supervised group.
STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def require_single_thread() -> None:
    """Raise :class:`RuntimeError` naming the live threads unless the
    caller's is the only one: call it right before ``os.fork()``."""
    if threading.active_count() != 1:
        names = ", ".join(thread.name for thread in threading.enumerate())
        raise RuntimeError(
            f"refusing to fork with {threading.active_count()} live "
            f"threads: {names}")


def hold_stop_signals() -> None:
    """Block the stop signals in the calling thread (inherited by forks)."""
    signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)


def release_stop_signals() -> None:
    """Unblock the stop signals; one that arrived meanwhile is delivered
    now, to the handlers installed before this call."""
    signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)


def supervise(pids: Sequence[int], *, exit_expected: bool,
              kill_deadline: float = 60.0) -> Tuple[Dict[int, int], bool]:
    """Babysit forked children until all are reaped.

    SIGTERM/SIGINT to the supervisor forwards SIGTERM to every live
    child (including one held since before the fork, released here
    once the handler is in place); children still alive
    ``kill_deadline`` seconds later are SIGKILLed.  Returns ``(exit
    codes by pid, clean)`` — clean meaning every child exited 0 and,
    unless ``exit_expected``, none exited before a stop was requested.
    The caller's signal handlers are restored on return.
    """
    stopping = threading.Event()
    unexpected = False
    previous = {}

    def request_stop(signum, frame) -> None:
        stopping.set()

    for signum in STOP_SIGNALS:
        previous[signum] = signal.signal(signum, request_stop)
    release_stop_signals()
    codes: Dict[int, int] = {}
    forwarded = False
    kill_at = float("inf")
    try:
        while len(codes) < len(pids):
            if stopping.is_set() and not forwarded:
                for pid in pids:
                    if pid not in codes:
                        try:
                            os.kill(pid, signal.SIGTERM)
                        except ProcessLookupError:
                            pass
                forwarded = True
                kill_at = time.monotonic() + kill_deadline
            for pid in pids:
                if pid in codes:
                    continue
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    codes[pid] = os.waitstatus_to_exitcode(status)
                    if not exit_expected and not stopping.is_set():
                        # A server child died under us: stop the rest
                        # rather than serve at silently reduced width.
                        unexpected = True
                        stopping.set()
            if forwarded and time.monotonic() >= kill_at:
                for pid in pids:
                    if pid not in codes:
                        try:
                            os.kill(pid, signal.SIGKILL)
                        except ProcessLookupError:
                            pass
                        _, status = os.waitpid(pid, 0)
                        codes[pid] = os.waitstatus_to_exitcode(status)
            if len(codes) < len(pids):
                stopping.wait(0.05)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    clean = not unexpected and all(code == 0 for code in codes.values())
    return codes, clean
