"""Host-speed correction: a fixed reference loop timed around each
timed segment.

The loop is pure standard-library Python and never imports the
program, so its time moves only with the host (shared cores, frequency
changes), never with the code under test.  A segment's time is scaled
by ``NOMINAL_S / measured``, where ``measured`` is the loop's time
while the program sits idle: just before and just after a segment
shorter than ``SHORT_S``, and over the whole run for a longer one (see
``Corrector.factor``).  What the correction cannot see: work the
program does in the background while the loop runs (a job worker's
poll, a server's accept loop) slows the loop and so inflates the factor
slightly.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: Iterations of the reference loop; about 7 ms on a 2-vCPU host.
LOOP_ITERATIONS = 32_000

#: The loop's time on the reference host (median over quiet runs).
NOMINAL_S = 0.007

#: Loop repetitions per measurement; their mean is the measurement.
#: Not the median: on a host whose cores switch between a fast and a
#: slow state every fraction of a second, a median flips between the
#: two states where a mean tracks the share of time spent in each.
REPEATS = 7

#: Segments shorter than this (about the two loops around them) run at
#: the speed those loops see.  A longer segment spans many of the host's
#: speed changes, which two loops at its edges sample at random; the
#: mean of every loop timing of the run estimates its speed better.
SHORT_S = 0.1


def _reference_loop(n: int) -> int:
    """Integer arithmetic over a 256-slot table: interpreter speed with
    a working set that stays in the core's own caches."""
    table = [0] * 256
    acc = 0
    for _ in range(n):
        acc = (acc * 1103515245 + 12345) & 0xFFFFFFFF
        table[acc & 255] += 1
    return acc + table[0]


def loop_seconds() -> float:
    """Mean time of ``REPEATS`` runs of the reference loop."""
    started = time.perf_counter()
    for _ in range(REPEATS):
        _reference_loop(LOOP_ITERATIONS)
    return (time.perf_counter() - started) / REPEATS


class Corrector:
    """Times segments and scales them to the reference host's speed.

    The loop runs just before and just after every segment.
    :meth:`segment` returns the factor for that segment alone;
    :meth:`run_factor` uses every loop timing of the run; :meth:`factor`
    picks between them by the segment's length (see README.md).
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def segment(self, work: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``work``; returns ``(result, raw seconds, factor)``.

        Multiply any time measured inside the segment by ``factor``.
        """
        before = loop_seconds()
        started = time.perf_counter()
        result = work()
        raw = time.perf_counter() - started
        after = loop_seconds()
        self.samples += [before, after]
        return result, raw, NOMINAL_S / (0.5 * (before + after))

    def run_factor(self) -> float:
        return NOMINAL_S / statistics.mean(self.samples)

    def factor(self, raw: float, segment_factor: float) -> float:
        """The factor for a segment of ``raw`` seconds whose own loops
        gave ``segment_factor``."""
        return segment_factor if raw < SHORT_S else self.run_factor()


if __name__ == "__main__":
    # Prints the loop's time, to re-derive NOMINAL_S on a new host.
    print(f"{loop_seconds():.6f}")
