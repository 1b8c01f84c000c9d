"""Bulk draws that reproduce a ``random.Random`` stream exactly.

Every synthetic generator in this package is defined by a sequence of
``random()`` and ``randrange(n)`` calls on a seeded
:class:`random.Random`.  Making those calls one per access costs more
than everything the simulator does with the access, so the generators
draw whole chunks here instead.  The values, and the state the
generator is left in, are exactly those of the equivalent calls:

* the Mersenne Twister emits 32-bit words, and
  ``getrandbits(32 * n)`` returns the next ``n`` of them, least
  significant first;
* ``random()`` consumes two words ``a, b`` and returns
  ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` (exact in float64);
* ``randrange(n)`` draws ``k = n.bit_length()`` bits per word
  (``word >> (32 - k)``) and rejects values ``>= n``, so it consumes one
  word per attempt.

A draw never takes a word its calls would not have taken, so a caller
can mix bulk and single draws on one generator.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["uniforms", "below", "records", "CHUNK"]

#: Accesses generated per chunk: bounds every draw's temporaries.
CHUNK = 1 << 14

_UNIT = 1.0 / 9007199254740992.0  # 2**-53


def _words(rng, count: int) -> np.ndarray:
    """The next ``count`` 32-bit Mersenne Twister outputs, in order."""
    if count <= 0:
        return np.empty(0, dtype=np.uint32)
    raw = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    return np.frombuffer(raw, dtype="<u4")


def _uniform(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """``random()`` from its two words (CPython's ``random_random``)."""
    return ((high >> 5).astype(np.float64) * 67108864.0
            + (low >> 6)) * _UNIT


def uniforms(rng, count: int) -> np.ndarray:
    """``count`` successive ``rng.random()`` values as float64."""
    parts = []
    for start in range(0, count, CHUNK):
        drawn = _words(rng, 2 * min(CHUNK, count - start))
        parts.append(_uniform(drawn[0::2], drawn[1::2]))
    return np.concatenate(parts) if parts else np.empty(0)


def _bits(n: int) -> int:
    """Right shift turning a word into ``randrange(n)``'s candidate."""
    if not 1 <= n < 1 << 31:
        raise ValueError(f"randrange bound must be in [1, 2**31), got {n}")
    return 32 - n.bit_length()


def below(rng, n: int, count: int) -> np.ndarray:
    """``count`` successive ``rng.randrange(n)`` values as int64.

    Each round draws one word per value still missing; a word yields
    at most one value, so no round draws past the last value's word.
    """
    shift = _bits(n)
    parts = []
    missing = count
    while missing:
        candidates = _words(rng, missing) >> shift
        accepted = candidates[candidates < n]
        parts.append(accepted)
        missing -= len(accepted)
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts).astype(np.int64)


def records(rng, count: int, before: int, n: int, after: int
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` records drawn as ``before`` ``random()`` calls, one
    ``randrange(n)``, then ``after`` ``random()`` calls each.

    Returns ``(heads, picks, tails)``: float64 arrays of shape
    ``(count, before)`` and ``(count, after)`` and the int64 picks.
    ``randrange``'s rejections make records variable-length, so the
    words are parsed record by record; each round draws only words the
    remaining records are sure to need.
    """
    shift = _bits(n)
    lead, trail = 2 * before, 2 * after
    shortest = lead + 1 + trail
    heads, picks, tails = [], [], []
    pending = np.empty(0, dtype=np.uint32)  # drawn, not yet parsed
    missing = count
    while missing:
        pending = np.concatenate(
            (pending, _words(rng, max(1, shortest * missing - len(pending)))))
        size = len(pending)
        accepted = np.flatnonzero((pending >> shift) < n)
        # next_accepted[i]: first accepted word at or after i (or size).
        next_accepted = np.full(size + 1, size, dtype=np.int64)
        next_accepted[accepted] = accepted
        next_accepted = np.minimum.accumulate(next_accepted[::-1])[::-1]
        # successor[s]: where the record starting at word s ends (or
        # size + 1 when the drawn words do not complete it).
        successor = next_accepted[
            np.minimum(np.arange(size + 1) + lead, size)] + 1 + trail
        successor[successor > size] = size + 1
        # Indexed one element at a time: a memoryview makes each int as
        # it is read, where a list would hold them all at once.
        successor = memoryview(successor)
        starts = []
        start = 0
        for _ in range(missing):
            end = successor[start]
            if end > size:
                break
            starts.append(start)
            start = end
        if starts:
            first = np.asarray(starts, dtype=np.int64)
            chosen = next_accepted[first + lead]
            lead_words = pending[first[:, None] + np.arange(lead)]
            trail_words = pending[chosen[:, None] + 1 + np.arange(trail)]
            heads.append(_uniform(lead_words[:, 0::2], lead_words[:, 1::2]))
            picks.append((pending[chosen] >> shift).astype(np.int64))
            tails.append(_uniform(trail_words[:, 0::2],
                                  trail_words[:, 1::2]))
            missing -= len(starts)
        pending = pending[start:]
    if not picks:
        return (np.empty((0, before)), np.empty(0, dtype=np.int64),
                np.empty((0, after)))
    return (np.concatenate(heads), np.concatenate(picks),
            np.concatenate(tails))
