"""Chunk planning, execution and artifact assembly for durable jobs.

Everything here is a pure, deterministic function of a
:class:`~repro.jobs.spec.JobSpec`, delegated to its kind's params (see
:data:`~repro.jobs.spec.KINDS`):

* :func:`chunk_count` — how many chunks the job runs.  Every worker
  that leases a job re-derives the identical plan from the stored spec,
  so a resumed job continues the very sequence the crashed worker was
  executing.
* :func:`execute_chunk` — one chunk's JSON-ready payload, computed
  through the same engine paths the CLI and service use, handed the
  previous chunk's payload as read back from JSON (an evolutionary
  search continues from it; :func:`serial_artifact` round-trips it too).
* :func:`assemble_artifact` — the final result from the ordered chunk
  payloads.  Experiment entries use the exact golden encoding
  (``{"experiment_id", "schema", "result"}`` with
  :func:`~repro.analysis.export.to_jsonable` results), and
  :func:`encode_artifact` serialises with the goldens' ``json.dumps``
  settings — so a checkpoint-resumed job byte-matches both a serial
  run (:func:`serial_artifact`) and the checked-in snapshots.

Chunk payloads round-trip through non-strict JSON in the store (bare
``NaN`` allowed, like the golden files); the HTTP layer strictifies on
render, exactly as it does for ``/v1/experiments``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from .spec import JobSpec

__all__ = [
    "chunk_count",
    "execute_chunk",
    "assemble_artifact",
    "encode_artifact",
    "serial_artifact",
]


def chunk_count(spec: JobSpec) -> int:
    """How many checkpoints a complete run of ``spec`` writes."""
    return spec.params.chunk_count(spec.effective_chunk_size)


def execute_chunk(spec: JobSpec, index: int,
                  previous: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, Any]:
    """Compute one chunk's JSON-ready payload (raises IndexError when
    ``index`` is outside the plan); ``previous`` is chunk
    ``index - 1``'s payload, None when there is none at hand."""
    return spec.params.execute_chunk(index, spec.effective_chunk_size,
                                     previous)


def assemble_artifact(spec: JobSpec,
                      payloads: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge ordered chunk payloads into the job's final result."""
    if len(payloads) != chunk_count(spec):
        raise ValueError(
            f"expected {chunk_count(spec)} chunk payloads, "
            f"got {len(payloads)}"
        )
    return spec.params.assemble(list(payloads))


def encode_artifact(artifact: Dict[str, Any]) -> str:
    """Canonical artifact text — the goldens' ``json.dumps`` settings.

    Non-strict on purpose (bare ``NaN`` tokens, like the golden files);
    the service strictifies before the payload leaves the process.
    """
    return json.dumps(artifact, indent=1) + "\n"


def serial_artifact(spec: JobSpec) -> Dict[str, Any]:
    """The artifact a chunkless, serial run produces.

    Checkpointed, resumed and retried runs must all equal this — tests
    pin the equivalence byte-for-byte via :func:`encode_artifact`.
    """
    payloads: List[Dict[str, Any]] = []
    previous = None
    for index in range(chunk_count(spec)):
        payloads.append(execute_chunk(spec, index, previous))
        previous = json.loads(json.dumps(payloads[-1]))
    return assemble_artifact(spec, payloads)
