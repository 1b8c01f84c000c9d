"""Job specifications: what a durable job runs, in serialisable form.

A :class:`JobSpec` is a job kind's name, that kind's frozen params and
a chunk size.  :data:`KINDS` maps each kind name to its params class:

* ``experiments`` — :class:`ExperimentsParams`, registry ids executed
  through the serial :class:`~repro.experiments.engine.SweepEngine`
  path, one or more ids per chunk;
* ``sweep`` — :class:`SweepParams`, a ``(ceas x budgets)`` grid solved
  through :func:`~repro.experiments.engine.sweep_grid`, a slice of grid
  points per chunk (``POST /v1/sweep`` solves the same rows at once);
* ``optimize`` — :class:`~repro.optimize.search.OptimizeParams`;
* ``trace`` — :class:`~repro.traces.pipeline.TraceParams`.

Every params class provides the same methods: ``to_dict``/``from_dict``
(the kind's fields of the stored spec), ``chunk_count(chunk_size)``,
``execute_chunk(index, chunk_size, previous)`` (``previous`` is chunk
``index - 1``'s payload read back from JSON, or None; only an
evolutionary optimize search uses it), ``assemble(payloads)`` and
``cost()`` (the work units a job budgets), plus a ``default_chunk``.
The executor, the service and its metrics look a kind up in the table
instead of branching on it.

Specs round-trip losslessly through ``to_dict``/``from_dict`` so they
can live in the job store and be re-planned identically by whichever
worker process leases the job — chunk planning is a pure function of
the spec (:mod:`repro.jobs.executor`), which is what makes crash-resume
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

from ..optimize.search import OptimizeParams
from ..traces.pipeline import TraceParams

__all__ = [
    "JobSpec",
    "ExperimentsParams",
    "SweepParams",
    "KINDS",
    "DEFAULT_EXPERIMENT_CHUNK",
    "DEFAULT_SWEEP_CHUNK",
    "STORED_ZERO_CHUNK",
    "DEFAULT_MAX_ATTEMPTS",
    "GOLDEN_SCHEMA_VERSION",
]

#: One experiment per chunk: a checkpoint lands after every artifact,
#: so a crash mid-registry loses at most one experiment's work.
DEFAULT_EXPERIMENT_CHUNK = 1

#: Grid points per sweep chunk: one kernel batch
#: (``engine._BATCH_STRIDE``), a few milliseconds of solving, so a
#: 900-point grid runs as 4 chunks and commits 4 checkpoints.
DEFAULT_SWEEP_CHUNK = 256

#: What a stored ``chunk_size`` of 0 means, per kind whose default has
#: changed since such specs were stored.  A sweep stored with 0 was
#: planned at 64 points, and its ``chunks_total`` and checkpoints still
#: are; a new sweep is stored with its chunk size written out
#: (:meth:`JobSpec.for_store`).
STORED_ZERO_CHUNK = {"sweep": 64}

#: Execution attempts before a job is marked failed for good.
DEFAULT_MAX_ATTEMPTS = 3

#: Mirrors ``tests/goldens/regen.SCHEMA_VERSION`` — the golden encoding
#: version stamped into every experiment entry a job produces.
GOLDEN_SCHEMA_VERSION = 1


def _slice_bounds(index: int, chunk_size: int,
                  total: int) -> Tuple[int, int]:
    """``(start, stop)`` of chunk ``index`` over ``total`` work items."""
    start = index * chunk_size
    if index < 0 or start >= total:
        raise IndexError(
            f"chunk index {index} out of range for "
            f"{-(-total // chunk_size)} chunks"
        )
    return start, min(start + chunk_size, total)


@dataclass(frozen=True)
class ExperimentsParams:
    """Registry ids, in run order (already resolved to canonical ids)."""

    ids: Tuple[str, ...]

    default_chunk: ClassVar[int] = DEFAULT_EXPERIMENT_CHUNK

    @classmethod
    def create(cls, ids: Optional[Sequence[str]] = None
               ) -> "ExperimentsParams":
        """Normalise ids eagerly (``"Figure 2"`` → ``"fig2"``) so the
        stored spec — and therefore the chunk plan — is canonical;
        ``None`` or no ids means the whole registry."""
        from ..experiments.runner import experiment_ids, \
            resolve_experiment_id

        return cls(ids=tuple(resolve_experiment_id(i) for i in ids)
                   if ids else tuple(experiment_ids()))

    def to_dict(self) -> Dict[str, Any]:
        return {"ids": list(self.ids)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExperimentsParams":
        return cls(ids=tuple(payload.get("ids", ())))

    def chunk_count(self, chunk_size: int) -> int:
        return -(-len(self.ids) // chunk_size)

    def execute_chunk(self, index: int, chunk_size: int,
                      previous: Optional[Dict[str, Any]]
                      ) -> Dict[str, Any]:
        """Run a group of ids through the serial engine path."""
        from ..analysis.export import to_jsonable
        from ..experiments.engine import SweepEngine

        start, stop = _slice_bounds(index, chunk_size, len(self.ids))
        sweep = SweepEngine(max_workers=1).run(self.ids[start:stop])
        return {
            "experiments": [
                {
                    "experiment_id": run.experiment_id,
                    "schema": GOLDEN_SCHEMA_VERSION,
                    "result": to_jsonable(run.result),
                }
                for run in sweep.runs
            ]
        }

    def assemble(self, payloads: Sequence[Dict[str, Any]]
                 ) -> Dict[str, Any]:
        entries = [entry for payload in payloads
                   for entry in payload["experiments"]]
        return {"kind": "experiments", "count": len(entries),
                "experiments": entries}

    def cost(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class SweepParams:
    """A ``(ceas x budget)`` grid, solved in grid order: the body of
    ``POST /v1/sweep`` and the params of a sweep job."""

    ceas: Tuple[float, ...]
    budgets: Tuple[float, ...] = (1.0,)
    alpha: float = 0.5
    techniques: Tuple[str, ...] = ()

    default_chunk: ClassVar[int] = DEFAULT_SWEEP_CHUNK

    def __post_init__(self) -> None:
        if not self.ceas:
            raise ValueError("sweep jobs need at least one ceas value")

    @property
    def num_points(self) -> int:
        return len(self.ceas) * len(self.budgets)

    def _model_and_effect(self):
        from ..core.presets import paper_baseline_design
        from ..core.scaling import BandwidthWallModel
        from ..core.scenario import ScenarioRequest

        effect, labels = ScenarioRequest(
            techniques=self.techniques
        ).combined_effect()
        model = BandwidthWallModel(paper_baseline_design(), alpha=self.alpha)
        return model, effect, labels

    def rows(self, start: int = 0,
             stop: Optional[int] = None) -> List[Dict[str, Any]]:
        """Solve the grid points ``[start:stop]``, in grid order.

        Builds only the slice's points: point ``i`` is
        ``(ceas[i // len(budgets)], budgets[i % len(budgets)])``.
        """
        from ..experiments.engine import GridPoint, sweep_grid

        model, effect, _ = self._model_and_effect()
        indices = range(*slice(start, stop).indices(self.num_points))
        points = [
            GridPoint(total_ceas=self.ceas[row],
                      traffic_budget=self.budgets[column], effect=effect)
            for row, column in (divmod(index, len(self.budgets))
                                for index in indices)
        ]
        solutions = sweep_grid(model, points)
        return [
            {
                "ceas": point.total_ceas,
                "budget": point.traffic_budget,
                "cores": solution.cores,
                "continuous_cores": solution.continuous_cores,
                "core_area_share": solution.core_area_share,
                "effective_cache_per_core":
                    solution.effective_cache_per_core,
                "area_limited": solution.area_limited,
            }
            for point, solution in zip(points, solutions)
        ]

    def summary(self, rows: List[Dict[str, Any]]) -> Dict[str, Any]:
        """The ``POST /v1/sweep`` body for the grid's solved rows."""
        _, _, labels = self._model_and_effect()
        return {
            "request": self.to_dict(),
            "techniques": list(labels),
            "count": len(rows),
            "points": rows,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {"ceas": list(self.ceas), "budgets": list(self.budgets),
                "alpha": self.alpha, "techniques": list(self.techniques)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SweepParams":
        return cls(
            ceas=tuple(float(c) for c in payload.get("ceas", ())),
            budgets=tuple(float(b) for b in payload.get("budgets", (1.0,))),
            alpha=float(payload.get("alpha", 0.5)),
            techniques=tuple(payload.get("techniques", ())),
        )

    def chunk_count(self, chunk_size: int) -> int:
        return -(-self.num_points // chunk_size)

    def execute_chunk(self, index: int, chunk_size: int,
                      previous: Optional[Dict[str, Any]]
                      ) -> Dict[str, Any]:
        return {"points": self.rows(*_slice_bounds(index, chunk_size,
                                                   self.num_points))}

    def assemble(self, payloads: Sequence[Dict[str, Any]]
                 ) -> Dict[str, Any]:
        rows = [row for payload in payloads for row in payload["points"]]
        return {"kind": "sweep", **self.summary(rows)}

    def cost(self) -> int:
        return self.num_points


#: Every job kind: its name → its params class.
KINDS: Dict[str, Any] = {
    "experiments": ExperimentsParams,
    "sweep": SweepParams,
    "optimize": OptimizeParams,
    "trace": TraceParams,
}


@dataclass(frozen=True)
class JobSpec:
    """One durable job's immutable description: a kind, that kind's
    params and a chunk size (0 means the kind's default)."""

    kind: str
    params: Any
    chunk_size: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; choose from {list(KINDS)}"
            )
        if not isinstance(self.params, KINDS[self.kind]):
            raise ValueError(
                f"{self.kind} jobs need {KINDS[self.kind].__name__}, "
                f"got {type(self.params).__name__}"
            )
        if self.chunk_size < 0:
            raise ValueError(
                f"chunk_size must be non-negative, got {self.chunk_size}"
            )

    # -- construction --------------------------------------------------

    @classmethod
    def experiments(cls, ids: Optional[Sequence[str]] = None,
                    *, chunk_size: int = 0) -> "JobSpec":
        """An experiments job; ``ids=None`` means the whole registry."""
        return cls("experiments", ExperimentsParams.create(ids),
                   chunk_size=chunk_size)

    @classmethod
    def sweep(cls, *, ceas: Sequence[float],
              budgets: Sequence[float] = (1.0,),
              alpha: float = 0.5,
              techniques: Sequence[str] = (),
              chunk_size: int = 0) -> "JobSpec":
        """A sweep-grid job over ``(ceas x budgets)`` in grid order."""
        return cls("sweep", SweepParams(
            ceas=tuple(float(c) for c in ceas),
            budgets=tuple(float(b) for b in budgets),
            alpha=float(alpha),
            techniques=tuple(techniques),
        ), chunk_size=chunk_size)

    @classmethod
    def optimize(cls, *, ceas: float, budget: float = 1.0,
                 alpha: float = 0.5,
                 strategy: str = "auto",
                 seed: int = 0,
                 generations: int = 0,
                 population: int = 0,
                 space: Optional[Any] = None,
                 chunk_size: int = 0) -> "JobSpec":
        """A design-space optimizer job (see :mod:`repro.optimize`).

        ``space`` accepts a :class:`~repro.optimize.SearchSpace`, a
        ``{dimension: [values]}`` mapping of overrides, or ``None`` for
        the full default space.  ``strategy='auto'`` resolves to
        exhaustive or evolutionary **here**, so the stored spec — and
        therefore the chunk plan — is canonical.
        """
        return cls("optimize", OptimizeParams.create(
            ceas=ceas, budget=budget, alpha=alpha, strategy=strategy,
            seed=seed, generations=generations, population=population,
            space=space,
        ), chunk_size=chunk_size)

    @classmethod
    def trace_job(cls, *, params: Optional[TraceParams] = None,
                  chunk_size: int = 0, **kwargs: Any) -> "JobSpec":
        """A trace-simulation job (see :mod:`repro.traces`).

        Pass a resolved :class:`~repro.traces.TraceParams` via
        ``params``, or its :meth:`~repro.traces.TraceParams.create`
        keyword arguments directly.  Resolution happens **here**, so
        the stored spec — and therefore the chunk plan — is canonical.
        """
        if params is None:
            params = TraceParams.create(**kwargs)
        elif kwargs:
            raise ValueError("pass either params or keyword arguments, "
                             "not both")
        return cls("trace", params, chunk_size=chunk_size)

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form, stored verbatim in the job store."""
        return {"kind": self.kind, "chunk_size": self.chunk_size,
                **self.params.to_dict()}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Inverse of :meth:`to_dict` (raises ValueError on bad shapes)."""
        if not isinstance(payload, dict):
            raise ValueError(f"job spec must be a mapping, "
                             f"got {type(payload).__name__}")
        kind = payload.get("kind", "experiments")
        if kind not in KINDS:
            raise ValueError(
                f"unknown job kind {kind!r}; choose from {list(KINDS)}"
            )
        return cls(kind, KINDS[kind].from_dict(payload),
                   chunk_size=int(payload.get("chunk_size", 0)))

    def for_store(self) -> "JobSpec":
        """This spec as the store keeps it: a kind whose stored 0 reads
        back as an old default (:data:`STORED_ZERO_CHUNK`) has its
        chunk size written out; any other spec is kept as it is."""
        if self.chunk_size or self.kind not in STORED_ZERO_CHUNK:
            return self
        return replace(self, chunk_size=self.params.default_chunk)

    @classmethod
    def from_stored(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Inverse of :meth:`for_store`: a stored spec, planned as it
        was planned when it was stored."""
        spec = cls.from_dict(payload)
        if spec.chunk_size or spec.kind not in STORED_ZERO_CHUNK:
            return spec
        return replace(spec, chunk_size=STORED_ZERO_CHUNK[spec.kind])

    # -- planning helpers ----------------------------------------------

    @property
    def effective_chunk_size(self) -> int:
        return self.chunk_size or self.params.default_chunk
