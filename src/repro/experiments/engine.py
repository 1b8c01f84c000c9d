"""Parallel sweep engine.

Every paper artifact is independent of every other, and the two
simulation-backed ones (Figure 1, Ext-Validation) decompose further
into independent per-workload *shards*, so the whole registry is an
embarrassingly-parallel sweep.  :class:`SweepEngine` fans experiment
ids — and, where a module opts in via the shard protocol — their
shards out over a :class:`concurrent.futures.ProcessPoolExecutor` and
aggregates the outcomes **deterministically**: results are ordered by
experiment id (and shard key within an experiment), never by
completion order, so parallel output is bit-identical to serial
output.  The golden-result harness (``tests/test_goldens.py``) pins
that equivalence for every artifact.

Shard protocol
--------------
An experiment module may expose four extra callables::

    shard_keys()   -> Sequence[str]     # deterministic order
    run_shard(key) -> Any               # one independent, picklable piece
    merge_shards(mapping) -> result     # assemble the run() result
    render(result) -> None              # print the paper-style report

``run()`` must equal ``merge_shards({k: run_shard(k) for k in
shard_keys()})`` — the serial path runs the very same code, which is
what makes parallel results identical by construction.

Fallback
--------
``max_workers=1`` (the default for :func:`repro.experiments.runner.
run_experiments`) runs everything in-process.  When a pool cannot be
created or dies mid-flight (sandboxed environments, missing
``/dev/shm``, ...), the engine falls back to the serial path instead
of failing the sweep.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.scaling import BandwidthWallModel, ScalingSolution
from ..core.techniques import NEUTRAL_EFFECT, TechniqueEffect
from ..resilience.deadline import check_deadline

__all__ = [
    "SweepEngine",
    "ExperimentRun",
    "SweepResult",
    "GridPoint",
    "sweep_grid",
    "default_workers",
    "WORKERS_ENV_VAR",
]

#: Environment variable overriding the auto-detected worker count.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Exceptions that mean "no worker pool here" rather than "the sweep is
#: broken" — the engine degrades to serial execution on any of these.
_POOL_FAILURES: Tuple[type, ...] = (OSError, ImportError,
                                    NotImplementedError, RuntimeError)


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` if set and valid, else CPU count.

    Always at least 1, whatever the environment reports.
    """
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is not None:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Grid evaluation (the sweep layer under figures 4-12, 15-17, ...)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GridPoint:
    """One point of a ``(die CEAs, budget, technique)`` sweep grid."""

    total_ceas: float
    traffic_budget: float = 1.0
    effect: TechniqueEffect = NEUTRAL_EFFECT


#: Grid points solved between cooperative deadline checks.  Single
#: solves are ~10µs, so 32 points bounds overrun at well under a
#: millisecond while keeping the check itself off the hot path.
_DEADLINE_CHECK_STRIDE = 32

#: Grid points per vectorized batch solve.  A 256-point batch clears in
#: a few hundred microseconds through the numpy kernel, so checking the
#: deadline once per batch keeps overrun bounded at the same order as
#: the scalar stride while amortizing the batch fixed costs.
_BATCH_STRIDE = 256


def _solve_grid_chunk(
    model: BandwidthWallModel, chunk: Sequence[GridPoint]
) -> List[ScalingSolution]:
    from ..core import vectorized

    if vectorized.use_batch(len(chunk)):
        solutions: List[ScalingSolution] = []
        for start in range(0, len(chunk), _BATCH_STRIDE):
            check_deadline("grid sweep")
            solutions.extend(
                model.supportable_cores_batch(
                    [(point.total_ceas, point.traffic_budget, point.effect)
                     for point in chunk[start:start + _BATCH_STRIDE]]
                )
            )
        return solutions
    solutions = []
    for index, point in enumerate(chunk):
        if index % _DEADLINE_CHECK_STRIDE == 0:
            check_deadline("grid sweep")
        solutions.append(
            model.supportable_cores(
                point.total_ceas,
                traffic_budget=point.traffic_budget,
                effect=point.effect,
            )
        )
    return solutions


def sweep_grid(
    model: BandwidthWallModel,
    points: Sequence[GridPoint],
    *,
    max_workers: int = 1,
) -> List[ScalingSolution]:
    """Evaluate a grid in order.

    Results are returned in grid-index order regardless of worker
    scheduling.  Parallel evaluation only pays off for very large
    grids — single solves are ~10µs — so the default is serial.
    """
    points = list(points)
    if max_workers <= 1 or len(points) < 4 * max_workers:
        return _solve_grid_chunk(model, points)
    chunk_size = (len(points) + max_workers - 1) // max_workers
    chunks = [points[i:i + chunk_size]
              for i in range(0, len(points), chunk_size)]
    try:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = [pool.submit(_solve_grid_chunk, model, chunk)
                       for chunk in chunks]
            solved = [future.result() for future in futures]
    except _POOL_FAILURES:
        return _solve_grid_chunk(model, points)
    return [solution for chunk in solved for solution in chunk]


# ----------------------------------------------------------------------
# Experiment execution
# ----------------------------------------------------------------------


@dataclass
class ExperimentRun:
    """One experiment's outcome within a sweep.

    ``elapsed`` is the total worker time spent on the experiment (for a
    sharded experiment, the sum over its shards plus the merge).
    """

    experiment_id: str
    result: Any = None
    report: Optional[str] = None
    elapsed: float = 0.0


@dataclass
class SweepResult:
    """Deterministically-ordered outcome of one engine sweep."""

    runs: List[ExperimentRun] = field(default_factory=list)
    elapsed: float = 0.0
    max_workers: int = 1
    parallel: bool = False

    @property
    def results(self) -> Dict[str, Any]:
        """Experiment id -> result object, in submission order."""
        return {run.experiment_id: run.result for run in self.runs}


def _is_sharded(module: Any) -> bool:
    return all(
        callable(getattr(module, name, None))
        for name in ("shard_keys", "run_shard", "merge_shards", "render")
    )


def _task(experiment_id: str, shard_key: Optional[str] = None,
          reports: bool = False) -> Tuple[Any, float]:
    """One worker task and its wall seconds: a shard's piece, the
    printed paper-style report, or the experiment's result object."""
    from .runner import experiment_module, experiment_report, \
        run_experiment

    started = time.perf_counter()
    if shard_key is not None:
        payload = experiment_module(experiment_id).run_shard(shard_key)
    elif reports:
        payload = experiment_report(experiment_id)
    else:
        payload = run_experiment(experiment_id)
    return payload, time.perf_counter() - started


class SweepEngine:
    """Fan experiment ids and their shards out over worker processes.

    Parameters
    ----------
    max_workers:
        ``None`` auto-detects (:func:`default_workers`); ``1`` forces
        serial, in-process execution.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            max_workers = default_workers()
        self.max_workers = max(1, int(max_workers))

    # -- public API ----------------------------------------------------

    def run(
        self,
        ids: Optional[Sequence[str]] = None,
        *,
        reports: bool = False,
        on_run: Optional[Callable[[ExperimentRun], None]] = None,
    ) -> SweepResult:
        """Run experiments and aggregate in submission order.

        Parameters
        ----------
        ids:
            Experiment ids (any spelling :func:`runner.run_experiment`
            accepts); defaults to the full registry in paper order.
        reports:
            Also capture each experiment's printed report (what the CLI
            shows for ``bandwidth-wall all``).  Sharded modules render
            from the computed result; other modules capture their
            ``main()`` output in the worker.
        on_run:
            Callback invoked once per experiment **in submission
            order** as soon as that experiment (and all its
            predecessors) completed — the CLI uses it to stream output.
        """
        from .runner import resolve_experiment_id

        keys = [resolve_experiment_id(i)
                for i in (ids if ids is not None else self._registry_ids())]
        started = time.perf_counter()
        streamed = 0
        if self.max_workers > 1 and len(keys) > 0:
            def counting(run: ExperimentRun) -> None:
                nonlocal streamed
                streamed += 1
                if on_run is not None:
                    on_run(run)

            try:
                runs = self._run_parallel(
                    keys, reports, counting if on_run is not None else None
                )
                return SweepResult(
                    runs=runs,
                    elapsed=time.perf_counter() - started,
                    max_workers=self.max_workers,
                    parallel=True,
                )
            except _POOL_FAILURES:
                # No usable worker pool — degrade to the serial path.
                # Experiments are deterministic, so skipping the
                # callbacks already streamed re-emits nothing twice.
                pass
        serial_on_run = on_run
        if on_run is not None and streamed:
            already = streamed

            def skip_streamed(run: ExperimentRun) -> None:
                nonlocal already
                if already > 0:
                    already -= 1
                    return
                on_run(run)

            serial_on_run = skip_streamed
        runs = self._run_serial(keys, reports, serial_on_run)
        return SweepResult(
            runs=runs,
            elapsed=time.perf_counter() - started,
            max_workers=self.max_workers,
            parallel=False,
        )

    def sweep_grid(
        self, model: BandwidthWallModel, points: Sequence[GridPoint]
    ) -> List[ScalingSolution]:
        """Grid evaluation with this engine's worker budget."""
        return sweep_grid(model, points, max_workers=self.max_workers)

    # -- internals -----------------------------------------------------

    @staticmethod
    def _registry_ids() -> List[str]:
        from .runner import experiment_ids

        return experiment_ids()

    def _run_serial(
        self,
        keys: Sequence[str],
        reports: bool,
        on_run: Optional[Callable[[ExperimentRun], None]],
    ) -> List[ExperimentRun]:
        runs = []
        for key in keys:
            check_deadline(f"experiment {key}")
            payload, elapsed = _task(key, reports=reports)
            run = ExperimentRun(
                experiment_id=key,
                result=None if reports else payload,
                report=payload if reports else None,
                elapsed=elapsed,
            )
            runs.append(run)
            if on_run is not None:
                on_run(run)
        return runs

    def _run_parallel(
        self,
        keys: Sequence[str],
        reports: bool,
        on_run: Optional[Callable[[ExperimentRun], None]],
    ) -> List[ExperimentRun]:
        from .runner import experiment_module

        shard_plans: Dict[int, List[str]] = {}
        for index, key in enumerate(keys):
            module = experiment_module(key)
            if _is_sharded(module):
                shard_plans[index] = list(module.shard_keys())

        completed: Dict[int, ExperimentRun] = {}
        emitted = 0

        def flush() -> None:
            nonlocal emitted
            while on_run is not None and emitted in completed:
                on_run(completed[emitted])
                emitted += 1

        with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
            future_meta = {}
            shard_outputs: Dict[int, Dict[str, Tuple[Any, float]]] = {}
            for index, key in enumerate(keys):
                if index in shard_plans:
                    shard_outputs[index] = {}
                    for shard_key in shard_plans[index]:
                        future = pool.submit(_task, key, shard_key)
                        future_meta[future] = (index, shard_key)
                else:
                    future = pool.submit(_task, key, reports=reports)
                    future_meta[future] = (index, None)

            pending = set(future_meta)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index, shard_key = future_meta[future]
                    output = future.result()
                    key = keys[index]
                    if shard_key is None:
                        payload, elapsed = output
                        completed[index] = ExperimentRun(
                            experiment_id=key,
                            result=None if reports else payload,
                            report=payload if reports else None,
                            elapsed=elapsed,
                        )
                        flush()
                        continue
                    shard_outputs[index][shard_key] = output
                    if len(shard_outputs[index]) == len(shard_plans[index]):
                        completed[index] = self._merge_experiment(
                            key, shard_plans[index], shard_outputs[index],
                            reports,
                        )
                        flush()

        runs = [completed[index] for index in range(len(keys))]
        # Without a callback nothing streamed; with one, everything has.
        return runs

    @staticmethod
    def _merge_experiment(
        key: str,
        shard_keys: Sequence[str],
        outputs: Dict[str, Tuple[Any, float]],
        reports: bool,
    ) -> ExperimentRun:
        """Parent-side merge of one sharded experiment, in shard order."""
        from .runner import experiment_module

        module = experiment_module(key)
        ordered = {sk: outputs[sk][0] for sk in shard_keys}
        started = time.perf_counter()
        result = module.merge_shards(ordered)
        merge_elapsed = time.perf_counter() - started
        report = None
        if reports:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                module.render(result)
            report = buffer.getvalue()
        return ExperimentRun(
            experiment_id=key,
            result=result,
            report=report,
            elapsed=merge_elapsed + sum(
                outputs[sk][1] for sk in shard_keys
            ),
        )
