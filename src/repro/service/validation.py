"""Request validation: JSON bodies → typed scenario/sweep/job requests.

Validation is *total*: every field is checked and every problem is
collected, so a 400 response names all offending fields at once with
the same diagnostics the CLI prints (unknown technique labels list the
valid ones, bad parameters name the technique, ...).

A job body is checked by :func:`validate_job_request` (``kind``,
``chunk_size``, ``max_attempts`` and which fields the kind accepts)
and by its kind's validator in :data:`VALIDATORS`, keyed by the names
of :data:`~repro.jobs.spec.KINDS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.scenario import ScenarioRequest, parse_technique_spec
from ..jobs.spec import (
    DEFAULT_MAX_ATTEMPTS,
    KINDS,
    ExperimentsParams,
    JobSpec,
    SweepParams,
)
from ..optimize.search import OptimizeParams
from ..traces.pipeline import TraceParams
from .errors import FieldError, ValidationError

__all__ = [
    "MAX_SWEEP_POINTS",
    "MAX_JOB_ATTEMPTS",
    "MAX_JOB_CHUNK_SIZE",
    "MAX_OPTIMIZE_EVALUATIONS",
    "MAX_OPTIMIZE_GENERATIONS",
    "MAX_OPTIMIZE_POPULATION",
    "MAX_TRACE_ACCESSES",
    "MAX_TRACE_UNITS",
    "MAX_TRACE_CAPACITIES",
    "MAX_TRACE_WORKING_SET",
    "VALIDATORS",
    "JobRequest",
    "validate_solve_request",
    "validate_sweep_request",
    "validate_job_request",
    "validate_experiments_request",
    "validate_optimize_request",
    "validate_trace_request",
]

#: Upper bound on one sweep's grid (|ceas| x |budgets|).  A request
#: above it is a 400, not a multi-minute stall.
MAX_SWEEP_POINTS = 10_000

#: Bounds on every job's knobs: retry attempts and chunk size.
MAX_JOB_ATTEMPTS = 10
MAX_JOB_CHUNK_SIZE = 1_000

#: Bounds on optimize jobs: total solves an accepted request may cost
#: (exhaustive valid configurations, or generations x population for
#: evolutionary searches) plus the per-knob caps.
MAX_OPTIMIZE_EVALUATIONS = 20_000
MAX_OPTIMIZE_GENERATIONS = 200
MAX_OPTIMIZE_POPULATION = 256

#: Bounds on trace jobs: the access passes an accepted request may cost
#: (``TraceParams.cost()``: ``sharing`` units scale with their core
#: count, a cross-check adds one pass per capacity), plus per-knob caps
#: keeping one job's memory and latency bounded.
MAX_TRACE_ACCESSES = 2_000_000
MAX_TRACE_UNITS = 16
MAX_TRACE_CAPACITIES = 64
MAX_TRACE_WORKING_SET = 1 << 18

_SOLVE_FIELDS = ("ceas", "alpha", "budget", "techniques")
_SWEEP_FIELDS = ("ceas", "alpha", "budgets", "techniques")
#: Fields every job kind accepts beside its params' own.
_JOB_FIELDS = ("kind", "chunk_size", "max_attempts")

#: Each job kind's validator, by function name, and the largest
#: ``chunk_size`` the kind accepts.  The name is resolved in this module
#: on every call, so a wrapper installed on the module attribute (a
#: tracer, say) sees validations that come through ``/v1/jobs`` too.
VALIDATORS = {
    "experiments": ("validate_experiments_request", MAX_JOB_CHUNK_SIZE),
    "sweep": ("validate_sweep_request", MAX_JOB_CHUNK_SIZE),
    "optimize": ("validate_optimize_request", MAX_OPTIMIZE_EVALUATIONS),
    "trace": ("validate_trace_request", MAX_JOB_CHUNK_SIZE),
}


def _require_object(payload: Any) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise ValidationError(
            [FieldError("$", "request body must be a JSON object")]
        )
    return payload


def _check_unknown_fields(payload: Dict[str, Any],
                          allowed: Sequence[str],
                          errors: List[FieldError]) -> None:
    for name in payload:
        if name not in allowed:
            errors.append(FieldError(
                name, f"unknown field; allowed fields: {sorted(allowed)}"
            ))


def _positive_number(payload: Dict[str, Any], name: str, default: float,
                     errors: List[FieldError]) -> float:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(FieldError(
            name, f"must be a number, got {type(value).__name__}"
        ))
        return default
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        errors.append(FieldError(
            name, f"must be positive and finite, got {value}"
        ))
        return default
    return value


def _technique_specs(payload: Dict[str, Any],
                     errors: List[FieldError]) -> Tuple[str, ...]:
    raw = payload.get("techniques", [])
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list):
        errors.append(FieldError(
            "techniques",
            f"must be a list of LABEL[=VALUE] strings, "
            f"got {type(raw).__name__}",
        ))
        return ()
    specs: List[str] = []
    for index, spec in enumerate(raw):
        if not isinstance(spec, str):
            errors.append(FieldError(
                f"techniques[{index}]",
                f"must be a string, got {type(spec).__name__}",
            ))
            continue
        try:
            parse_technique_spec(spec)
        except ValueError as error:
            errors.append(FieldError(f"techniques[{index}]", str(error)))
            continue
        specs.append(spec)
    return tuple(specs)


def _combined_effect_errors(specs: Tuple[str, ...],
                            errors: List[FieldError]) -> None:
    """Structural conflicts (e.g. two cell densities) are a 400 too."""
    if any(error.field.startswith("techniques") for error in errors):
        return  # per-spec problems already reported
    try:
        ScenarioRequest(techniques=specs).combined_effect()
    except ValueError as error:
        errors.append(FieldError("techniques", str(error)))


def _number_list(payload: Dict[str, Any], name: str,
                 default: Tuple[float, ...],
                 errors: List[FieldError]) -> Tuple[float, ...]:
    raw = payload.get(name)
    if raw is None:
        return default
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        errors.append(FieldError(
            name, "must be a number or a non-empty list of numbers"
        ))
        return default
    values: List[float] = []
    for index, value in enumerate(raw):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(FieldError(
                f"{name}[{index}]",
                f"must be a number, got {type(value).__name__}",
            ))
            continue
        value = float(value)
        if not math.isfinite(value) or value <= 0:
            errors.append(FieldError(
                f"{name}[{index}]",
                f"must be positive and finite, got {value}",
            ))
            continue
        values.append(value)
    return tuple(values) if values else default


def validate_solve_request(payload: Any) -> ScenarioRequest:
    """Validate a ``POST /v1/solve`` body into a :class:`ScenarioRequest`.

    Raises :class:`ValidationError` carrying one
    :class:`~repro.service.errors.FieldError` per problem.
    """
    payload = _require_object(payload)
    errors: List[FieldError] = []
    _check_unknown_fields(payload, _SOLVE_FIELDS, errors)
    ceas = _positive_number(payload, "ceas", 32.0, errors)
    alpha = _positive_number(payload, "alpha", 0.5, errors)
    budget = _positive_number(payload, "budget", 1.0, errors)
    techniques = _technique_specs(payload, errors)
    _combined_effect_errors(techniques, errors)
    if errors:
        raise ValidationError(errors)
    return ScenarioRequest(
        ceas=ceas, alpha=alpha, budget=budget, techniques=techniques
    )


@dataclass(frozen=True)
class JobRequest:
    """A validated job body: a spec plus retry budget."""

    spec: JobSpec
    max_attempts: int


def _bounded_int(payload: Dict[str, Any], name: str, default: int,
                 upper: int, errors: List[FieldError]) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(FieldError(
            name, f"must be an integer, got {type(value).__name__}"
        ))
        return default
    if not 1 <= value <= upper:
        errors.append(FieldError(
            name, f"must be between 1 and {upper}, got {value}"
        ))
        return default
    return value


def _experiment_ids_field(payload: Dict[str, Any],
                          errors: List[FieldError]) -> Tuple[str, ...]:
    """Resolve ``ids`` (any accepted spelling) or collect 400s."""
    from ..experiments.runner import experiment_ids, resolve_experiment_id

    raw = payload.get("ids")
    if raw is None:
        return ()
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        errors.append(FieldError(
            "ids", "must be a non-empty list of experiment ids "
                   "(omit for the whole registry)"
        ))
        return ()
    keys: List[str] = []
    for index, value in enumerate(raw):
        if not isinstance(value, str):
            errors.append(FieldError(
                f"ids[{index}]",
                f"must be a string, got {type(value).__name__}",
            ))
            continue
        try:
            keys.append(resolve_experiment_id(value))
        except KeyError:
            errors.append(FieldError(
                f"ids[{index}]",
                f"unknown experiment {value!r}; "
                f"valid ids: {experiment_ids()}",
            ))
    return tuple(keys)


def validate_job_request(payload: Any,
                         fixed_kind: Optional[str] = None) -> JobRequest:
    """Validate a job body into a :class:`JobRequest`.

    ``kind`` defaults to ``"experiments"`` (with no ``ids``, the whole
    registry).  An alias route passes ``fixed_kind``: the body's
    ``kind`` may then be omitted, and must match it when present.  Each
    kind accepts its params' own fields plus ``kind``, ``chunk_size``
    and ``max_attempts``; its validator checks its own fields.
    """
    payload = _require_object(payload)
    kind = payload.get("kind", fixed_kind or "experiments")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValidationError([FieldError(
            "kind", f"must be one of {list(KINDS)}, got {kind!r}"
        )])
    if fixed_kind not in (None, kind):
        raise ValidationError([FieldError(
            "kind", f"this route takes {fixed_kind!r} jobs, got {kind!r}"
        )])
    validator, max_chunk_size = VALIDATORS[kind]
    own = [field.name for field in fields(KINDS[kind])
           if field.name not in _JOB_FIELDS]
    errors: List[FieldError] = []
    _check_unknown_fields(payload, _JOB_FIELDS + tuple(own), errors)
    # chunk_size 0 (the default) means "the kind's default chunking".
    chunk_size = 0
    if "chunk_size" in payload:
        chunk_size = _bounded_int(payload, "chunk_size", 1,
                                  max_chunk_size, errors)
    max_attempts = _bounded_int(payload, "max_attempts",
                                DEFAULT_MAX_ATTEMPTS, MAX_JOB_ATTEMPTS,
                                errors)
    try:
        params = globals()[validator](
            {name: payload[name] for name in own if name in payload})
    except ValidationError as error:
        errors.extend(error.errors)
    if errors:
        raise ValidationError(errors)
    return JobRequest(spec=JobSpec(kind, params, chunk_size=chunk_size),
                      max_attempts=max_attempts)


def validate_experiments_request(payload: Any) -> ExperimentsParams:
    """An experiments job's fields: ``ids`` in any accepted spelling;
    none means the whole registry."""
    errors: List[FieldError] = []
    ids = _experiment_ids_field(payload, errors)
    if errors:
        raise ValidationError(errors)
    return ExperimentsParams.create(ids)


def _space_field(payload: Dict[str, Any],
                 errors: List[FieldError]) -> "Any":
    """Validate ``space`` overrides into a SearchSpace (None = default)."""
    from ..optimize import SearchSpace

    raw = payload.get("space")
    if raw is None:
        return SearchSpace.build()
    if not isinstance(raw, dict):
        errors.append(FieldError(
            "space",
            f"must be an object mapping dimension names to value "
            f"lists, got {type(raw).__name__}",
        ))
        return SearchSpace.build()
    overrides: Dict[str, List[float]] = {}
    for name, values in raw.items():
        if isinstance(values, (int, float)) and not isinstance(values,
                                                               bool):
            values = [values]
        if not isinstance(values, list) or not values or any(
            isinstance(v, bool) or not isinstance(v, (int, float))
            for v in values
        ):
            errors.append(FieldError(
                f"space.{name}",
                "must be a number or a non-empty list of numbers",
            ))
            continue
        overrides[name] = [float(v) for v in values]
    try:
        return SearchSpace.build(overrides)
    except ValueError as error:
        errors.append(FieldError("space", str(error)))
        return SearchSpace.build()


def validate_optimize_request(payload: Any) -> OptimizeParams:
    """An optimize job's fields, resolved into :class:`OptimizeParams`.

    ``strategy`` defaults to ``auto`` (exhaustive for small spaces,
    evolutionary above the threshold); the params hold the concrete
    strategy.  The search's total solve budget — valid configurations
    for exhaustive, ``generations x population`` for evolutionary — is
    capped at :data:`MAX_OPTIMIZE_EVALUATIONS`.
    """
    from ..optimize.search import (
        AUTO_STRATEGY,
        DEFAULT_GENERATIONS,
        DEFAULT_POPULATION,
        EXHAUSTIVE_STRATEGY,
        STRATEGIES,
    )

    errors: List[FieldError] = []
    if "ceas" not in payload:
        errors.append(FieldError(
            "ceas", "required: the die size (in CEAs) to optimize for"
        ))
    ceas = _positive_number(payload, "ceas", 256.0, errors)
    budget = _positive_number(payload, "budget", 1.0, errors)
    alpha = _positive_number(payload, "alpha", 0.5, errors)
    strategy = payload.get("strategy", AUTO_STRATEGY)
    if strategy not in (AUTO_STRATEGY,) + STRATEGIES:
        errors.append(FieldError(
            "strategy",
            f"must be one of {[AUTO_STRATEGY] + list(STRATEGIES)}, "
            f"got {strategy!r}",
        ))
        strategy = AUTO_STRATEGY
    seed = payload.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        errors.append(FieldError(
            "seed", f"must be an integer, got {type(seed).__name__}"
        ))
        seed = 0
    generations = _bounded_int(payload, "generations",
                               DEFAULT_GENERATIONS,
                               MAX_OPTIMIZE_GENERATIONS, errors)
    population = _bounded_int(payload, "population", DEFAULT_POPULATION,
                              MAX_OPTIMIZE_POPULATION, errors)
    params = OptimizeParams.create(
        ceas=ceas, budget=budget, alpha=alpha, strategy=strategy,
        seed=seed, generations=generations, population=population,
        space=_space_field(payload, errors),
    )
    if params.cost() > MAX_OPTIMIZE_EVALUATIONS:
        field = ("space" if params.strategy == EXHAUSTIVE_STRATEGY
                 else "generations")
        errors.append(FieldError(
            field,
            f"search budget too large: {params.cost()} evaluations "
            f"> {MAX_OPTIMIZE_EVALUATIONS}",
        ))
    if errors:
        raise ValidationError(errors)
    return params


def _trace_units_field(payload: Dict[str, Any], source: str,
                       errors: List[FieldError]) -> Any:
    """Validate ``units`` against the source (None = source default)."""
    raw = payload.get("units")
    if raw is None:
        return None
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        errors.append(FieldError(
            "units", "must be a number or a non-empty list of numbers "
                     "(omit for the source's defaults)"
        ))
        return None
    if len(raw) > MAX_TRACE_UNITS:
        errors.append(FieldError(
            "units", f"too many units: {len(raw)} > {MAX_TRACE_UNITS}"
        ))
        return None
    values: List[Any] = []
    for index, value in enumerate(raw):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(FieldError(
                f"units[{index}]",
                f"must be a number, got {type(value).__name__}",
            ))
            continue
        if source == "powerlaw":
            value = float(value)
            if not math.isfinite(value) or not 0 < value <= 4:
                errors.append(FieldError(
                    f"units[{index}]",
                    f"powerlaw units are alphas in (0, 4], got {value}",
                ))
                continue
        else:
            if isinstance(value, float) and not value.is_integer():
                errors.append(FieldError(
                    f"units[{index}]",
                    f"{source} units are positive integers, got {value}",
                ))
                continue
            value = int(value)
            if value < 1:
                errors.append(FieldError(
                    f"units[{index}]",
                    f"{source} units are positive integers, got {value}",
                ))
                continue
        values.append(value)
    return values if values else None


def _trace_line_counts_field(payload: Dict[str, Any],
                             errors: List[FieldError]) -> Any:
    """Validate ``line_counts`` capacities (None = the default ladder)."""
    raw = payload.get("line_counts")
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        errors.append(FieldError(
            "line_counts", "must be a non-empty list of capacities in "
                           "cache lines (omit for the default ladder)"
        ))
        return None
    if len(raw) > MAX_TRACE_CAPACITIES:
        errors.append(FieldError(
            "line_counts",
            f"too many capacities: {len(raw)} > {MAX_TRACE_CAPACITIES}",
        ))
        return None
    values: List[int] = []
    for index, value in enumerate(raw):
        if isinstance(value, bool) or not isinstance(value, int) \
                or not 1 <= value <= MAX_TRACE_WORKING_SET * 4:
            errors.append(FieldError(
                f"line_counts[{index}]",
                f"must be an integer between 1 and "
                f"{MAX_TRACE_WORKING_SET * 4}, got {value!r}",
            ))
            continue
        values.append(value)
    return values if values else None


def validate_trace_request(payload: Any) -> TraceParams:
    """A trace job's fields, resolved into :class:`TraceParams`.

    Only synthetic sources are accepted over HTTP — ``file`` traces
    would make the service read server-side paths.  The job's cost in
    access passes (``sharing`` units scale with their core count, and a
    cross-check at ``associativity`` adds one pass per capacity) is
    capped at :data:`MAX_TRACE_ACCESSES`.
    """
    from ..traces.synthesis import SYNTHETIC_SOURCES

    errors: List[FieldError] = []
    source = payload.get("source")
    if source is None:
        errors.append(FieldError(
            "source",
            f"required: one of {list(SYNTHETIC_SOURCES)}",
        ))
        source = "powerlaw"
    elif source not in SYNTHETIC_SOURCES:
        errors.append(FieldError(
            "source",
            f"must be one of {list(SYNTHETIC_SOURCES)} "
            f"(file traces run via the CLI only), got {source!r}",
        ))
        source = "powerlaw"
    units = _trace_units_field(payload, source, errors)
    accesses = _bounded_int(payload, "accesses", 100_000,
                            MAX_TRACE_ACCESSES, errors)
    working_set_lines = _bounded_int(payload, "working_set_lines",
                                     1 << 14, MAX_TRACE_WORKING_SET,
                                     errors)
    line_bytes = payload.get("line_bytes", 64)
    if isinstance(line_bytes, bool) or not isinstance(line_bytes, int) \
            or line_bytes < 8 or line_bytes > 4096 \
            or line_bytes & (line_bytes - 1):
        errors.append(FieldError(
            "line_bytes",
            f"must be a power of two between 8 and 4096, "
            f"got {line_bytes!r}",
        ))
        line_bytes = 64
    seed = payload.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        errors.append(FieldError(
            "seed", f"must be an integer, got {type(seed).__name__}"
        ))
        seed = 0
    line_counts = _trace_line_counts_field(payload, errors)
    fit_min_lines = 0
    if "fit_min_lines" in payload:
        fit_min_lines = _bounded_int(payload, "fit_min_lines", 1,
                                     MAX_TRACE_WORKING_SET * 4, errors)
    fit_max_lines = 2048
    if "fit_max_lines" in payload:
        fit_max_lines = _bounded_int(payload, "fit_max_lines", 2048,
                                     MAX_TRACE_WORKING_SET * 4, errors)
    associativity = 0
    if "associativity" in payload:
        associativity = _bounded_int(payload, "associativity", 8, 64,
                                     errors)
    if errors:
        raise ValidationError(errors)
    try:
        params = TraceParams.create(
            source=source, units=units, accesses=accesses,
            working_set_lines=working_set_lines, line_bytes=line_bytes,
            seed=seed, line_counts=line_counts,
            fit_min_lines=fit_min_lines, fit_max_lines=fit_max_lines,
            associativity=associativity,
        )
    except ValueError as error:
        raise ValidationError([FieldError("$", str(error))])
    if params.cost() > MAX_TRACE_ACCESSES:
        raise ValidationError([FieldError(
            "accesses",
            f"simulation too large: {params.cost()} access passes > "
            f"{MAX_TRACE_ACCESSES} (sharing units multiply accesses by "
            f"their core count; associativity adds one pass per "
            f"capacity)",
        )])
    return params


def validate_sweep_request(payload: Any) -> SweepParams:
    """Validate a ``POST /v1/sweep`` body (or a sweep job's fields)
    into :class:`~repro.jobs.spec.SweepParams`."""
    payload = _require_object(payload)
    errors: List[FieldError] = []
    _check_unknown_fields(payload, _SWEEP_FIELDS, errors)
    if "ceas" not in payload:
        errors.append(FieldError(
            "ceas", "required: a number or non-empty list of die sizes"
        ))
    ceas = _number_list(payload, "ceas", (32.0,), errors)
    budgets = _number_list(payload, "budgets", (1.0,), errors)
    alpha = _positive_number(payload, "alpha", 0.5, errors)
    techniques = _technique_specs(payload, errors)
    _combined_effect_errors(techniques, errors)
    if len(ceas) * len(budgets) > MAX_SWEEP_POINTS:
        errors.append(FieldError(
            "ceas",
            f"grid too large: {len(ceas)} ceas x {len(budgets)} budgets "
            f"> {MAX_SWEEP_POINTS} points",
        ))
    if errors:
        raise ValidationError(errors)
    return SweepParams(
        ceas=ceas, budgets=budgets, alpha=alpha, techniques=techniques
    )
