"""Deterministic fault injection: scripted chaos that replays exactly.

A :class:`FaultProfile` is a seeded script of :class:`FaultRule`\\ s.
Each rule names a **target** (a dotted call-site label such as
``store.lease``, ``worker.chunk``, ``cache.lookup`` or ``clock`` —
fnmatch patterns like ``store.*`` are allowed) and an **action**:

``error``
    raise ``sqlite3.OperationalError`` ("database is locked" by
    default) — the store-fault class the circuit breaker exists for;
``latency``
    sleep ``latency`` seconds before the call (worker stalls, slow
    disks);
``crash``
    raise :class:`SimulatedCrash` — a ``BaseException``, so it sails
    past retry boundaries exactly like a SIGKILL would and the lease
    must expire before anyone resumes the job;
``skew``
    add ``skew`` seconds to the wrapped store clock (lease-expiry
    clock skew).

Rules fire deterministically: each rule keeps a per-rule call counter
(``after`` skips the first N matching calls, ``times`` caps firings)
and probabilistic rules draw from one ``random.Random(profile.seed)``
in rule order — so a given profile, seed and call sequence replays
byte-identically, which is what lets the chaos suite assert that
resumed job artifacts equal the golden bytes under every profile.

Wrappers
--------
:func:`faulty_store` builds a :class:`~repro.jobs.store.JobStore`
whose clock is skew-injected and wraps it in :class:`FaultyJobStore`
(method-call fault points).  :func:`faulty_execute_chunk` wraps the
job executor; :class:`FaultyResponseCache` wraps the service response
cache.  :func:`fault_wiring` builds the injector, store and executor
of one process from ``--fault-profile`` or the ``REPRO_FAULT_PROFILE``
env var; the service, its job manager, the standalone worker and the
worker fleet all go through it.
"""

from __future__ import annotations

import fnmatch
import json
import os
import random
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

__all__ = [
    "FAULT_PROFILE_ENV",
    "ACTIONS",
    "SimulatedCrash",
    "FaultRule",
    "FaultProfile",
    "FaultInjector",
    "FaultyJobStore",
    "FaultyResponseCache",
    "BUILTIN_PROFILES",
    "builtin_profile_names",
    "load_profile",
    "injector_from_env",
    "faulty_store",
    "faulty_execute_chunk",
    "fault_wiring",
]

#: Environment variable naming a builtin profile or a JSON profile file.
FAULT_PROFILE_ENV = "REPRO_FAULT_PROFILE"

ACTIONS = ("error", "latency", "crash", "skew")


class SimulatedCrash(BaseException):
    """An injected hard crash.

    Deliberately a ``BaseException``: the worker's chunk-retry
    boundary catches ``Exception``, and a *crash* must not be
    mistaken for a retryable chunk failure — the lease has to expire,
    exactly as if the process had been SIGKILLed.
    """


@dataclass(frozen=True)
class FaultRule:
    """One scripted fault: where, what, and how often."""

    target: str
    action: str
    probability: float = 1.0
    after: int = 0
    times: Optional[int] = None
    latency: float = 0.0
    skew: float = 0.0
    error: str = "database is locked"

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"choose from {list(ACTIONS)}"
            )
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"probability must be in (0, 1], got {self.probability}"
            )
        if self.after < 0:
            raise ValueError(f"after must be non-negative, got {self.after}")
        if self.times is not None and self.times <= 0:
            raise ValueError(f"times must be positive, got {self.times}")
        if self.action == "latency" and self.latency <= 0:
            raise ValueError("latency action needs latency > 0")
        if self.action == "skew" and self.skew == 0:
            raise ValueError("skew action needs a non-zero skew")

    def matches(self, target: str) -> bool:
        return fnmatch.fnmatchcase(target, self.target)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"target": self.target,
                                   "action": self.action}
        if self.probability != 1.0:
            payload["probability"] = self.probability
        if self.after:
            payload["after"] = self.after
        if self.times is not None:
            payload["times"] = self.times
        if self.latency:
            payload["latency"] = self.latency
        if self.skew:
            payload["skew"] = self.skew
        if self.error != "database is locked":
            payload["error"] = self.error
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultRule":
        if not isinstance(payload, dict):
            raise ValueError(
                f"fault rule must be a mapping, got {type(payload).__name__}"
            )
        unknown = set(payload) - {
            "target", "action", "probability", "after", "times",
            "latency", "skew", "error",
        }
        if unknown:
            raise ValueError(f"unknown fault rule keys: {sorted(unknown)}")
        if "target" not in payload or "action" not in payload:
            raise ValueError("fault rule needs 'target' and 'action'")
        return cls(
            target=str(payload["target"]),
            action=str(payload["action"]),
            probability=float(payload.get("probability", 1.0)),
            after=int(payload.get("after", 0)),
            times=(None if payload.get("times") is None
                   else int(payload["times"])),
            latency=float(payload.get("latency", 0.0)),
            skew=float(payload.get("skew", 0.0)),
            error=str(payload.get("error", "database is locked")),
        )


@dataclass(frozen=True)
class FaultProfile:
    """A named, seeded fault script."""

    name: str
    seed: int
    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultProfile":
        if not isinstance(payload, dict):
            raise ValueError(
                f"fault profile must be a mapping, "
                f"got {type(payload).__name__}"
            )
        rules = payload.get("rules", [])
        if not isinstance(rules, (list, tuple)):
            raise ValueError("fault profile 'rules' must be a list")
        return cls(
            name=str(payload.get("name", "custom")),
            seed=int(payload.get("seed", 0)),
            rules=tuple(FaultRule.from_dict(rule) for rule in rules),
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "FaultProfile":
        text = Path(path).read_text(encoding="utf-8")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"fault profile {path} is not valid JSON: {error}"
            ) from None
        return cls.from_dict(payload)


#: Shipped chaos scenarios.  Seeds are arbitrary but fixed: CI and the
#: chaos suite replay these exact firing sequences forever.
BUILTIN_PROFILES: Dict[str, FaultProfile] = {
    "store-errors": FaultProfile(
        name="store-errors", seed=1301,
        rules=(
            FaultRule(target="store.lease", action="error",
                      probability=0.3, times=4),
            FaultRule(target="store.checkpoint", action="error",
                      probability=0.3, times=3),
            FaultRule(target="store.renew_lease", action="error",
                      probability=0.5, times=2),
        ),
    ),
}
# Built entry-by-entry so each scenario stays readable.
BUILTIN_PROFILES["worker-stall"] = FaultProfile(
    name="worker-stall", seed=905,
    rules=(
        FaultRule(target="worker.chunk", action="latency",
                  latency=0.2, times=3),
    ),
)
BUILTIN_PROFILES["midchunk-crash"] = FaultProfile(
    name="midchunk-crash", seed=1106,
    rules=(
        FaultRule(target="worker.chunk", action="crash",
                  after=1, times=1),
    ),
)
BUILTIN_PROFILES["clock-skew"] = FaultProfile(
    name="clock-skew", seed=2207,
    rules=(
        FaultRule(target="clock", action="skew", skew=45.0,
                  after=4, times=3),
    ),
)
BUILTIN_PROFILES["cache-latency"] = FaultProfile(
    name="cache-latency", seed=707,
    rules=(
        FaultRule(target="cache.lookup", action="latency",
                  latency=0.05, probability=0.5, times=10),
    ),
)
BUILTIN_PROFILES["breaker-trip"] = FaultProfile(
    name="breaker-trip", seed=404,
    rules=(
        FaultRule(target="store.*", action="error",
                  error="disk I/O error"),
    ),
)


def builtin_profile_names() -> Tuple[str, ...]:
    return tuple(sorted(BUILTIN_PROFILES))


def load_profile(spec: str) -> FaultProfile:
    """Resolve a profile: builtin name first, then a JSON file path."""
    if spec in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[spec]
    path = Path(spec)
    if path.exists():
        return FaultProfile.from_file(path)
    raise ValueError(
        f"unknown fault profile {spec!r}: not a builtin "
        f"({', '.join(builtin_profile_names())}) and no such file"
    )


def injector_from_env(
        environ: Optional[Dict[str, str]] = None) -> Optional["FaultInjector"]:
    """Build an injector from ``REPRO_FAULT_PROFILE``, if set."""
    spec = (environ if environ is not None else os.environ).get(
        FAULT_PROFILE_ENV)
    if not spec:
        return None
    return FaultInjector(load_profile(spec))


class FaultInjector:
    """Evaluates a profile's rules at every instrumented call site.

    ``sleep`` is injectable so the chaos suite can script latency
    faults without real waiting; the firing sequence is unaffected.
    """

    def __init__(self, profile: FaultProfile, *,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.profile = profile
        self._sleep = sleep
        self._rng = random.Random(profile.seed)
        self._lock = threading.Lock()
        self._calls = [0] * len(profile.rules)
        self._fired = [0] * len(profile.rules)
        self._skew = 0.0

    def on_call(self, target: str) -> None:
        """Apply every rule that fires for ``target`` (may raise)."""
        pending_latency = 0.0
        with self._lock:
            for index, rule in enumerate(self.profile.rules):
                if not rule.matches(target):
                    continue
                seen = self._calls[index]
                self._calls[index] += 1
                if seen < rule.after:
                    continue
                if rule.times is not None and \
                        self._fired[index] >= rule.times:
                    continue
                if rule.probability < 1.0 and \
                        self._rng.random() >= rule.probability:
                    continue
                self._fired[index] += 1
                if rule.action == "skew":
                    self._skew += rule.skew
                elif rule.action == "latency":
                    pending_latency += rule.latency
                elif rule.action == "error":
                    raise sqlite3.OperationalError(
                        f"injected fault at {target}: {rule.error}"
                    )
                else:  # crash
                    raise SimulatedCrash(f"injected crash at {target}")
        if pending_latency > 0:
            self._sleep(pending_latency)

    def current_skew(self) -> float:
        with self._lock:
            return self._skew

    def tick_clock(self) -> float:
        """Clock fault point: fire ``clock`` rules, return the skew."""
        self.on_call("clock")
        return self.current_skew()

    def stats(self) -> Dict[str, Any]:
        """Per-rule firing counts — surfaced in /healthz and tests."""
        with self._lock:
            return {
                "profile": self.profile.name,
                "seed": self.profile.seed,
                "skew": self._skew,
                "rules": [
                    {
                        "target": rule.target,
                        "action": rule.action,
                        "calls": self._calls[index],
                        "fired": self._fired[index],
                    }
                    for index, rule in enumerate(self.profile.rules)
                ],
            }


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------

#: JobStore methods that become fault points (``store.<name>``).
STORE_FAULT_POINTS = frozenset((
    "submit", "get", "list_jobs", "counts", "retries_total",
    "queue_depth", "running_count", "lease", "renew_lease", "release",
    "checkpoint", "checkpoints", "finish", "request_cancel",
))


class FaultyJobStore:
    """A JobStore proxy that consults the injector before every call.

    Pure delegation otherwise: attributes (``state_dir``, ``path``)
    and un-instrumented methods pass straight through, so a
    ``FaultyJobStore`` drops in anywhere a ``JobStore`` does.
    """

    def __init__(self, store: Any, injector: FaultInjector) -> None:
        self._store = store
        self._injector = injector

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._store, name)
        if name in STORE_FAULT_POINTS:
            injector = self._injector

            def instrumented(*args: Any, **kwargs: Any) -> Any:
                injector.on_call(f"store.{name}")
                return attr(*args, **kwargs)

            return instrumented
        return attr


class FaultyResponseCache:
    """A ResponseCache whose lookups are fault points (``cache.lookup``).

    Composition, not subclassing, and the
    :class:`~repro.service.cache.ResponseCache` import is deferred to
    construction time: the resilience package must stay importable
    without touching the service package (service → resilience is the
    only compile-time edge; a top-level reverse import would make the
    order the two packages are first imported in matter).
    """

    def __init__(self, injector: FaultInjector, **kwargs: Any) -> None:
        from ..service.cache import ResponseCache

        self._cache = ResponseCache(**kwargs)
        self._injector = injector

    def get_or_compute(self, key: Any, compute: Callable[[], Any],
                       **kwargs: Any) -> Any:
        self._injector.on_call("cache.lookup")
        return self._cache.get_or_compute(key, compute, **kwargs)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._cache, name)

    def __len__(self) -> int:
        return len(self._cache)


def faulty_store(state_dir: Union[str, Path], injector: FaultInjector,
                 *, clock: Callable[[], float] = time.time
                 ) -> FaultyJobStore:
    """A JobStore with an injected (skewable) clock, fault-wrapped."""
    from ..jobs.store import JobStore

    skewed = lambda: clock() + injector.tick_clock()  # noqa: E731
    return FaultyJobStore(JobStore(state_dir, clock=skewed), injector)


def faulty_execute_chunk(
    injector: FaultInjector,
    base: Optional[Callable[..., Dict[str, Any]]] = None,
) -> Callable[..., Dict[str, Any]]:
    """Wrap the chunk executor with the ``worker.chunk`` fault point."""
    if base is None:
        from ..jobs import executor as executor_mod

        base = executor_mod.execute_chunk

    def execute(spec: Any, index: int,
                previous: Optional[Dict[str, Any]] = None
                ) -> Dict[str, Any]:
        injector.on_call("worker.chunk")
        return base(spec, index, previous)

    return execute


def fault_wiring(
    fault: Union[FaultInjector, str, None] = None,
    state_dir: Union[str, Path, None] = None,
) -> Tuple[Optional[FaultInjector], Any,
           Optional[Callable[..., Dict[str, Any]]]]:
    """One process's ``(injector, job store, chunk executor)``.

    ``fault`` is an injector, or a builtin profile name or JSON profile
    path to build one from; ``None`` reads ``REPRO_FAULT_PROFILE``.
    With no injector the store is a plain JobStore and the executor
    ``None`` (the worker's default); with one they are
    :func:`faulty_store` and :func:`faulty_execute_chunk`.  Without a
    ``state_dir`` the store is ``None``.
    """
    from ..jobs.store import JobStore

    if isinstance(fault, FaultInjector):
        injector: Optional[FaultInjector] = fault
    elif fault:
        injector = FaultInjector(load_profile(fault))
    else:
        injector = injector_from_env()
    if injector is None:
        store = None if state_dir is None else JobStore(state_dir)
        return None, store, None
    store = None if state_dir is None else faulty_store(state_dir, injector)
    return injector, store, faulty_execute_chunk(injector)
