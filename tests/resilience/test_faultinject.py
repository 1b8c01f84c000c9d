"""Fault injection: rule gating, determinism, wrappers."""

import json
import sqlite3

import pytest

from repro.jobs.spec import JobSpec
from repro.jobs.store import JobStore
from repro.resilience.faultinject import (
    BUILTIN_PROFILES,
    FAULT_PROFILE_ENV,
    FaultInjector,
    FaultProfile,
    FaultRule,
    FaultyJobStore,
    SimulatedCrash,
    builtin_profile_names,
    fault_wiring,
    faulty_execute_chunk,
    faulty_store,
    injector_from_env,
    load_profile,
)


def profile(*rules, seed=7, name="test"):
    return FaultProfile(name=name, seed=seed, rules=tuple(rules))


class TestRules:
    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            FaultRule(target="store.lease", action="explode")

    def test_rejects_bad_probability(self):
        for p in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                FaultRule(target="x", action="error", probability=p)

    def test_latency_needs_positive_latency(self):
        with pytest.raises(ValueError):
            FaultRule(target="x", action="latency")

    def test_dict_round_trip(self):
        rule = FaultRule(target="store.*", action="error",
                         probability=0.25, after=2, times=3,
                         error="disk I/O error")
        assert FaultRule.from_dict(rule.to_dict()) == rule

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError) as excinfo:
            FaultRule.from_dict({"target": "x", "action": "error",
                                 "probabilty": 0.5})
        assert "probabilty" in str(excinfo.value)

    def test_fnmatch_targets(self):
        rule = FaultRule(target="store.*", action="error")
        assert rule.matches("store.lease")
        assert rule.matches("store.checkpoint")
        assert not rule.matches("worker.chunk")


class TestProfiles:
    def test_builtin_names_cover_issue_scenarios(self):
        names = builtin_profile_names()
        for required in ("store-errors", "worker-stall",
                         "midchunk-crash", "clock-skew", "breaker-trip"):
            assert required in names

    def test_load_profile_builtin(self):
        assert load_profile("store-errors") is \
            BUILTIN_PROFILES["store-errors"]

    def test_load_profile_file(self, tmp_path):
        path = tmp_path / "profile.json"
        original = profile(
            FaultRule(target="store.lease", action="error", times=1)
        )
        path.write_text(json.dumps(original.to_dict()))
        loaded = load_profile(str(path))
        assert loaded == original

    def test_load_profile_unknown(self):
        with pytest.raises(ValueError) as excinfo:
            load_profile("no-such-profile")
        assert "store-errors" in str(excinfo.value)

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            FaultProfile.from_file(path)

    def test_injector_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULT_PROFILE_ENV, raising=False)
        assert injector_from_env() is None
        monkeypatch.setenv(FAULT_PROFILE_ENV, "clock-skew")
        injector = injector_from_env()
        assert injector.profile.name == "clock-skew"


class TestInjector:
    def test_after_skips_then_times_caps(self):
        injector = FaultInjector(profile(
            FaultRule(target="op", action="error", after=2, times=2)
        ))
        outcomes = []
        for _ in range(6):
            try:
                injector.on_call("op")
                outcomes.append("ok")
            except sqlite3.OperationalError:
                outcomes.append("err")
        assert outcomes == ["ok", "ok", "err", "err", "ok", "ok"]

    def test_probabilistic_rules_replay_identically(self):
        spec = profile(
            FaultRule(target="op", action="error", probability=0.4),
            seed=1234,
        )

        def run():
            injector = FaultInjector(spec)
            outcomes = []
            for _ in range(50):
                try:
                    injector.on_call("op")
                    outcomes.append(0)
                except sqlite3.OperationalError:
                    outcomes.append(1)
            return outcomes

        first, second = run(), run()
        assert first == second
        assert 0 < sum(first) < 50  # actually probabilistic

    def test_crash_is_base_exception(self):
        injector = FaultInjector(profile(
            FaultRule(target="op", action="crash", times=1)
        ))
        with pytest.raises(SimulatedCrash):
            injector.on_call("op")
        assert not issubclass(SimulatedCrash, Exception)

    def test_latency_uses_injected_sleep(self):
        slept = []
        injector = FaultInjector(
            profile(FaultRule(target="op", action="latency",
                              latency=0.25, times=2)),
            sleep=slept.append,
        )
        for _ in range(3):
            injector.on_call("op")
        assert slept == [0.25, 0.25]

    def test_skew_accumulates(self):
        injector = FaultInjector(profile(
            FaultRule(target="clock", action="skew", skew=30.0, times=2)
        ))
        assert injector.tick_clock() == 30.0
        assert injector.tick_clock() == 60.0
        assert injector.tick_clock() == 60.0  # times exhausted

    def test_stats_reports_calls_and_firings(self):
        injector = FaultInjector(profile(
            FaultRule(target="op", action="error", times=1)
        ))
        with pytest.raises(sqlite3.OperationalError):
            injector.on_call("op")
        injector.on_call("op")
        stats = injector.stats()
        assert stats["rules"][0]["calls"] == 2
        assert stats["rules"][0]["fired"] == 1


class TestWrappers:
    def test_faulty_store_injects_then_delegates(self, tmp_path):
        injector = FaultInjector(profile(
            FaultRule(target="store.lease", action="error", times=1)
        ))
        store = faulty_store(tmp_path, injector)
        assert isinstance(store, FaultyJobStore)
        spec = JobSpec.experiments(["fig13"])
        job = store.submit(spec, chunks_total=1)
        with pytest.raises(sqlite3.OperationalError):
            store.lease("w", lease_ttl=30.0)
        leased = store.lease("w", lease_ttl=30.0)
        assert leased.id == job.id

    def test_faulty_store_clock_skew_expires_leases(self, tmp_path):
        from .clocks import FakeClock

        clock = FakeClock(1_000_000.0)
        injector = FaultInjector(profile(
            FaultRule(target="clock", action="skew", skew=3600.0, after=8)
        ))
        store = faulty_store(tmp_path, injector, clock=clock)
        spec = JobSpec.experiments(["fig13"])
        store.submit(spec, chunks_total=1)
        leased = store.lease("first", lease_ttl=30.0)
        assert leased is not None
        # Once skew kicks in the store clock jumps an hour: the lease
        # looks expired and a second worker can steal the job.
        stolen = None
        for _ in range(20):
            stolen = store.lease("thief", lease_ttl=30.0)
            if stolen is not None:
                break
        assert stolen is not None and stolen.id == leased.id

    def test_plain_attributes_pass_through(self, tmp_path):
        injector = FaultInjector(profile())
        store = faulty_store(tmp_path, injector)
        assert store.counts()["queued"] == 0  # instrumented, no rule

    def test_faulty_execute_chunk_fires_worker_point(self):
        injector = FaultInjector(profile(
            FaultRule(target="worker.chunk", action="crash", times=1)
        ))
        calls = []

        def base(spec, index, previous):
            calls.append(index)
            return {"index": index}

        execute = faulty_execute_chunk(injector, base=base)
        with pytest.raises(SimulatedCrash):
            execute(None, 0)
        assert execute(None, 1) == {"index": 1}
        assert calls == [1]  # the crashed call never reached the base

    def test_fault_wiring_wraps_store_and_executor_in_one_injector(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_PROFILE_ENV, "clock-skew")
        injector, store, execute = fault_wiring("breaker-trip", tmp_path)
        assert injector.profile.name == "breaker-trip"  # beats the env
        assert isinstance(store, FaultyJobStore)
        assert store._injector is injector
        passed, store, _ = fault_wiring(injector, tmp_path)
        assert passed is injector and store._injector is injector
        assert fault_wiring(None)[0].profile.name == "clock-skew"
        with pytest.raises(SimulatedCrash):
            fault_wiring(FaultInjector(profile(FaultRule(
                target="worker.chunk", action="crash"))))[2](None, 0)


def test_plain_store_unaffected(tmp_path):
    """Sanity: wrappers never mutate the underlying store class."""
    store = JobStore(tmp_path)
    assert store.counts()["queued"] == 0
