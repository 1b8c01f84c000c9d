"""Concurrency stress: coalescing, stats integrity, serial equivalence.

Hammers ``/v1/solve`` from a thread pool with identical and distinct
payloads and asserts the serving contract under contention:

* coalescing+caching keep the number of actual bisections far below
  the request count (identical requests cost one solve: one response
  cache miss, every other lookup a hit or a coalesced wait);
* every stats layer (request counters, response cache) stays
  consistent — no lost updates under parallel hammering;
* concurrent responses are byte-identical to serial execution.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.app import ServiceConfig, start_service


@pytest.fixture
def running():
    """A fresh service (fresh counters, cold response cache)."""
    handle = start_service(
        ServiceConfig(workers=8, cache_ttl=300.0), port=0
    )
    yield handle
    handle.drain_and_stop()


REQUESTS = 48
THREADS = 16


class TestIdenticalPayloadCoalescing:
    def test_identical_solves_cost_one_bisection(self, running):
        client = running.client()
        body = {"ceas": 96.0, "alpha": 0.37, "budget": 1.2,
                "techniques": ["LC=2"]}

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [pool.submit(client.solve_raw, body)
                       for _ in range(REQUESTS)]
            outcomes = [future.result() for future in futures]

        assert {status for status, _ in outcomes} == {200}
        bodies = {raw for _, raw in outcomes}
        assert len(bodies) == 1  # byte-identical under contention

        # Serial re-execution returns the very same bytes.
        status, serial_raw = client.solve_raw(body)
        assert status == 200
        assert serial_raw in bodies

        # One computation for the scenario: every other request was
        # served by the response cache or joined the in-flight one.
        cache_stats = running.service.response_cache.stats()
        assert cache_stats.misses == 1
        assert cache_stats.hits + cache_stats.coalesced == REQUESTS
        assert cache_stats.lookups == REQUESTS + 1

    def test_request_counters_lose_nothing(self, running):
        client = running.client()
        body = {"ceas": 48.0}
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [pool.submit(client.solve_raw, body)
                       for _ in range(REQUESTS)]
            for future in futures:
                assert future.result()[0] == 200
        counted = running.service.requests_total.value(
            route="/v1/solve", method="POST", status="200"
        )
        assert counted == REQUESTS
        _, _, histogram_count = \
            running.service.request_latency.snapshot(route="/v1/solve")
        assert histogram_count == REQUESTS
        assert running.service.inflight.value() == 0


class TestDistinctPayloads:
    def test_distinct_solves_each_computed_once(self, running):
        client = running.client()
        distinct = [{"ceas": float(16 + 8 * i)} for i in range(12)]
        payloads = distinct * 4  # each distinct body requested 4x

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [pool.submit(client.solve_raw, body)
                       for body in payloads]
            outcomes = [future.result() for future in futures]

        assert {status for status, _ in outcomes} == {200}
        # Coalescing bound from the acceptance criteria: computations
        # (response cache misses) equal distinct payloads.
        cache_stats = running.service.response_cache.stats()
        assert cache_stats.misses == len(distinct)
        assert cache_stats.hits + cache_stats.coalesced == \
            len(payloads) - len(distinct)
        assert cache_stats.lookups == len(payloads)

        # Responses for one body are identical across the run; bodies
        # for different ceas differ.
        by_body = {}
        for (body, (status, raw)) in zip(payloads, outcomes):
            by_body.setdefault(body["ceas"], set()).add(raw)
        assert all(len(raws) == 1 for raws in by_body.values())
        assert len({next(iter(r)) for r in by_body.values()}) == \
            len(distinct)

    def test_mixed_valid_and_invalid_under_load(self, running):
        client = running.client()
        payloads = [{"ceas": 32.0} if i % 3 else {"alpha": -1.0}
                    for i in range(REQUESTS)]
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [pool.submit(client.solve_raw, body)
                       for body in payloads]
            statuses = [future.result()[0] for future in futures]
        expected_bad = sum(1 for i in range(REQUESTS) if i % 3 == 0)
        assert statuses.count(400) == expected_bad
        assert statuses.count(200) == REQUESTS - expected_bad
        ok = running.service.requests_total.value(
            route="/v1/solve", method="POST", status="200")
        bad = running.service.requests_total.value(
            route="/v1/solve", method="POST", status="400")
        assert (ok, bad) == (REQUESTS - expected_bad, expected_bad)
