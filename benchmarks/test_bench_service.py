"""Closed-loop load benchmark for the model-serving API.

Boots the service in-process on an ephemeral port, then drives it with
a pool of closed-loop clients (each thread issues its next request as
soon as the previous response lands).  The benchmark reports the
end-to-end wall time for the whole run; the assertions pin the serving
contract under load:

* throughput stays in a sane range (the response cache serves and
  coalesces identical bodies, so the service must not be
  bisection-bound);
* the p99 server-side latency, read from the service's own histogram,
  stays below a generous bound — observability and the benchmark agree
  on what was measured;
* coalescing holds: the number of actual bisections never exceeds the
  number of distinct payloads.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.app import ServiceConfig, start_service

CLIENT_THREADS = 8
REQUESTS_PER_THREAD = 25
DISTINCT_SCENARIOS = 10


@pytest.fixture
def running():
    handle = start_service(
        ServiceConfig(workers=CLIENT_THREADS, cache_ttl=300.0), port=0
    )
    yield handle
    handle.drain_and_stop()


def closed_loop(handle):
    """Each thread works through its request list back-to-back."""
    client = handle.client()
    bodies = [
        {"ceas": float(32 * (1 + i % DISTINCT_SCENARIOS)),
         "alpha": 0.5, "budget": 1.0}
        for i in range(REQUESTS_PER_THREAD)
    ]

    def worker(_):
        statuses = []
        for body in bodies:
            status, _raw = client.solve_raw(body)
            statuses.append(status)
        return statuses

    with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
        results = list(pool.map(worker, range(CLIENT_THREADS)))
    return results


def test_bench_service_closed_loop(benchmark, running, bench_once):
    results = bench_once(closed_loop, running)

    total = CLIENT_THREADS * REQUESTS_PER_THREAD
    assert sum(len(statuses) for statuses in results) == total
    assert all(status == 200
               for statuses in results for status in statuses)

    service = running.service

    # The instrumentation saw every request.
    counted = service.requests_total.value(
        route="/v1/solve", method="POST", status="200"
    )
    assert counted == total

    # Coalescing bound: all those requests cost at most one bisection
    # per distinct scenario (response cache misses = actual solves).
    cache_stats = service.response_cache.stats()
    assert cache_stats.misses <= DISTINCT_SCENARIOS
    assert cache_stats.hits + cache_stats.coalesced >= \
        total - DISTINCT_SCENARIOS

    # Server-side p99 from the service's own latency histogram.  The
    # cached hot path answers in well under a millisecond of compute;
    # 0.5 s absorbs CI-runner noise while still catching a service that
    # serializes behind the solver.
    p99 = service.request_latency.quantile(0.99, route="/v1/solve")
    assert p99 is not None and p99 <= 0.5

    # Derived throughput, reported for the benchmark log.  The bound is
    # deliberately loose: even slow CI machines serve hundreds of
    # cached requests per second.  Under --benchmark-disable there is
    # no timing record, so the assertions above are the whole check.
    if benchmark.stats is None:
        return
    elapsed = benchmark.stats.stats.total
    throughput = total / elapsed if elapsed else float("inf")
    benchmark.extra_info["requests"] = total
    benchmark.extra_info["throughput_rps"] = round(throughput, 1)
    benchmark.extra_info["p99_seconds"] = p99
    assert throughput > 50
