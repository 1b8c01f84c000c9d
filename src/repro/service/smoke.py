"""End-to-end smoke check: boot ``bandwidth-wall serve``, poke it, drain it.

Run as::

    PYTHONPATH=src python -m repro.service.smoke

Boots the real CLI entry point as a subprocess on an ephemeral port,
then asserts the full serving contract:

1. ``/healthz`` answers ok;
2. ``/v1/solve`` for the Eq. 7 base case returns 11 cores, and its
   ``text`` matches the CLI ``solve`` output byte for byte;
3. ``/v1/experiments/fig02`` reproduces Figure 2's checkpoints;
4. a bad request gets a structured 400 and an unknown id a 404;
5. a background job (``POST /v1/jobs``) runs to completion with the
   right artifact, and a second, longer job cancels mid-run;
5b. a small exhaustive design-space search, submitted once through
    ``POST /v1/jobs`` and once through the ``POST /v1/optimize`` alias,
    completes twice with the same Pareto frontier, which dominates the
    technique-free baseline;
6. ``/metrics`` exposes request counters, latency histograms, both
   cache hit-rate families, the ``jobs_*`` families (with the
   ``jobs{kind,status}`` series) AND the ``resilience_*`` families, and
   ``/healthz`` reports job-queue health, worker liveness and the
   resilience block;
7. a request past its ``X-Request-Deadline-Ms`` budget gets a 504;
8. SIGTERM drains and exits cleanly (code 0).

Run with ``--fault-profile NAME`` (e.g. ``breaker-trip``) the smoke
instead boots the service under that seeded fault-injection profile
and asserts graceful degradation: the jobs API fails fast through the
circuit breaker while solve/healthz/metrics stay up.

Run with ``--processes N`` (N >= 2) the smoke instead exercises the
scale-out path: ``serve --processes N`` behind one port (every child
must answer, no cross-process cache tier may appear, SIGTERM must
drain the whole group), followed by an N-process worker fleet draining
a job backlog byte-identically to the serial path.

CI runs this on every supported Python; it is the "is the service
actually servable" gate that unit tests cannot give.
"""

from __future__ import annotations

import argparse
import re
import signal
import socket
import subprocess
import sys
import time

from ..experiments.runner import experiment_ids
from .client import ServiceClient, ServiceError

__all__ = ["main"]


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _check(condition: bool, label: str) -> None:
    if not condition:
        raise AssertionError(f"smoke check failed: {label}")
    print(f"  ok: {label}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fault-profile", default=None,
        help="run the degradation smoke under this seeded fault "
             "profile instead of the standard contract smoke",
    )
    parser.add_argument(
        "--processes", type=int, default=1,
        help="run the scale-out smoke against a pre-fork group of "
             "this many processes instead of the contract smoke",
    )
    args = parser.parse_args(argv)
    if args.fault_profile:
        return fault_main(args.fault_profile)
    if args.processes > 1:
        return scaleout_main(args.processes)
    return contract_main()


def contract_main() -> int:
    port = _free_port()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--workers", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    client = ServiceClient("127.0.0.1", port, timeout=30.0)
    try:
        health = client.wait_until_ready(timeout=30.0)
        _check(health["status"] == "ok", "/healthz answers ok")
        registry_size = len(experiment_ids())
        _check(health["experiments"] == registry_size,
               f"registry reports {registry_size} ids")

        solved = client.solve()
        _check(solved["solution"]["cores"] == 11,
               "/v1/solve base case: Eq. 7 supports 11 cores")
        cli = subprocess.run(
            [sys.executable, "-m", "repro", "solve"],
            stdout=subprocess.PIPE, check=True,
        )
        _check(solved["text"].encode("utf-8") == cli.stdout,
               "/v1/solve text is byte-identical to CLI solve")

        fig2 = client.experiment("fig02")
        _check(fig2["experiment_id"] == "fig2",
               "/v1/experiments/fig02 resolves the id")
        result = dict(fig2["result"])
        _check(result.get("supportable_cores_flat") == 11,
               "fig2 flat-envelope crossing is 11 cores")

        try:
            client.solve(alpha=-1)
        except ServiceError as error:
            _check(error.status == 400 and error.field_errors,
                   "bad alpha yields a structured 400")
        else:
            raise AssertionError("bad alpha was accepted")
        try:
            client.experiment("fig99")
        except ServiceError as error:
            _check(error.status == 404
                   and "fig2" in error.detail.get("valid_ids", []),
                   "unknown id yields a 404 listing valid ids")
        else:
            raise AssertionError("unknown experiment id was accepted")

        submitted = client.submit_job({"kind": "experiments",
                                       "ids": ["fig13", "ext-amdahl"]})
        _check(submitted["status"] in ("queued", "running"),
               "POST /v1/jobs accepts a background job (202)")
        finished = client.wait_for_job(submitted["id"], timeout=60)
        _check(finished["status"] == "succeeded",
               "background job runs to completion")
        _check(finished["result"]["count"] == 2
               and finished["result"]["experiments"][0]
                   ["experiment_id"] == "fig13",
               "job artifact holds the requested experiments in order")

        # A longer job (fig14 simulates for seconds): cancel it mid-run
        # and watch it stop at a chunk boundary.
        doomed = client.submit_job({"ids": ["fig14", "fig1"]})
        cancelled = client.cancel_job(doomed["id"])
        _check(cancelled["cancel_requested"]
               or cancelled["status"] == "cancelled",
               "DELETE /v1/jobs/{id} requests cancellation")
        terminal = client.wait_for_job(doomed["id"], timeout=60)
        _check(terminal["status"] == "cancelled",
               "cancelled job reaches the cancelled status")

        # Design-space optimizer: a small exhaustive space, through
        # POST /v1/jobs and through the POST /v1/optimize alias, must
        # complete twice with the same frontier.
        search = {"ceas": 256.0, "budget": 2.0,
                  "space": {"dram_density": [1.0, 8.0],
                            "stacked_layers": [0], "line_unused": [0.0],
                            "filter_unused": [0.0],
                            "core_area_fraction": [1.0],
                            "sharing_fraction": [0.0]}}
        generic = client.submit_job({"kind": "optimize", **search})
        alias = client.request_json("POST", "/v1/optimize", search)
        _check(generic["kind"] == alias["kind"] == "optimize"
               and generic["spec"] == alias["spec"],
               "POST /v1/jobs and /v1/optimize accept the same search")
        done = [client.wait_for_job(job["id"], timeout=60)
                for job in (generic, alias)]
        _check(all(job["status"] == "succeeded" for job in done),
               "optimize jobs run to completion")
        artifact = client.request_json(
            "GET", f"/v1/optimize/{alias['id']}")["result"]
        _check(artifact == done[0]["result"],
               "both routes yield the same optimize artifact")
        _check(artifact["strategy"] == "exhaustive"
               and artifact["evaluated"] == 32
               and artifact["frontier_size"] >= 1,
               "optimize artifact holds an exhaustive Pareto frontier")
        best = max(point["cores"] for point in artifact["frontier"])
        neutral = client.solve(ceas=256.0, budget=2.0)
        _check(best >= neutral["solution"]["cores"],
               "frontier dominates the technique-free baseline")

        health = client.healthz()
        _check(health["jobs"]["workers_alive"] >= 1,
               "/healthz reports live job workers")
        _check(health["jobs"]["succeeded"] >= 1
               and health["jobs"]["cancelled"] >= 1,
               "/healthz jobs block tallies outcomes")

        metrics = client.metrics_text()
        for needle in (
            'service_requests_total{route="/v1/solve",method="POST",'
            'status="200"}',
            "service_request_duration_seconds_bucket",
            "service_response_cache_hit_rate",
            "service_response_cache_expirations_total",
            'jobs_submitted_total{kind="experiments"}',
            "jobs_queue_depth",
            "jobs_workers_alive",
            "jobs_succeeded_total",
            "jobs_cancelled_total",
            "jobs_chunk_duration_seconds",
            'jobs{kind="optimize",status="succeeded"} 2',
            'jobs_budgeted_units_total{kind="optimize"} 64',
            'resilience_breaker_state{dependency="job-store"} 0',
            "resilience_admission_active",
            "resilience_admission_waiting",
        ):
            _check(needle in metrics, f"metrics expose {needle.split('{')[0]}")
        match = re.search(
            r'service_requests_total\{route="/v1/solve",method="POST",'
            r'status="200"\} (\d+)', metrics)
        _check(match is not None and int(match.group(1)) >= 1,
               "solve request was counted")

        resilience = health.get("resilience", {})
        _check(resilience.get("admission", {}).get("capacity", 0) >= 1,
               "/healthz reports the admission snapshot")
        _check(resilience.get("breakers", [{}])[0].get("state")
               == "closed",
               "/healthz reports the job-store breaker closed")

        impatient = ServiceClient("127.0.0.1", port, timeout=30.0,
                                  deadline_ms=0.001)
        try:
            impatient.sweep(ceas=[16.0, 32.0], budgets=[1.0, 2.0])
        except ServiceError as error:
            _check(error.status == 504
                   and error.code == "deadline_exceeded",
                   "a 1µs deadline on /v1/sweep yields a 504")
        else:
            raise AssertionError("expired deadline was not enforced")
        metrics = client.metrics_text()
        _check('request_deadline_exceeded_total{route="/v1/sweep"}'
               in metrics, "deadline overruns are counted per route")

        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=30)
        _check(returncode == 0, "SIGTERM shuts down cleanly (exit 0)")
    except Exception:
        if process.poll() is None:
            process.kill()
        output, _ = process.communicate(timeout=10)
        print("--- server output ---")
        print(output or "<empty>")
        raise
    print("service smoke: all checks passed")
    return 0


def fault_main(profile: str) -> int:
    """Degradation smoke: boot under a fault profile, assert the blast
    radius stays contained to the faulted dependency."""
    print(f"service smoke: fault profile {profile!r}")
    port = _free_port()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--workers", "4",
         "--fault-profile", profile],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    client = ServiceClient("127.0.0.1", port, timeout=30.0)
    try:
        health = client.wait_until_ready(timeout=30.0)
        _check(health["status"] == "ok",
               "/healthz answers ok despite active faults")
        _check(health.get("resilience", {})
               .get("fault_injection", {}).get("profile") == profile,
               "/healthz names the active fault profile")

        solved = client.solve()
        _check(solved["solution"]["cores"] == 11,
               "/v1/solve is unaffected by store faults")

        # Hammer the store-backed jobs listing until the breaker trips:
        # every response must be a structured 503, first from the store
        # fault itself, then — fail-fast — from the open breaker.
        codes = []
        for _ in range(20):
            try:
                client.jobs()
            except ServiceError as error:
                _check(error.status == 503
                       and error.code in ("store_unavailable",
                                          "circuit_open"),
                       f"jobs API degrades to structured 503 "
                       f"({error.code})")
                codes.append(error.code)
                if error.code == "circuit_open":
                    break
            else:
                raise AssertionError(
                    "store fault profile did not fault the jobs API")
        _check("store_unavailable" in codes and "circuit_open" in codes,
               "breaker trips open after repeated store faults")

        started = time.monotonic()
        try:
            client.jobs()
        except ServiceError as error:
            _check(error.code == "circuit_open",
                   "open breaker keeps failing fast")
        else:
            raise AssertionError("open breaker admitted a request")
        elapsed = time.monotonic() - started
        _check(elapsed < 1.0,
               f"breaker-open rejection is fast ({elapsed * 1000:.0f}ms)")

        metrics = client.metrics_text()
        for needle in (
            'resilience_breaker_state{dependency="job-store"} 2',
            'resilience_breaker_transitions_total'
            '{dependency="job-store",from="closed",to="open"}',
            "resilience_breaker_opened_total 1",
        ):
            _check(needle in metrics,
                   f"metrics expose {needle.split('{')[0]}")
        _check("jobs_queue_depth nan" in metrics,
               "store gauges degrade to NaN, scrape survives")

        health = client.healthz()
        _check(health["resilience"]["breakers"][0]["state"] == "open",
               "/healthz reports the job-store breaker open")
        _check("error" in health["jobs"],
               "/healthz jobs block degrades without failing")

        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=30)
        _check(returncode == 0,
               "SIGTERM shuts down cleanly under faults (exit 0)")
    except Exception:
        if process.poll() is None:
            process.kill()
        output, _ = process.communicate(timeout=10)
        print("--- server output ---")
        print(output or "<empty>")
        raise
    print(f"service smoke ({profile}): all checks passed")
    return 0


def scaleout_main(processes: int) -> int:
    """Scale-out smoke: pre-fork serving plus a multi-process fleet.

    Boots ``serve --processes N`` on an ephemeral port and asserts the
    group contract — one port, N pids answering, each with its own
    caches and no shared tier, a job draining through the shared
    store, clean group drain on SIGTERM — then drains a job backlog
    with an N-process worker fleet and checks the artifacts stay
    byte-identical to the serial path.
    """
    import os
    import shutil
    import tempfile

    print(f"service smoke: scale-out, {processes} processes")
    port = _free_port()
    base = tempfile.mkdtemp(prefix="smoke-scaleout-")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--processes", str(processes),
         "--workers", "4", "--job-workers", "1",
         "--state-dir", os.path.join(base, "jobs")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    client = ServiceClient("127.0.0.1", port, timeout=30.0)
    try:
        health = client.wait_until_ready(timeout=30.0)
        _check(health["status"] == "ok", "/healthz answers ok")
        _check(health.get("scaleout", {}).get("processes") == processes,
               f"/healthz reports the {processes}-process group")

        # The kernel picks the child per connection, so keep asking
        # until every pid has answered; distinct alphas force real
        # solves in whichever child takes them.
        pids = set()
        for index in range(300):
            client.solve(alpha=0.26 + (index % 200) * 0.003)
            pids.add(client.healthz()["scaleout"]["pid"])
            if len(pids) >= processes:
                break
        _check(len(pids) == processes,
               f"all {processes} children answered requests")
        _check("scaleout_shared_cache" not in client.metrics_text(),
               "no child builds a shared cache tier")

        submitted = client.submit_job({"ids": ["fig13"]})
        finished = client.wait_for_job(submitted["id"], timeout=60)
        _check(finished["status"] == "succeeded",
               "a background job drains through the shared store")

        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=60)
        _check(returncode == 0,
               "SIGTERM drains the whole group (exit 0)")
        output, _ = process.communicate(timeout=10)
        _check(output.count("accepting via") == processes,
               "every child reported its accept loop live")
    except Exception:
        if process.poll() is None:
            process.kill()
            output, _ = process.communicate(timeout=10)
            print("--- server output ---")
            print(output or "<empty>")
        raise
    finally:
        shutil.rmtree(base, ignore_errors=True)

    # Part two: N forked claimers race over one lease-based store.
    from ..jobs.executor import (
        chunk_count,
        encode_artifact,
        serial_artifact,
    )
    from ..jobs.spec import JobSpec
    from ..jobs.store import SUCCEEDED, JobStore

    fleet_dir = tempfile.mkdtemp(prefix="smoke-fleet-")
    try:
        spec = JobSpec.sweep(ceas=(16.0, 32.0, 64.0),
                             budgets=(1.0, 2.0), alpha=0.5,
                             chunk_size=2)
        store = JobStore(fleet_dir)
        job_ids = []
        for index in range(2 * processes):
            record = store.submit(spec, chunks_total=chunk_count(spec),
                                  job_id=f"smoke-{index}")
            job_ids.append(record.id)
        result = subprocess.run(
            [sys.executable, "-m", "repro.jobs.worker",
             "--state-dir", fleet_dir, "--processes", str(processes),
             "--once", "--poll-interval", "0.05"],
            capture_output=True, text=True, timeout=300,
        )
        _check(result.returncode == 0,
               "worker fleet drains the backlog and exits 0")
        records = [store.get(job_id) for job_id in job_ids]
        _check(all(record.status == SUCCEEDED for record in records),
               "every backlog job succeeded")
        serial = encode_artifact(serial_artifact(spec))
        _check(all(record.result_text == serial for record in records),
               "fleet artifacts are byte-identical to the serial path")
        store.close()
    finally:
        shutil.rmtree(fleet_dir, ignore_errors=True)
    print(f"service smoke (scale-out x{processes}): all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
