"""Service-layer benchmark: request overhead and single-flight fan-out.

Two measurements back the `repro.service` design claims:

* **round-trip overhead** — a trivial workload submitted through the full
  TCP + JSON + thread-pool path must cost no more than a few milliseconds
  over calling the engine directly, so serving is viable even for quick
  sweeps.
* **single-flight fan-out** — N concurrent clients submitting the *same*
  sweep must finish in roughly the time of one execution (the sweep runs
  once and fans out), demonstrably cheaper than N sequential distinct
  executions of the same cost.

Results are printed and written to
``benchmarks/results/service_roundtrip.json``.
"""

from __future__ import annotations

import asyncio
import json
import time

from conftest import RESULTS_DIR

from repro.runtime import ArtifactCache, Job, SweepEngine, SweepSpec
from repro.service import ServiceClient, SweepService, register_workload, unregister_workload

_JOB_SECONDS = 0.01
_FAN_OUT_CLIENTS = 8
_JOBS_PER_SWEEP = 10


def _timed_job(value: int) -> int:
    time.sleep(_JOB_SECONDS)
    return value * value


def _bench_workload(params, engine):
    tag = params.get("tag", 0)
    jobs = [
        Job(fn=_timed_job, args=(i,), name=f"bench[{tag}][{i}]")
        for i in range(_JOBS_PER_SWEEP)
    ]
    return {"sum": sum(engine.run(SweepSpec(f"bench-{tag}", jobs)))}


def _noop_workload(params, engine):
    return {"ok": True}


async def _measure(tmp_path) -> dict:
    engine = SweepEngine(cache=ArtifactCache(tmp_path / "cache"))
    service = SweepService(engine)
    host, port = await service.start()
    try:
        # --- round-trip overhead on a no-op workload --------------------
        async with ServiceClient(host, port) as client:
            await client.submit("bench-noop")  # connection warm-up
            start = time.perf_counter()
            rounds = 50
            for _ in range(rounds):
                await client.submit("bench-noop")
            roundtrip_ms = 1e3 * (time.perf_counter() - start) / rounds

        # --- N concurrent identical requests (single-flight) ------------
        async def submit(tag):
            async with ServiceClient(host, port) as client:
                return await client.submit("bench-sweep", {"tag": tag})

        executed_before = engine.stats.jobs_executed
        start = time.perf_counter()
        shared = await asyncio.gather(*(submit(0) for _ in range(_FAN_OUT_CLIENTS)))
        shared_seconds = time.perf_counter() - start
        shared_executed = engine.stats.jobs_executed - executed_before

        # --- N sequential distinct requests (the honest baseline) -------
        executed_before = engine.stats.jobs_executed
        start = time.perf_counter()
        for tag in range(1, _FAN_OUT_CLIENTS + 1):
            await submit(tag)
        distinct_seconds = time.perf_counter() - start
        distinct_executed = engine.stats.jobs_executed - executed_before
    finally:
        await service.stop()

    return {
        "roundtrip_ms": roundtrip_ms,
        "clients": _FAN_OUT_CLIENTS,
        "jobs_per_sweep": _JOBS_PER_SWEEP,
        "job_seconds": _JOB_SECONDS,
        "shared_seconds": shared_seconds,
        "shared_executed_jobs": shared_executed,
        "distinct_seconds": distinct_seconds,
        "distinct_executed_jobs": distinct_executed,
        "deduplicated_clients": sum(1 for r in shared if r.deduplicated),
        "fan_out_speedup": distinct_seconds / max(shared_seconds, 1e-9),
    }


def test_service_roundtrip_and_single_flight(tmp_path):
    register_workload("bench-noop", _noop_workload)
    register_workload("bench-sweep", _bench_workload)
    try:
        payload = asyncio.run(asyncio.wait_for(_measure(tmp_path), 120))
    finally:
        unregister_workload("bench-noop")
        unregister_workload("bench-sweep")

    lines = [
        "service round-trip + single-flight fan-out",
        f"  no-op round trip   : {payload['roundtrip_ms']:.2f} ms",
        f"  {payload['clients']} clients, same sweep : "
        f"{payload['shared_seconds']:.3f} s, {payload['shared_executed_jobs']} jobs executed "
        f"({payload['deduplicated_clients']} deduplicated)",
        f"  {payload['clients']} distinct sweeps    : "
        f"{payload['distinct_seconds']:.3f} s, {payload['distinct_executed_jobs']} jobs executed",
        f"  fan-out speedup    : {payload['fan_out_speedup']:.2f}x",
    ]
    print("\n" + "\n".join(lines))
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "service_roundtrip.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    # The sweep ran once for the identical batch, N times for distinct.
    assert payload["shared_executed_jobs"] == _JOBS_PER_SWEEP
    assert payload["distinct_executed_jobs"] == _FAN_OUT_CLIENTS * _JOBS_PER_SWEEP
    assert payload["deduplicated_clients"] == _FAN_OUT_CLIENTS - 1
    # Shared submissions must beat sequential distinct ones comfortably.
    assert payload["fan_out_speedup"] > 2.0
    # Serving overhead stays in the interactive regime.
    assert payload["roundtrip_ms"] < 250.0
