"""Runtime-subsystem scaling benchmark: executors and the artifact cache.

Two measurements back the `repro.runtime` design claims:

* **parallel scaling** — the Fig. 5d mismatch Monte-Carlo (4,000 samples in
  8 shards) through a local cluster
  (:class:`repro.cluster.DistributedExecutor`, one worker per core up to 8,
  started before the timer) versus the serial executor.  Both must produce
  bit-identical panels; on hosts with >= 4 cores the distributed run must
  be at least 2x faster.  The sweep is large enough to split: the whole
  48-corner exploration is one ~40 ms batched solve, too short for any
  multi-process executor to beat.
* **cache scaling** — a cold characterisation run (every sweep hits the
  reference solver) versus a warm re-run served entirely from the
  content-addressed artifact cache, which must be at least 10x faster and
  execute zero jobs.

The measured numbers are printed and written to
``benchmarks/results/runtime_scaling.json`` so CI runs leave a machine
readable artefact alongside the text tables of the other benches.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from conftest import RESULTS_DIR

from repro.analysis.pvt_sweeps import mismatch_monte_carlo
from repro.cluster import DistributedExecutor
from repro.core.characterization import CharacterizationPlan, characterize
from repro.runtime import ArtifactCache, SerialExecutor, SweepEngine

#: The parallel-scaling panel: 4,000 Monte-Carlo samples cut into 8 shards,
#: so every worker of an up-to-8-worker pool gets at least one.
MONTE_CARLO = {"samples": 4000, "shards": 8}


def _write_json(name: str, payload: dict) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_runtime_parallel_scaling(benchmark, technology):
    cores = os.cpu_count() or 1
    workers = min(cores, 8)

    # One untimed panel warms this process as the distributed leg warms its
    # workers, so both legs time a warm run.
    serial_engine = SweepEngine(SerialExecutor())
    mismatch_monte_carlo(technology, engine=serial_engine, **MONTE_CARLO)
    start = time.perf_counter()
    serial = benchmark.pedantic(
        lambda: mismatch_monte_carlo(technology, engine=serial_engine, **MONTE_CARLO),
        rounds=1,
        iterations=1,
    )
    serial_seconds = time.perf_counter() - start

    # The cluster comes up before the timer, as in bench_cluster_scaling.py,
    # and one untimed panel loads the modelling layer in every worker: the
    # leg measures dispatch and compute, not worker start-up.
    executor = DistributedExecutor(workers=workers, start_timeout=120.0)
    executor.start()
    try:
        if executor._fallback is not None:
            raise RuntimeError("cluster cannot start in this environment")
        mismatch_monte_carlo(technology, engine=SweepEngine(executor), **MONTE_CARLO)
        start = time.perf_counter()
        distributed = mismatch_monte_carlo(
            technology, engine=SweepEngine(executor), **MONTE_CARLO
        )
        distributed_seconds = time.perf_counter() - start
    finally:
        executor.close()

    # Whatever the schedule, the panel is bit-identical.
    assert serial.keys() == distributed.keys()
    assert len(serial["final_voltages"]) == MONTE_CARLO["samples"]
    for key in serial:
        np.testing.assert_array_equal(serial[key], distributed[key])

    speedup = serial_seconds / max(distributed_seconds, 1e-9)
    lines = [
        "runtime scaling: Fig. 5d Monte-Carlo "
        f"({MONTE_CARLO['samples']} samples, {MONTE_CARLO['shards']} shards), "
        "serial vs distributed executor",
        f"  cores={cores}, workers={workers}",
        f"  serial     : {serial_seconds:.3f} s",
        f"  distributed: {distributed_seconds:.3f} s",
        f"  speedup    : {speedup:.2f}x (bit-identical results)",
    ]
    print("\n" + "\n".join(lines))
    _write_json(
        "runtime_scaling_distributed",
        {
            "cores": cores,
            "workers": workers,
            "samples": MONTE_CARLO["samples"],
            "shards": MONTE_CARLO["shards"],
            "serial_seconds": serial_seconds,
            "distributed_seconds": distributed_seconds,
            "speedup": speedup,
        },
    )
    if cores >= 4:
        assert speedup >= 2.0, (
            f"distributed Monte-Carlo must be >= 2x faster on {cores} cores, "
            f"got {speedup:.2f}x"
        )


def test_runtime_cache_scaling(benchmark, technology, tmp_path):
    plan = CharacterizationPlan()
    cache = ArtifactCache(tmp_path / "artifact-cache")

    cold_engine = SweepEngine(cache=cache)
    start = time.perf_counter()
    cold = benchmark.pedantic(
        lambda: characterize(technology, plan, engine=cold_engine),
        rounds=1,
        iterations=1,
    )
    cold_seconds = time.perf_counter() - start

    warm_engine = SweepEngine(cache=cache)
    start = time.perf_counter()
    warm = characterize(technology, plan, engine=warm_engine)
    warm_seconds = time.perf_counter() - start

    # The warm run executes nothing — every sweep is served from disk.
    assert warm_engine.stats.jobs_executed == 0
    assert warm_engine.stats.cache_hits == warm_engine.stats.jobs_submitted > 0
    np.testing.assert_array_equal(cold.base.bitline_voltage, warm.base.bitline_voltage)
    np.testing.assert_array_equal(
        cold.discharge_energy.energy, warm.discharge_energy.energy
    )

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    lines = [
        "runtime scaling: characterisation, cold vs warm artifact cache",
        f"  records  : {cold.record_count()}",
        f"  cold run : {cold_seconds:.3f} s ({cold_engine.stats.jobs_executed} jobs executed)",
        f"  warm run : {warm_seconds:.3f} s (0 jobs executed, "
        f"{warm_engine.stats.cache_hits} cache hits)",
        f"  speedup  : {speedup:.1f}x",
    ]
    print("\n" + "\n".join(lines))
    _write_json(
        "runtime_scaling_cache",
        {
            "records": cold.record_count(),
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": speedup,
            "warm_jobs_executed": warm_engine.stats.jobs_executed,
            "warm_cache_hits": warm_engine.stats.cache_hits,
        },
    )
    assert speedup >= 10.0, f"warm cache must be >= 10x faster, got {speedup:.1f}x"
