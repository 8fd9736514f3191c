"""Cluster-layer benchmark: Monte-Carlo PVT sharding across worker pools.

One measurement backs the `repro.cluster` design claim: a cold Monte-Carlo
mismatch sweep (the Fig. 5d panel, sharded into cluster chunks) must scale
with the worker-pool size.  The same sharded sweep runs through

* a 1-worker cluster (the distributed floor: all wire/pickle overhead,
  no parallelism), and
* a 4-worker cluster,

and both must reproduce the *serial, one-shard* panel bit-for-bit — the
executor contract that makes the cluster a drop-in backend.  On hosts with
>= 4 cores the 4-worker pool must be at least 2x faster than the 1-worker
pool; on smaller hosts (the usual 1-2 core CI box) the assertion relaxes to
completion + bit-identity, matching `bench_runtime_scaling.py`'s stance.

Results are printed and written to
``benchmarks/results/cluster_scaling.json``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from conftest import RESULTS_DIR

from repro.analysis.pvt_sweeps import mismatch_monte_carlo
from repro.circuits.technology import tsmc65_like
from repro.cluster import DistributedExecutor
from repro.runtime import SweepEngine

_SAMPLES = 2048
_SHARDS = 16
_SEED = 2024


def _sharded_cold_run(workers: int, technology) -> tuple:
    """Run the sharded panel on a fresh cold cluster; returns (result, seconds)."""
    executor = DistributedExecutor(workers=workers, chunksize=1, start_timeout=120.0)
    executor.start()
    try:
        if executor._fallback is not None:
            raise RuntimeError("cluster cannot start in this environment")
        engine = SweepEngine(executor)  # no cache: every shard crosses the wire
        start = time.perf_counter()
        result = mismatch_monte_carlo(
            technology,
            samples=_SAMPLES,
            seed=_SEED,
            shards=_SHARDS,
            engine=engine,
        )
        elapsed = time.perf_counter() - start
        stats = executor.status()["stats"]
    finally:
        executor.close()
    return result, elapsed, stats


def test_cluster_scaling_monte_carlo(benchmark):
    cores = os.cpu_count() or 1
    technology = tsmc65_like()

    start = time.perf_counter()
    reference = benchmark.pedantic(
        lambda: mismatch_monte_carlo(technology, samples=_SAMPLES, seed=_SEED, shards=1),
        rounds=1,
        iterations=1,
    )
    serial_seconds = time.perf_counter() - start

    single, single_seconds, single_stats = _sharded_cold_run(1, technology)
    pooled, pooled_seconds, pooled_stats = _sharded_cold_run(4, technology)

    # Whatever the pool size or dispatch schedule, the panel is bit-identical
    # to the serial, one-shard reference.
    for candidate in (single, pooled):
        np.testing.assert_array_equal(
            reference["sigma_at_sampling_times"], candidate["sigma_at_sampling_times"]
        )
        np.testing.assert_array_equal(
            reference["final_voltages"], candidate["final_voltages"]
        )
    assert single_stats["jobs_done"] == pooled_stats["jobs_done"] == _SHARDS

    speedup = single_seconds / max(pooled_seconds, 1e-9)
    lines = [
        "cluster scaling: cold Monte-Carlo PVT sweep "
        f"({_SAMPLES} samples, {_SHARDS} shards)",
        f"  cores={cores}",
        f"  serial (1 shard)   : {serial_seconds:.3f} s",
        f"  1 worker           : {single_seconds:.3f} s "
        f"({single_stats['chunks_dispatched']} chunks)",
        f"  4 workers          : {pooled_seconds:.3f} s "
        f"({pooled_stats['chunks_dispatched']} chunks, "
        f"{pooled_stats['chunks_retried']} retried)",
        f"  speedup (1 -> 4)   : {speedup:.2f}x (bit-identical results)",
    ]
    print("\n" + "\n".join(lines))
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "cluster_scaling.json").write_text(
        json.dumps(
            {
                "cores": cores,
                "samples": _SAMPLES,
                "shards": _SHARDS,
                "serial_seconds": serial_seconds,
                "single_worker_seconds": single_seconds,
                "four_worker_seconds": pooled_seconds,
                "speedup": speedup,
                "single_worker_stats": single_stats,
                "four_worker_stats": pooled_stats,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    if cores >= 4:
        assert speedup >= 2.0, (
            f"4-worker pool must be >= 2x faster on {cores} cores, got {speedup:.2f}x"
        )
