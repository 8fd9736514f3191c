"""Sharding a Monte-Carlo PVT sweep across a local cluster worker pool.

The script demonstrates the third execution tier (:mod:`repro.cluster`) on
one machine:

1. build a ``distributed`` executor that spawns two long-lived worker
   subprocesses (the same thing ``python -m repro run pvt --executor
   distributed --workers 2`` does) and registers them with the in-process
   coordinator;
2. run the Fig. 5d Monte-Carlo mismatch panel as a *sharded* sweep —
   contiguous ``SeedSequence``-stable sample ranges dispatched as chunks
   across the pool — and verify the merged result is **bit-identical** to
   the serial, one-shard reference;
3. re-run the sharded sweep against a content-addressed artifact cache:
   every shard is a cache hit resolved engine-side, so nothing crosses the
   wire at all;
4. print the coordinator's live status document — the same numbers
   ``python -m repro cluster status --connect HOST:PORT`` reports.

Run with::

    PYTHONPATH=src python examples/cluster_pool.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.analysis.pvt_sweeps import mismatch_monte_carlo
from repro.circuits.technology import tsmc65_like
from repro.cluster import DistributedExecutor
from repro.runtime import ArtifactCache, SweepEngine

SAMPLES = 128
SHARDS = 8


def main() -> None:
    technology = tsmc65_like()

    print("serial, one-shard reference panel ...")
    reference = mismatch_monte_carlo(technology, samples=SAMPLES, seed=7, shards=1)

    with tempfile.TemporaryDirectory() as cache_dir:
        with DistributedExecutor(workers=2, chunksize=1) as executor:
            address = executor.address
            if address is None:
                # Sandboxed host: the executor degraded to serial — the
                # sharded sweep still runs and stays bit-identical.
                print("cluster unavailable here; sweeps degrade to serial")
            else:
                print(
                    f"cluster endpoint on {address[0]}:{address[1]}, "
                    f"workers: {executor.worker_pids}"
                )
            engine = SweepEngine(executor, cache=ArtifactCache(cache_dir))

            print(f"sharded sweep: {SAMPLES} samples in {SHARDS} chunks across the pool ...")
            sharded = mismatch_monte_carlo(
                technology, samples=SAMPLES, seed=7, shards=SHARDS, engine=engine
            )
            identical = np.array_equal(
                reference["sigma_at_sampling_times"], sharded["sigma_at_sampling_times"]
            ) and np.array_equal(reference["final_voltages"], sharded["final_voltages"])
            print(f"  bit-identical to serial: {identical}")
            for t, sigma in zip(
                sharded["sampling_times"], sharded["sigma_at_sampling_times"]
            ):
                print(f"  sigma(V_BLB) at {t * 1e9:.1f} ns = {sigma * 1e3:5.2f} mV")

            print("warm re-run: every shard resolves from the artifact cache ...")
            jobs_done_before = executor.status().get("stats", {}).get("jobs_done", 0)
            mismatch_monte_carlo(
                technology, samples=SAMPLES, seed=7, shards=SHARDS, engine=engine
            )
            jobs_done_after = executor.status().get("stats", {}).get("jobs_done", 0)
            print(
                f"  jobs crossing the wire: {jobs_done_after - jobs_done_before} "
                f"(engine cache hits: {engine.stats.cache_hits})"
            )

            status = executor.status()
            stats = status.get("stats")
            if stats is not None:
                print(
                    f"cluster status: {status['alive_workers']} workers alive, "
                    f"{stats['chunks_dispatched']} chunks dispatched, "
                    f"{stats['chunks_retried']} retried"
                )
    print("workers terminated; done")


if __name__ == "__main__":
    main()
