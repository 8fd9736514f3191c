"""Serving sweeps to many clients: the `repro.service` front door.

The script demonstrates the full multi-client story on one machine:

1. start a :class:`repro.service.SweepService` (the same thing
   ``python -m repro serve`` runs) on an ephemeral port, backed by one
   engine and one size-bounded artifact cache;
2. have two **concurrent** clients submit the *same* fast design-space
   exploration — the server single-flights them onto one execution, both
   receive streamed progress events and the result;
3. submit the sweep a third time — now the content-addressed artifact
   cache serves every job, so nothing executes at all;
4. show the cache's LRU eviction policy trimming a deliberately tiny
   cache while protecting the most recently used artifacts.

Run with::

    PYTHONPATH=src python examples/service_clients.py
"""

from __future__ import annotations

import asyncio
import tempfile

import numpy as np

from repro.runtime import ArtifactCache, SweepEngine, job_key
from repro.service import ServiceClient, SweepService


async def _serve_two_clients(cache_dir: str) -> None:
    engine = SweepEngine(cache=ArtifactCache(cache_dir))
    service = SweepService(engine)
    host, port = await service.start()
    print(f"service listening on {host}:{port}")

    progress_counts = {"alice": 0, "bob": 0}

    async def submit(name: str):
        async with ServiceClient(host, port) as client:
            def on_progress(done, total, label, name=name):
                progress_counts[name] += 1

            return await client.submit("dse", {"fast": True}, on_progress=on_progress)

    print("two clients submit the same fast DSE sweep concurrently ...")
    alice, bob = await asyncio.gather(submit("alice"), submit("bob"))
    for name, result in (("alice", alice), ("bob", bob)):
        best = result.payload["selected"][0]
        print(
            f"  {name:<5}: deduplicated={result.deduplicated!s:<5} "
            f"progress events={progress_counts[name]:3d} "
            f"fom corner error={best['eps_mul_lsb']:.3f} LSB"
        )
    print(f"  engine after both: {engine.stats.describe()}")

    print("a third, later submission is served by the artifact cache ...")
    executed_before = engine.stats.jobs_executed
    async with ServiceClient(host, port) as client:
        warm = await client.submit("dse", {"fast": True})
    print(
        f"  warm run: {engine.stats.jobs_executed - executed_before} jobs executed, "
        f"{warm.elapsed_seconds * 1e3:.0f} ms"
    )
    await service.stop()


def _lru_eviction_demo(cache_dir: str) -> None:
    import os
    import time

    print("size-bounded LRU eviction:")
    cache = ArtifactCache(cache_dir, max_bytes=1)  # absurdly small: always evicts
    keys = [job_key("lru-demo", index) for index in range(3)]
    for age, key in zip((300, 200, 100), keys):
        path = cache.put(key, np.zeros(512))
        stamp = time.time() - age
        os.utime(path, (stamp, stamp))
    survivors = [key[:12] for key in cache.keys()]
    print(f"  3 artifacts written into a 1-byte-budget cache -> survivors: {survivors}")
    print(f"  (the just-written artifact is always protected; {cache.stats.evictions} evicted)")


def main() -> None:
    with tempfile.TemporaryDirectory() as service_cache:
        asyncio.run(asyncio.wait_for(_serve_two_clients(service_cache), 300))
    with tempfile.TemporaryDirectory() as lru_cache:
        _lru_eviction_demo(lru_cache)


if __name__ == "__main__":
    main()
