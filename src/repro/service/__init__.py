"""repro.service — asyncio serving front-end on top of the sweep engine.

Where :mod:`repro.runtime` turned every paper workload into deterministic,
cache-addressed sweep jobs behind one :class:`~repro.runtime.SweepEngine`,
this package turns that engine into a *long-lived multi-client system*: a
TCP service that accepts sweep requests (DSE corner grids, PVT/Monte-Carlo
batches, characterisation plans) from many concurrent clients, runs them on
worker threads so the event loop stays responsive, deduplicates identical
in-flight requests (single-flight) on top of the engine's artifact cache,
and streams per-job progress events back to every interested client.

Layout::

    protocol.py   service message constructors (framing shared via repro.wire)
    progress.py   thread-safe progress fan-out (engine callback -> asyncio)
    workloads.py  registry of servable workloads (dse / characterize / ...)
    server.py     SweepService: asyncio.start_server + single-flight
    client.py     ServiceClient (async) + run_sweep (sync convenience)

The service composes with the cluster tier (:mod:`repro.cluster`): built
on an engine whose executor is ``distributed``, every workload's jobs
shard across long-lived worker processes, and the ``montecarlo`` workload
additionally splits large Monte-Carlo PVT batches into
``SeedSequence``-stable sample ranges (``shards`` param) whose progress
merges back into each request's single stream.

Server side (or just ``python -m repro serve --port 7463``)::

    import asyncio
    from repro.runtime import ArtifactCache, SweepEngine
    from repro.service import SweepService

    async def main():
        engine = SweepEngine(cache=ArtifactCache(max_bytes=2_000_000_000))
        service = SweepService(engine, host="0.0.0.0", port=7463)
        await service.serve_forever()

    asyncio.run(main())

Client side::

    from repro.service import run_sweep

    result = run_sweep("127.0.0.1", 7463, "dse", {"fast": True},
                       on_progress=lambda d, t, label: print(d, "/", t, label))
    print(result.payload["selected"])      # Table I corner rows
    print(result.deduplicated)             # True when single-flighted

Concurrent identical requests execute once: the engine's stats (visible via
``ServiceClient.status()`` or ``python -m repro cache info`` on the shared
cache) show a single execution however many clients asked.

The service is hardened for flaky / untrusted-ish traffic (see
``docs/architecture.md`` and ``docs/operations.md``):

* a ``cancel`` op — or a client disconnect, which implies one — aborts a
  submitted sweep at the next job/chunk boundary once its *last*
  subscribed client is gone (single-flighted sweeps keep running while
  anyone still waits);
* per-client backpressure (``--max-inflight``, ``--max-queued-bytes``)
  answers over-budget submits with a structured ``busy``
  error (typed client-side as :class:`ServiceBusyError`) instead of
  accepting unbounded work;
* a persistent job journal (:mod:`repro.journal`) records every accepted
  job; ``python -m repro serve --resume`` replays whatever a killed
  server left interrupted, so resubmitted requests are served from cache,
  bit-identical to an uninterrupted run.

And it is **observable** (protocol v3, see :mod:`repro.obs` and
``docs/observability.md``): every submit is stamped with a ``trace`` id
that follows the sweep through the engine, the cluster coordinator and
the workers; ``python -m repro serve --metrics-port N`` serves the
process-wide Prometheus metrics; and the ``watch`` op
(:meth:`ServiceClient.watch`) streams the live event bus — submits,
cache hits, chunk dispatches, splits, cancellations — over the same
connection protocol.
"""

from __future__ import annotations

from repro.service.client import (
    ServiceBadRequestError,
    ServiceBusyError,
    ServiceCancelledError,
    ServiceClient,
    ServiceError,
    SweepResult,
    run_sweep,
)
from repro.service.protocol import (
    ERROR_CODES,
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.service.server import SweepService
from repro.service.workloads import (
    WorkloadFn,
    get_workload,
    register_workload,
    unregister_workload,
    workload_names,
)

__all__ = [
    "ERROR_CODES",
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServiceBadRequestError",
    "ServiceBusyError",
    "ServiceCancelledError",
    "ServiceClient",
    "ServiceError",
    "SweepResult",
    "SweepService",
    "WorkloadFn",
    "get_workload",
    "register_workload",
    "run_sweep",
    "unregister_workload",
    "workload_names",
]
